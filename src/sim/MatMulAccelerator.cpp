//===- MatMulAccelerator.cpp - Tile MatMul engine implementation ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/MatMulAccelerator.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::sim;

AcceleratorModel::~AcceleratorModel() = default;

void AcceleratorModel::reset() {
  OutputFifo.clear();
  OutputHead = 0;
  PendingComputeCycles = 0;
  ErrorFlag = false;
  ErrorText.clear();
  LastErrorText.clear();
  ErrorCount = 0;
  // Pending fault state clears; the attached injector (and its logical
  // cursors) survives, so a recovery reset does not forget the schedule.
  TransientPending = false;
  TransientDropped = 0;
  TransientText.clear();
  PendingStallSteps = 0;
}

std::unique_ptr<AcceleratorModel> AcceleratorModel::cloneFresh() const {
  return nullptr;
}

bool AcceleratorModel::opcodeFaultRefusal(uint32_t Opcode) {
  if (!kFaultHooksEnabled || !Injector)
    return false;
  const FaultEvent *Event = Injector->onOpcode();
  if (!Event)
    return false;
  if (Event->Kind == FaultKind::Stall) {
    PendingStallSteps += Event->Steps;
    return false;
  }
  TransientPending = true;
  TransientDropped = 1; // the refused opcode word itself
  TransientText = getName() + ": " + describeFault(*Event) +
                  " refused opcode " + formatOpcode(Opcode);
  return true;
}

std::vector<uint32_t> AcceleratorModel::drainOutput(size_t MaxWords) {
  size_t Count = std::min(MaxWords, outputAvailable());
  std::vector<uint32_t> Result(OutputFifo.begin() + OutputHead,
                               OutputFifo.begin() + OutputHead + Count);
  OutputHead += Count;
  recycleDrained();
  return Result;
}

size_t AcceleratorModel::drainOutputInto(uint32_t *Dst, size_t MaxWords) {
  size_t Count = std::min(MaxWords, outputAvailable());
  std::memcpy(Dst, OutputFifo.data() + OutputHead, Count * sizeof(uint32_t));
  OutputHead += Count;
  recycleDrained();
  return Count;
}

template class axi4mlir::sim::TableDrivenModel<MatMulAccelerator>;

MatMulAccelerator::MatMulAccelerator(Version Ver, int64_t Size, ElemKind Kind,
                                     const SoCParams &Params)
    : TableDrivenModel(OpcodeFsm::matmul(Ver, Size)), Kind(Kind),
      Params(Params) {
  reset();
}

std::string MatMulAccelerator::getName() const {
  return "matmul_v" + std::to_string(static_cast<int>(Fsm.version()) + 1) +
         "_" + std::to_string(Fsm.baseSize());
}

std::unique_ptr<AcceleratorModel> MatMulAccelerator::cloneFresh() const {
  return std::make_unique<MatMulAccelerator>(Fsm.version(), Fsm.baseSize(),
                                             Kind, Params);
}

void MatMulAccelerator::reset() {
  TableDrivenModel::reset();
  clearBuffers();
  TilesComputed = 0;
}

void MatMulAccelerator::clearBuffers() {
  // Sized to the current tile: a cfg resizes, a reset opcode only zeroes.
  BufA.assign(static_cast<size_t>(mulWords(getTileM(), getTileK())), 0);
  BufB.assign(static_cast<size_t>(mulWords(getTileK(), getTileN())), 0);
  AccC.assign(static_cast<size_t>(mulWords(getTileM(), getTileN())), 0.0);
}

void MatMulAccelerator::copyPayload(Payload Load, size_t Pos,
                                    const uint32_t *Words, size_t Count) {
  if (Load == Payload::B) {
    std::memcpy(BufB.data() + Pos, Words, Count * sizeof(uint32_t));
    return;
  }
  // A, or the v1 combined burst: A's words first, B's words after.
  size_t ASize = BufA.size();
  if (Pos < ASize) {
    size_t ToA = std::min(Count, ASize - Pos);
    std::memcpy(BufA.data() + Pos, Words, ToA * sizeof(uint32_t));
    Words += ToA;
    Count -= ToA;
    Pos = ASize;
  }
  if (Count > 0)
    std::memcpy(BufB.data() + (Pos - ASize), Words, Count * sizeof(uint32_t));
}

template <ElemKind K> void MatMulAccelerator::computeTile() {
  const int64_t TileM = getTileM(), TileK = getTileK(), TileN = getTileN();
  // C[m][n] += sum_k A[m][k] * B[k][n], elementwise on the configured
  // tile, in M-K-N order over a per-row accumulator so the inner loop
  // sweeps both B and the accumulator contiguously (SIMD-friendly).
  //
  // Each output element still receives its products in k order with one
  // final add into AccC — the identical FP operation sequence as the
  // per-element reference loop, so results stay bit-identical; the
  // interleaving across N merely lets the compiler vectorize the inner
  // sweep (contiguous loads, element-type conversion hoisted per kind
  // instead of branch-tested per MAC).
  const uint32_t *A = BufA.data();
  const uint32_t *B = BufB.data();
  double *C = AccC.data();
  std::vector<double> &Row = RowAcc;
  Row.assign(static_cast<size_t>(TileN), 0.0);
  for (int64_t M = 0; M < TileM; ++M) {
    const uint32_t *ARow = A + M * TileK;
    for (int64_t Kk = 0; Kk < TileK; ++Kk) {
      const uint32_t *BRow = B + Kk * TileN;
      double AVal = K == ElemKind::F32
                        ? static_cast<double>(wordToFloat(ARow[Kk]))
                        : static_cast<double>(static_cast<int32_t>(ARow[Kk]));
      if constexpr (K == ElemKind::F32) {
        for (int64_t N = 0; N < TileN; ++N)
          Row[N] += AVal * static_cast<double>(wordToFloat(BRow[N]));
      } else {
        for (int64_t N = 0; N < TileN; ++N)
          Row[N] +=
              AVal * static_cast<double>(static_cast<int32_t>(BRow[N]));
      }
    }
    for (int64_t N = 0; N < TileN; ++N) {
      C[M * TileN + N] += Row[N];
      Row[N] = 0.0;
    }
  }
}

void MatMulAccelerator::compute() {
  if (Kind == ElemKind::F32)
    computeTile<ElemKind::F32>();
  else
    computeTile<ElemKind::I32>();
  // Table I throughput: 2*M*N*K OPs at OPsPerCycle.
  double Ops = 2.0 * static_cast<double>(getTileM()) *
               static_cast<double>(getTileN()) *
               static_cast<double>(getTileK());
  chargeCompute(Ops / matmulOpsPerCycle(Fsm.baseSize()));
  ++TilesComputed;
}

template <ElemKind K> void MatMulAccelerator::emitCImpl() {
  size_t Elements = AccC.size();
  reserveOutput(Elements);
  for (size_t I = 0; I < Elements; ++I)
    pushOutput(valueToWord<K>(AccC[I]));
}

void MatMulAccelerator::emit() {
  if (Kind == ElemKind::F32)
    emitCImpl<ElemKind::F32>();
  else
    emitCImpl<ElemKind::I32>();
  // Delivering C clears the accumulator (partial results are accumulated
  // host-side via accel.recv {mode="accumulate"}).
  AccC.assign(AccC.size(), 0.0);
}

FailureOr<MatMulAccelerator::Version>
MatMulAccelerator::versionFromName(const std::string &Name,
                                   std::string &Error) {
  int64_t Found = -1;
  for (size_t Pos = Name.find("_v"); Pos != std::string::npos;
       Pos = Name.find("_v", Pos + 1)) {
    size_t DigitsStart = Pos + 2;
    size_t DigitsEnd = DigitsStart;
    while (DigitsEnd < Name.size() && Name[DigitsEnd] >= '0' &&
           Name[DigitsEnd] <= '9')
      ++DigitsEnd;
    if (DigitsEnd == DigitsStart)
      continue; // `_v` not followed by digits.
    if (DigitsEnd < Name.size() && Name[DigitsEnd] != '_')
      continue; // Not an anchored token (e.g. `_v4x`).
    if (DigitsEnd - DigitsStart > 9) {
      Error = "version token '" + Name.substr(Pos + 1, DigitsEnd - Pos - 1) +
              "' in accelerator name '" + Name + "' is out of range";
      return failure();
    }
    int64_t Version = 0;
    for (size_t I = DigitsStart; I < DigitsEnd; ++I)
      Version = Version * 10 + (Name[I] - '0');
    if (Found >= 0 && Found != Version) {
      Error = "accelerator name '" + Name +
              "' carries conflicting _vN version tokens";
      return failure();
    }
    Found = Version;
  }
  if (Found < 0) {
    Error = "cannot infer the engine version from accelerator name '" +
            Name + "' (expected an anchored _vN token, e.g. 'matmul_v3_16')";
    return failure();
  }
  if (Found >= 1 && Found <= 4)
    return static_cast<Version>(Found - 1);
  Error = "accelerator name '" + Name + "' requests unsupported version v" +
          std::to_string(Found) + " (supported: v1-v4)";
  return failure();
}
