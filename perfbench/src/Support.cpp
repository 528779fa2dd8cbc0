//===- Support.cpp - Shared pieces of the benchmark -----------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Support.h"

#include "exec/Reference.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

using namespace perfbench;

Workload::~Workload() = default;

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Rank - double(Lo)) * (Values[Hi] - Values[Lo]);
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Values.size()));
}

double perfbench::relativeSpread(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  auto [Min, Max] = std::minmax_element(Samples.begin(), Samples.end());
  return *Min > 0 ? (*Max - *Min) / *Min : 0;
}

double perfbench::peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

bool perfbench::readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream OS;
  OS << In.rdbuf();
  Text = OS.str();
  return true;
}

//===----------------------------------------------------------------------===//
// Shapes, inputs and references
//===----------------------------------------------------------------------===//

Shape Shape::matmul(int64_t M, int64_t N, int64_t K) {
  Shape S;
  S.M = M;
  S.N = N;
  S.K = K;
  return S;
}

Shape Shape::conv(int64_t InC, int64_t InHW, int64_t OutC, int64_t FilterHW,
                  int64_t Stride) {
  Shape S;
  S.IsConv = true;
  S.InC = InC;
  S.InHW = InHW;
  S.OutC = OutC;
  S.FilterHW = FilterHW;
  S.Stride = Stride;
  return S;
}

std::string Shape::key() const {
  std::ostringstream OS;
  if (IsConv)
    OS << "conv" << InC << 'x' << InHW << 'x' << OutC << 'x' << FilterHW
       << 's' << Stride;
  else
    OS << "mm" << M << 'x' << N << 'x' << K;
  return OS.str();
}

namespace {

std::string memrefType(const std::vector<int64_t> &Dims) {
  std::ostringstream OS;
  OS << "memref<";
  for (int64_t D : Dims)
    OS << D << 'x';
  OS << "i32>";
  return OS.str();
}

std::vector<std::vector<int64_t>> operandDims(const Shape &S) {
  if (!S.IsConv)
    return {{S.M, S.K}, {S.K, S.N}, {S.M, S.N}};
  return {{1, S.InC, S.InHW, S.InHW},
          {S.OutC, S.InC, S.FilterHW, S.FilterHW},
          {1, S.OutC, S.outHW(), S.outHW()}};
}

} // namespace

std::string perfbench::mlirText(const Shape &S) {
  std::vector<std::vector<int64_t>> Dims = operandDims(S);
  std::string A = memrefType(Dims[0]), B = memrefType(Dims[1]),
              C = memrefType(Dims[2]);
  std::string Signature = "(" + A + ", " + B + ", " + C + ")";
  std::ostringstream OS;
  OS << "func.func() ({\n"
     << "^bb(%arg0: " << A << ", %arg1: " << B << ", %arg2: " << C << "):\n";
  if (S.IsConv)
    OS << "  linalg.conv_2d_nchw_fchw(%arg0, %arg1, %arg2) {num_inputs = 2, "
       << "strides = [" << S.Stride << ", " << S.Stride << "]} : "
       << Signature << " -> ()\n";
  else
    OS << "  linalg.matmul(%arg0, %arg1, %arg2) {num_inputs = 2} : "
       << Signature << " -> ()\n";
  OS << "  func.return() : () -> ()\n"
     << "}) {function_type = " << Signature << " -> (), sym_name = \""
     << (S.IsConv ? "conv_call" : "matmul_call") << "\"} : () -> ()\n";
  return OS.str();
}

std::vector<MemRefDesc> perfbench::makeOperands(const Shape &S,
                                                uint32_t DataSeed) {
  std::vector<MemRefDesc> Args;
  for (const std::vector<int64_t> &Dims : operandDims(S))
    Args.push_back(MemRefDesc::alloc(Dims, sim::ElemKind::I32));
  for (size_t I = 0; I < Args.size(); ++I)
    exec::fillRandom(Args[I], DataSeed + static_cast<uint32_t>(I));
  return Args;
}

std::vector<MemRefDesc>
perfbench::cloneOperands(const std::vector<MemRefDesc> &Args) {
  std::vector<MemRefDesc> Copies;
  for (const MemRefDesc &Arg : Args) {
    MemRefDesc Copy = MemRefDesc::alloc(Arg.Sizes, Arg.kind());
    Copy.Buffer->Data = Arg.Buffer->Data; // inputs are dense, offset 0
    Copies.push_back(std::move(Copy));
  }
  return Copies;
}

MemRefDesc perfbench::referenceOutput(const Shape &S,
                                      const std::vector<MemRefDesc> &Args) {
  MemRefDesc Out = exec::cloneMemRef(Args[2]);
  if (S.IsConv)
    exec::referenceConv2D(Args[0], Args[1], Out, S.Stride, S.Stride);
  else
    exec::referenceMatMul(Args[0], Args[1], Out);
  return Out;
}

bool perfbench::sameWords(const MemRefDesc &LHS, const MemRefDesc &RHS) {
  return LHS.Sizes == RHS.Sizes && LHS.Buffer->Data == RHS.Buffer->Data;
}

uint64_t perfbench::fnv1a(const MemRefDesc &Desc) {
  uint64_t Hash = 1469598103934665603ull;
  for (uint32_t Word : Desc.Buffer->Data)
    for (int Byte = 0; Byte < 4; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xffu;
      Hash *= 1099511628211ull;
    }
  return Hash;
}

//===----------------------------------------------------------------------===//
// Boards and the traced accelerator wrapper
//===----------------------------------------------------------------------===//

namespace {

/// Forwards every burst to the real model and times it. The DMA engine
/// drains the wrapper's own output FIFO, so each burst's output, compute
/// cycles and error state are moved over after the call (outside the
/// timed span). Used only in traced, fault-free runs.
class TimedAccelerator final : public sim::AcceleratorModel {
public:
  TimedAccelerator(std::unique_ptr<sim::AcceleratorModel> Inner,
                   AccelProbe &Probe)
      : Inner(std::move(Inner)), Probe(Probe) {}

  void consumeWord(uint32_t Word) override { consumeBurst(&Word, 1); }

  void consumeBurst(const uint32_t *Words, size_t Count) override {
    Clock::time_point Begin = Clock::now();
    Inner->consumeBurst(Words, Count);
    Probe.Ms += msBetween(Begin, Clock::now());
    ++Probe.Bursts;
    Probe.Words += Count;
    if (size_t Ready = Inner->outputAvailable()) {
      size_t Old = OutputFifo.size();
      OutputFifo.resize(Old + Ready);
      Inner->drainOutputInto(OutputFifo.data() + Old, Ready);
    }
    chargeCompute(Inner->takeComputeCycles());
    if (Inner->hadError() && !hadError())
      signalError(Inner->errorMessage());
  }

  std::string getName() const override { return Inner->getName(); }

  void reset() override {
    AcceleratorModel::reset();
    Inner->reset();
  }

  std::unique_ptr<AcceleratorModel> cloneFresh() const override {
    return Inner->cloneFresh();
  }

private:
  std::unique_ptr<sim::AcceleratorModel> Inner;
  AccelProbe &Probe;
};

} // namespace

std::unique_ptr<sim::SoC>
perfbench::makeBoard(const parser::AcceleratorDesc &Accel, AccelProbe *Probe,
                     std::string &Error) {
  sim::SoCParams Params;
  std::unique_ptr<sim::AcceleratorModel> Model;
  if (Accel.Kernel == "linalg.conv_2d_nchw_fchw") {
    Model = std::make_unique<sim::ConvAccelerator>(sim::ElemKind::I32, Params);
  } else {
    FailureOr<sim::MatMulAccelerator::Version> Version =
        sim::MatMulAccelerator::versionFromName(Accel.Name, Error);
    if (failed(Version))
      return nullptr;
    int64_t Size = 0;
    for (int64_t Tile : Accel.AccelSize)
      Size = std::max(Size, Tile);
    Model = std::make_unique<sim::MatMulAccelerator>(
        *Version, Size <= 0 ? 8 : Size, sim::ElemKind::I32, Params);
  }
  if (Probe)
    Model = std::make_unique<TimedAccelerator>(std::move(Model), *Probe);
  return std::make_unique<sim::SoC>(std::move(Model), Params);
}

std::vector<double> perfbench::addressFreeCounters(const sim::PerfReport &R) {
  return {double(R.Instructions), double(R.BranchInstructions),
          double(R.Loads),        double(R.Stores),
          double(R.DmaTransfers), double(R.DmaBytesMoved),
          R.FabricCycles};
}

void LayerSums::addReport(const sim::PerfReport &R) {
  add("sim.cache.l1d_accesses", double(R.L1DAccesses));
  add("sim.dma.transfers", double(R.DmaTransfers));
  add("sim.dma.bytes", double(R.DmaBytesMoved));
  add("sim.fabric_cycles", R.FabricCycles);
  add("sim.host_cycles", R.HostCycles);
}
