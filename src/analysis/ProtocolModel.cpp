//===- ProtocolModel.cpp - Abstract accelerator FSM models ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolModel.h"

#include "parser/AcceleratorConfig.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::analysis;

using MM = sim::MatMulAccelerator;

ProtocolModel ProtocolModel::matmul(MM::Version Ver, int64_t Size) {
  ProtocolModel M;
  M.Fsm = sim::OpcodeFsm::matmul(Ver, Size);
  return M;
}

ProtocolModel ProtocolModel::conv(int64_t MaxWindowWords) {
  ProtocolModel M;
  M.Fsm = sim::OpcodeFsm::conv(MaxWindowWords);
  return M;
}

FailureOr<ProtocolModel>
ProtocolModel::forAccelerator(const parser::AcceleratorDesc &Accel,
                              std::string &Error) {
  if (Accel.Kernel == "linalg.matmul") {
    FailureOr<MM::Version> Version = MM::versionFromName(Accel.Name, Error);
    if (failed(Version))
      return failure();
    // Engine size from the largest configured tile, like axi4mlir-opt
    // --run sizes the simulated board.
    int64_t Size = 0;
    for (int64_t Tile : Accel.AccelSize)
      Size = std::max(Size, Tile);
    if (Size <= 0)
      Size = 8;
    return matmul(*Version, Size);
  }
  if (Accel.Kernel.find("conv") != std::string::npos)
    return conv();
  Error = "no protocol model for kernel '" + Accel.Kernel + "'";
  return failure();
}

std::string ProtocolModel::stateDescription() const {
  if (GaveUp)
    return "untracked";
  if (Fsm.idle())
    return "idle (expecting an opcode word)";
  if (Fsm.readingCfg())
    return "reading configuration words";
  return "mid-burst (" + std::to_string(Fsm.remaining()) +
         " payload words outstanding for " +
         sim::formatOpcode(Fsm.current()->Opcode) + ")";
}

bool ProtocolModel::operator==(const ProtocolModel &O) const {
  return sameFsmPosition(O) && Slice == O.Slice && PendingOut == O.PendingOut;
}

bool ProtocolModel::sameFsmPosition(const ProtocolModel &O) const {
  return GaveUp == O.GaveUp && Fsm == O.Fsm;
}

void ProtocolModel::extrapolateAccumulators(const ProtocolModel &AfterNext,
                                            int64_t TotalIters) {
  auto fold = [TotalIters](int64_t AfterOne, int64_t AfterTwo) -> int64_t {
    if (AfterOne < 0 || AfterTwo < 0)
      return -1;
    int64_t Delta = AfterTwo - AfterOne;
    if (Delta == 0)
      return AfterOne; // steady: every further iteration is a no-op
    if (TotalIters < 0)
      return -1; // grows by an unknown number of iterations
    return AfterOne + (TotalIters - 1) * Delta;
  };
  PendingOut = fold(PendingOut, AfterNext.PendingOut);
  Slice = fold(Slice, AfterNext.Slice);
}

std::string ProtocolModel::startOpcode(uint32_t Opcode) {
  if (!Fsm.start(Opcode))
    return Fsm.unsupportedOpcode(Opcode);
  if (Fsm.expected() < 0) {
    // Payload length from geometry an untracked cfg made unknown.
    giveUp();
    return "";
  }
  return Fsm.expected() == 0 ? finishPayload() : "";
}

std::string ProtocolModel::finishPayload() {
  uint8_t Effects = Fsm.current()->Effects;
  if (std::optional<std::string> Why = Fsm.finish())
    return *Why;
  if (Effects & sim::effect::NewSlice)
    Slice = 0;
  if (Effects & sim::effect::Compute)
    Slice = Fsm.sliceAfterCompute(Slice);
  if (Effects & sim::effect::Emit) {
    int64_t Words = Fsm.emitWords(Slice);
    PendingOut = PendingOut >= 0 && Words >= 0 ? PendingOut + Words : -1;
    Slice = 0;
  }
  return "";
}

std::string ProtocolModel::feedWord(const AbstractWord &W) {
  if (GaveUp)
    return "";
  if (Fsm.idle()) {
    if (W.K == AbstractWord::Kind::Const)
      return startOpcode(static_cast<uint32_t>(W.Value));
    if (W.K == AbstractWord::Kind::Data)
      return "data word streamed while the accelerator expects an opcode";
    giveUp(); // unknown word steering the FSM: stop tracking
    return "";
  }
  if (Fsm.readingCfg())
    Fsm.stageCfg(static_cast<uint32_t>(W.Value),
                 W.K == AbstractWord::Kind::Const);
  return Fsm.advance(1) ? finishPayload() : "";
}

std::string ProtocolModel::feedData(int64_t Count) {
  if (GaveUp || Count == 0)
    return "";
  if (Count < 0) {
    giveUp();
    return "";
  }
  if (Fsm.idle())
    return "data burst of " + std::to_string(Count) +
           " words streamed while the accelerator expects an opcode";
  if (Fsm.readingCfg()) {
    // Data words staged as cfg words have unknown values.
    while (Count > 0 && Fsm.readingCfg()) {
      std::string E = feedWord(AbstractWord::data());
      if (!E.empty())
        return E;
      --Count;
    }
    return Count > 0 ? feedData(Count) : "";
  }
  int64_t Remaining = Fsm.remaining();
  if (Count > Remaining) {
    // The overrun words land on the FSM in Idle state: a burst-length /
    // tile-dimension mismatch. A payload whose completion already fails
    // (a window that does not match the filter) stops the engine first.
    std::string E = "burst overruns " +
                    sim::formatOpcode(Fsm.current()->Opcode) +
                    ": expected " + std::to_string(Remaining) +
                    " more payload words, got " +
                    std::to_string(Count - Remaining) + " extra";
    Fsm.advance(Remaining);
    std::string Completion = finishPayload();
    return Completion.empty() ? E : Completion;
  }
  return Fsm.advance(Count) ? finishPayload() : "";
}

std::string ProtocolModel::feedRecv(int64_t Words) {
  if (GaveUp || Words == 0)
    return "";
  if (!Fsm.idle())
    return "receive issued while the accelerator is " + stateDescription();
  if (PendingOut < 0 || Words < 0)
    return ""; // unverifiable; the checker notes it in strict mode
  if (PendingOut == 0)
    return "receive expects output but the modeled accelerator has none "
           "pending (unreachable recv)";
  if (Words > PendingOut)
    return "receive of " + std::to_string(Words) +
           " words exceeds the " + std::to_string(PendingOut) +
           " modeled pending output words";
  PendingOut -= Words;
  return "";
}
