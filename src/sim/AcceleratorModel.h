//===- AcceleratorModel.h - Accelerator behavioural models ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The behavioural contract of the simulated AXI-Stream accelerators: a
/// word-level micro-ISA state machine fed by the DMA engine. This replaces
/// the paper's SECDA-TFLite-derived HLS accelerators on the PYNQ-Z2 fabric
/// (Table I) while preserving their externally visible behaviour: opcodes,
/// stream ordering, stationarity/reuse, buffer capacities and Table I
/// throughput.
///
/// Two ingest granularities are exposed. consumeWord() is the semantic
/// reference: one FSM step per 32-bit stream word. consumeBurst() is the
/// production datapath the DMA engine drives: whole AXI-Stream bursts
/// absorbed at line rate (data words memcpy'd straight into the internal
/// buffers, one FSM step per opcode instead of per word). Both must be
/// observationally identical — same output FIFO contents, same modeled
/// compute cycles, same error behaviour for the same stream, regardless of
/// how the stream is split into bursts. StreamEquivalenceTest enforces
/// this contract for every model.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_ACCELERATORMODEL_H
#define AXI4MLIR_SIM_ACCELERATORMODEL_H

#include "sim/AccelStatus.h"
#include "sim/CostModel.h"
#include "sim/FaultInjector.h"
#include "sim/OpcodeTable.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace sim {

/// Element interpretation of the 32-bit stream words.
enum class ElemKind { I32, F32 };

/// Base class of all accelerator behavioural models. The DMA engine feeds
/// whole bursts through consumeBurst() and collects results from the
/// output FIFO. Compute time is accumulated in fabric cycles and harvested
/// by the DMA engine via takeComputeCycles().
class AcceleratorModel {
public:
  virtual ~AcceleratorModel();

  /// Consumes one input-stream word (opcode or data). The word-at-a-time
  /// semantic reference.
  virtual void consumeWord(uint32_t Word) = 0;

  /// Consumes \p Count stream words as one burst: the fast path that
  /// absorbs data bursts at memcpy speed. Words after a protocol error
  /// are dropped, exactly as consumeWord() drops them.
  virtual void consumeBurst(const uint32_t *Words, size_t Count) = 0;

  /// Human-readable model name for diagnostics ("matmul_v3_16", ...).
  virtual std::string getName() const = 0;

  /// Full reset (also clears the error flag and output FIFO).
  virtual void reset();

  /// Pops up to \p MaxWords words from the output FIFO.
  std::vector<uint32_t> drainOutput(size_t MaxWords);

  /// Pops up to \p MaxWords words from the output FIFO directly into
  /// \p Dst (no intermediate allocation). Returns the words copied.
  size_t drainOutputInto(uint32_t *Dst, size_t MaxWords);

  size_t outputAvailable() const { return OutputFifo.size() - OutputHead; }

  /// Compute cycles accumulated since the last call.
  double takeComputeCycles() {
    double Cycles = PendingComputeCycles;
    PendingComputeCycles = 0;
    return Cycles;
  }

  /// True after a protocol error (unknown opcode, buffer overflow). Tests
  /// assert this stays false.
  bool hadError() const { return ErrorFlag; }
  /// First error message of the run (the root cause).
  const std::string &errorMessage() const { return ErrorText; }
  /// Most recent error message (cascades are debuggable: first + last).
  const std::string &lastErrorMessage() const { return LastErrorText; }
  /// Monotone count of errors signalled since the last full reset.
  uint64_t errorCount() const { return ErrorCount; }

  /// Structured view of the model state: Fatal after a protocol error,
  /// Transient while a refused opcode awaits retry, Ok otherwise.
  AccelStatus status() const {
    if (ErrorFlag)
      return AccelStatus::Fatal;
    if (TransientPending)
      return AccelStatus::Transient;
    return AccelStatus::Ok;
  }

  /// Fault-injection hook (zero-cost when no injector is attached): the
  /// model consults the injector per opcode; the DMA engine harvests the
  /// resulting transient refusals and stall steps after each burst.
  void attachFaultInjector(FaultInjector *I) { Injector = I; }
  FaultInjector *faultInjector() const { return Injector; }

  /// True while the model refuses input after a transient-error fault.
  bool transientPending() const { return TransientPending; }
  const std::string &transientMessage() const { return TransientText; }
  /// Clears the transient refusal and returns how many stream words were
  /// dropped since it fired (including the refused opcode word) — exactly
  /// the suffix the DMA engine must re-send.
  size_t takeTransientDropped() {
    size_t Dropped = TransientDropped;
    TransientPending = false;
    TransientDropped = 0;
    return Dropped;
  }

  /// FSM stall steps accrued by injected stall faults since the last call.
  uint64_t takeStallSteps() {
    uint64_t Steps = PendingStallSteps;
    PendingStallSteps = 0;
    return Steps;
  }

  /// A fresh, fault-free instance of the same model (same geometry and
  /// element kind). The recovery layer uses it as the host-executed CPU
  /// fallback when retries are exhausted and no spare is attached.
  virtual std::unique_ptr<AcceleratorModel> cloneFresh() const;

protected:
  void pushOutput(uint32_t Word) { OutputFifo.push_back(Word); }
  void reserveOutput(size_t Words) {
    OutputFifo.reserve(OutputFifo.size() + Words);
  }
  void chargeCompute(double Cycles) { PendingComputeCycles += Cycles; }
  void signalError(const std::string &Message) {
    ErrorFlag = true;
    ++ErrorCount;
    if (ErrorText.empty())
      ErrorText = Message;
    LastErrorText = Message;
  }

  /// Consults the injector for the opcode about to start. Returns true if
  /// the opcode must be refused (transient-error fault): the model then
  /// stays in its current state and drops the rest of the stream until the
  /// DMA engine harvests the refusal — which makes the behaviour identical
  /// under word-at-a-time and burst delivery.
  bool opcodeFaultRefusal(uint32_t Opcode);

  /// True when the model is dropping input (sticky error or pending
  /// transient refusal); counts the dropped words so the engine knows the
  /// exact suffix to retry.
  bool droppingInput(size_t Count) {
    if (ErrorFlag)
      return true;
    if (kFaultHooksEnabled && TransientPending) {
      TransientDropped += Count;
      return true;
    }
    return false;
  }

  /// Output FIFO as a flat vector + head cursor (a deque paid a chunked
  /// indirection per word). Drained storage is recycled: freed outright
  /// once fully drained, compacted once the dead prefix dominates — so
  /// persistent partial drains cannot grow the FIFO without bound.
  void recycleDrained() {
    if (OutputHead == OutputFifo.size()) {
      OutputFifo.clear();
      OutputHead = 0;
    } else if (OutputHead >= 1024 && OutputHead >= OutputFifo.size() / 2) {
      OutputFifo.erase(OutputFifo.begin(),
                       OutputFifo.begin() +
                           static_cast<std::ptrdiff_t>(OutputHead));
      OutputHead = 0;
    }
  }

  std::vector<uint32_t> OutputFifo;
  size_t OutputHead = 0;
  double PendingComputeCycles = 0;
  bool ErrorFlag = false;
  std::string ErrorText;
  std::string LastErrorText;
  uint64_t ErrorCount = 0;
  // Fault-hook state. The injector pointer survives reset() (the recovery
  // layer resets the model without forgetting the schedule); the pending
  // refusal/stall state does not.
  FaultInjector *Injector = nullptr;
  bool TransientPending = false;
  size_t TransientDropped = 0;
  std::string TransientText;
  uint64_t PendingStallSteps = 0;
};

/// The simulator side of an accelerator's opcode table: consumeWord /
/// consumeBurst step one OpcodeFsm, and \p Derived supplies only its
/// buffers through these hooks (beginPayload, clearBuffers and newSlice
/// default to no-ops):
///
///   void copyPayload(Payload, size_t Pos, const uint32_t *, size_t);
///   void beginPayload(Payload, size_t Words); // size a data buffer
///   void clearBuffers(); void newSlice(); void compute(); void emit();
///
/// The hooks are resolved statically: no virtual call per opcode, and the
/// data bursts still land in the derived buffers at memcpy speed.
template <typename Derived> class TableDrivenModel : public AcceleratorModel {
public:
  void consumeWord(uint32_t Word) override {
    if (droppingInput(1))
      return;
    if (Fsm.idle()) {
      if (!opcodeFaultRefusal(Word))
        startOpcode(Word);
      return;
    }
    copyIn(&Word, 1);
    if (Fsm.advance(1))
      finishBurst();
  }

  void consumeBurst(const uint32_t *Words, size_t Count) override {
    while (Count > 0) {
      if (droppingInput(Count))
        return; // drop the rest, like the word path
      if (Fsm.idle()) {
        // A refused opcode is already counted as dropped.
        if (!opcodeFaultRefusal(*Words))
          startOpcode(*Words);
        ++Words;
        --Count;
        continue;
      }
      // Absorb as much of the pending payload as this transfer holds in
      // one shot: no per-word FSM step, no staging copy.
      size_t Take = std::min(Count, static_cast<size_t>(Fsm.remaining()));
      copyIn(Words, Take);
      Words += Take;
      Count -= Take;
      if (Fsm.advance(static_cast<int64_t>(Take)))
        finishBurst();
    }
  }

  void reset() override {
    AcceleratorModel::reset();
    Fsm.reset();
  }

protected:
  explicit TableDrivenModel(const OpcodeFsm &Fsm) : Fsm(Fsm) {}

  /// The burst plumbing is protected (not private) so tests can pin the
  /// out-of-protocol paths: calling either while idle must signal a
  /// diagnosable error, never Release-mode UB.
  /// Copies \p Count payload words to position fill() of the current
  /// opcode's payload (cfg words stage in the FSM).
  void copyIn(const uint32_t *Words, size_t Count) {
    if (Fsm.idle()) {
      signalError(getName() + ": copyIn in Idle state (protocol violation)");
      return;
    }
    if (Fsm.readingCfg())
      Fsm.stageCfg(Words, Count);
    else
      self().copyPayload(Fsm.current()->Load,
                         static_cast<size_t>(Fsm.fill()), Words, Count);
  }

  /// Completes the current opcode: its geometry rule, then its effects.
  void finishBurst() {
    if (Fsm.idle()) {
      signalError(getName() +
                  ": finishBurst in Idle state (protocol violation)");
      return;
    }
    uint8_t Effects = Fsm.current()->Effects;
    if (std::optional<std::string> Why = Fsm.finish()) {
      signalError(getName() + ": " + *Why);
      return;
    }
    if (Effects & effect::ClearBuffers)
      self().clearBuffers();
    if (Effects & effect::NewSlice)
      self().newSlice();
    if (Effects & effect::Compute)
      self().compute();
    if (Effects & effect::Emit)
      self().emit();
  }

  // Defaults for the optional hooks.
  void beginPayload(Payload, size_t) {}
  void clearBuffers() {}
  void newSlice() {}

  OpcodeFsm Fsm;

private:
  Derived &self() { return static_cast<Derived &>(*this); }

  void startOpcode(uint32_t Opcode) {
    if (!Fsm.start(Opcode)) {
      signalError(getName() + ": " + Fsm.unsupportedOpcode(Opcode));
      return;
    }
    if (Fsm.expected() == 0)
      finishBurst();
    else if (!Fsm.readingCfg()) // cfg words stage in the FSM
      self().beginPayload(Fsm.current()->Load,
                          static_cast<size_t>(Fsm.expected()));
  }
};

/// Bit-level conversions between stream words and element values.
inline float wordToFloat(uint32_t Word) {
  float Result;
  __builtin_memcpy(&Result, &Word, sizeof(Result));
  return Result;
}
inline uint32_t floatToWord(float Value) {
  uint32_t Result;
  __builtin_memcpy(&Result, &Value, sizeof(Result));
  return Result;
}

/// Element value -> stream word, matching the reference emission path.
template <ElemKind Kind> inline uint32_t valueToWord(double Value) {
  if constexpr (Kind == ElemKind::F32)
    return floatToWord(static_cast<float>(Value));
  else
    return static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int64_t>(Value)));
}

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_ACCELERATORMODEL_H
