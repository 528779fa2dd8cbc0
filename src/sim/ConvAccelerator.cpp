//===- ConvAccelerator.cpp - Conv2D accelerator implementation ------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/ConvAccelerator.h"

using namespace axi4mlir;
using namespace axi4mlir::sim;

template class axi4mlir::sim::TableDrivenModel<ConvAccelerator>;

ConvAccelerator::ConvAccelerator(ElemKind Kind, const SoCParams &Params,
                                 int64_t MaxWindowWords)
    : TableDrivenModel(OpcodeFsm::conv(MaxWindowWords)), Kind(Kind),
      Params(Params) {
  reset();
}

void ConvAccelerator::reset() {
  TableDrivenModel::reset();
  Filter.clear();
  Window.clear();
  OutputAcc.clear();
  WindowsComputed = 0;
}

template <ElemKind K> double ConvAccelerator::windowDot() const {
  // Inner product of the window against the filter -> one output value.
  // f32 adds products in stream order; i32 accumulates exactly in 64-bit
  // integers (SIMD-friendly; exact wherever the double-rounded reference
  // sum was representable).
  const uint32_t *W = Window.data();
  const uint32_t *F = Filter.data();
  size_t E = Window.size();
  if constexpr (K == ElemKind::F32) {
    double Sum = 0;
    for (size_t I = 0; I < E; ++I)
      Sum += static_cast<double>(wordToFloat(W[I])) *
             static_cast<double>(wordToFloat(F[I]));
    return Sum;
  } else {
    uint64_t Sum = 0;
    for (size_t I = 0; I < E; ++I)
      Sum += static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(W[I])) *
          static_cast<int64_t>(static_cast<int32_t>(F[I])));
    return static_cast<double>(static_cast<int64_t>(Sum));
  }
}

void ConvAccelerator::compute() {
  // The opcode table already proved the window matches the loaded filter.
  OutputAcc.push_back(Kind == ElemKind::F32 ? windowDot<ElemKind::F32>()
                                            : windowDot<ElemKind::I32>());
  chargeCompute(2.0 * static_cast<double>(Window.size()) / convOpsPerCycle());
  ++WindowsComputed;
}

void ConvAccelerator::emit() {
  reserveOutput(OutputAcc.size());
  if (Kind == ElemKind::F32)
    for (double Value : OutputAcc)
      pushOutput(valueToWord<ElemKind::F32>(Value));
  else
    for (double Value : OutputAcc)
      pushOutput(valueToWord<ElemKind::I32>(Value));
  OutputAcc.clear();
}
