//===- ConvAccelerator.h - Conv2D accelerator (Sec. IV-D) -------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural model of the paper's convolution accelerator (Fig. 15):
/// filter + output stationary, computing one output slice (all elements of
/// one output channel) per iteration. Runtime-configurable input-channel
/// count and square filter size via the `rst` opcode sequence:
///
///   SET_FS, fH, SET_IC, iC        (configuration)
///   SF, <iC*fH*fW filter words>   (load the filter of one output channel)
///   SICO, <iC*fH*fW input words>  (one window -> one output value)
///   RO                            (emit all accumulated output values)
///
/// Filter and window bursts land directly in the internal buffers; the
/// consumeBurst fast path absorbs them at memcpy speed.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_CONVACCELERATOR_H
#define AXI4MLIR_SIM_CONVACCELERATOR_H

#include "sim/AcceleratorModel.h"

namespace axi4mlir {
namespace sim {

/// Behavioural model of the Conv2D accelerator. The protocol is
/// ConvOpcodes (OpcodeTable.h); this class holds the buffers and the
/// compute/emit bodies.
class ConvAccelerator : public TableDrivenModel<ConvAccelerator> {
public:
  /// Window-buffer capacity of the default engine build (256 channels of
  /// 7x7 filters). The static protocol model uses the same bound.
  static constexpr int64_t DefaultMaxWindowWords = 256 * 7 * 7;

  ConvAccelerator(ElemKind Kind, const SoCParams &Params,
                  int64_t MaxWindowWords = DefaultMaxWindowWords);

  std::string getName() const override { return "conv2d"; }
  void reset() override;
  std::unique_ptr<AcceleratorModel> cloneFresh() const override {
    return std::make_unique<ConvAccelerator>(Kind, Params, Fsm.capacity());
  }

  int64_t getInputChannels() const { return Fsm.geometry().channels(); }
  int64_t getFilterSize() const { return Fsm.geometry().filterSize(); }
  uint64_t getWindowsComputed() const { return WindowsComputed; }

private:
  friend class TableDrivenModel<ConvAccelerator>;

  void beginPayload(Payload Load, size_t Words) {
    (Load == Payload::Filter ? Filter : Window).resize(Words);
  }
  void copyPayload(Payload Load, size_t Pos, const uint32_t *Words,
                   size_t Count) {
    uint32_t *Dst = Load == Payload::Filter ? Filter.data() : Window.data();
    std::memcpy(Dst + Pos, Words, Count * sizeof(uint32_t));
  }
  /// Loading a new filter starts a new output slice.
  void newSlice() { OutputAcc.clear(); }
  void compute();
  void emit();
  template <ElemKind K> double windowDot() const;

  ElemKind Kind;
  SoCParams Params;

  std::vector<uint32_t> Filter;
  std::vector<uint32_t> Window;  // input window being received
  std::vector<double> OutputAcc; // output slice values, in emission order

  uint64_t WindowsComputed = 0;
};

// Instantiated once, in ConvAccelerator.cpp, where the hooks inline.
extern template class TableDrivenModel<ConvAccelerator>;

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_CONVACCELERATOR_H
