//===- MatMulAccelerator.h - Tile MatMul engines (Table I) ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v1..v4 tile-based MatMul accelerators of paper Table I:
///
///   | Type | Possible reuse     | Opcodes            | (Size, OPs/cycle) |
///   | v1   | Nothing            | sAsBcCrC           | (4,10)(8,60)(16,112)
///   | v2   | Inputs             | sA, sB, cCrC       |        "
///   | v3   | Inputs + Output    | sA, sB, cC, rC     |        "
///   | v4   | Ins/Out, flex size | cfg, sA, sB, cC, rC|        "
///
/// All versions share the word-level protocol; versions differ in which
/// opcodes they accept (reuse capability) and whether tile dimensions are
/// runtime-configurable (v4, paper Sec. IV-C). Data bursts land directly
/// in the internal operand buffers (word-at-a-time through the FSM, or
/// memcpy'd whole via the consumeBurst fast path).
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_MATMULACCELERATOR_H
#define AXI4MLIR_SIM_MATMULACCELERATOR_H

#include "sim/AcceleratorModel.h"

namespace axi4mlir {
namespace sim {

/// Behavioural model of one MatMul accelerator instance. The protocol is
/// MatMulOpcodes (OpcodeTable.h); this class holds the buffers and the
/// compute/emit bodies.
class MatMulAccelerator : public TableDrivenModel<MatMulAccelerator> {
public:
  using Version = MatMulVersion;

  /// \p Size is the supported square tile size (Table I). For V4 this is
  /// the default tile; cfg opcodes may change tM/tK/tN at runtime as long
  /// as each operand tile fits the buffer capacity.
  MatMulAccelerator(Version Ver, int64_t Size, ElemKind Kind,
                    const SoCParams &Params);

  /// Resolves the engine version from an anchored `_vN` token in an
  /// accelerator name (e.g. `matmul_v3_16`): the digits must be terminated
  /// by `_` or the end of the name, so `matmul_v12` is version 12 (rejected
  /// as unsupported) rather than a silent `v1` substring match. Conflicting
  /// tokens, missing tokens and unsupported versions fail with \p Error.
  /// Shared by axi4mlir-opt --run and the serve layer's SoC pool builder.
  static FailureOr<Version> versionFromName(const std::string &Name,
                                            std::string &Error);

  std::string getName() const override;
  void reset() override;
  std::unique_ptr<AcceleratorModel> cloneFresh() const override;

  int64_t getTileM() const { return Fsm.geometry().tileM(); }
  int64_t getTileN() const { return Fsm.geometry().tileN(); }
  int64_t getTileK() const { return Fsm.geometry().tileK(); }
  uint64_t getTilesComputed() const { return TilesComputed; }

private:
  friend class TableDrivenModel<MatMulAccelerator>;

  void copyPayload(Payload Load, size_t Pos, const uint32_t *Words,
                   size_t Count);
  void clearBuffers();
  void compute();
  template <ElemKind K> void computeTile();
  void emit();
  template <ElemKind K> void emitCImpl();

  ElemKind Kind;
  SoCParams Params;

  std::vector<uint32_t> BufA, BufB;
  std::vector<double> AccC; // accumulator (double covers i32 & f32 exactly)
  /// Scratch row accumulator for computeTile (persists across tiles to
  /// avoid per-compute allocation).
  std::vector<double> RowAcc;

  uint64_t TilesComputed = 0;
};

// Instantiated once, in MatMulAccelerator.cpp, where the hooks inline.
extern template class TableDrivenModel<MatMulAccelerator>;

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_MATMULACCELERATOR_H
