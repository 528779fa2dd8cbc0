//===- SCF.h - structured control flow dialect ------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `scf` dialect: scf.for / scf.yield. The tiling transformation emits
/// scf.for loop nests exactly as in paper Fig. 2b and Fig. 6b.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_DIALECTS_SCF_H
#define AXI4MLIR_DIALECTS_SCF_H

#include "dialects/OpView.h"

namespace axi4mlir {
namespace scf {

/// scf.for %iv = %lb to %ub step %step { body }. No iter_args (the host
/// driver code the paper generates does not need loop-carried values).
class ForOp : public OpView {
public:
  static constexpr const char *OpName = "scf.for";
  using OpView::OpView;

  static bool classof(const Operation *Op) { return Op->getName() == OpName; }

  /// Creates the loop; the body block (with its index argument) is created
  /// and terminated with scf.yield. The builder's insertion point is left
  /// after the loop.
  static ForOp create(OpBuilder &Builder, Value LowerBound, Value UpperBound,
                      Value Step);

  Value getLowerBound() const { return Op->getOperand(0); }
  Value getUpperBound() const { return Op->getOperand(1); }
  Value getStep() const { return Op->getOperand(2); }
  Block *getBody() const { return &Op->getRegion(0).front(); }
  Value getInductionVar() const { return getBody()->getArgument(0); }

  /// The op before the terminator, i.e. the insertion point for appending
  /// to the body.
  Operation *getBodyTerminator() const { return getBody()->getTerminator(); }
};

/// scf.yield: loop body terminator.
class YieldOp : public OpView {
public:
  static constexpr const char *OpName = "scf.yield";
  using OpView::OpView;

  static bool classof(const Operation *Op) { return Op->getName() == OpName; }

  static YieldOp create(OpBuilder &Builder);
};

void registerDialect(MLIRContext &Context);

} // namespace scf
} // namespace axi4mlir

#endif // AXI4MLIR_DIALECTS_SCF_H
