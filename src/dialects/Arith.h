//===- Arith.h - arith dialect ----------------------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `arith` dialect: constants and scalar arithmetic used by the
/// linalg.generic payload regions and by loop-bound/index computations.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_DIALECTS_ARITH_H
#define AXI4MLIR_DIALECTS_ARITH_H

#include "dialects/OpView.h"

namespace axi4mlir {
namespace arith {

/// arith.constant: a typed constant (index, integer or float).
class ConstantOp : public OpView {
public:
  static constexpr const char *OpName = "arith.constant";
  using OpView::OpView;

  static bool classof(const Operation *Op) { return Op->getName() == OpName; }

  static ConstantOp createIndex(OpBuilder &Builder, int64_t Value);
  static ConstantOp createInt(OpBuilder &Builder, int64_t Value, Type Ty);
  static ConstantOp createFloat(OpBuilder &Builder, double Value, Type Ty);

  Value getResult() const { return Op->getResult(0); }
  bool isFloatConstant() const {
    return Op->getAttr("value").getKind() == Attribute::Kind::Float;
  }
  int64_t getIntValue() const { return Op->getIntAttr("value"); }
  double getFloatValue() const {
    return Op->getAttr("value").getFloatValue();
  }
};

/// Binary elementwise arithmetic ops: addf/mulf/subf, addi/muli/subi.
class BinaryOp : public OpView {
public:
  using OpView::OpView;

  static bool classof(const Operation *Op) {
    const std::string &Name = Op->getName();
    return Name == "arith.addf" || Name == "arith.mulf" ||
           Name == "arith.subf" || Name == "arith.addi" ||
           Name == "arith.muli" || Name == "arith.subi" ||
           Name == "arith.divf" || Name == "arith.maxf";
  }

  static BinaryOp create(OpBuilder &Builder, const std::string &Name,
                         Value LHS, Value RHS);

  Value getLHS() const { return Op->getOperand(0); }
  Value getRHS() const { return Op->getOperand(1); }
  Value getResult() const { return Op->getResult(0); }
};

/// arith.index_cast: index <-> integer conversions.
class IndexCastOp : public OpView {
public:
  static constexpr const char *OpName = "arith.index_cast";
  using OpView::OpView;

  static bool classof(const Operation *Op) { return Op->getName() == OpName; }

  Value getResult() const { return Op->getResult(0); }
};

void registerDialect(MLIRContext &Context);

} // namespace arith
} // namespace axi4mlir

#endif // AXI4MLIR_DIALECTS_ARITH_H
