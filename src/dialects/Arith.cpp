//===- Arith.cpp - arith dialect implementation ---------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dialects/Arith.h"

#include "ir/OpRegistry.h"

using namespace axi4mlir;
using namespace axi4mlir::arith;

ConstantOp arith::ConstantOp::createIndex(OpBuilder &Builder, int64_t Value) {
  return createInt(Builder, Value, Builder.getIndexType());
}

ConstantOp arith::ConstantOp::createInt(OpBuilder &Builder, int64_t Value,
                                        Type Ty) {
  assert(Ty.isIntOrIndex() && "integer constant requires int/index type");
  return ConstantOp(Builder.create(
      OpName, {}, {Ty}, {{"value", Attribute::getInteger(Value, Ty)}}));
}

ConstantOp arith::ConstantOp::createFloat(OpBuilder &Builder, double Value,
                                          Type Ty) {
  assert(Ty.isFloat() && "float constant requires float type");
  return ConstantOp(
      Builder.create(OpName, {}, {Ty}, {{"value", Attribute::getFloat(Value)}}));
}

BinaryOp arith::BinaryOp::create(OpBuilder &Builder, const std::string &Name,
                                 Value LHS, Value RHS) {
  assert(LHS.getType() == RHS.getType() &&
         "binary arith ops require matching operand types");
  return BinaryOp(Builder.create(Name, {LHS, RHS}, {LHS.getType()}));
}

void arith::registerDialect(MLIRContext &Context) {
  OpRegistry &Registry = Context.getOpRegistry();
  Registry.registerOp({ConstantOp::OpName, /*NumOperands=*/0,
                       /*NumResults=*/1, /*NumRegions=*/0,
                       /*IsTerminator=*/false,
                       [](Operation *Op, std::string &Error) {
                         if (!Op->hasAttr("value")) {
                           Error = "arith.constant requires a value attr";
                           return failure();
                         }
                         return success();
                       }});
  for (const char *Name :
       {"arith.addf", "arith.mulf", "arith.subf", "arith.divf", "arith.maxf",
        "arith.addi", "arith.muli", "arith.subi"}) {
    Registry.registerOp({Name, /*NumOperands=*/2, /*NumResults=*/1,
                         /*NumRegions=*/0, /*IsTerminator=*/false,
                         [](Operation *Op, std::string &Error) {
                           if (Op->getOperand(0).getType() !=
                               Op->getOperand(1).getType()) {
                             Error = "binary arith op operand types differ";
                             return failure();
                           }
                           return success();
                         }});
  }
  Registry.registerOp({IndexCastOp::OpName, /*NumOperands=*/1,
                       /*NumResults=*/1, /*NumRegions=*/0,
                       /*IsTerminator=*/false, nullptr});
}
