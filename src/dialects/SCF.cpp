//===- SCF.cpp - structured control flow implementation -------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dialects/SCF.h"

#include "ir/OpRegistry.h"

using namespace axi4mlir;
using namespace axi4mlir::scf;

ForOp scf::ForOp::create(OpBuilder &Builder, Value LowerBound,
                         Value UpperBound, Value Step) {
  Operation *Op = Builder.create(OpName, {LowerBound, UpperBound, Step}, {},
                                 {}, /*NumRegions=*/1);
  Block &Body = Op->getRegion(0).emplaceBlock();
  Body.addArgument(Type::getIndex(Builder.getContext()));
  // Terminate the body so callers can insert before the terminator.
  OpBuilder::InsertPoint Saved = Builder.saveInsertionPoint();
  Builder.setInsertionPointToEnd(&Body);
  YieldOp::create(Builder);
  Builder.restoreInsertionPoint(Saved);
  return ForOp(Op);
}

YieldOp scf::YieldOp::create(OpBuilder &Builder) {
  return YieldOp(Builder.create(OpName));
}

void scf::registerDialect(MLIRContext &Context) {
  OpRegistry &Registry = Context.getOpRegistry();
  Registry.registerOp(
      {ForOp::OpName, /*NumOperands=*/3, /*NumResults=*/0, /*NumRegions=*/1,
       /*IsTerminator=*/false, [](Operation *Op, std::string &Error) {
         for (unsigned I = 0; I < 3; ++I) {
           if (!Op->getOperand(I).getType().isIntOrIndex()) {
             Error = "scf.for bounds must be index-typed";
             return failure();
           }
         }
         if (Op->getRegion(0).empty() ||
             Op->getRegion(0).front().getNumArguments() != 1) {
           Error = "scf.for body must have exactly one index argument";
           return failure();
         }
         Block &Body = Op->getRegion(0).front();
         if (Body.empty() || Body.getTerminator()->getName() != "scf.yield") {
           Error = "scf.for body must terminate with scf.yield";
           return failure();
         }
         return success();
       }});
  Registry.registerOp({YieldOp::OpName, /*NumOperands=*/-1, /*NumResults=*/0,
                       /*NumRegions=*/0, /*IsTerminator=*/true, nullptr});
}
