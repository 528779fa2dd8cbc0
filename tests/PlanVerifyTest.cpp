//===- PlanVerifyTest.cpp - Static plan verifier mutation tests -----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract that keeps the static verifier (src/analysis) honest:
/// every compiled plan in the repository verifies clean at every
/// optimizer stage, and a known-good plan corrupted along each mutation
/// class the verifier claims to catch — swapped jump targets, staging
/// copies escaping the DMA region, dropped transfer waits, protocol
/// (opcode-stream) violations, use-before-def, out-of-range slots,
/// non-positive loop steps — is rejected with an instruction-level
/// diagnostic. Mutations go through PlanView's explicit escape hatch;
/// nothing executes.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "analysis/ProtocolChecker.h"
#include "analysis/PlanView.h"
#include "analysis/ProtocolModel.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/Pipeline.h"
#include "exec/opt/PlanOpt.h"
#include "transforms/Passes.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using analysis::PlanView;
using V = sim::MatMulAccelerator::Version;
using POp = PlanView::Op;
using Inst = PlanView::Inst;

namespace {

/// Builds an 16x16x16 i32 matmul, lowers it to the axirt runtime-call
/// level against a v3 8-tile accelerator, and compiles the ExecPlan the
/// tests then corrupt. Returns nullptr (with ADD_FAILURE) on any error.
std::unique_ptr<ExecPlan> compilePlan(parser::AcceleratorDesc &AccelOut,
                                      bool FuseTransferPairs = true,
                                      const std::string &Flow = "Ns") {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  AccelOut = parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, Flow));

  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::convertNamedToGeneric(Func, Error)) ||
      failed(transforms::matchAndAnnotate(Func, AccelOut, Error)) ||
      failed(transforms::lowerToAccel(Func, Options, Error)) ||
      failed(transforms::convertAccelToRuntime(Func, Error))) {
    ADD_FAILURE() << "lowering failed: " << Error;
    return nullptr;
  }
  auto Plan = ExecPlan::compile(Func, Error, FuseTransferPairs);
  if (!Plan)
    ADD_FAILURE() << "plan compilation failed: " << Error;
  return Plan;
}

/// Index of the first instruction matching \p Pred, or -1.
template <typename Pred> int64_t findInst(ExecPlan &Plan, Pred &&P) {
  std::vector<Inst> &Program = PlanView::mutableProgram(Plan);
  for (size_t I = 0; I < Program.size(); ++I)
    if (P(Program[I]))
      return static_cast<int64_t>(I);
  return -1;
}

/// True when some error diagnostic contains \p Needle; on failure prints
/// everything the verifier reported.
void expectError(const analysis::VerifyResult &Result,
                 const std::string &Needle) {
  for (const analysis::PlanDiag &D : Result.Errors) {
    if (D.Message.find(Needle) != std::string::npos) {
      // Instruction-level: the diagnostic names a pc (or is a whole-plan
      // end-state finding, which still carries the pc of the culprit).
      EXPECT_TRUE(D.Message.rfind("pc ", 0) == 0 || D.Pc < 0)
          << D.Message;
      return;
    }
  }
  ADD_FAILURE() << "no error diagnostic contains '" << Needle << "'; got:\n"
                << Result.toString();
}

//===----------------------------------------------------------------------===//
// Positive: everything in the repo verifies clean, at every stage
//===----------------------------------------------------------------------===//

TEST(PlanVerify, CleanPlanVerifiesAtEveryStage) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);

  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  analysis::VerifyResult Compiled = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Compiled.Errors.empty()) << Compiled.toString();
  EXPECT_TRUE(Compiled.Warnings.empty()) << Compiled.toString();

  // Verify-each between fold -> licm -> coalesce -> dce must stay clean,
  // and the final optimized plan must re-verify including the protocol.
  opt::PlanOptOptions OptOptions = opt::PlanOptOptions::all();
  OptOptions.VerifyEach = true;
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, OptOptions);
  EXPECT_GT(Stats.total(), 0u);
  EXPECT_TRUE(Stats.VerifyError.empty())
      << "after " << Stats.VerifyFailedPass << ": " << Stats.VerifyError;
  analysis::VerifyResult Optimized = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Optimized.Errors.empty()) << Optimized.toString();
}

TEST(PlanVerify, UnfusedPlanVerifiesClean) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel, /*FuseTransferPairs=*/false);
  ASSERT_TRUE(Plan);
  analysis::VerifyResult Result = analysis::verifyPlan(*Plan);
  EXPECT_TRUE(Result.Errors.empty()) << Result.toString();
}

//===----------------------------------------------------------------------===//
// Mutation classes (each must be rejected with a pc-level diagnostic)
//===----------------------------------------------------------------------===//

TEST(PlanVerify, SwappedJumpTargetRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Loop =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::LoopBegin; });
  ASSERT_GE(Loop, 0) << "expected a loop in the lowered plan";
  // Retarget the zero-trip jump one instruction early: it no longer
  // points just past this loop's end.
  PlanView::mutableProgram(*Plan)[Loop].Aux -= 1;
  expectError(analysis::verifyPlan(*Plan), "jump target");
}

TEST(PlanVerify, StagingCopyOutsideDmaRegionRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  ASSERT_FALSE(PlanView::mutableDmaConfigs(*Plan).empty());
  // Shrink the DMA input window to two words: the 8x8 tile staging
  // copies now provably overflow the region.
  PlanView::mutableDmaConfigs(*Plan)[0].InputBufferSize = 8;
  expectError(analysis::verifyPlan(*Plan), "holds only");
}

TEST(PlanVerify, DroppedWaitRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  // Demote the first fused send (start+wait in one dispatch) to a bare
  // start: its completion is never awaited. Same fields, no pc shifts.
  int64_t Send = findInst(
      *Plan, [](const Inst &I) { return I.Code == POp::CallSendFused; });
  ASSERT_GE(Send, 0) << "expected a fused send in the lowered plan";
  PlanView::mutableProgram(*Plan)[Send].Code = POp::CallStartSend;
  analysis::VerifyResult Result = analysis::verifyPlan(*Plan);
  ASSERT_FALSE(Result.Errors.empty());
  bool Found = false;
  for (const analysis::PlanDiag &D : Result.Errors)
    Found = Found ||
            D.Message.find("still outstanding") != std::string::npos ||
            D.Message.find("never awaited") != std::string::npos;
  EXPECT_TRUE(Found) << Result.toString();
}

TEST(PlanVerify, CorruptedOpcodeStreamRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  // Rewrite the staged sA opcode literal (0x22) to a word the v3 FSM
  // does not accept: the modeled accelerator sees a bogus opcode.
  int64_t BadConst = findInst(*Plan, [](const Inst &I) {
    return I.Code == POp::ConstInt && I.Imm == 0x22;
  });
  ASSERT_GE(BadConst, 0) << "expected the sA opcode literal";
  PlanView::mutableProgram(*Plan)[BadConst].Imm = 0x77;
  expectError(analysis::verifyPlan(*Plan, Options), "not supported");
}

TEST(PlanVerify, UseBeforeDefRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Copy = findInst(
      *Plan, [](const Inst &I) { return I.Code == POp::CallCopyToDma; });
  ASSERT_GE(Copy, 0) << "expected a staging copy in the lowered plan";
  // Slots are SSA: reading the instruction's own (not yet written)
  // end-offset result as the start offset is a definite use-before-def.
  Inst &I = PlanView::mutableProgram(*Plan)[Copy];
  I.B = I.Dst;
  expectError(analysis::verifyPlan(*Plan), "before any definition");
}

TEST(PlanVerify, SlotOutOfRangeRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Const =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::ConstInt; });
  ASSERT_GE(Const, 0);
  PlanView::mutableProgram(*Plan)[Const].Dst =
      static_cast<int32_t>(analysis::PlanView(*Plan).numSlots()) + 7;
  expectError(analysis::verifyPlan(*Plan), "outside the plan's");
}

TEST(PlanVerify, NonPositiveLoopStepRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::vector<Inst> &Program = PlanView::mutableProgram(*Plan);
  int64_t Loop =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::LoopBegin; });
  ASSERT_GE(Loop, 0);
  int32_t StepSlot = Program[Loop].C;
  int64_t StepConst = findInst(*Plan, [&](const Inst &I) {
    return I.Code == POp::ConstInt && I.Dst == StepSlot;
  });
  ASSERT_GE(StepConst, 0) << "expected a constant loop step";
  Program[StepConst].Imm = 0;
  expectError(analysis::verifyPlan(*Plan), "not positive");
}

//===----------------------------------------------------------------------===//
// Config-level protocol diagnostics (one case per diagnostic class)
//===----------------------------------------------------------------------===//

/// A one-accelerator config: a matmul (dims m, n, k; A, B, C operands)
/// or, when \p Kernel names a conv, the Fig. 15a conv geometry.
std::string protocolConfig(const std::string &Name, const std::string &OpMap,
                           const std::string &Flow,
                           const std::string &Init = "(reset)",
                           const std::string &Kernel = "linalg.matmul",
                           const std::string &AccelSize = "[8, 8, 8]") {
  bool Conv = Kernel.find("conv") != std::string::npos;
  return std::string("{ \"accelerators\": [ { \"name\": \"") + Name +
         "\", \"kernel\": \"" + Kernel + "\", \"data_type\": \"int32\", " +
         "\"accel_size\": " + AccelSize + ", " +
         (Conv ? "\"dims\": [b, oc, oh, ow, ic, fh, fw], \"data\": { \"I\": "
                 "[b, ic, h, w], \"W\": [oc, ic, fh, fw], \"O\": [b, oc, oh, "
                 "ow] }, "
               : "\"dims\": [m, n, k], \"data\": { \"A\": [m, k], \"B\": "
                 "[k, n], \"C\": [m, n] }, ") +
         "\"opcode_map\": \"opcode_map< " + OpMap + " >\", " +
         "\"opcode_flow_map\": { \"F\": \"" + Flow + "\" }, " +
         "\"selected_flow\": \"F\", \"init_opcodes\": \"" + Init +
         "\" } ] }";
}

const char *V3Ops = "sA = [send_literal(0x22), send(0)], "
                    "sB = [send_literal(0x23), send(1)], "
                    "cC = [send_literal(0xF0)], "
                    "rC = [send_literal(0x24), recv(2)], "
                    "reset = [send_literal(0xFF)]";

analysis::ProtocolFindings checkConfig(const std::string &Json) {
  std::string Error;
  auto Config = parser::parseSystemConfig(Json, &Error);
  if (failed(Config) || Config->Accelerators.empty()) {
    ADD_FAILURE() << "config does not parse: " << Error << "\n" << Json;
    return {};
  }
  return analysis::checkConfigProtocol(Config->Accelerators.front());
}

/// True when some finding in \p List contains \p Needle.
void expectFinding(const std::vector<std::string> &List,
                   const std::string &Needle) {
  for (const std::string &Msg : List)
    if (Msg.find(Needle) != std::string::npos)
      return;
  std::string All;
  for (const std::string &Msg : List)
    All += "  " + Msg + "\n";
  ADD_FAILURE() << "no finding contains '" << Needle << "'; got:\n" << All;
}

TEST(ConfigProtocol, CheckedInStyleConfigIsClean) {
  analysis::ProtocolFindings F =
      checkConfig(protocolConfig("matmul_v3_8", V3Ops, "(sA (sB cC rC))"));
  EXPECT_TRUE(F.ok(/*Strict=*/true));
}

TEST(ConfigProtocol, OpcodeTheVersionDoesNotImplement) {
  // cfg (0x10) is v4-only; a v3 engine rejects it.
  std::string Ops = std::string(V3Ops) +
                    ", cfg = [send_literal(0x10), send_literal(8), "
                    "send_literal(8), send_literal(8)]";
  expectFinding(
      checkConfig(protocolConfig("matmul_v3_8", Ops, "(sA sB cC rC)",
                                 "(reset cfg)"))
          .Errors,
      "not supported");
}

TEST(ConfigProtocol, DataBurstWhileExpectingOpcode) {
  // The tile is streamed ahead of its opcode word.
  std::string Ops = "sA = [send(0), send_literal(0x22)], "
                    "sB = [send_literal(0x23), send(1)], "
                    "cC = [send_literal(0xF0)], "
                    "rC = [send_literal(0x24), recv(2)], "
                    "reset = [send_literal(0xFF)]";
  expectFinding(
      checkConfig(protocolConfig("matmul_v3_8", Ops, "(sA sB cC rC)")).Errors,
      "expects an opcode");
}

TEST(ConfigProtocol, BurstOverrun) {
  // cfg configures an 8-row A tile, but send(0) streams the 16x16
  // accel_size tile: 128 words too many.
  std::string Ops = std::string(V3Ops) +
                    ", cfg = [send_literal(0x10), send_literal(8), "
                    "send_literal(16), send_literal(16)]";
  expectFinding(checkConfig(protocolConfig("matmul_v4_16", Ops,
                                           "(sA sB cC rC)", "(reset cfg)",
                                           "linalg.matmul", "[16, 16, 16]"))
                    .Errors,
                "burst overruns");
}

TEST(ConfigProtocol, V4CfgTileDoesNotFit) {
  std::string Ops = std::string(V3Ops) +
                    ", cfg = [send_literal(0x10), send_literal(1000), "
                    "send_literal(1000), send_literal(16)]";
  expectFinding(checkConfig(protocolConfig("matmul_v4_16", Ops,
                                           "(sA sB cC rC)", "(reset cfg)",
                                           "linalg.matmul", "[16, 16, 16]"))
                    .Errors,
                "does not fit the internal buffers");
}

TEST(ConfigProtocol, ConvWindowDoesNotFit) {
  // fS = 100, iC = 100: 1e6 window words > the 256*7*7 window buffer.
  std::string Ops = "sIcO = [send_literal(70), send(0)], "
                    "sF = [send_literal(1), send(1)], "
                    "rO = [send_literal(8), recv(2)], "
                    "rst = [send_literal(32), send_literal(100), "
                    "send_literal(16), send_literal(100)]";
  expectFinding(checkConfig(protocolConfig("conv2d", Ops, "(sF (sIcO) rO)",
                                           "(rst)",
                                           "linalg.conv_2d_nchw_fchw",
                                           "[0, 1, 0, 0, -1, -1, -1]"))
                    .Errors,
                "exceeds the accelerator window buffer");
}

TEST(ConfigProtocol, UnreachableRecv) {
  // cC only accumulates; nothing is pending when it receives.
  std::string Ops = "sA = [send_literal(0x22), send(0)], "
                    "sB = [send_literal(0x23), send(1)], "
                    "cC = [send_literal(0xF0), recv(2)], "
                    "reset = [send_literal(0xFF)]";
  expectFinding(
      checkConfig(protocolConfig("matmul_v3_8", Ops, "(sA sB cC)")).Errors,
      "unreachable recv");
}

TEST(ConfigProtocol, ScopeThatDoesNotRepeat) {
  // A bare sA opcode word leaves the A burst open; the next pass's opcode
  // word is swallowed as payload, so no two passes end alike.
  std::string Ops = std::string(V3Ops) + ", half = [send_literal(0x22)]";
  expectFinding(
      checkConfig(protocolConfig("matmul_v3_8", Ops, "(half)")).Errors,
      "repeatable state");
}

TEST(ConfigProtocol, TrailingUnreceivedOutputWarns) {
  // The init sequence emits a C tile nobody receives.
  std::string Ops = std::string(V3Ops) + ", emit = [send_literal(0x24)]";
  analysis::ProtocolFindings F = checkConfig(
      protocolConfig("matmul_v3_8", Ops, "(sA sB cC rC)", "(reset emit)"));
  EXPECT_TRUE(F.Errors.empty());
  expectFinding(F.Warnings, "unreceived");
}

// The wire carries 32-bit words: a wider cfg literal reaches the engine as
// its low word, and the checker reads it the same way.
TEST(ConfigProtocol, WideCfgLiteralReadAs32Bits) {
  std::string Ops = std::string(V3Ops) +
                    ", cfg = [send_literal(0x10), send_literal(0x100000010), "
                    "send_literal(16), send_literal(16)]";
  analysis::ProtocolFindings F = checkConfig(
      protocolConfig("matmul_v4_16", Ops, "(sA (sB cC rC))", "(reset cfg)",
                     "linalg.matmul", "[16, 16, 16]"));
  EXPECT_TRUE(F.ok(/*Strict=*/true));
}

// 0x7fffffffffff reads as the 32-bit word 0xffffffff (-1): a tile that
// does not fit, diagnosed without overflowing the fit check.
TEST(ConfigProtocol, HugeCfgLiteralRejectedWithoutOverflow) {
  std::string Ops = std::string(V3Ops) +
                    ", cfg = [send_literal(0x10), send_literal(0x7fffffffffff), "
                    "send_literal(0x7fffffffffff), send_literal(16)]";
  expectFinding(checkConfig(protocolConfig("matmul_v4_16", Ops,
                                           "(sA sB cC rC)", "(reset cfg)",
                                           "linalg.matmul", "[16, 16, 16]"))
                    .Errors,
                "cfg tile -1x-1x16 does not fit");
}

// The largest accel_size the parser accepts streams through the v4 model
// (capacity 16 * 4096^2 words) without overflow.
TEST(ConfigProtocol, LargestAccelSizeChecksWithoutOverflow) {
  std::string Ops = std::string(V3Ops) +
                    ", cfg = [send_literal(0x10), send_dim(0, 0), "
                    "send_dim(0, 1), send_dim(1, 1)]";
  analysis::ProtocolFindings F = checkConfig(
      protocolConfig("matmul_v4_4096", Ops, "(sA (sB cC rC))", "(reset cfg)",
                     "linalg.matmul", "[4096, 4096, 4096]"));
  EXPECT_TRUE(F.ok(/*Strict=*/true));
}

//===----------------------------------------------------------------------===//
// Verify-each wiring: the optimizer refuses to hand back a corrupt plan
//===----------------------------------------------------------------------===//

TEST(PlanVerify, VerifyEachReportsCorruptInput) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  PlanView::mutableDmaConfigs(*Plan)[0].InputBufferSize = 8;
  opt::PlanOptOptions Options = opt::PlanOptOptions::all();
  Options.VerifyEach = true;
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, Options);
  ASSERT_FALSE(Stats.VerifyError.empty());
  EXPECT_FALSE(Stats.VerifyFailedPass.empty());
  EXPECT_NE(Stats.VerifyError.find("holds only"), std::string::npos)
      << Stats.VerifyError;
}

} // namespace
