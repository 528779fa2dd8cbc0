//===- StreamEquivalenceTest.cpp - word vs. burst ingest equivalence ------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accelerator models' burst contract: consuming one opcode+data
/// stream word-at-a-time, as one giant burst, or split into arbitrary
/// randomized bursts must be observationally identical — same output FIFO
/// contents, same modeled compute cycles (bit-equal doubles), same error
/// behaviour. This is what licenses the DMA engine driving the memcpy
/// fast path instead of the word-level reference FSM.
///
/// Every such stream is also replayed against the static checker's model
/// of the same engine (analysis::ProtocolModel), word by word as
/// constants: both interpret one opcode table, so they must reject the
/// same word with the same message and agree on the pending output at
/// every opcode boundary.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolModel.h"
#include "sim/SoC.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using namespace axi4mlir::sim::opcodes;

namespace {

/// Builds fresh simulator instances of one engine, and carries the
/// static checker's model of the same engine.
struct ModelFactory {
  std::function<std::unique_ptr<AcceleratorModel>()> Make;
  analysis::ProtocolModel Checker;
  std::unique_ptr<AcceleratorModel> operator()() const { return Make(); }
};

/// Observable state after a stream has been consumed.
struct Observation {
  std::vector<uint32_t> Output;
  double ComputeCycles;
  bool HadError;
  std::string ErrorText;
};

Observation observe(AcceleratorModel &Model) {
  Observation Obs;
  Obs.Output = Model.drainOutput(Model.outputAvailable());
  Obs.ComputeCycles = Model.takeComputeCycles();
  Obs.HadError = Model.hadError();
  Obs.ErrorText = Model.errorMessage();
  return Obs;
}

void expectSameObservation(const Observation &Ref, const Observation &Got,
                           const std::string &What) {
  EXPECT_EQ(Ref.Output, Got.Output) << What;
  EXPECT_EQ(Ref.ComputeCycles, Got.ComputeCycles) << What; // bit-equal
  EXPECT_EQ(Ref.HadError, Got.HadError) << What;
  EXPECT_EQ(Ref.ErrorText, Got.ErrorText) << What;
}

/// Streams \p Words to a fresh simulator (as the 32-bit words the wire
/// carries) and to the checker's model (as constants), word by word. The
/// first error must land on the same word with the same message (the
/// simulator prefixes its name), and at every opcode boundary before it
/// the modeled pending output must equal the simulator's; both are then
/// drained, the model through feedRecv.
void checkAgainstChecker(const ModelFactory &Make,
                         const std::vector<int64_t> &Words) {
  auto Sim = Make();
  analysis::ProtocolModel Model = Make.Checker;
  std::string SimError, ModelError;
  size_t SimErrorAt = Words.size(), ModelErrorAt = Words.size();
  for (size_t I = 0; I < Words.size(); ++I) {
    Sim->consumeWord(static_cast<uint32_t>(Words[I]));
    std::string E =
        Model.feedWord(analysis::AbstractWord::constant(Words[I]));
    if (Sim->hadError() || !E.empty()) {
      SimErrorAt = Sim->hadError() ? I : SimErrorAt;
      ModelErrorAt = E.empty() ? ModelErrorAt : I;
      SimError = Sim->errorMessage();
      ModelError = E;
      break;
    }
    if (!Model.atOpcodeBoundary())
      continue;
    size_t Available = Sim->outputAvailable();
    ASSERT_EQ(Model.pendingOutputWords(), static_cast<int64_t>(Available))
        << "after word " << I;
    Sim->drainOutput(Available);
    EXPECT_EQ(Model.feedRecv(static_cast<int64_t>(Available)), "")
        << "after word " << I;
  }
  EXPECT_EQ(SimErrorAt, ModelErrorAt)
      << "simulator: " << SimError << "\nchecker: " << ModelError;
  if (SimErrorAt == ModelErrorAt && SimErrorAt < Words.size()) {
    EXPECT_EQ(SimError, Sim->getName() + ": " + ModelError);
  }
}

/// Runs \p Stream through fresh models word-at-a-time (the semantic
/// reference), as one burst, and in randomized burst splits, and asserts
/// identical observable behaviour; then replays it against the checker.
void checkStreamEquivalence(const ModelFactory &Make,
                            const std::vector<uint32_t> &Stream) {
  checkAgainstChecker(Make,
                      std::vector<int64_t>(Stream.begin(), Stream.end()));
  auto WordModel = Make();
  for (uint32_t Word : Stream)
    WordModel->consumeWord(Word);
  Observation Ref = observe(*WordModel);

  auto OneBurst = Make();
  OneBurst->consumeBurst(Stream.data(), Stream.size());
  expectSameObservation(Ref, observe(*OneBurst), "single burst");

  // Randomized splits, biased toward small bursts so opcode/data
  // boundaries land everywhere (deterministic seeds).
  for (uint32_t Seed = 0; Seed < 8; ++Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<size_t> Len(1, 1 + Stream.size() / 3);
    auto Split = Make();
    size_t Pos = 0;
    while (Pos < Stream.size()) {
      size_t Take = std::min(Len(Rng), Stream.size() - Pos);
      Split->consumeBurst(Stream.data() + Pos, Take);
      Pos += Take;
    }
    expectSameObservation(Ref, observe(*Split),
                          "split seed " + std::to_string(Seed));
  }
}

/// Deterministic data words (interpreted as i32 or f32 by the model).
uint32_t dataWord(std::mt19937 &Rng, ElemKind Kind) {
  std::uniform_int_distribution<int32_t> Dist(-4, 4);
  int32_t V = Dist(Rng);
  return Kind == ElemKind::F32 ? floatToWord(static_cast<float>(V))
                               : static_cast<uint32_t>(V);
}

void appendData(std::vector<uint32_t> &Stream, size_t Count,
                std::mt19937 &Rng, ElemKind Kind) {
  for (size_t I = 0; I < Count; ++I)
    Stream.push_back(dataWord(Rng, Kind));
}

ModelFactory matmulFactory(MatMulAccelerator::Version Ver, int64_t Size,
                           ElemKind Kind) {
  return {[=] {
            SoCParams Params;
            return std::make_unique<MatMulAccelerator>(Ver, Size, Kind,
                                                       Params);
          },
          analysis::ProtocolModel::matmul(Ver, Size)};
}

//===----------------------------------------------------------------------===//
// MatMul v1..v4
//===----------------------------------------------------------------------===//

TEST(StreamEquivalence, MatMulV1) {
  std::mt19937 Rng(100);
  std::vector<uint32_t> Stream;
  for (int Tile = 0; Tile < 3; ++Tile) {
    Stream.push_back(MM_SASBCCRC);
    appendData(Stream, 2 * 8 * 8, Rng, ElemKind::I32);
  }
  Stream.push_back(MM_RESET);
  Stream.push_back(MM_SASBCCRC);
  appendData(Stream, 2 * 8 * 8, Rng, ElemKind::I32);
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V1, 8, ElemKind::I32),
      Stream);
}

TEST(StreamEquivalence, MatMulV2) {
  std::mt19937 Rng(101);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  for (int Round = 0; Round < 2; ++Round) {
    Stream.push_back(MM_SB);
    appendData(Stream, 4 * 4, Rng, ElemKind::I32);
    Stream.push_back(MM_CC_RC);
  }
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V2, 4, ElemKind::I32),
      Stream);
}

TEST(StreamEquivalence, MatMulV3AllOpcodes) {
  std::mt19937 Rng(102);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  Stream.push_back(MM_SB);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  Stream.push_back(MM_CC);
  Stream.push_back(MM_CC); // output stationary: accumulate twice
  Stream.push_back(MM_RC);
  Stream.push_back(MM_SB_CC_RC);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  Stream.push_back(MM_SA_CC_RC);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V3, 8, ElemKind::I32),
      Stream);
}

TEST(StreamEquivalence, MatMulV3F32) {
  std::mt19937 Rng(103);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 8 * 8, Rng, ElemKind::F32);
  Stream.push_back(MM_SB);
  appendData(Stream, 8 * 8, Rng, ElemKind::F32);
  Stream.push_back(MM_CC_RC);
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V3, 8, ElemKind::F32),
      Stream);
}

/// v4 with a mid-stream MM_CFG resize: burst lengths change with the
/// configured tile, so split boundaries must track the new geometry.
TEST(StreamEquivalence, MatMulV4CfgResize) {
  std::mt19937 Rng(104);
  std::vector<uint32_t> Stream;
  auto tile = [&](int64_t M, int64_t Kk, int64_t N) {
    Stream.push_back(MM_CFG);
    Stream.push_back(static_cast<uint32_t>(M));
    Stream.push_back(static_cast<uint32_t>(Kk));
    Stream.push_back(static_cast<uint32_t>(N));
    Stream.push_back(MM_SA);
    appendData(Stream, static_cast<size_t>(M * Kk), Rng, ElemKind::I32);
    Stream.push_back(MM_SB);
    appendData(Stream, static_cast<size_t>(Kk * N), Rng, ElemKind::I32);
    Stream.push_back(MM_CC);
    Stream.push_back(MM_RC);
  };
  tile(8, 32, 4);
  tile(16, 16, 16);
  tile(4, 4, 64);
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V4, 16, ElemKind::I32),
      Stream);
}

/// Errors mid-stream: every path must stop at the same word and drop the
/// rest, reporting the same message.
TEST(StreamEquivalence, MatMulErrorBehaviour) {
  std::mt19937 Rng(105);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_CFG); // unsupported on v3 -> error
  Stream.push_back(MM_SB);  // dropped
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V3, 4, ElemKind::I32),
      Stream);

  // v4 cfg that does not fit the buffers errors inside a burst.
  std::vector<uint32_t> CfgStream = {MM_CFG, 10000, 10000, 10000, MM_SA, 1};
  checkStreamEquivalence(
      matmulFactory(MatMulAccelerator::Version::V4, 16, ElemKind::I32),
      CfgStream);
}

//===----------------------------------------------------------------------===//
// Conv2D
//===----------------------------------------------------------------------===//

ModelFactory convFactory(ElemKind Kind, int64_t MaxWindowWords = 256 * 7 * 7) {
  return {[=] {
            SoCParams Params;
            return std::make_unique<ConvAccelerator>(Kind, Params,
                                                     MaxWindowWords);
          },
          analysis::ProtocolModel::conv(MaxWindowWords)};
}

TEST(StreamEquivalence, ConvSlices) {
  std::mt19937 Rng(200);
  std::vector<uint32_t> Stream;
  Stream.push_back(CONV_SET_FS);
  Stream.push_back(3);
  Stream.push_back(CONV_SET_IC);
  Stream.push_back(4);
  const size_t WindowWords = 4 * 3 * 3;
  for (int Slice = 0; Slice < 2; ++Slice) {
    Stream.push_back(CONV_SF);
    appendData(Stream, WindowWords, Rng, ElemKind::I32);
    for (int W = 0; W < 3; ++W) {
      Stream.push_back(CONV_SICO);
      appendData(Stream, WindowWords, Rng, ElemKind::I32);
    }
    Stream.push_back(CONV_RO);
  }
  checkStreamEquivalence(convFactory(ElemKind::I32), Stream);
}

TEST(StreamEquivalence, ConvF32Reconfigure) {
  std::mt19937 Rng(201);
  std::vector<uint32_t> Stream;
  auto slice = [&](uint32_t FS, uint32_t IC, int Windows) {
    Stream.push_back(CONV_SET_FS);
    Stream.push_back(FS);
    Stream.push_back(CONV_SET_IC);
    Stream.push_back(IC);
    size_t WindowWords = static_cast<size_t>(IC) * FS * FS;
    Stream.push_back(CONV_SF);
    appendData(Stream, WindowWords, Rng, ElemKind::F32);
    for (int W = 0; W < Windows; ++W) {
      Stream.push_back(CONV_SICO);
      appendData(Stream, WindowWords, Rng, ElemKind::F32);
    }
    Stream.push_back(CONV_RO);
  };
  slice(2, 3, 2);
  slice(1, 8, 4); // fHW == 1 layers (paper Sec. IV-D)
  checkStreamEquivalence(convFactory(ElemKind::F32), Stream);
}

TEST(StreamEquivalence, ConvErrorBehaviour) {
  std::mt19937 Rng(202);
  // Unknown opcode mid-stream.
  std::vector<uint32_t> Stream;
  Stream.push_back(CONV_SET_FS);
  Stream.push_back(2);
  Stream.push_back(CONV_SET_IC);
  Stream.push_back(2);
  Stream.push_back(CONV_SF);
  appendData(Stream, 8, Rng, ElemKind::I32);
  Stream.push_back(0xDEAD); // error; the rest is dropped
  Stream.push_back(CONV_SICO);
  appendData(Stream, 8, Rng, ElemKind::I32);
  checkStreamEquivalence(convFactory(ElemKind::I32), Stream);

  // Window burst that no longer matches the loaded filter (cfg changed
  // between SF and SICO).
  std::vector<uint32_t> Mismatch;
  Mismatch.push_back(CONV_SET_FS);
  Mismatch.push_back(2);
  Mismatch.push_back(CONV_SET_IC);
  Mismatch.push_back(2);
  Mismatch.push_back(CONV_SF);
  appendData(Mismatch, 8, Rng, ElemKind::I32);
  Mismatch.push_back(CONV_SET_IC);
  Mismatch.push_back(3);
  Mismatch.push_back(CONV_SICO);
  appendData(Mismatch, 12, Rng, ElemKind::I32);
  Mismatch.push_back(CONV_RO); // dropped after the mismatch error
  checkStreamEquivalence(convFactory(ElemKind::I32), Mismatch);
}

//===----------------------------------------------------------------------===//
// Simulator against checker (beyond the streams above)
//===----------------------------------------------------------------------===//

/// A plan constant wider than 32 bits reaches the engine as its low word:
/// cfg 0x100000010 configures a 16-row tile on both sides.
TEST(StreamEquivalence, WideCfgWordsReadAs32Bits) {
  std::mt19937 Rng(500);
  std::vector<int64_t> Words = {MM_CFG, 0x100000010, 16, 16, MM_SA};
  for (int I = 0; I < 16 * 16; ++I)
    Words.push_back(dataWord(Rng, ElemKind::I32));
  Words.push_back(MM_CC_RC);
  checkAgainstChecker(
      matmulFactory(MatMulAccelerator::Version::V4, 16, ElemKind::I32),
      Words);
  // A wide word whose low half is negative is rejected alike.
  checkAgainstChecker(
      matmulFactory(MatMulAccelerator::Version::V4, 16, ElemKind::I32),
      {MM_CFG, 0x7fffffffffff, 16, 16, MM_SA});
}

/// Random streams from each table: opcodes drawn from the engine's
/// micro-ISA plus a few invalid words, cfg words from a hostile set, and
/// payloads mostly of the right length (per the geometry the cfg words
/// set), sometimes one word short or long.
std::vector<int64_t> randomStream(std::mt19937 &Rng, const OpcodeEntry *Table,
                                  size_t TableSize, OpcodeFsm Fsm) {
  const int64_t CfgValues[] = {1,  2,         3,          4,    8,
                               16, 0,         0xFFFFFFFF, 5000, 0x100000004,
                               -3, 0x7FFFFFFF};
  std::uniform_int_distribution<size_t> Pick(0, TableSize - 1);
  std::uniform_int_distribution<size_t> PickCfg(0, 11);
  std::uniform_int_distribution<int> Percent(0, 99);
  std::vector<int64_t> Words;
  for (int Op = 0; Op < 24; ++Op) {
    if (Percent(Rng) < 4) {
      Words.push_back(Percent(Rng) < 50 ? 0xDEAD : 0x77); // invalid opcodes
      continue;
    }
    uint32_t Opcode = Table[Pick(Rng)].Opcode;
    Words.push_back(Opcode);
    if (!Fsm.start(Opcode))
      continue; // the engine rejects it; the rest is dropped anyway
    if (Fsm.readingCfg()) {
      while (!Fsm.idle()) {
        int64_t V = CfgValues[PickCfg(Rng) % (Percent(Rng) < 70 ? 5 : 12)];
        Words.push_back(V);
        Fsm.stageCfg(static_cast<uint32_t>(V), true);
        if (Fsm.advance(1))
          Fsm.finish();
      }
      continue;
    }
    int64_t Length = Fsm.expected();
    int Roll = Percent(Rng);
    if (Roll < 6)
      --Length;
    else if (Roll < 12)
      ++Length;
    for (int64_t W = 0; W < Length; ++W)
      Words.push_back(dataWord(Rng, ElemKind::I32));
    Fsm.advance(Fsm.remaining());
    Fsm.finish();
  }
  return Words;
}

/// Streams whose words all fit the wire also run the word/burst/split
/// equivalence (which replays them against the checker); the rest, with
/// wide or negative plan constants, go to the checker comparison alone.
void checkRandomStream(const ModelFactory &Make,
                       const std::vector<int64_t> &Words) {
  bool FitsWire = std::all_of(Words.begin(), Words.end(), [](int64_t W) {
    return W >= 0 && W <= static_cast<int64_t>(UINT32_MAX);
  });
  if (FitsWire)
    checkStreamEquivalence(Make,
                           std::vector<uint32_t>(Words.begin(), Words.end()));
  else
    checkAgainstChecker(Make, Words);
}

TEST(StreamEquivalence, RandomStreamsMatchChecker) {
  std::mt19937 Rng(501);
  using V = MatMulAccelerator::Version;
  for (V Ver : {V::V1, V::V2, V::V3, V::V4}) {
    for (int Case = 0; Case < 40; ++Case) {
      SCOPED_TRACE("matmul v" + std::to_string(int(Ver) + 1) + " case " +
                   std::to_string(Case));
      checkRandomStream(
          matmulFactory(Ver, 4, ElemKind::I32),
          randomStream(Rng, MatMulOpcodes, std::size(MatMulOpcodes),
                       OpcodeFsm::matmul(Ver, 4)));
    }
  }
  for (int Case = 0; Case < 80; ++Case) {
    SCOPED_TRACE("conv case " + std::to_string(Case));
    checkRandomStream(convFactory(ElemKind::I32, 64),
                      randomStream(Rng, ConvOpcodes, std::size(ConvOpcodes),
                                   OpcodeFsm::conv(64)));
  }
}

/// A data burst longer than its payload completes the payload first. When
/// that completion fails (a window streamed before any filter), the engine
/// stops there, so the checker reports the completion error, not the
/// overrun; after a clean completion the overrun is the error.
TEST(StreamEquivalence, OverrunningBurstReportsCompletionFirst) {
  ModelFactory Make = convFactory(ElemKind::I32);
  std::vector<uint32_t> Opcodes = {CONV_SET_FS, 2, CONV_SET_IC, 2, CONV_SICO};
  std::vector<uint32_t> Burst(9, 1); // the window is 8 words
  auto Sim = Make();
  Sim->consumeBurst(Opcodes.data(), Opcodes.size());
  Sim->consumeBurst(Burst.data(), Burst.size());
  analysis::ProtocolModel Model = Make.Checker;
  for (uint32_t W : Opcodes)
    ASSERT_EQ(Model.feedWord(analysis::AbstractWord::constant(W)), "");
  std::string E = Model.feedData(9);
  ASSERT_TRUE(Sim->hadError());
  EXPECT_EQ(Sim->errorMessage(), Sim->getName() + ": " + E);

  analysis::ProtocolModel Clean = Make.Checker;
  for (uint32_t W : {CONV_SET_FS, 2u, CONV_SET_IC, 2u, CONV_SF})
    ASSERT_EQ(Clean.feedWord(analysis::AbstractWord::constant(W)), "");
  EXPECT_EQ(Clean.feedData(9), "burst overruns 0x1: expected 8 more payload "
                               "words, got 1 extra");
}

//===----------------------------------------------------------------------===//
// drainOutputInto
//===----------------------------------------------------------------------===//

TEST(StreamEquivalence, DrainOutputIntoMatchesDrainOutput) {
  SoCParams Params;
  MatMulAccelerator A(MatMulAccelerator::Version::V1, 4, ElemKind::I32,
                      Params);
  MatMulAccelerator B(MatMulAccelerator::Version::V1, 4, ElemKind::I32,
                      Params);
  std::mt19937 Rng(300);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SASBCCRC);
  appendData(Stream, 2 * 4 * 4, Rng, ElemKind::I32);
  A.consumeBurst(Stream.data(), Stream.size());
  B.consumeBurst(Stream.data(), Stream.size());

  // Partial drains interleaved with refills recycle the flat FIFO.
  std::vector<uint32_t> Ref = A.drainOutput(10);
  std::vector<uint32_t> Got(16, 0xAAAAAAAA);
  ASSERT_EQ(B.drainOutputInto(Got.data(), 10), 10u);
  EXPECT_TRUE(std::equal(Ref.begin(), Ref.end(), Got.begin()));
  EXPECT_EQ(A.outputAvailable(), B.outputAvailable());

  Ref = A.drainOutput(100); // over-asking caps at what is available
  ASSERT_EQ(B.drainOutputInto(Got.data(), 100), Ref.size());
  EXPECT_TRUE(std::equal(Ref.begin(), Ref.end(), Got.begin()));
  EXPECT_EQ(B.outputAvailable(), 0u);
}

//===----------------------------------------------------------------------===//
// Injected faults: a mid-stream fault must be observed identically under
// word-at-a-time, single-burst and split-burst delivery — same AccelStatus,
// same message, same dropped-suffix count. This is what lets the DMA
// engine's recovery loop reason about the retry suffix without knowing how
// the stream was chunked.
//===----------------------------------------------------------------------===//

struct FaultObservation {
  AccelStatus Status = AccelStatus::Ok;
  std::string Message;
  size_t Dropped = 0;
  uint64_t StallSteps = 0;
  std::vector<uint32_t> Output;
  double ComputeCycles = 0;
};

FaultObservation observeFault(AcceleratorModel &Model) {
  FaultObservation Obs;
  Obs.Status = Model.status();
  Obs.Message = Model.transientMessage();
  Obs.StallSteps = Model.takeStallSteps();
  Obs.Dropped = Model.takeTransientDropped();
  Obs.Output = Model.drainOutput(Model.outputAvailable());
  Obs.ComputeCycles = Model.takeComputeCycles();
  return Obs;
}

void expectSameFaultObservation(const FaultObservation &Ref,
                                const FaultObservation &Got,
                                const std::string &What) {
  EXPECT_EQ(Ref.Status, Got.Status) << What;
  EXPECT_EQ(Ref.Message, Got.Message) << What;
  EXPECT_EQ(Ref.Dropped, Got.Dropped) << What;
  EXPECT_EQ(Ref.StallSteps, Got.StallSteps) << What;
  EXPECT_EQ(Ref.Output, Got.Output) << What;
  EXPECT_EQ(Ref.ComputeCycles, Got.ComputeCycles) << What; // bit-equal
}

/// Streams \p Stream into fresh models carrying a fresh injector built
/// from \p Plan, under every delivery shape, asserting identical
/// fault observations.
void checkFaultEquivalence(const ModelFactory &Make,
                           const std::vector<uint32_t> &Stream,
                           const FaultPlan &Plan) {
  auto WordModel = Make();
  FaultInjector WordInjector(Plan);
  WordModel->attachFaultInjector(&WordInjector);
  for (uint32_t Word : Stream)
    WordModel->consumeWord(Word);
  FaultObservation Ref = observeFault(*WordModel);

  auto OneBurst = Make();
  FaultInjector BurstInjector(Plan);
  OneBurst->attachFaultInjector(&BurstInjector);
  OneBurst->consumeBurst(Stream.data(), Stream.size());
  expectSameFaultObservation(Ref, observeFault(*OneBurst), "single burst");
  EXPECT_EQ(WordInjector.faultsFired(), BurstInjector.faultsFired());

  for (uint32_t Seed = 0; Seed < 8; ++Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<size_t> Len(1, 1 + Stream.size() / 3);
    auto Split = Make();
    FaultInjector SplitInjector(Plan);
    Split->attachFaultInjector(&SplitInjector);
    size_t Pos = 0;
    while (Pos < Stream.size()) {
      size_t Take = std::min(Len(Rng), Stream.size() - Pos);
      Split->consumeBurst(Stream.data() + Pos, Take);
      Pos += Take;
    }
    expectSameFaultObservation(Ref, observeFault(*Split),
                               "split seed " + std::to_string(Seed));
    EXPECT_EQ(WordInjector.faultsFired(), SplitInjector.faultsFired());
  }
}

TEST(StreamEquivalence, TransientFaultSameUnderAnyDelivery) {
  std::mt19937 Rng(400);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_SB); // opcode index 1: refused
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_CC_RC); // dropped with the rest of the stream

  FaultPlan Plan;
  FaultEvent Event;
  Event.Kind = FaultKind::TransientError;
  Event.At = 1;
  Plan.Events.push_back(Event);

  checkFaultEquivalence(
      matmulFactory(MatMulAccelerator::Version::V3, 4, ElemKind::I32),
      Stream, Plan);

  // The reference observation itself: Transient status, dropped suffix =
  // refused opcode + 16 data words + trailing opcode.
  SoCParams Params;
  MatMulAccelerator Model(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                          Params);
  FaultInjector Injector(Plan);
  Model.attachFaultInjector(&Injector);
  Model.consumeBurst(Stream.data(), Stream.size());
  EXPECT_EQ(Model.status(), AccelStatus::Transient);
  EXPECT_NE(Model.transientMessage().find("injected transient-error fault"),
            std::string::npos)
      << Model.transientMessage();
  EXPECT_FALSE(Model.hadError()); // transient, not fatal
  EXPECT_EQ(Model.takeTransientDropped(), size_t(1 + 16 + 1));
  EXPECT_EQ(Model.status(), AccelStatus::Ok); // harvest clears it
}

TEST(StreamEquivalence, StallFaultSameUnderAnyDelivery) {
  std::mt19937 Rng(401);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_SB); // opcode index 1: stalls, then proceeds
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_CC_RC);

  FaultPlan Plan;
  FaultEvent Event;
  Event.Kind = FaultKind::Stall;
  Event.At = 1;
  Event.Steps = 48;
  Plan.Events.push_back(Event);

  checkFaultEquivalence(
      matmulFactory(MatMulAccelerator::Version::V3, 4, ElemKind::I32),
      Stream, Plan);
}

TEST(StreamEquivalence, ConvTransientFaultSameUnderAnyDelivery) {
  std::mt19937 Rng(402);
  std::vector<uint32_t> Stream;
  Stream.push_back(CONV_SET_FS);
  Stream.push_back(2);
  Stream.push_back(CONV_SET_IC);
  Stream.push_back(1);
  Stream.push_back(CONV_SF); // opcode index 2: refused
  appendData(Stream, 2 * 2, Rng, ElemKind::I32);
  Stream.push_back(CONV_SICO);
  appendData(Stream, 2 * 2, Rng, ElemKind::I32);

  FaultPlan Plan;
  FaultEvent Event;
  Event.Kind = FaultKind::TransientError;
  Event.At = 2;
  Plan.Events.push_back(Event);

  checkFaultEquivalence(convFactory(ElemKind::I32), Stream, Plan);
}

} // namespace
