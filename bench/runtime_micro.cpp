//===- runtime_micro.cpp - google-benchmark runtime microbenchmarks -------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock microbenchmarks (google-benchmark) of the simulator-side
/// primitives: staging copies (generic vs specialized), the cache
/// simulator, and the accelerator state machines. These measure the
/// reproduction's own performance, complementing the modeled task-clock
/// numbers of the figure benches.
///
//===----------------------------------------------------------------------===//

#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/ExecPlanRun.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "exec/opt/PlanOpt.h"
#include "runtime/DmaRuntime.h"
#include "sim/SoC.h"
#include "transforms/Passes.h"

#include <benchmark/benchmark.h>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using runtime::MemRefDesc;

namespace {

void BM_CopyToDmaGeneric(benchmark::State &State) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 16);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/false);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 1 << 20;
  Config.OutputBufferSize = 1 << 20;
  Runtime.dmaInit(Config);
  MemRefDesc Full = MemRefDesc::alloc({256, 256});
  MemRefDesc Tile = Full.subview({8, 8}, {State.range(0), State.range(0)});
  for (auto _ : State)
    benchmark::DoNotOptimize(Runtime.copyToDmaRegion(Tile, 0));
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0));
}

void BM_CopyToDmaSpecialized(benchmark::State &State) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 16);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 1 << 20;
  Config.OutputBufferSize = 1 << 20;
  Runtime.dmaInit(Config);
  MemRefDesc Full = MemRefDesc::alloc({256, 256});
  MemRefDesc Tile = Full.subview({8, 8}, {State.range(0), State.range(0)});
  for (auto _ : State)
    benchmark::DoNotOptimize(Runtime.copyToDmaRegion(Tile, 0));
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0));
}

void BM_CacheSimAccess(benchmark::State &State) {
  SoCParams Params;
  CacheSim Cache(Params);
  uint64_t Address = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.access(Address, 4));
    Address += 64;
  }
}

/// One full v1 tile through the production burst datapath (what the DMA
/// engine drives): opcode + A|B burst in, C tile drained out.
void BM_MatMulAcceleratorTile(benchmark::State &State) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V1, State.range(0),
                          ElemKind::I32, Params);
  int64_t Words = 2 * State.range(0) * State.range(0);
  std::vector<uint32_t> Stream(static_cast<size_t>(Words) + 1, 1);
  Stream[0] = opcodes::MM_SASBCCRC;
  std::vector<uint32_t> Out(
      static_cast<size_t>(State.range(0) * State.range(0)));
  for (auto _ : State) {
    Accel.consumeBurst(Stream.data(), Stream.size());
    benchmark::DoNotOptimize(Accel.drainOutputInto(Out.data(), Out.size()));
    Accel.takeComputeCycles();
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// Word-at-a-time reference path of the same tile, kept measurable so the
/// burst fast path's advantage stays visible.
void BM_MatMulAcceleratorTileWordwise(benchmark::State &State) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V1, State.range(0),
                          ElemKind::I32, Params);
  int64_t Words = 2 * State.range(0) * State.range(0);
  std::vector<uint32_t> Out(
      static_cast<size_t>(State.range(0) * State.range(0)));
  for (auto _ : State) {
    Accel.consumeWord(opcodes::MM_SASBCCRC);
    for (int64_t I = 0; I < Words; ++I)
      Accel.consumeWord(1);
    benchmark::DoNotOptimize(Accel.drainOutputInto(Out.data(), Out.size()));
    Accel.takeComputeCycles();
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// One conv output slice through the burst datapath: configure, load a
/// filter, stream State.range(0) windows, drain the slice.
void BM_ConvAcceleratorTile(benchmark::State &State) {
  SoCParams Params;
  ConvAccelerator Accel(ElemKind::I32, Params);
  constexpr int64_t InChannels = 8, FilterSize = 3;
  const size_t WindowWords = InChannels * FilterSize * FilterSize;
  int64_t Windows = State.range(0);

  std::vector<uint32_t> Cfg = {opcodes::CONV_SET_FS,
                               static_cast<uint32_t>(FilterSize),
                               opcodes::CONV_SET_IC,
                               static_cast<uint32_t>(InChannels)};
  Accel.consumeBurst(Cfg.data(), Cfg.size());

  // Filter burst + all window bursts + the emit opcode as one stream.
  std::vector<uint32_t> Stream;
  Stream.push_back(opcodes::CONV_SF);
  Stream.insert(Stream.end(), WindowWords, 2);
  for (int64_t W = 0; W < Windows; ++W) {
    Stream.push_back(opcodes::CONV_SICO);
    Stream.insert(Stream.end(), WindowWords, 3);
  }
  Stream.push_back(opcodes::CONV_RO);
  std::vector<uint32_t> Out(static_cast<size_t>(Windows));
  for (auto _ : State) {
    Accel.consumeBurst(Stream.data(), Stream.size());
    benchmark::DoNotOptimize(Accel.drainOutputInto(Out.data(), Out.size()));
    Accel.takeComputeCycles();
  }
  State.SetItemsProcessed(State.iterations() * Windows * WindowWords);
}

//===----------------------------------------------------------------------===//
// Host interpreter: IR tree walker vs. the threaded engine
//===----------------------------------------------------------------------===//

/// CPU-level linalg.generic matmul (the mlir_CPU baseline): every point of
/// the M*N*K space runs through the executor, so executor overhead
/// dominates. The IR is built and lowered once; the threaded variant also
/// builds and decodes its plan once (cached inside the Interpreter).
void interpretMatMulCpu(benchmark::State &State, exec::ExecMode Mode) {
  int64_t Dims = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }

  auto Soc = makeCpuOnlySoC();
  MemRefDesc A = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc B = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc C = MemRefDesc::alloc({Dims, Dims});
  exec::fillRandom(A, 1);
  exec::fillRandom(B, 2);
  exec::fillRandom(C, 3);

  exec::Interpreter Interp(*Soc, nullptr, Mode);
  for (auto _ : State) {
    Soc->resetCounters();
    if (failed(Interp.run(Func, {A, B, C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * Dims * Dims * Dims);
}

void BM_InterpretMatMulCpuWalker(benchmark::State &State) {
  interpretMatMulCpu(State, exec::ExecMode::Walker);
}
void BM_InterpretMatMulCpuThreaded(benchmark::State &State) {
  interpretMatMulCpu(State, exec::ExecMode::Threaded);
}

/// Shared fixture for the axirt-level benches: one matmul func lowered
/// through the full pipeline to axirt.* calls, plus the simulated board
/// and filled argument buffers. Keeping this in one place guarantees the
/// walker/threaded/fused/unfused variants all measure the same pipeline.
struct AxirtMatMulFixture {
  MLIRContext Context;
  OwningOpRef Owner;
  func::FuncOp Func;
  std::unique_ptr<SoC> Soc;
  std::unique_ptr<runtime::DmaRuntime> Runtime;
  MemRefDesc A, B, C;

  /// Returns false (after SkipWithError) on a pipeline failure.
  bool init(benchmark::State &State, const char *Flow = "Ns",
            MatMulAccelerator::Version Version =
                MatMulAccelerator::Version::V3) {
    int64_t Dims = State.range(0);
    registerAllDialects(Context);
    OpBuilder Builder(&Context);
    Func = exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
    Owner = OwningOpRef(Func.getOperation());
    parser::AcceleratorDesc Accel = exec::parseSingleAccelerator(
        exec::makeMatMulConfigJson(Version, 16, Flow));
    std::string Error;
    transforms::LoweringOptions Options;
    Options.EnableCpuTiling = false;
    if (failed(transforms::convertNamedToGeneric(Func, Error)) ||
        failed(transforms::matchAndAnnotate(Func, Accel, Error)) ||
        failed(transforms::lowerToAccel(Func, Options, Error)) ||
        failed(transforms::convertAccelToRuntime(Func, Error))) {
      State.SkipWithError(Error.c_str());
      return false;
    }
    Soc = makeMatMulSoC(Version, 16);
    Runtime =
        std::make_unique<runtime::DmaRuntime>(*Soc, /*SpecializeCopies=*/true);
    A = MemRefDesc::alloc({Dims, Dims});
    B = MemRefDesc::alloc({Dims, Dims});
    C = MemRefDesc::alloc({Dims, Dims});
    exec::fillRandom(A, 1);
    exec::fillRandom(B, 2);
    exec::fillRandom(C, 3);
    return true;
  }
};

/// Fully lowered axirt form: scf loop nests driving batched DMA staging
/// copies — the host-driver hot path the paper measures (Sec. IV-B).
void interpretMatMulAxirt(benchmark::State &State, exec::ExecMode Mode) {
  AxirtMatMulFixture F;
  if (!F.init(State))
    return;
  std::string Error;
  exec::Interpreter Interp(*F.Soc, F.Runtime.get(), Mode);
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Interp.run(F.Func, {F.A, F.B, F.C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

void BM_InterpretMatMulAxirtWalker(benchmark::State &State) {
  interpretMatMulAxirt(State, exec::ExecMode::Walker);
}
void BM_InterpretMatMulAxirtThreaded(benchmark::State &State) {
  interpretMatMulAxirt(State, exec::ExecMode::Threaded);
}

/// Send/wait fusion ablation: the same axirt-lowered matmul executed from
/// a decoded plan with and without the compile-time fusion of adjacent
/// start_send+wait_send / start_recv+wait_recv pairs. Modeled counters
/// are identical (ExecPlanTest proves it); the delta is pure host-side
/// dispatch on the DMA-heavy sequence.
void interpretMatMulAxirtPlan(benchmark::State &State, bool FusePairs) {
  AxirtMatMulFixture F;
  if (!F.init(State))
    return;
  std::string Error;
  auto Plan = exec::ExecPlan::compile(F.Func, Error, FusePairs);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Decoded = exec::DecodedPlan::decode(*Plan);
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Decoded->run(*F.Soc, F.Runtime.get(), {F.A, F.B, F.C},
                            Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

void BM_ExecPlanAxirtUnfused(benchmark::State &State) {
  interpretMatMulAxirtPlan(State, /*FusePairs=*/false);
}
void BM_ExecPlanAxirtFused(benchmark::State &State) {
  interpretMatMulAxirtPlan(State, /*FusePairs=*/true);
}

/// Plan-optimizer ablation (src/exec/opt): the A-stationary driver — the
/// data-stationary Fig. 11/12 flow with the most hoistable staging — run
/// decoded from the unoptimized plan vs. the full fold+licm+coalesce+dce
/// pipeline. Wall-clock measures the host-dispatch saving; the modeled
/// counters are exported alongside so record_bench.sh captures the
/// ablation (instruction and DMA-transfer reduction) in
/// BENCH_runtime_micro.json.
void interpretMatMulAxirtPlanOpt(benchmark::State &State,
                                 const char *Spec) {
  AxirtMatMulFixture F;
  if (!F.init(State, /*Flow=*/"As", MatMulAccelerator::Version::V4))
    return;
  std::string Error;
  auto Plan = exec::ExecPlan::compile(F.Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  exec::opt::PlanOptOptions Options;
  if (failed(exec::opt::parsePlanOptSpec(Spec, Options, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  exec::opt::PlanOptStats Stats = exec::opt::optimizePlan(*Plan, Options);
  auto Decoded = exec::DecodedPlan::decode(*Plan);
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Decoded->run(*F.Soc, F.Runtime.get(), {F.A, F.B, F.C},
                            Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  PerfReport Report = F.Soc->report();
  State.counters["modeled_insts"] =
      static_cast<double>(Report.Instructions);
  State.counters["modeled_dma_transfers"] =
      static_cast<double>(Report.DmaTransfers);
  State.counters["opt_rewrites"] = static_cast<double>(Stats.total());
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

void BM_ExecPlanAxirtPlanOptNone(benchmark::State &State) {
  interpretMatMulAxirtPlanOpt(State, "none");
}
void BM_ExecPlanAxirtOptimized(benchmark::State &State) {
  interpretMatMulAxirtPlanOpt(State, "fold,dce,licm,coalesce");
}

//===----------------------------------------------------------------------===//
// Threaded-dispatch executor: a compiled plan pre-decoded once and run
// directly (computed-goto dispatch, specialized micro-kernels), without
// the Interpreter's plan-cache lookup.
//===----------------------------------------------------------------------===//

/// CPU-path matmul: one linalg.generic, M*N*K points through the
/// specialized kernel.
void BM_ExecPlanCpuMatMulThreaded(benchmark::State &State) {
  int64_t Dims = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Plan = exec::ExecPlan::compile(Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Decoded = exec::DecodedPlan::decode(*Plan);

  auto Soc = makeCpuOnlySoC();
  MemRefDesc A = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc B = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc C = MemRefDesc::alloc({Dims, Dims});
  exec::fillRandom(A, 1);
  exec::fillRandom(B, 2);
  exec::fillRandom(C, 3);

  for (auto _ : State) {
    Soc->resetCounters();
    if (failed(Decoded->run(*Soc, nullptr, {A, B, C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.counters["specialized_kernels"] =
      static_cast<double>(Decoded->numSpecializedKernels());
  State.SetItemsProcessed(State.iterations() * Dims * Dims * Dims);
}

/// CPU-path conv2d: the strided input map exercises the linear-fold
/// indexing (d2*s + d5) in the specialized kernel.
void BM_ExecPlanCpuConvThreaded(benchmark::State &State) {
  int64_t HW = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildConvFunc(Builder, 1, 4, HW, 4, 3, 1, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Plan = exec::ExecPlan::compile(Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Decoded = exec::DecodedPlan::decode(*Plan);

  auto Soc = makeCpuOnlySoC();
  int64_t OutHW = HW - 3 + 1;
  MemRefDesc In = MemRefDesc::alloc({1, 4, HW, HW});
  MemRefDesc Filter = MemRefDesc::alloc({4, 4, 3, 3});
  MemRefDesc Out = MemRefDesc::alloc({1, 4, OutHW, OutHW});
  exec::fillRandom(In, 1);
  exec::fillRandom(Filter, 2);
  exec::fillRandom(Out, 3);

  for (auto _ : State) {
    Soc->resetCounters();
    if (failed(Decoded->run(*Soc, nullptr, {In, Filter, Out}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * 4 * OutHW * OutHW * 4 * 3 *
                          3);
}

/// Plan compilation itself (paid once per function, amortized over runs).
void BM_ExecPlanCompile(benchmark::State &State) {
  int64_t Dims = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(exec::ExecPlan::compile(Func, Error));
}

} // namespace

BENCHMARK(BM_CopyToDmaGeneric)->Arg(8)->Arg(16)->Arg(64);
BENCHMARK(BM_CopyToDmaSpecialized)->Arg(8)->Arg(16)->Arg(64);
BENCHMARK(BM_CacheSimAccess);
BENCHMARK(BM_MatMulAcceleratorTile)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_MatMulAcceleratorTileWordwise)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_ConvAcceleratorTile)->Arg(4)->Arg(16);
BENCHMARK(BM_InterpretMatMulCpuWalker)->Arg(16)->Arg(32);
BENCHMARK(BM_InterpretMatMulCpuThreaded)->Arg(16)->Arg(32);
BENCHMARK(BM_InterpretMatMulAxirtWalker)->Arg(32)->Arg(64);
BENCHMARK(BM_InterpretMatMulAxirtThreaded)->Arg(32)->Arg(64);
BENCHMARK(BM_ExecPlanCpuMatMulThreaded)->Arg(16)->Arg(32);
BENCHMARK(BM_ExecPlanCpuConvThreaded)->Arg(16)->Arg(32);
BENCHMARK(BM_ExecPlanAxirtUnfused)->Arg(64);
BENCHMARK(BM_ExecPlanAxirtFused)->Arg(64);
BENCHMARK(BM_ExecPlanAxirtPlanOptNone)->Arg(64);
BENCHMARK(BM_ExecPlanAxirtOptimized)->Arg(64);
BENCHMARK(BM_ExecPlanCompile)->Arg(32);

BENCHMARK_MAIN();
