//===- FixedCases.cpp - accel_matmul and cpu_linalg workloads -------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Both workloads compile a fixed set of distinct cases once during set-up.
// Each case then runs on several seeded input sets, one job per set, in a
// seeded round-robin order, on fresh copies of the inputs through
// Interpreter::run, so every timed run hits the plan cache. The seed draws
// the input data and the job order.
//
//   accel_matmul: generated matmul drivers on the simulated SoC, over the
//                 (version, size, flow) combinations of the Fig. 13 sweep.
//   cpu_linalg:   the mlir_CPU baseline: linalg.generic matmuls and small
//                 ResNet-style convolutions on a CPU-only board.
//
//===----------------------------------------------------------------------===//

#include "Support.h"

#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "ir/MLIRContext.h"
#include "ir/Parser.h"
#include "parser/ConfigParser.h"
#include "transforms/Passes.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using V = sim::MatMulAccelerator::Version;

namespace {

struct Case {
  std::string Name;
  Shape S;
  std::string Text;
  /// accel_matmul only: the accelerator's config file text and its
  /// version, engine size and flow.
  std::string Config;
  V Version = V::V3;
  int64_t Size = 0;
  std::string Flow;
};

/// One timed job: a case on its own seeded input data.
struct Job {
  size_t CaseIndex = 0;
  std::vector<MemRefDesc> Inputs;
  MemRefDesc Expected;
};

/// One case after set-up. Members are destroyed in reverse order: the
/// interpreter before the runtime and board it uses, the IR before its
/// context, and the probe last.
struct Compiled {
  AccelProbe Probe;
  std::unique_ptr<MLIRContext> Context;
  OwningOpRef Owner;
  func::FuncOp Func;
  std::unique_ptr<sim::SoC> Soc;
  std::unique_ptr<runtime::DmaRuntime> Runtime;
  std::unique_ptr<exec::Interpreter> Interp;
};

class FixedCaseWorkload : public Workload {
public:
  explicit FixedCaseWorkload(unsigned InputSets) : InputSets(InputSets) {}

  void prepare(uint64_t Seed) override {
    Rng R(Seed);
    makeCases(R);
    for (size_t I = 0; I < Cases.size(); ++I) {
      Cases[I].Text = mlirText(Cases[I].S);
      for (unsigned Set = 0; Set < InputSets; ++Set) {
        Job J;
        J.CaseIndex = I;
        J.Inputs = makeOperands(Cases[I].S, static_cast<uint32_t>(R.next()));
        J.Expected = referenceOutput(Cases[I].S, J.Inputs);
        Jobs.push_back(std::move(J));
      }
    }
    for (size_t I = 0; I < Jobs.size(); ++I)
      Order.push_back(I);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[size_t(R.range(0, int64_t(I) - 1))]);
  }

  std::vector<double> setup(bool Traced) override {
    Built.clear();
    // One step per case.
    std::vector<double> Steps;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const Case &C = Cases[I];
      double Ms = 0;
      auto Unit = std::make_unique<Compiled>();
      timed(Ms, [&] {
        Unit->Context = std::make_unique<MLIRContext>();
        registerAllDialects(*Unit->Context);
      });
      std::string Error;
      auto Parsed = timed(Ms, [&] {
        return parseSourceString(C.Text, Unit->Context.get(), &Error);
      });
      if (failed(Parsed))
        fatal(C, "parse: " + Error);
      Unit->Owner = std::move(*Parsed);
      Unit->Func = func::FuncOp(Unit->Owner.get());
      if (!timed(Ms, [&] { return lower(C, *Unit, Traced, Error); }))
        fatal(C, Error);
      timed(Ms, [&] {
        Unit->Interp = std::make_unique<exec::Interpreter>(*Unit->Soc,
                                                           Unit->Runtime.get());
      });
      // Warm-up: the first run compiles, decodes and caches the plan.
      std::vector<MemRefDesc> Args = cloneOperands(firstJob(I).Inputs);
      if (failed(timed(
              Ms, [&] { return Unit->Interp->run(Unit->Func, Args, Error); })))
        fatal(C, "warm-up run: " + Error);
      Built.push_back(std::move(Unit));
      Steps.push_back(Ms);
    }
    return Steps;
  }

  CheckedPass check() override {
    CheckedPass Pass;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const Case &C = Cases[I];
      const Job &J = firstJob(I);
      Compiled &Unit = *Built[I];
      std::vector<double> TaskClock, Refs;
      std::vector<double> Counters;
      // Every repetition's buffers stay alive, so each runs on fresh heap
      // addresses, as independent runs would.
      std::vector<std::vector<MemRefDesc>> Kept;
      for (int Rep = 0; Rep < kReps; ++Rep) {
        Kept.push_back(cloneOperands(J.Inputs));
        std::vector<MemRefDesc> &Args = Kept.back();
        Unit.Soc->resetCounters();
        std::string Error;
        if (failed(Unit.Interp->run(Unit.Func, Args, Error)) ||
            !sameWords(Args[2], J.Expected)) {
          std::fprintf(stderr, "perfbench: %s: wrong output %s\n",
                       C.Name.c_str(), Error.c_str());
          Pass.Ok = false;
        }
        sim::PerfReport R = Unit.Soc->report();
        TaskClock.push_back(R.TaskClockMs);
        Refs.push_back(double(R.CacheReferences));
        Counters = addressFreeCounters(R);
      }
      Pass.TaskClockMs += median(TaskClock);
      Pass.CacheRefs += median(Refs);
      Pass.RefsRepSpread = std::max(Pass.RefsRepSpread, relativeSpread(Refs));
      Pass.CaseRefs.push_back(Refs);
      Pass.CaseCounters.push_back(Counters);
    }
    return Pass;
  }

  Phase run(double Seconds, size_t MinPasses, bool Traced) override {
    Phase P;
    uint64_t HitsBefore = 0, MissesBefore = 0;
    for (auto &Unit : Built) {
      sim::PerfReport R = Unit->Soc->report();
      HitsBefore += R.PlanCacheHits;
      MissesBefore += R.PlanCacheMisses;
      Unit->Probe = AccelProbe();
    }
    Clock::time_point Start = Clock::now();
    do {
      for (size_t I : Order) {
        const Job &J = Jobs[I];
        Compiled &Unit = *Built[J.CaseIndex];
        std::vector<MemRefDesc> Args = cloneOperands(J.Inputs);
        Unit.Soc->resetCounters();
        std::string Error;
        double Ms = 0;
        LogicalResult Ran =
            timed(Ms, [&] { return Unit.Interp->run(Unit.Func, Args, Error); });
        ++P.Attempted;
        keepBest(P.BestMs, I, Ms);
        keepBest(P.PartBestMs, I, Ms);
        if (failed(Ran) || !sameWords(Args[2], J.Expected))
          ++P.Failed;
        if (Traced) {
          P.Layers.add("exec.run_ms", Ms);
          P.Layers.addReport(Unit.Soc->report());
        }
      }
      ++P.Passes;
    } while (msBetween(Start, Clock::now()) < Seconds * 1e3 ||
             P.Passes < MinPasses);
    if (Traced) {
      uint64_t Hits = 0, Misses = 0;
      for (auto &Unit : Built) {
        sim::PerfReport R = Unit->Soc->report();
        Hits += R.PlanCacheHits;
        Misses += R.PlanCacheMisses;
        P.Layers.add("sim.accel_ms", Unit->Probe.Ms);
        P.Layers.add("sim.accel_bursts", double(Unit->Probe.Bursts));
        P.Layers.add("sim.accel_words", double(Unit->Probe.Words));
      }
      P.Layers.add("exec.plan_cache_hits", double(Hits - HitsBefore));
      P.Layers.add("exec.plan_cache_misses", double(Misses - MissesBefore));
    }
    return P;
  }

protected:
  static constexpr int kReps = 3;

  /// Fills Cases (shape, name, accelerator); the seed nudges the shapes.
  virtual void makeCases(Rng &R) = 0;
  /// Lowers Unit.Func and builds its board (and DMA runtime).
  virtual bool lower(const Case &C, Compiled &Unit, bool Traced,
                     std::string &Error) = 0;

  [[noreturn]] static void fatal(const Case &C, const std::string &Error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", C.Name.c_str(), Error.c_str());
    std::exit(1);
  }

  /// Case \p I on its first input set: the checked pass and the warm-up
  /// run use it.
  const Job &firstJob(size_t I) const { return Jobs[I * InputSets]; }

  /// Input sets per case: each case runs on this many seeded inputs, one
  /// job each. Where checking allows, a pass holds at least 200 distinct
  /// jobs, so at least 10 lie beyond the p95.
  const unsigned InputSets;
  std::vector<Case> Cases;
  /// Case I's input sets are Jobs[I * InputSets, (I + 1) * InputSets).
  std::vector<Job> Jobs;
  std::vector<size_t> Order;
  std::vector<std::unique_ptr<Compiled>> Built;
};

//===----------------------------------------------------------------------===//
// accel_matmul
//===----------------------------------------------------------------------===//

class AccelMatMul final : public FixedCaseWorkload {
public:
  /// One input set per case: 14 jobs a pass. exec/Reference.h reads each
  /// element through MemRefDesc::read, and checking 15 sets (210 jobs)
  /// took 29 s of CPU per run on a Sapphire Rapids Xeon vCPU, so here the
  /// p95 is the slowest cases' time.
  AccelMatMul() : FixedCaseWorkload(1) {}

private:
  void makeCases(Rng &R) override {
    // The Fig. 13 sweep: v2/v3 engines of size 8 and 16 with every flow
    // the version supports, each on one shape from three size bands
    // (64-80, 113-136, 176-192). Most dims are not multiples of the tile.
    // The seed only adds 0-3 rows (M). M starts one past a multiple of 16,
    // so the added rows never change the tile count: drawing whole shapes
    // per seed moved the modeled cache references (which depend on the row
    // strides K and N) by a third, and the padded tile count moved the
    // wall-clock figures.
    static const int64_t Shapes[14][3] = {
        {65, 72, 80},   {129, 120, 136}, {177, 176, 184}, {65, 64, 76},
        {113, 132, 128}, {177, 188, 192}, {65, 66, 64},   {129, 128, 122},
        {177, 192, 178}, {65, 80, 68},    {113, 126, 134}, {177, 184, 190},
        {65, 74, 70},   {129, 136, 124}};
    unsigned Index = 0;
    for (int64_t Size : {8, 16})
      for (V Version : {V::V2, V::V3})
        for (const char *Flow : {"Ns", "As", "Bs", "Cs"}) {
          if (Version == V::V2 && std::string(Flow) == "Cs")
            continue;
          const int64_t *Dims = Shapes[Index++];
          Case C;
          C.Version = Version;
          C.Size = Size;
          C.Flow = Flow;
          C.S = Shape::matmul(Dims[0] + R.range(0, 3), Dims[1], Dims[2]);
          C.Config = exec::makeMatMulConfigJson(Version, Size, Flow);
          C.Name = std::string("v") + (Version == V::V2 ? "2" : "3") + "/" +
                   std::to_string(Size) + "/" + Flow + "/" + C.S.key();
          Cases.push_back(std::move(C));
        }
  }

  bool lower(const Case &C, Compiled &Unit, bool Traced,
             std::string &Error) override {
    FailureOr<parser::SystemConfig> Config =
        parser::parseSystemConfig(C.Config, &Error);
    if (failed(Config))
      return false;
    transforms::LoweringOptions Options;
    Options.CacheBytes = Config->Cpu.lastLevelCacheBytes();
    if (failed(transforms::buildPipeline(Config->Accelerators, Options)
                   .run(Unit.Func, Error)))
      return false;
    Unit.Soc = makeBoard(Config->Accelerators.front(),
                         Traced ? &Unit.Probe : nullptr, Error);
    if (!Unit.Soc)
      return false;
    Unit.Runtime = std::make_unique<runtime::DmaRuntime>(*Unit.Soc);
    return true;
  }

  /// The Fig. 13 comparison: manual / generated task clock and cache
  /// references, per case. The manual drivers only handle whole tiles, so
  /// each pair runs on the case's dims rounded down to the engine size.
  /// The entry points check their own outputs (Validate) and are never
  /// timed.
  Metrics baseline() override {
    std::vector<double> Speedups;
    double MaxSpeedup = 0, AvgRef = 0, MaxRef = -1;
    for (const Case &C : Cases) {
      exec::MatMulRunConfig Config;
      Config.M = C.S.M / C.Size * C.Size;
      Config.N = C.S.N / C.Size * C.Size;
      Config.K = C.S.K / C.Size * C.Size;
      Config.Version = C.Version;
      Config.AccelSize = C.Size;
      Config.Flow = C.Flow;
      exec::RunResult Manual = exec::runMatMulManual(Config);
      exec::RunResult Generated = exec::runMatMulAxi4mlir(Config);
      if (!Manual.Ok || !Manual.NumericsMatch || !Generated.Ok ||
          !Generated.NumericsMatch)
        fatal(C, "Fig. 13 pair failed: " + Manual.Error + Generated.Error);
      double Speedup = Manual.Report.TaskClockMs / Generated.Report.TaskClockMs;
      double RefReduction = 1.0 - double(Generated.Report.CacheReferences) /
                                      double(Manual.Report.CacheReferences);
      Speedups.push_back(Speedup);
      MaxSpeedup = std::max(MaxSpeedup, Speedup);
      AvgRef += RefReduction / double(Cases.size());
      MaxRef = std::max(MaxRef, RefReduction);
    }
    return {{"modeled_speedup_vs_manual", {geomean(Speedups), "ratio"}},
            {"modeled.speedup_vs_manual_max", {MaxSpeedup, "ratio"}},
            {"modeled.cache_ref_reduction_avg", {AvgRef, "ratio"}},
            {"modeled.cache_ref_reduction_max", {MaxRef, "ratio"}}};
  }
};

//===----------------------------------------------------------------------===//
// cpu_linalg
//===----------------------------------------------------------------------===//

class CpuLinalg final : public FixedCaseWorkload {
public:
  /// 9 cases x 23 input sets: 207 jobs a pass.
  CpuLinalg() : FixedCaseWorkload(23) {}

private:
  void makeCases(Rng &R) override {
    // Matmuls in three sizes, plus ResNet-style convolutions: 3x3 stride
    // 1, 3x3 stride 2 (downsampling) and 1x1 (bottleneck), each at two
    // channel widths. As for accel_matmul, the seed only nudges the
    // shapes: 0-3 matmul rows, 0-1 conv input channels.
    for (Shape S :
         {Shape::matmul(28, 32, 30), Shape::matmul(44, 40, 48),
          Shape::matmul(60, 56, 64), Shape::conv(8, 14, 8, 3, 1),
          Shape::conv(16, 10, 16, 3, 1), Shape::conv(8, 17, 8, 3, 2),
          Shape::conv(16, 13, 16, 3, 2), Shape::conv(16, 12, 16, 1, 1),
          Shape::conv(32, 8, 32, 1, 1)}) {
      if (S.IsConv) {
        S.InC += R.range(0, 1);
      } else {
        S.M += R.range(0, 3);
      }
      Case C;
      C.S = S;
      C.Name = "cpu/" + S.key();
      Cases.push_back(std::move(C));
    }
  }

  bool lower(const Case &, Compiled &Unit, bool, std::string &Error) override {
    if (failed(transforms::convertNamedToGeneric(Unit.Func, Error)))
      return false;
    Unit.Soc = sim::makeCpuOnlySoC();
    return true;
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeAccelMatMul() {
  return std::make_unique<AccelMatMul>();
}

std::unique_ptr<Workload> perfbench::makeCpuLinalg() {
  return std::make_unique<CpuLinalg>();
}
