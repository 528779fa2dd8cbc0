//===- CompileSweep.cpp - compile_sweep workload --------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Every job of the pass is a distinct (shape, config) pair: config text
// and `.mlir` text go through parse, lower, plan compile, plan-opt,
// verify, decode and C emission, then the decoded plan runs once on
// <= 32^3 inputs. Nothing is kept between jobs, so no plan cache ever
// hits, also when the pass repeats. The pass is made of rounds with one
// job per stratum (config x remainder mode), so every seed keeps the same
// mix.
//
//===----------------------------------------------------------------------===//

#include "Support.h"

#include "analysis/PlanVerifier.h"
#include "analysis/ProtocolChecker.h"
#include "codegen/CEmitter.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlanRun.h"
#include "exec/opt/PlanOpt.h"
#include "ir/MLIRContext.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "parser/ConfigParser.h"
#include "transforms/Passes.h"

#include <cstdio>
#include <functional>
#include <set>

using namespace perfbench;
using V = sim::MatMulAccelerator::Version;
using transforms::RemainderMode;

namespace {

struct Stratum {
  std::string Name;
  std::string Config; ///< config file text
  bool IsConv = false;
  RemainderMode Remainder = RemainderMode::Pad;
};

struct Job {
  const Stratum *Where = nullptr;
  Shape S;
  std::string Text;
  std::vector<MemRefDesc> Inputs;
  MemRefDesc Expected;
};

/// The outcome of one job's program calls.
struct JobResult {
  bool Ok = false;
  std::string Error;
  double Ms = 0;
  double CompileMs = 0;
  MemRefDesc Output;
  sim::PerfReport Report;
};

class CompileSweep final : public Workload {
public:
  void prepare(uint64_t Seed) override {
    Gen = std::make_unique<Rng>(Seed);
    std::string Multi;
    if (!readFile("configs/matmul_multi.json", Multi)) {
      std::fprintf(stderr,
                   "perfbench: cannot read configs/matmul_multi.json\n");
      std::exit(1);
    }
    struct MatMulConfig {
      V Version;
      int64_t Size;
      const char *Flow;
    };
    static const MatMulConfig MatMuls[] = {
        {V::V1, 4, "Ns"},  {V::V2, 8, "As"},  {V::V3, 4, "Ns"},
        {V::V3, 8, "Cs"},  {V::V3, 16, "Bs"}, {V::V4, 16, "Cs"}};
    for (RemainderMode Mode : {RemainderMode::Pad, RemainderMode::Peel}) {
      const char *ModeName = Mode == RemainderMode::Pad ? "pad" : "peel";
      for (const MatMulConfig &M : MatMuls) {
        Stratum S;
        S.Name = std::string("v") + char('1' + int(M.Version)) + "/" +
                 std::to_string(M.Size) + "/" + M.Flow + "/" + ModeName;
        S.Config = exec::makeMatMulConfigJson(M.Version, M.Size, M.Flow);
        S.Remainder = Mode;
        Strata.push_back(S);
      }
      Strata.push_back({std::string("multi/") + ModeName, Multi, false, Mode});
    }
    Strata.push_back({"conv", exec::makeConvConfigJson(), true,
                      RemainderMode::Pad});
    // Each stratum's kRounds jobs take every value of a fixed list once
    // per dim, in seeded order, so every seed compiles the same spread of
    // sizes; the (shape, config) pairs are distinct within the pass.
    std::vector<std::vector<Shape>> Columns;
    for (const Stratum &S : Strata)
      Columns.push_back(drawShapes(S));
    for (int Round = 0; Round < kRounds; ++Round)
      for (size_t I = 0; I < Strata.size(); ++I)
        Pass.push_back(makeJob(Strata[I], Columns[I][Round]));
  }

  std::vector<double> setup(bool Traced) override {
    // The checked pass runs as the following timed phase does.
    CheckTraced = Traced;
    // Set-up is the pass's first round, one step per job: first-touch
    // costs of every stage.
    std::vector<double> Steps;
    for (size_t I = 0; I < Strata.size(); ++I) {
      JobResult R = runJob(Pass[I], nullptr, nullptr);
      if (!R.Ok)
        fatal(Strata[I].Name, R.Error);
      Steps.push_back(R.Ms);
    }
    return Steps;
  }

  CheckedPass check() override {
    CheckedPass Checked;
    // A traced pass runs through the accelerator wrapper and the per-pass
    // lowering, as the traced jobs do; its layer sums are not reported.
    AccelProbe Probe;
    LayerSums Layers;
    for (const Job &J : Pass) {
      std::vector<double> Refs;
      std::vector<JobResult> Reps;
      for (int Rep = 0; Rep < kReps; ++Rep) {
        // Keep every repetition's buffers alive so each one runs on fresh
        // heap addresses, as independent runs would.
        Reps.push_back(runJob(J, CheckTraced ? &Probe : nullptr,
                              CheckTraced ? &Layers : nullptr));
        const JobResult &R = Reps.back();
        if (!R.Ok || !sameWords(R.Output, J.Expected)) {
          std::fprintf(stderr, "perfbench: %s %s: wrong output %s\n",
                       J.Where->Name.c_str(), J.S.key().c_str(),
                       R.Error.c_str());
          Checked.Ok = false;
        }
        Refs.push_back(double(R.Report.CacheReferences));
      }
      std::vector<double> TaskClock;
      for (const JobResult &R : Reps)
        TaskClock.push_back(R.Report.TaskClockMs);
      Checked.TaskClockMs += median(TaskClock);
      Checked.CacheRefs += median(Refs);
      Checked.RefsRepSpread =
          std::max(Checked.RefsRepSpread, relativeSpread(Refs));
      Checked.CaseRefs.push_back(Refs);
      Checked.CaseCounters.push_back(addressFreeCounters(Reps.front().Report));
    }
    return Checked;
  }

  Phase run(double Seconds, size_t MinPasses, bool Traced) override {
    Phase P;
    std::vector<double> CompileMs;
    Clock::time_point Start = Clock::now();
    do {
      for (size_t I = 0; I < Pass.size(); ++I) {
        const Job &J = Pass[I];
        AccelProbe Probe;
        JobResult R = runJob(J, Traced ? &Probe : nullptr,
                             Traced ? &P.Layers : nullptr);
        ++P.Attempted;
        keepBest(P.BestMs, I, R.Ms);
        keepBest(P.PartBestMs, I, R.Ms);
        if (!R.Ok || !sameWords(R.Output, J.Expected)) {
          std::fprintf(stderr, "perfbench: %s %s: failed %s\n",
                       J.Where->Name.c_str(), J.S.key().c_str(),
                       R.Error.c_str());
          ++P.Failed;
        }
        if (Traced) {
          CompileMs.push_back(R.CompileMs);
          P.Layers.addReport(R.Report);
          P.Layers.add("sim.accel_ms", Probe.Ms);
          P.Layers.add("sim.accel_bursts", double(Probe.Bursts));
          P.Layers.add("sim.accel_words", double(Probe.Words));
          P.Layers.add("exec.plan_cache_misses", 1);
        }
      }
      ++P.Passes;
    } while (msBetween(Start, Clock::now()) < Seconds * 1e3 ||
             P.Passes < MinPasses);
    if (Traced)
      P.Direct.push_back({"compile_ms_p50", {median(CompileMs), "ms"}});
    return P;
  }

private:
  /// 16 rounds of 15 strata: 240 jobs, so 12 lie beyond the p95.
  static constexpr int kRounds = 16;
  static constexpr int kReps = 3;

  [[noreturn]] static void fatal(const std::string &Name,
                                 const std::string &Error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", Name.c_str(), Error.c_str());
    std::exit(1);
  }

  /// kRounds distinct shapes for stratum \p S. Rows 0 and 1 are the
  /// extremes (every dim smallest, every dim largest), so every seed's
  /// pass holds the same largest job; the other rows permute the
  /// remaining values independently per dim.
  std::vector<Shape> drawShapes(const Stratum &S) {
    static const int64_t Dims[kRounds] = {6,  32, 8,  9,  11, 13, 14, 16,
                                          18, 19, 21, 23, 24, 26, 28, 30};
    std::vector<Shape> Shapes;
    std::set<std::string> Seen;
    while (Seen.size() < size_t(kRounds)) {
      std::vector<int64_t> Col[3];
      for (std::vector<int64_t> &C : Col) {
        C.assign(Dims, Dims + kRounds);
        for (size_t I = C.size(); I > 3; --I)
          std::swap(C[I - 1], C[size_t(Gen->range(2, int64_t(I) - 1))]);
      }
      Shapes.clear();
      Seen.clear();
      for (int R = 0; R < kRounds; ++R) {
        // Conv: input channels and filters 1-8, inputs 6-13 wide, 3x3
        // and 1x1 filters at stride 1 and 2.
        Shape Sh = S.IsConv ? Shape::conv(1 + Col[0][R] % 8, 6 + Col[1][R] % 8,
                                          1 + Col[2][R] % 8, R % 2 ? 1 : 3,
                                          1 + R / 2 % 2)
                            : Shape::matmul(Col[0][R], Col[1][R], Col[2][R]);
        Seen.insert(Sh.key());
        Shapes.push_back(Sh);
      }
    }
    return Shapes;
  }

  Job makeJob(const Stratum &S, const Shape &Sh) {
    Job J;
    J.Where = &S;
    J.S = Sh;
    J.Text = mlirText(J.S);
    J.Inputs = makeOperands(J.S, static_cast<uint32_t>(Gen->next()));
    J.Expected = referenceOutput(J.S, J.Inputs);
    return J;
  }

  /// One job, every program call timed. With \p Layers, each stage's time
  /// is added under its layer and lowering is split per pass; with
  /// \p Probe the accelerator is wrapped.
  JobResult runJob(const Job &J, AccelProbe *Probe, LayerSums *Layers) {
    JobResult R;
    std::string &Error = R.Error;
    auto Stage = [&](const char *Layer, auto &&F) {
      double Ms = 0;
      auto Result = timed(Ms, F);
      R.Ms += Ms;
      if (Layers)
        Layers->add(Layer, Ms);
      return Result;
    };

    FailureOr<parser::SystemConfig> Config = Stage("parser.config_ms", [&] {
      return parser::parseSystemConfig(J.Where->Config, &Error);
    });
    if (failed(Config))
      return R;
    std::vector<parser::AcceleratorDesc> &Accels = Config->Accelerators;
    bool ProtocolOk = Stage("analysis.protocol_ms", [&] {
      for (const parser::AcceleratorDesc &Accel : Accels) {
        analysis::ProtocolFindings F = analysis::checkConfigProtocol(Accel);
        if (!F.ok()) {
          Error = "protocol: " + F.Errors.front();
          return false;
        }
      }
      return true;
    });
    if (!ProtocolOk)
      return R;

    MLIRContext Context;
    FailureOr<OwningOpRef> Parsed = Stage("ir.parse_ms", [&] {
      registerAllDialects(Context);
      return parseSourceString(J.Text, &Context, &Error);
    });
    if (failed(Parsed))
      return R;
    OwningOpRef Owner = std::move(*Parsed);
    func::FuncOp Func(Owner.get());

    transforms::LoweringOptions Options;
    Options.EnableCpuTiling = !J.Where->IsConv;
    Options.CacheBytes = Config->Cpu.lastLevelCacheBytes();
    Options.Remainder = J.Where->Remainder;
    auto Plans = std::make_shared<std::vector<transforms::TilingPlan>>();
    bool Lowered = Stage("transforms.lower_ms", [&] {
      if (!Layers)
        return succeeded(transforms::buildPipeline(Accels, Options, Plans)
                             .run(Func, Error));
      return lowerPerPass(Func, Accels, Options, *Plans, *Layers, Error);
    });
    if (!Lowered)
      return R;
    if (Plans->empty()) {
      Error = "no kernel was matched";
      return R;
    }
    const parser::AcceleratorDesc &Accel =
        Accels[Plans->front().AcceleratorIndex];

    std::unique_ptr<exec::ExecPlan> Plan =
        Stage("exec.compile_ms",
              [&] { return exec::ExecPlan::compile(Func, Error); });
    if (!Plan)
      return R;
    exec::opt::PlanOptStats Stats = Stage("exec.opt_ms", [&] {
      return exec::opt::optimizePlan(*Plan, exec::opt::PlanOptOptions::all());
    });
    bool Verified = Stage("analysis.verify_ms", [&] {
      std::string ModelError;
      FailureOr<analysis::ProtocolModel> Model =
          analysis::ProtocolModel::forAccelerator(Accel, ModelError);
      analysis::VerifyOptions Verify;
      if (succeeded(Model))
        Verify.Model = &*Model;
      analysis::VerifyResult Found = analysis::verifyPlan(*Plan, Verify);
      if (!Found.ok())
        Error = "verify-plan: " + Found.toString();
      return Found.ok();
    });
    if (!Verified)
      return R;
    std::unique_ptr<exec::DecodedPlan> Decoded =
        Stage("exec.decode_ms",
              [&] { return exec::DecodedPlan::decode(*Plan); });
    FailureOr<std::string> CSource =
        Stage("codegen.emit_ms", [&] { return codegen::emitC(Func, &Error); });
    if (failed(CSource))
      return R;
    R.CompileMs = R.Ms;
    if (Layers) {
      Layers->add("exec.opt_rewrites", double(Stats.total()));
      Layers->add("exec.plan_insts", double(Plan->numInstructions()));
      Layers->add("codegen.c_bytes", double(CSource->size()));
    }

    std::vector<MemRefDesc> Args = cloneOperands(J.Inputs);
    std::unique_ptr<sim::SoC> Soc =
        Stage("sim.board_ms", [&] { return makeBoard(Accel, Probe, Error); });
    if (!Soc)
      return R;
    runtime::DmaRuntime Runtime(*Soc);
    LogicalResult Ran = Stage("exec.run_ms", [&] {
      return Decoded->run(*Soc, &Runtime, Args, Error);
    });
    if (failed(Ran))
      return R;
    R.Report = Soc->report();
    R.Output = Args[2];
    R.Ok = true;
    return R;
  }

  /// buildPipeline's passes, one at a time, each followed by the IR
  /// verification its PassManager runs, so each pass can be timed.
  static bool lowerPerPass(func::FuncOp Func,
                           const std::vector<parser::AcceleratorDesc> &Accels,
                           const transforms::LoweringOptions &Options,
                           std::vector<transforms::TilingPlan> &Plans,
                           LayerSums &Layers, std::string &Error) {
    transforms::PlanningOptions Planning;
    Planning.Mode = Options.Remainder;
    Planning.Params = Options.CostParams;
    using PassFn = std::function<LogicalResult()>;
    const std::pair<const char *, PassFn> Passes[] = {
        {"transforms.convert_named_to_generic_ms",
         [&] { return transforms::convertNamedToGeneric(Func, Error); }},
        {"transforms.match_and_annotate_ms",
         [&] {
           return transforms::matchAndAnnotate(Func, Accels, Planning, Error,
                                               nullptr, &Plans);
         }},
        {"transforms.lower_to_accel_ms",
         [&] { return transforms::lowerToAccel(Func, Options, Error); }},
        {"transforms.accel_to_runtime_ms",
         [&] { return transforms::convertAccelToRuntime(Func, Error); }}};
    for (const auto &[Name, Pass] : Passes) {
      double Ms = 0;
      bool Ok = timed(Ms, [&] {
        return succeeded(Pass()) &&
               succeeded(verify(Func.getOperation(), Error));
      });
      Layers.add(Name, Ms);
      if (!Ok)
        return false;
    }
    return true;
  }

  std::unique_ptr<Rng> Gen;
  std::vector<Stratum> Strata;
  std::vector<Job> Pass;
  bool CheckTraced = false;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeCompileSweep() {
  return std::make_unique<CompileSweep>();
}
