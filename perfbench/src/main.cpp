//===- main.cpp - Benchmark of record entry point -------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0: repeats the workload's pass of jobs for S seconds in
//            kSetupReps slices, each after a fresh set-up, then runs the
//            checked pass and prints the end-to-end metrics. Each job,
//            and each set-up step, counts with its fastest time over the
//            repetitions.
// --trace 1: an untraced half and a traced half of S/2 seconds each; the
//            traced half wraps the accelerator and splits each job by
//            layer. Prints the per-layer metrics, including the tracing
//            overhead and the traced/untraced modeled-counter deviation.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Support.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

constexpr int kSetupReps = 14;
constexpr size_t kMinTracedPasses = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "accel_matmul|cpu_linalg|compile_sweep|serve_pool --seed N "
               "--seconds S --trace 0|1\n",
               Message);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == '\0' && A.Seconds > 0;
    } else if (Flag == "--trace") {
      A.Trace = Value == "1";
      HaveTrace = Value == "0" || Value == "1";
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (Argc % 2 == 0 || A.Workload.empty() || !HaveSeed || !HaveSeconds ||
      !HaveTrace)
    usage("missing or malformed arguments");
  return A;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "accel_matmul")
    return makeAccelMatMul();
  if (Name == "cpu_linalg")
    return makeCpuLinalg();
  if (Name == "compile_sweep")
    return makeCompileSweep();
  if (Name == "serve_pool")
    return makeServePool();
  usage(("unknown workload " + Name).c_str());
}

/// Jobs completed per second of one pass at each job's fastest time.
double completedPerSecond(const Phase &P) {
  double Completed = 1.0 - double(P.Failed) / double(P.Attempted);
  return Completed * double(P.BestMs.size()) * 1e3 / sum(P.PartBestMs);
}

/// Per-job layer sums reported as they are named (value / job).
const std::pair<const char *, const char *> kPerJobLayers[] = {
    {"ir.parse_ms", "ms"},
    {"parser.config_ms", "ms"},
    {"transforms.lower_ms", "ms"},
    {"transforms.convert_named_to_generic_ms", "ms"},
    {"transforms.match_and_annotate_ms", "ms"},
    {"transforms.lower_to_accel_ms", "ms"},
    {"transforms.accel_to_runtime_ms", "ms"},
    {"analysis.verify_ms", "ms"},
    {"analysis.protocol_ms", "ms"},
    {"exec.compile_ms", "ms"},
    {"exec.opt_ms", "ms"},
    {"exec.decode_ms", "ms"},
    {"exec.opt_rewrites", "count"},
    {"exec.plan_insts", "count"},
    {"exec.run_ms", "ms"},
    {"codegen.emit_ms", "ms"},
    {"codegen.c_bytes", "bytes"},
    {"sim.board_ms", "ms"},
    {"sim.accel_ms", "ms"},
    {"sim.accel_bursts", "count"},
    {"sim.accel_words", "count"},
    {"sim.cache.l1d_accesses", "count"},
    {"sim.dma.transfers", "count"},
    {"sim.dma.bytes", "bytes"},
    {"sim.fabric_cycles", "cycles"},
    {"sim.host_cycles", "cycles"},
};

/// Metrics a workload reports directly, or 0 where its layer is not on
/// the workload's path.
const std::pair<const char *, const char *> kDirectLayers[] = {
    {"compile_ms_p50", "ms"},
    {"serve.submit_us_p50", "us"},
    {"serve.wave_ms_p50", "ms"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.retries", "count"},
    {"serve.failovers", "count"},
    {"serve.breaker_trips", "count"},
    {"serve.cpu_fallbacks", "count"},
    {"serve.shed", "count"},
    {"modeled_speedup_vs_manual", "ratio"},
    {"modeled.speedup_vs_manual_max", "ratio"},
    {"modeled.cache_ref_reduction_avg", "ratio"},
    {"modeled.cache_ref_reduction_max", "ratio"},
};

double lookup(const Metrics &List, const std::string &Name) {
  for (const auto &[Key, Value] : List)
    if (Key == Name)
      return Value.first;
  return 0;
}

/// Largest per-case relative deviation of the traced pass's median
/// CacheReferences from the untraced one's.
double refsDeviation(const CheckedPass &Untraced, const CheckedPass &Traced) {
  double Dev = 0;
  for (size_t I = 0; I < Untraced.CaseRefs.size() && I < Traced.CaseRefs.size();
       ++I) {
    double U = median(Untraced.CaseRefs[I]), T = median(Traced.CaseRefs[I]);
    if (U > 0)
      Dev = std::max(Dev, std::fabs(T - U) / U);
  }
  return Dev;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const Metrics &List) {
  // Human-readable lines first; the JSON object must be the last line.
  for (const auto &[Name, Value] : List)
    std::printf("%-40s %.6g %s\n", Name.c_str(), Value.first,
                Value.second.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t I = 0; I < List.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", List[I].first.c_str(), List[I].second.first,
                List[I].second.second.c_str());
  std::printf("}}\n");
}

int runEndToEnd(Workload &W, const Args &A) {
  // Each set-up precedes one of kSetupReps slices of the timed phase, so
  // the set-ups, like the job timings, span the whole run rather than one
  // stretch of host load, and each set-up step counts at its fastest as
  // each job does.
  std::vector<double> SetupBestMs;
  Phase P;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    std::vector<double> Steps = W.setup(/*Traced=*/false);
    for (size_t I = 0; I < Steps.size(); ++I)
      keepBest(SetupBestMs, I, Steps[I]);
    merge(P, W.run(A.Seconds / kSetupReps, 1, /*Traced=*/false));
  }
  // The checked pass comes last: it keeps every repetition's buffers
  // alive, and its heap peak is the benchmark's, not the program's.
  double PeakRssMb = peakRssMb();
  CheckedPass Pass = W.check();

  Metrics M;
  M.push_back({"setup_s", {sum(SetupBestMs) / 1e3, "s"}});
  M.push_back({"jobs_per_s", {completedPerSecond(P), "1/s"}});
  M.push_back({"job_ms_p50", {percentile(P.BestMs, 0.50), "ms"}});
  M.push_back({"job_ms_p95", {percentile(P.BestMs, 0.95), "ms"}});
  M.push_back({"peak_rss_mb", {PeakRssMb, "MB"}});
  M.push_back({"modeled_ms", {Pass.TaskClockMs, "ms"}});
  M.push_back({"modeled_cache_refs", {Pass.CacheRefs, "count"}});
  std::printf("# %s seed %llu: %zu passes of %zu jobs (%llu timed), "
              "failed_frac %.6g, sim.cache.refs_rep_spread %.6g\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, P.Passes,
              P.BestMs.size(), (unsigned long long)P.Attempted,
              double(P.Failed) / double(P.Attempted), Pass.RefsRepSpread);
  // Any failed job, not only a wrong output, makes the run incorrect.
  printResult(Pass.Ok && P.Failed == 0, P.Attempted, P.Failed, M);
  return 0;
}

int runTraced(Workload &W, const Args &A) {
  W.setup(/*Traced=*/false);
  Phase U = W.run(A.Seconds / 2, kMinTracedPasses, /*Traced=*/false);
  CheckedPass PassU = W.check();
  W.setup(/*Traced=*/true);
  Phase T = W.run(A.Seconds / 2, kMinTracedPasses, /*Traced=*/true);
  CheckedPass PassT = W.check();

  Metrics M;
  double Jobs = double(T.Attempted);
  for (const auto &[Name, Unit] : kPerJobLayers)
    M.push_back({Name, {T.Layers.get(Name) / Jobs, Unit}});
  double RunMs = T.Layers.get("exec.run_ms");
  M.push_back({"exec.host_side_ms",
               {(RunMs - T.Layers.get("sim.accel_ms")) / Jobs, "ms"}});
  double Hits = T.Layers.get("exec.plan_cache_hits"),
         Misses = T.Layers.get("exec.plan_cache_misses");
  M.push_back({"exec.plan_cache_hit_ratio",
               {Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio"}});
  double Accesses = T.Layers.get("sim.cache.l1d_accesses");
  M.push_back({"sim.cache.ns_per_access",
               {Accesses > 0 ? RunMs * 1e6 / Accesses : 0, "ns"}});
  M.push_back({"sim.cache.refs_rep_spread", {PassU.RefsRepSpread, "ratio"}});
  Metrics Baseline = W.baseline();
  for (const auto &[Name, Unit] : kDirectLayers)
    M.push_back(
        {Name, {lookup(T.Direct, Name) + lookup(Baseline, Name), Unit}});
  uint64_t Attempted = U.Attempted + T.Attempted, Failed = U.Failed + T.Failed;
  M.push_back({"failed_frac", {double(Failed) / double(Attempted), "ratio"}});
  double UntracedRate = completedPerSecond(U);
  M.push_back({"trace.overhead_frac",
               {(UntracedRate - completedPerSecond(T)) / UntracedRate,
                "ratio"}});
  double Dev = refsDeviation(PassU, PassT);
  M.push_back({"trace.modeled_refs_dev", {Dev, "ratio"}});

  // The traced run must not change what is simulated: the counters that
  // do not depend on host addresses match the untraced run exactly. Cache
  // references do depend on them (a known defect of the cache model), so
  // their deviation is reported and only warned about.
  bool Honest = PassU.CaseCounters == PassT.CaseCounters;
  if (!Honest)
    std::fprintf(stderr, "perfbench: the traced run changed address-free "
                         "modeled counters\n");
  double Spread = std::max(PassU.RefsRepSpread, PassT.RefsRepSpread);
  if (Dev > Spread)
    std::fprintf(stderr,
                 "perfbench: warning: traced cache references deviate by "
                 "%.6g, more than the repetition spread %.6g\n",
                 Dev, Spread);
  bool Correct = PassU.Ok && PassT.Ok && Failed == 0 && Honest;
  printResult(Correct, Attempted, Failed, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload);
  W->prepare(A.Seed);
  return A.Trace ? runTraced(*W, A) : runEndToEnd(*W, A);
}
