//===- Support.h - Shared pieces of the benchmark ---------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the four workloads share: the seeded generator, wall-clock
/// helpers, input/reference construction, the `.mlir` text the program is
/// fed, the traced accelerator wrapper, and the per-layer accumulator.
/// All timing happens here, outside the library: spans wrap calls into
/// the library's public API, never code inside it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include "parser/AcceleratorConfig.h"
#include "runtime/MemRefDesc.h"
#include "sim/SoC.h"
#include "support/LogicalResult.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using namespace axi4mlir;
using runtime::MemRefDesc;
using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point Begin, Clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Begin).count();
}

/// Runs \p F, adds its wall time to \p Ms, and returns what \p F returns.
template <typename Fn> auto timed(double &Ms, Fn &&F) -> decltype(F()) {
  struct Stop {
    double &Ms;
    Clock::time_point Begin;
    ~Stop() { Ms += msBetween(Begin, Clock::now()); }
  } Guard{Ms, Clock::now()};
  return F();
}

/// splitmix64: portable, so a seed names the same inputs everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo +
           static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }

private:
  uint64_t State;
};

/// Linear-interpolated percentile of \p Values (0 <= P <= 1).
double percentile(std::vector<double> Values, double P);
inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 0.5);
}
double geomean(const std::vector<double> &Values);

/// Largest relative spread (max - min) / min over \p Samples.
double relativeSpread(const std::vector<double> &Samples);

/// Peak resident set of this process in MB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Problem shapes, inputs and references
//===----------------------------------------------------------------------===//

/// One kernel instance: a matmul C[M,N] += A[M,K] B[K,N], or a batch-1
/// NCHW/FCHW convolution.
struct Shape {
  bool IsConv = false;
  int64_t M = 0, N = 0, K = 0;
  int64_t InC = 0, InHW = 0, OutC = 0, FilterHW = 0, Stride = 1;

  static Shape matmul(int64_t M, int64_t N, int64_t K);
  static Shape conv(int64_t InC, int64_t InHW, int64_t OutC, int64_t FilterHW,
                    int64_t Stride);
  int64_t outHW() const { return (InHW - FilterHW) / Stride + 1; }
  std::string key() const;
};

/// The workload's input as the program's users write it: generic-form
/// `.mlir` text of `func @matmul_call` / `func @conv_call`.
std::string mlirText(const Shape &S);

/// Operands A/B/C (or I/W/O) filled from \p DataSeed exactly as the
/// library's own entry points and the serve layer fill them.
std::vector<MemRefDesc> makeOperands(const Shape &S, uint32_t DataSeed);

/// Fresh buffers holding the same values (what each timed job runs on).
std::vector<MemRefDesc> cloneOperands(const std::vector<MemRefDesc> &Args);

/// Output of exec/Reference.h on copies of \p Args.
MemRefDesc referenceOutput(const Shape &S, const std::vector<MemRefDesc> &Args);

/// Bit-for-bit equality of two outputs' words.
bool sameWords(const MemRefDesc &LHS, const MemRefDesc &RHS);

/// FNV-1a 64 over the buffer words (the serve layer's output checksum).
uint64_t fnv1a(const MemRefDesc &Desc);

//===----------------------------------------------------------------------===//
// Simulated boards and the traced accelerator wrapper
//===----------------------------------------------------------------------===//

/// Self time and work spent inside AcceleratorModel::consumeBurst.
struct AccelProbe {
  double Ms = 0;
  uint64_t Bursts = 0;
  uint64_t Words = 0;
};

/// Builds the board for \p Accel (matmul version from the `_vN` name
/// token, engine size from the largest tile; or the conv engine). With a
/// \p Probe, the accelerator sits behind a forwarding wrapper that times
/// each burst. Null (with \p Error) for an unknown accelerator.
std::unique_ptr<sim::SoC> makeBoard(const parser::AcceleratorDesc &Accel,
                                    AccelProbe *Probe, std::string &Error);

//===----------------------------------------------------------------------===//
// Per-layer accumulation
//===----------------------------------------------------------------------===//

/// Sums of per-layer time (ms) and work (counts) over a traced phase.
/// Metrics are reported per job, so phases of any length compare.
struct LayerSums {
  std::map<std::string, double> Values;
  void add(const std::string &Name, double V) { Values[Name] += V; }
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0.0 : It->second;
  }
  /// Adds the perf counters of one run.
  void addReport(const sim::PerfReport &R);
};

/// The counters of \p R that the cache model's host addresses cannot
/// change: instruction, branch, load and store counts, DMA traffic and
/// fabric cycles.
std::vector<double> addressFreeCounters(const sim::PerfReport &R);

/// Ordered name -> (value, unit) list, printed as the result's metrics.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

//===----------------------------------------------------------------------===//
// Workload interface
//===----------------------------------------------------------------------===//

/// Jobs of one timed phase. The phase repeats the workload's fixed,
/// seeded pass of jobs until its time is up; each job's wall time is the
/// fastest over the repetitions, which keeps co-tenant slowdowns on a
/// shared host (multi-second stretches at up to ~1.8x) out of the figures.
struct Phase {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  size_t Passes = 0;
  /// Per job of the pass: the fastest wall time of its program calls
  /// (serve_pool: submit-to-drain latency).
  std::vector<double> BestMs;
  /// The parts a pass's wall time adds up from, each at its fastest: the
  /// jobs (serve_pool: the waves).
  std::vector<double> PartBestMs;
  /// Traced phases only: per-layer sums (reported per job) and metrics
  /// the workload reports as they are.
  LayerSums Layers;
  Metrics Direct;
};

/// Keeps the fastest of repeated timings of job \p I.
inline void keepBest(std::vector<double> &Best, size_t I, double Ms) {
  if (Best.size() <= I)
    Best.resize(I + 1, 1e300);
  Best[I] = std::min(Best[I], Ms);
}

/// Adds the jobs of \p From, another phase over the same pass, to \p Into.
inline void merge(Phase &Into, const Phase &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  Into.Passes += From.Passes;
  for (size_t I = 0; I < From.BestMs.size(); ++I)
    keepBest(Into.BestMs, I, From.BestMs[I]);
  for (size_t I = 0; I < From.PartBestMs.size(); ++I)
    keepBest(Into.PartBestMs, I, From.PartBestMs[I]);
}

inline double sum(const std::vector<double> &Values) {
  double Total = 0;
  for (double V : Values)
    Total += V;
  return Total;
}

/// Modeled counters of the checked pass over the distinct cases.
struct CheckedPass {
  bool Ok = true;
  double TaskClockMs = 0;
  double CacheRefs = 0;
  /// Largest relative CacheReferences spread over repeated runs of one
  /// case on identical inputs (heap placement feeds the cache model).
  double RefsRepSpread = 0;
  /// Per case: CacheReferences of each repetition, and the counters that
  /// do not depend on host addresses (first repetition). The traced run
  /// is compared with the untraced one on both.
  std::vector<std::vector<double>> CaseRefs;
  std::vector<std::vector<double>> CaseCounters;
};

class Workload {
public:
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;
  virtual ~Workload();
  /// Generates the inputs and their reference outputs (never timed).
  virtual void prepare(uint64_t Seed) = 0;
  /// One full set-up; returns the wall ms of the program's calls in each
  /// of its steps (the same steps every time).
  virtual std::vector<double> setup(bool Traced) = 0;
  /// Runs every distinct case, checks it, and sums its modeled counters.
  virtual CheckedPass check() = 0;
  /// Modeled comparisons with a baseline, reported by the traced run
  /// (never timed). None by default.
  virtual Metrics baseline() { return {}; }
  /// Repeats the pass for \p Seconds of wall time (and at least
  /// \p MinPasses times).
  virtual Phase run(double Seconds, size_t MinPasses, bool Traced) = 0;
};

std::unique_ptr<Workload> makeAccelMatMul();
std::unique_ptr<Workload> makeCpuLinalg();
std::unique_ptr<Workload> makeCompileSweep();
std::unique_ptr<Workload> makeServePool();

/// Reads a file of the checkout (configs/...) into \p Text.
bool readFile(const std::string &Path, std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_H
