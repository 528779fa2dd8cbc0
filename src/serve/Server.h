//===- Server.h - Resilient multi-tenant accelerator service ----*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// axi4mlir-serve: a job server executing a stream of (kernel, shape,
/// deadline) requests across a pool of independent simulated SoC
/// instances. The robustness policies are explicit and bounded:
///
///  * Admission control — a bounded queue; submissions beyond QueueDepth
///    are shed immediately with a structured Overloaded status, never
///    blocked. Deadline-infeasible jobs (best-case modeled cost already
///    over budget) are shed at admission as DeadlineExceeded.
///  * Cost-model routing — each attempt is dispatched to the healthy
///    instance with the cheapest TilingPlan modeled cost for the job's
///    shape (transforms::planKernelDispatch), scaled by instance load.
///  * Deadlines — per-job modeled-latency budgets. A watchdog gate before
///    every attempt cancels the job (DeadlineExceeded) once the budget
///    cannot cover another attempt; individual attempts are bounded by the
///    simulator's own DMA watchdog, so nothing hangs.
///  * Circuit breakers — per-instance failure tracking. BreakerThreshold
///    consecutive attempt failures trip the breaker Open; the instance is
///    skipped for BreakerCooldown routing decisions, then admits a single
///    HalfOpen probe job whose outcome closes or re-opens the breaker.
///  * Retry with failover — failed attempts retry (up to MaxAttempts) on
///    a different instance when one exists, falling back to a host-CPU
///    execution when no healthy instance remains (CpuFallback).
///  * Graceful drain — shutdown stops admission (Rejected), completes all
///    admitted jobs, and joins the workers.
///
/// Determinism: Threads = 0 selects a single-thread scheduler (jobs run
/// FIFO on the caller's thread at drain points) and all latency accounting
/// uses *modeled* time (PerfReport.TaskClockMs), so every status, routing
/// decision and output checksum is reproducible — the ServerTest
/// differential pin compares each admitted job's buffers against a
/// fault-free solo run bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SERVE_SERVER_H
#define AXI4MLIR_SERVE_SERVER_H

#include "parser/AcceleratorConfig.h"
#include "serve/PlanCache.h"
#include "sim/CostModel.h"
#include "sim/FaultInjector.h"
#include "sim/PerfModel.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace axi4mlir {
namespace serve {

/// Kernels the service executes.
enum class JobKind { MatMul, Conv2D };

const char *toString(JobKind Kind);

/// One client request. Shapes are validated at submission; invalid
/// requests are Rejected with a diagnostic.
struct JobRequest {
  JobKind Kind = JobKind::MatMul;

  /// MatMul problem size.
  int64_t M = 64, N = 64, K = 64;

  /// Conv2D (NCHW/FCHW, batch 1) problem size.
  int64_t InChannels = 64, InHW = 16, OutChannels = 64, FilterHW = 3,
          Stride = 1;

  sim::ElemKind Elem = sim::ElemKind::I32;

  /// Data seed: operands are filled fillRandom(Seed / Seed+1 / Seed+2),
  /// exactly like the solo pipeline entry points, so checksums are
  /// comparable across routing decisions.
  uint32_t Seed = 7;

  /// Modeled-latency budget in ms. Negative = use the server default,
  /// 0 = no deadline.
  double DeadlineMs = -1;
};

/// Terminal status of a job. Every submitted job receives exactly one.
enum class JobStatus {
  /// Executed; Checksum and Report are valid.
  Completed,
  /// Shed at admission: queue full (backpressure).
  Overloaded,
  /// Deadline infeasible at admission, or budget exhausted by retries.
  DeadlineExceeded,
  /// Refused without execution: draining server or invalid request.
  Rejected,
  /// All attempts failed (retries + fallback exhausted).
  Failed,
};

/// The terminal record of one job.
struct JobOutcome {
  uint64_t Id = 0;
  JobStatus Status = JobStatus::Failed;
  std::string Error;
  /// Pool instance that completed the job (-1 = none / CPU fallback).
  int Instance = -1;
  /// Completed on the host-CPU fallback path.
  bool CpuFallback = false;
  /// Execution attempts consumed (0 when shed at admission).
  unsigned Attempts = 0;
  /// Modeled execution time summed over every attempt (ms).
  double ModeledMs = 0;
  /// Modeled queueing delay before the first attempt started (ms).
  double QueueWaitMs = 0;
  /// ModeledMs + QueueWaitMs: the job's end-to-end modeled latency.
  double LatencyMs = 0;
  /// FNV-1a 64 over the output buffer words (Completed only).
  uint64_t Checksum = 0;
  /// Perf counters of the completing attempt (Completed only).
  sim::PerfReport Report;
};

/// Per-instance circuit-breaker state (exposed for tests/monitoring).
enum class BreakerState { Closed, Open, HalfOpen };

/// Fault assignment for one pool instance: the schedule a fresh
/// FaultInjector replays on each affected attempt, plus failover spares.
struct InstanceFaults {
  sim::FaultPlan Plan;
  /// Number of the instance's first attempts that see the schedule
  /// (0 = every attempt). A finite window models a transient brown-out a
  /// half-open probe can discover as healed.
  unsigned JobsAffected = 0;
  /// Protocol-identical spare accelerators registered on affected runs.
  unsigned Spares = 0;
};

/// Service sizing and policy. Mirrors parser::ServeSection plus the SoC
/// calibration; makeServerOptions converts a parsed config.
struct ServerOptions {
  unsigned Instances = 2;
  unsigned QueueDepth = 16;
  unsigned MaxAttempts = 3;
  unsigned BreakerThreshold = 3;
  unsigned BreakerCooldown = 4;
  unsigned PlanCacheCapacity = 32;
  unsigned Threads = 0;
  double DefaultDeadlineMs = 0;
  bool CpuFallback = true;
  sim::SoCParams Params;
};

/// Builds ServerOptions from a parsed configuration file's serve section
/// (defaults when the section is absent).
ServerOptions makeServerOptions(const parser::SystemConfig &Config);

/// Aggregate fleet counters.
struct ServerStats {
  uint64_t Submitted = 0;
  uint64_t Admitted = 0;
  uint64_t Completed = 0;
  uint64_t Overloaded = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t Rejected = 0;
  uint64_t Failed = 0;
  /// Extra attempts beyond each job's first.
  uint64_t Retries = 0;
  /// Retries routed to a different instance than the failed one.
  uint64_t Failovers = 0;
  /// Jobs completed on the host-CPU fallback path.
  uint64_t CpuFallbacks = 0;
  /// Closed -> Open breaker transitions across the pool.
  uint64_t BreakerTrips = 0;
  /// Shared compiled-plan cache counters.
  PlanCache::Stats Plans;
};

/// The service. Construction builds the instance pool: instance i hosts
/// Accels[i % Accels.size()] (an empty accelerator list makes a CPU-only
/// pool usable only with CpuFallback). Thread-safe; with Threads = 0 all
/// execution happens inside drain() on the caller's thread.
class Server {
public:
  Server(std::vector<parser::AcceleratorDesc> Accels,
         const ServerOptions &Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Assigns a fault schedule to pool instance \p Index. Call before
  /// submitting; attempts on that instance replay the schedule through a
  /// fresh FaultInjector.
  void setInstanceFaults(unsigned Index, InstanceFaults Faults);

  /// Submits one job. Never blocks: the job is queued, or shed with a
  /// structured status recorded in its outcome. Returns the job id.
  uint64_t submit(const JobRequest &Request);

  /// Runs (Threads = 0) or waits for (threaded) every admitted job.
  void drain();

  /// Graceful shutdown: stop admitting, drain, join workers. Idempotent;
  /// the destructor calls it.
  void shutdown();

  /// Moves out all recorded outcomes, ordered by job id.
  std::vector<JobOutcome> takeOutcomes();

  ServerStats stats() const;
  BreakerState breakerState(unsigned Index) const;
  unsigned numInstances() const;

private:
  struct Instance;
  struct PendingJob;
  struct AttemptSetup;
  struct AttemptResult;
  struct Impl;
  std::unique_ptr<Impl> State;
};

/// Executes \p Request alone on a fresh fault-free deterministic server
/// over the same accelerator pool — the reference for the differential
/// robustness pin (deadline cleared so the reference always completes).
JobOutcome runSoloJob(const JobRequest &Request,
                      const std::vector<parser::AcceleratorDesc> &Accels,
                      const ServerOptions &Options);

} // namespace serve
} // namespace axi4mlir

#endif // AXI4MLIR_SERVE_SERVER_H
