//===- Server.cpp - Resilient multi-tenant accelerator service ------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "dialects/InitAllDialects.h"
#include "dialects/Linalg.h"
#include "exec/ExecPlan.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "runtime/DmaRuntime.h"
#include "sim/MatMulAccelerator.h"
#include "sim/SoC.h"
#include "transforms/Passes.h"
#include "transforms/TilingPlan.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::serve;
using runtime::MemRefDesc;

const char *serve::toString(JobKind Kind) {
  return Kind == JobKind::MatMul ? "matmul" : "conv2d";
}

//===----------------------------------------------------------------------===//
// Job geometry helpers
//===----------------------------------------------------------------------===//

namespace {

const char *kernelNameOf(JobKind Kind) {
  return Kind == JobKind::MatMul ? "linalg.matmul" : "linalg.conv_2d_nchw_fchw";
}

int64_t convOutHW(const JobRequest &Request) {
  return (Request.InHW - Request.FilterHW) / Request.Stride + 1;
}

bool validateRequest(const JobRequest &Request, std::string &Reason) {
  if (Request.Kind == JobKind::MatMul) {
    if (Request.M <= 0 || Request.N <= 0 || Request.K <= 0) {
      Reason = "invalid matmul shape: M, N and K must be positive";
      return false;
    }
    return true;
  }
  if (Request.InChannels <= 0 || Request.OutChannels <= 0 ||
      Request.InHW <= 0 || Request.FilterHW <= 0 || Request.Stride <= 0) {
    Reason = "invalid conv2d shape: all dimensions must be positive";
    return false;
  }
  if (Request.FilterHW > Request.InHW) {
    Reason = "invalid conv2d shape: filter is larger than the input";
    return false;
  }
  return true;
}

/// Canonical loop ranges in the order the planner's indexing maps expect:
/// matmul (m, n, k); conv (b, oc, oh, ow, ic, fh, fw).
std::vector<int64_t> loopRangesOf(const JobRequest &Request) {
  if (Request.Kind == JobKind::MatMul)
    return {Request.M, Request.N, Request.K};
  int64_t Out = convOutHW(Request);
  return {1,
          Request.OutChannels,
          Out,
          Out,
          Request.InChannels,
          Request.FilterHW,
          Request.FilterHW};
}

std::vector<AffineMap> indexingMapsOf(const JobRequest &Request) {
  return Request.Kind == JobKind::MatMul
             ? linalg::getMatmulIndexingMaps()
             : linalg::getConvIndexingMaps(Request.Stride, Request.Stride);
}

std::string shapeKey(const JobRequest &Request) {
  std::ostringstream OS;
  OS << toString(Request.Kind) << '|';
  if (Request.Kind == JobKind::MatMul)
    OS << Request.M << 'x' << Request.N << 'x' << Request.K;
  else
    OS << Request.InChannels << 'x' << Request.InHW << 'x'
       << Request.OutChannels << 'x' << Request.FilterHW << 's'
       << Request.Stride;
  OS << '|' << (Request.Elem == sim::ElemKind::F32 ? "f32" : "i32");
  return OS.str();
}

std::string planKeyOf(const JobRequest &Request,
                      const parser::AcceleratorDesc *Accel) {
  return shapeKey(Request) + '|' + (Accel ? "accel:" + Accel->Name : "cpu");
}

/// Coarse host-CPU cost model for deadline gating of the fallback path:
/// a scalar MAC costs roughly 8 host instructions (two loads, multiply,
/// add, amortized store and loop overhead). Only the order of magnitude
/// matters — it must be comparable to the accelerator plan costs.
double cpuEstimateMs(const sim::SoCParams &Params, const JobRequest &Request) {
  double Macs;
  if (Request.Kind == JobKind::MatMul) {
    Macs = double(Request.M) * double(Request.N) * double(Request.K);
  } else {
    double Out = double(convOutHW(Request));
    Macs = double(Request.OutChannels) * Out * Out *
           double(Request.InChannels) * double(Request.FilterHW) *
           double(Request.FilterHW);
  }
  return Params.taskClockMs(Macs * 8.0 * Params.CyclesPerInstruction, 0);
}

/// Accelerator engine size for the SoC factory: the largest configured
/// tile (the square engines store the full tile), floor 8 when the config
/// only has sentinel entries.
int64_t accelTileSize(const parser::AcceleratorDesc &Accel) {
  int64_t Size = 0;
  for (int64_t Tile : Accel.AccelSize)
    Size = std::max(Size, Tile);
  return Size <= 0 ? 8 : Size;
}

std::vector<MemRefDesc> makeJobBuffers(const JobRequest &Request) {
  std::vector<MemRefDesc> Args;
  if (Request.Kind == JobKind::MatMul) {
    Args.push_back(MemRefDesc::alloc({Request.M, Request.K}, Request.Elem));
    Args.push_back(MemRefDesc::alloc({Request.K, Request.N}, Request.Elem));
    Args.push_back(MemRefDesc::alloc({Request.M, Request.N}, Request.Elem));
  } else {
    int64_t Out = convOutHW(Request);
    Args.push_back(MemRefDesc::alloc(
        {1, Request.InChannels, Request.InHW, Request.InHW}, Request.Elem));
    Args.push_back(MemRefDesc::alloc({Request.OutChannels, Request.InChannels,
                                      Request.FilterHW, Request.FilterHW},
                                     Request.Elem));
    Args.push_back(
        MemRefDesc::alloc({1, Request.OutChannels, Out, Out}, Request.Elem));
  }
  // Same seeds as the solo pipeline entry points, so checksums are
  // comparable across routing decisions and the CPU fallback.
  exec::fillRandom(Args[0], Request.Seed);
  exec::fillRandom(Args[1], Request.Seed + 1);
  exec::fillRandom(Args[2], Request.Seed + 2);
  return Args;
}

/// FNV-1a 64 over the output buffer words.
uint64_t checksumOf(const MemRefDesc &Desc) {
  uint64_t Hash = 1469598103934665603ull;
  const auto &Words = Desc.Buffer->Data;
  for (size_t I = 0, E = Words.size(); I != E; ++I) {
    uint32_t Word = Words[I];
    for (int Byte = 0; Byte < 4; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xffu;
      Hash *= 1099511628211ull;
    }
  }
  return Hash;
}

/// Compiles one job driver: builds the workload IR, runs the AXI4MLIR
/// pipeline for \p Accel (or named->generic for the CPU path), compiles
/// the ExecPlan and pre-decodes it. The IR and context are discarded —
/// DecodedPlan owns copies of everything it executes.
std::shared_ptr<const CompiledKernel>
compileKernel(const JobRequest &Request, const parser::AcceleratorDesc *Accel,
              const ServerOptions &Options, std::string &Error) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      Request.Kind == JobKind::MatMul
          ? exec::buildMatMulFunc(Builder, Request.M, Request.N, Request.K,
                                  Request.Elem)
          : exec::buildConvFunc(Builder, 1, Request.InChannels, Request.InHW,
                                Request.OutChannels, Request.FilterHW,
                                Request.Stride, Request.Elem);
  OwningOpRef Owner(Func.getOperation());

  auto Kernel = std::make_shared<CompiledKernel>();
  if (Accel) {
    transforms::LoweringOptions Lowering;
    Lowering.EnableCpuTiling = Request.Kind == JobKind::MatMul;
    Lowering.CacheBytes = Options.Params.L2SizeBytes;
    Lowering.CostParams = Options.Params;
    auto Plans = std::make_shared<std::vector<transforms::TilingPlan>>();
    transforms::PassManager Pipeline = transforms::buildPipeline(
        std::vector<parser::AcceleratorDesc>{*Accel}, Lowering, Plans);
    if (failed(Pipeline.run(Func, Error)))
      return nullptr;
    if (!Plans->empty())
      Kernel->EstimatedCostMs = Plans->front().EstimatedCostMs;
    Kernel->Accelerator = Accel->Name;
  } else if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    return nullptr;
  }

  std::unique_ptr<exec::ExecPlan> Plan = exec::ExecPlan::compile(Func, Error);
  if (!Plan)
    return nullptr;
  Kernel->Decoded = exec::DecodedPlan::decode(*Plan);
  return Kernel;
}

} // namespace

//===----------------------------------------------------------------------===//
// Server internals
//===----------------------------------------------------------------------===//

struct Server::Instance {
  parser::AcceleratorDesc Accel;
  InstanceFaults Faults;

  BreakerState Breaker = BreakerState::Closed;
  unsigned ConsecutiveFailures = 0;
  unsigned CooldownLeft = 0;
  bool ProbeInFlight = false;

  /// Attempts ever dispatched here (the fault window counts these).
  unsigned AttemptsStarted = 0;
  unsigned InFlight = 0;
  /// Modeled busy time accumulated on this instance (the pool clock).
  double BusyMs = 0;
};

struct Server::PendingJob {
  uint64_t Id = 0;
  JobRequest Request;
  /// Resolved budget (server default applied); 0 = none.
  double DeadlineMs = 0;
  /// Pool clock when the job was admitted (for modeled queue wait).
  double ArrivalMs = 0;
};

struct Server::AttemptSetup {
  int Instance = -1; // -1 = host-CPU fallback
  const parser::AcceleratorDesc *Accel = nullptr;
  bool IsProbe = false;
  bool Faulty = false;
  sim::FaultPlan Faults;
  unsigned Spares = 0;
};

struct Server::AttemptResult {
  bool Ok = false;
  std::string Error;
  double ModeledMs = 0;
  uint64_t Checksum = 0;
  sim::PerfReport Report;
};

struct Server::Impl {
  explicit Impl(const ServerOptions &Options)
      : Options(Options), Plans(Options.PlanCacheCapacity) {}

  ServerOptions Options;
  std::vector<Instance> Instances;
  PlanCache Plans;

  mutable std::mutex Mutex;
  std::condition_variable WorkCv;
  std::condition_variable IdleCv;
  std::deque<PendingJob> Queue;
  unsigned Executing = 0;
  bool Draining = false;
  bool Stopping = false;

  uint64_t LastJobId = 0;
  ServerStats Stats;
  std::map<uint64_t, JobOutcome> Outcomes;
  /// shapeKey|accel -> TilingPlan modeled cost (negative = illegal).
  std::map<std::string, double> CostCache;

  std::vector<std::thread> Workers;

  double costForLocked(const JobRequest &Request,
                       const parser::AcceleratorDesc &Accel);
  int routeLocked(const JobRequest &Request, int Exclude);
  AttemptSetup beginAttemptLocked(int Chosen, const PendingJob &Job,
                                  bool FirstAttempt, JobOutcome &Out);
  void finishAttemptLocked(const AttemptSetup &Setup,
                           const AttemptResult &Result);
  AttemptResult runAttempt(const JobRequest &Request,
                           const AttemptSetup &Setup);
  void processJobLocked(PendingJob Job, std::unique_lock<std::mutex> &Lock);
  void recordOutcomeLocked(JobOutcome Out);
  void workerLoop();
};

double Server::Impl::costForLocked(const JobRequest &Request,
                                   const parser::AcceleratorDesc &Accel) {
  std::string Key = shapeKey(Request) + '|' + Accel.Name;
  auto It = CostCache.find(Key);
  if (It != CostCache.end())
    return It->second;
  transforms::PlanningOptions Planning;
  Planning.Params = Options.Params;
  std::string Error;
  FailureOr<transforms::TilingPlan> Plan = transforms::planKernelDispatch(
      loopRangesOf(Request), indexingMapsOf(Request), {Accel}, Planning,
      Error);
  double Cost = succeeded(Plan) ? Plan->EstimatedCostMs : -1.0;
  CostCache[Key] = Cost;
  return Cost;
}

/// Picks the cheapest healthy instance for the job. Pass 0 skips the
/// instance the previous attempt just failed on (\p Exclude) so a retry
/// hedges elsewhere; pass 1 reconsiders it only when nothing else was
/// available. Open breakers consume one cooldown tick per consideration
/// and transition to HalfOpen at zero; a half-open instance admits a
/// single probe at a time.
int Server::Impl::routeLocked(const JobRequest &Request, int Exclude) {
  const char *Kernel = kernelNameOf(Request.Kind);
  for (int Pass = 0; Pass < 2; ++Pass) {
    int Best = -1;
    double BestScore = 0;
    for (size_t I = 0; I < Instances.size(); ++I) {
      if (Pass == 0 ? int(I) == Exclude : int(I) != Exclude)
        continue;
      Instance &Inst = Instances[I];
      if (Inst.Accel.Kernel != Kernel)
        continue;
      if (Inst.Breaker == BreakerState::Open) {
        if (Inst.CooldownLeft > 0) {
          --Inst.CooldownLeft;
          continue;
        }
        Inst.Breaker = BreakerState::HalfOpen;
      }
      if (Inst.Breaker == BreakerState::HalfOpen && Inst.ProbeInFlight)
        continue;
      double Cost = costForLocked(Request, Inst.Accel);
      if (Cost < 0)
        continue;
      double Score = Cost * (1.0 + Inst.InFlight);
      if (Best < 0 || Score < BestScore) {
        Best = int(I);
        BestScore = Score;
      }
    }
    if (Best >= 0)
      return Best;
    if (Exclude < 0)
      break; // nothing to reconsider
  }
  return -1;
}

Server::AttemptSetup Server::Impl::beginAttemptLocked(int Chosen,
                                                      const PendingJob &Job,
                                                      bool FirstAttempt,
                                                      JobOutcome &Out) {
  AttemptSetup Setup;
  Setup.Instance = Chosen;
  if (Chosen < 0)
    return Setup;
  Instance &Inst = Instances[Chosen];
  Setup.Accel = &Inst.Accel;
  if (Inst.Breaker == BreakerState::HalfOpen) {
    Setup.IsProbe = true;
    Inst.ProbeInFlight = true;
  }
  bool InWindow = Inst.Faults.JobsAffected == 0 ||
                  Inst.AttemptsStarted < Inst.Faults.JobsAffected;
  if (InWindow && (!Inst.Faults.Plan.empty() || Inst.Faults.Spares > 0)) {
    Setup.Faulty = true;
    Setup.Faults = Inst.Faults.Plan;
    Setup.Spares = Inst.Faults.Spares;
  }
  ++Inst.AttemptsStarted;
  ++Inst.InFlight;
  if (FirstAttempt)
    Out.QueueWaitMs = std::max(0.0, Inst.BusyMs - Job.ArrivalMs);
  return Setup;
}

void Server::Impl::finishAttemptLocked(const AttemptSetup &Setup,
                                       const AttemptResult &Result) {
  if (Setup.Instance < 0)
    return; // CPU fallback carries no breaker state
  Instance &Inst = Instances[Setup.Instance];
  --Inst.InFlight;
  Inst.BusyMs += Result.ModeledMs;
  if (Result.Ok) {
    Inst.ConsecutiveFailures = 0;
    if (Setup.IsProbe)
      Inst.ProbeInFlight = false;
    if (Inst.Breaker != BreakerState::Closed)
      Inst.Breaker = BreakerState::Closed;
    return;
  }
  if (Setup.IsProbe) {
    // A failed probe re-opens the breaker for a fresh cooldown.
    Inst.ProbeInFlight = false;
    Inst.Breaker = BreakerState::Open;
    Inst.CooldownLeft = Options.BreakerCooldown;
    return;
  }
  if (Inst.Breaker == BreakerState::Closed &&
      ++Inst.ConsecutiveFailures >= Options.BreakerThreshold) {
    Inst.Breaker = BreakerState::Open;
    Inst.CooldownLeft = Options.BreakerCooldown;
    ++Stats.BreakerTrips;
  }
}

Server::AttemptResult Server::Impl::runAttempt(const JobRequest &Request,
                                               const AttemptSetup &Setup) {
  AttemptResult Result;
  std::string Error;

  std::string Key = planKeyOf(Request, Setup.Accel);
  std::shared_ptr<const CompiledKernel> Kernel = Plans.lookup(Key);
  bool CacheHit = Kernel != nullptr;
  if (!Kernel) {
    Kernel = compileKernel(Request, Setup.Accel, Options, Error);
    if (!Kernel) {
      Result.Error = "plan compilation failed: " + Error;
      return Result;
    }
    Plans.insert(Key, Kernel);
  }

  std::vector<MemRefDesc> Args = makeJobBuffers(Request);

  std::unique_ptr<sim::SoC> Soc;
  if (!Setup.Accel) {
    Soc = sim::makeCpuOnlySoC(Options.Params);
  } else if (Request.Kind == JobKind::MatMul) {
    FailureOr<sim::MatMulAccelerator::Version> Version =
        sim::MatMulAccelerator::versionFromName(Setup.Accel->Name, Error);
    if (failed(Version)) {
      Result.Error = Error;
      return Result;
    }
    Soc = sim::makeMatMulSoC(*Version, accelTileSize(*Setup.Accel),
                             Request.Elem, Options.Params);
  } else {
    Soc = sim::makeConvSoC(Request.Elem, Options.Params);
  }
  if (CacheHit)
    Soc->perf().onPlanCacheHit();
  else
    Soc->perf().onPlanCacheMiss();

  // Replay the instance's fault schedule through a fresh injector so every
  // affected attempt sees the deterministic schedule from the start.
  std::optional<sim::FaultInjector> Injector;
  if (Setup.Faulty) {
    for (unsigned I = 0; I < Setup.Spares; ++I)
      Soc->addSpareAccelerator(Soc->accelerator()->cloneFresh(),
                               Kernel->EstimatedCostMs);
    Injector.emplace(Setup.Faults);
    Soc->attachFaultInjector(&*Injector);
  }

  std::optional<runtime::DmaRuntime> Runtime;
  if (Setup.Accel)
    Runtime.emplace(*Soc, /*SpecializeCopies=*/true);

  LogicalResult Run = Kernel->Decoded->run(
      *Soc, Setup.Accel ? &*Runtime : nullptr, Args, Error);
  Result.Report = Soc->report();
  Result.ModeledMs = Result.Report.TaskClockMs;
  if (failed(Run)) {
    Result.Error = Error.empty() ? "execution failed" : Error;
    return Result;
  }
  Result.Checksum = checksumOf(Args.back());
  Result.Ok = true;
  return Result;
}

void Server::Impl::processJobLocked(PendingJob Job,
                                    std::unique_lock<std::mutex> &Lock) {
  JobOutcome Out;
  Out.Id = Job.Id;
  double SpentMs = 0;
  int Exclude = -1;
  int PrevInstance = -2;
  unsigned Attempt = 0;
  std::string LastError;

  for (;;) {
    int Chosen = routeLocked(Job.Request, Exclude);
    bool UseCpu = Chosen < 0;
    if (UseCpu && !Options.CpuFallback) {
      Out.Status = JobStatus::Failed;
      Out.Error = Attempt == 0
                      ? std::string("no healthy instance for kernel '") +
                            kernelNameOf(Job.Request.Kind) +
                            "' and host-CPU fallback is disabled"
                      : "no healthy instance remains after " +
                            std::to_string(Attempt) +
                            " attempt(s); last error: " + LastError;
      break;
    }

    // Deadline watchdog: cancel once the budget cannot cover another
    // attempt's modeled cost. The budget covers the whole modeled
    // latency, so the first attempt also charges the queueing delay the
    // job would pay before running on the chosen instance.
    double EstimateMs = UseCpu ? cpuEstimateMs(Options.Params, Job.Request)
                               : costForLocked(Job.Request,
                                               Instances[Chosen].Accel);
    if (Attempt == 0 && !UseCpu)
      EstimateMs +=
          std::max(0.0, Instances[Chosen].BusyMs - Job.ArrivalMs);
    else
      EstimateMs += Out.QueueWaitMs;
    if (Job.DeadlineMs > 0 && SpentMs + EstimateMs > Job.DeadlineMs) {
      Out.Status = JobStatus::DeadlineExceeded;
      std::ostringstream OS;
      OS << "deadline watchdog: modeled budget " << Job.DeadlineMs
         << " ms exhausted after " << Attempt << " attempt(s) (" << SpentMs
         << " ms spent, next attempt needs " << EstimateMs << " ms)";
      Out.Error = OS.str();
      if (!LastError.empty())
        Out.Error += "; last error: " + LastError;
      break;
    }

    if (Attempt > 0) {
      ++Stats.Retries;
      if (!UseCpu && Chosen != PrevInstance)
        ++Stats.Failovers;
    }
    ++Attempt;
    AttemptSetup Setup = beginAttemptLocked(Chosen, Job, Attempt == 1, Out);

    Lock.unlock();
    AttemptResult Result = runAttempt(Job.Request, Setup);
    Lock.lock();

    SpentMs += Result.ModeledMs;
    finishAttemptLocked(Setup, Result);

    if (Result.Ok) {
      Out.Status = JobStatus::Completed;
      Out.Instance = Chosen;
      Out.CpuFallback = UseCpu;
      Out.Checksum = Result.Checksum;
      Out.Report = Result.Report;
      if (UseCpu)
        ++Stats.CpuFallbacks;
      break;
    }

    LastError = Result.Error;
    if (UseCpu) {
      // The fallback path is deterministic and fault-free: a failure here
      // would repeat, so retrying is pointless.
      Out.Status = JobStatus::Failed;
      Out.Error = "host-CPU fallback failed: " + LastError;
      break;
    }
    if (Attempt >= Options.MaxAttempts) {
      Out.Status = JobStatus::Failed;
      Out.Error = "retries exhausted after " + std::to_string(Attempt) +
                  " attempt(s): " + LastError;
      break;
    }
    Exclude = Chosen;
    PrevInstance = Chosen;
  }

  Out.Attempts = Attempt;
  Out.ModeledMs = SpentMs;
  Out.LatencyMs = SpentMs + Out.QueueWaitMs;
  recordOutcomeLocked(std::move(Out));
}

void Server::Impl::recordOutcomeLocked(JobOutcome Out) {
  switch (Out.Status) {
  case JobStatus::Completed:
    ++Stats.Completed;
    break;
  case JobStatus::Overloaded:
    ++Stats.Overloaded;
    break;
  case JobStatus::DeadlineExceeded:
    ++Stats.DeadlineExceeded;
    break;
  case JobStatus::Rejected:
    ++Stats.Rejected;
    break;
  case JobStatus::Failed:
    ++Stats.Failed;
    break;
  }
  Outcomes[Out.Id] = std::move(Out);
}

void Server::Impl::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty()) {
      if (Stopping)
        return;
      continue;
    }
    PendingJob Job = std::move(Queue.front());
    Queue.pop_front();
    ++Executing;
    processJobLocked(std::move(Job), Lock);
    --Executing;
    IdleCv.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

ServerOptions serve::makeServerOptions(const parser::SystemConfig &Config) {
  ServerOptions Options;
  const parser::ServeSection &Serve = Config.Serve;
  Options.Instances = Serve.Instances;
  Options.QueueDepth = Serve.QueueDepth;
  Options.MaxAttempts = Serve.MaxAttempts;
  Options.BreakerThreshold = Serve.BreakerThreshold;
  Options.BreakerCooldown = Serve.BreakerCooldown;
  Options.PlanCacheCapacity = Serve.PlanCacheCapacity;
  Options.Threads = Serve.Threads;
  Options.DefaultDeadlineMs = Serve.DefaultDeadlineMs;
  Options.CpuFallback = Serve.CpuFallback;
  Options.Params.L2SizeBytes = Config.Cpu.lastLevelCacheBytes();
  return Options;
}

Server::Server(std::vector<parser::AcceleratorDesc> Accels,
               const ServerOptions &Options)
    : State(std::make_unique<Impl>(Options)) {
  Impl &S = *State;
  unsigned Count = std::max(1u, Options.Instances);
  if (!Accels.empty()) {
    S.Instances.reserve(Count);
    for (unsigned I = 0; I < Count; ++I) {
      Instance Inst;
      Inst.Accel = Accels[I % Accels.size()];
      S.Instances.push_back(std::move(Inst));
    }
  }
  for (unsigned T = 0; T < Options.Threads; ++T)
    S.Workers.emplace_back([&S] { S.workerLoop(); });
}

Server::~Server() { shutdown(); }

void Server::setInstanceFaults(unsigned Index, InstanceFaults Faults) {
  Impl &S = *State;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  assert(Index < S.Instances.size() && "fault index out of range");
  if (Index < S.Instances.size())
    S.Instances[Index].Faults = std::move(Faults);
}

uint64_t Server::submit(const JobRequest &Request) {
  Impl &S = *State;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  uint64_t Id = ++S.LastJobId;
  ++S.Stats.Submitted;

  auto Shed = [&](JobStatus Status, std::string Error) {
    JobOutcome Out;
    Out.Id = Id;
    Out.Status = Status;
    Out.Error = std::move(Error);
    S.recordOutcomeLocked(std::move(Out));
    return Id;
  };

  if (S.Draining)
    return Shed(JobStatus::Rejected, "server is draining; submission refused");
  std::string Reason;
  if (!validateRequest(Request, Reason))
    return Shed(JobStatus::Rejected, Reason);

  // Best-case modeled cost across the pool (breakers ignored: a tripped
  // instance may heal before the job runs).
  double BestMs = -1;
  double ArrivalMs = -1;
  for (Instance &Inst : S.Instances) {
    if (Inst.Accel.Kernel != kernelNameOf(Request.Kind))
      continue;
    double Cost = S.costForLocked(Request, Inst.Accel);
    if (Cost >= 0 && (BestMs < 0 || Cost < BestMs))
      BestMs = Cost;
    if (ArrivalMs < 0 || Inst.BusyMs < ArrivalMs)
      ArrivalMs = Inst.BusyMs;
  }
  if (BestMs < 0) {
    if (!S.Options.CpuFallback)
      return Shed(JobStatus::Rejected,
                  std::string("no configured instance supports kernel '") +
                      kernelNameOf(Request.Kind) +
                      "' and host-CPU fallback is disabled");
    BestMs = cpuEstimateMs(S.Options.Params, Request);
  }

  double DeadlineMs =
      Request.DeadlineMs < 0 ? S.Options.DefaultDeadlineMs : Request.DeadlineMs;
  if (DeadlineMs > 0 && BestMs > DeadlineMs) {
    std::ostringstream OS;
    OS << "infeasible deadline: best-case modeled cost " << BestMs
       << " ms exceeds the " << DeadlineMs << " ms budget";
    return Shed(JobStatus::DeadlineExceeded, OS.str());
  }

  if (S.Queue.size() >= S.Options.QueueDepth)
    return Shed(JobStatus::Overloaded,
                "admission queue full (depth " +
                    std::to_string(S.Options.QueueDepth) + ")");

  ++S.Stats.Admitted;
  PendingJob Job;
  Job.Id = Id;
  Job.Request = Request;
  Job.DeadlineMs = DeadlineMs;
  Job.ArrivalMs = ArrivalMs < 0 ? 0 : ArrivalMs;
  S.Queue.push_back(std::move(Job));
  S.WorkCv.notify_one();
  return Id;
}

void Server::drain() {
  Impl &S = *State;
  std::unique_lock<std::mutex> Lock(S.Mutex);
  if (S.Options.Threads == 0) {
    // Deterministic scheduler: FIFO on the caller's thread.
    while (!S.Queue.empty()) {
      PendingJob Job = std::move(S.Queue.front());
      S.Queue.pop_front();
      S.processJobLocked(std::move(Job), Lock);
    }
    return;
  }
  S.IdleCv.wait(Lock, [&S] { return S.Queue.empty() && S.Executing == 0; });
}

void Server::shutdown() {
  Impl &S = *State;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Draining = true;
  }
  drain();
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Stopping = true;
  }
  S.WorkCv.notify_all();
  for (std::thread &Worker : S.Workers)
    if (Worker.joinable())
      Worker.join();
  S.Workers.clear();
}

std::vector<JobOutcome> Server::takeOutcomes() {
  Impl &S = *State;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  std::vector<JobOutcome> Result;
  Result.reserve(S.Outcomes.size());
  for (auto &Entry : S.Outcomes)
    Result.push_back(std::move(Entry.second));
  S.Outcomes.clear();
  return Result;
}

ServerStats Server::stats() const {
  Impl &S = *State;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  ServerStats Stats = S.Stats;
  Stats.Plans = S.Plans.stats();
  return Stats;
}

BreakerState Server::breakerState(unsigned Index) const {
  Impl &S = *State;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  assert(Index < S.Instances.size() && "breaker index out of range");
  return Index < S.Instances.size() ? S.Instances[Index].Breaker
                                    : BreakerState::Closed;
}

unsigned Server::numInstances() const {
  Impl &S = *State;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return unsigned(S.Instances.size());
}

JobOutcome serve::runSoloJob(const JobRequest &Request,
                             const std::vector<parser::AcceleratorDesc> &Accels,
                             const ServerOptions &Options) {
  ServerOptions Solo = Options;
  Solo.Threads = 0;
  Solo.DefaultDeadlineMs = 0;
  Solo.QueueDepth = std::max(1u, Solo.QueueDepth);
  JobRequest Reference = Request;
  Reference.DeadlineMs = 0;
  Server Instance(Accels, Solo);
  Instance.submit(Reference);
  Instance.drain();
  std::vector<JobOutcome> Outcomes = Instance.takeOutcomes();
  return Outcomes.empty() ? JobOutcome{} : std::move(Outcomes.front());
}
