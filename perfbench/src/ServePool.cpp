//===- ServePool.cpp - serve_pool workload --------------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// A mixed matmul and conv request stream to the 3-instance pool of
// configs/serve_pool.json. One client thread submits waves no larger than
// the admission queue, then calls drain(); one worker thread runs the
// jobs, contending with the client for the server's lock. Shape
// popularity is Zipf-like over more keys than the shared plan cache
// holds, so the cache both hits and misses. A pass is one
// session of a freshly started server (cold plan cache) over a fixed,
// seeded sequence of waves; the config's faulty instance browns out for
// its first kBrownoutAttempts attempts of every session. Every outcome's
// FNV-1a checksum is compared with one computed from exec/Reference.h.
//
//===----------------------------------------------------------------------===//

#include "Support.h"

#include "parser/ConfigParser.h"
#include "serve/Server.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>

using namespace perfbench;

namespace {

struct Key {
  Shape S;
  serve::JobRequest Request;
  uint64_t Checksum = 0;
};

class ServePool final : public Workload {
public:
  void prepare(uint64_t Seed) override {
    if (!readFile("configs/serve_pool.json", ConfigText)) {
      std::fprintf(stderr, "perfbench: cannot read configs/serve_pool.json\n");
      std::exit(1);
    }
    Gen = std::make_unique<Rng>(Seed);
    // Popularity rank r gets weight 1/(r+1). Ranks cycle through three
    // matmul size bands and every fifth rank is a conv, so the hot set has
    // the same cost mix for every seed. As in accel_matmul, the seed only
    // adds 0-3 matmul rows or 0-1 conv input channels; it also orders the
    // requests, whose per-key counts follow the weights exactly.
    // Matmul rows start one past a multiple of 16, so the 0-3 added rows
    // never change the 4- or 16-wide tile count.
    static const int64_t Rows[] = {17, 33, 49}, Bases[] = {24, 40, 56};
    std::set<std::string> Seen;
    std::vector<double> Weights;
    for (unsigned Rank = 0; Rank < kKeys; ++Rank) {
      Key K;
      int64_t J = Rank / 5;
      do {
        if (Rank % 5 == 4)
          K.S = Shape::conv(4 + J % 5 + Gen->range(0, 1), 8 + J % 4,
                            4 + (3 * J) % 5, 3, 1);
        else
          K.S = Shape::matmul(Rows[Rank % 3] + Gen->range(0, 3),
                              Bases[Rank % 3] + (7 * Rank) % 9,
                              Bases[Rank % 3] + (5 * Rank) % 9);
      } while (!Seen.insert(K.S.key()).second);
      serve::JobRequest &R = K.Request;
      R.Kind = K.S.IsConv ? serve::JobKind::Conv2D : serve::JobKind::MatMul;
      R.M = K.S.M;
      R.N = K.S.N;
      R.K = K.S.K;
      R.InChannels = K.S.InC;
      R.InHW = K.S.InHW;
      R.OutChannels = K.S.OutC;
      R.FilterHW = K.S.FilterHW;
      R.Stride = K.S.Stride;
      R.Seed = static_cast<uint32_t>(Gen->next() & 0xffffff);
      K.Checksum = fnv1a(referenceOutput(K.S, makeOperands(K.S, R.Seed)));
      Keys.push_back(K);
      Weights.push_back(1.0 / double(Rank + 1));
    }
    // Largest-remainder rounding of the weights to kWaves * kWave
    // requests, then a seeded shuffle.
    double Total = sum(Weights);
    unsigned Slots = kWaves * kWave, Given = 0;
    std::vector<std::pair<double, unsigned>> Remainders;
    for (unsigned Rank = 0; Rank < kKeys; ++Rank) {
      double Share = Weights[Rank] / Total * Slots;
      unsigned Count = unsigned(Share);
      Requests.insert(Requests.end(), Count, Rank);
      Given += Count;
      Remainders.push_back({Share - Count, Rank});
    }
    std::sort(Remainders.rbegin(), Remainders.rend());
    for (unsigned I = 0; Given < Slots; ++I, ++Given)
      Requests.push_back(Remainders[I].second);
    for (size_t I = Requests.size(); I > 1; --I)
      std::swap(Requests[I - 1],
                Requests[size_t(Gen->range(0, int64_t(I) - 1))]);
  }

  std::vector<double> setup(bool) override {
    // Two steps: config parse and server start, then the first wave.
    double Ms = 0;
    std::string Error;
    FailureOr<parser::SystemConfig> Config = timed(
        Ms, [&] { return parser::parseSystemConfig(ConfigText, &Error); });
    if (failed(Config)) {
      std::fprintf(stderr, "perfbench: serve_pool.json: %s\n", Error.c_str());
      std::exit(1);
    }
    Options = timed(Ms, [&] { return serve::makeServerOptions(*Config); });
    // One worker: with two, the best-of-pass figures still spread by
    // 12-27% between runs on a shared 4-vCPU host, against 3-4% with one.
    Options.Threads = 1;
    Accels = Config->Accelerators;
    Faults.Plan = Config->Faults;
    Faults.JobsAffected = kBrownoutAttempts;
    FaultyInstance = unsigned(Config->Serve.FaultyInstance);
    std::unique_ptr<serve::Server> Pool =
        timed(Ms, [&] { return startServer(); });
    // A warm-up wave: worker start-up and the first plan compiles. It
    // holds the kWave most popular keys once each, so every seed's
    // set-up compiles as many plans of the same kinds.
    std::vector<unsigned> Hot(kWave);
    std::iota(Hot.begin(), Hot.end(), 0u);
    Phase Warm;
    double WaveMs = wave(*Pool, Hot.data(), 0, Warm);
    if (Warm.Failed) {
      std::fprintf(stderr, "perfbench: serve_pool warm-up wave failed\n");
      std::exit(1);
    }
    return {Ms, WaveMs};
  }

  CheckedPass check() override {
    // Each key kReps times through a deterministic, fault-free pool.
    serve::ServerOptions Serial = Options;
    Serial.Threads = 0;
    Serial.QueueDepth = kKeys * kReps;
    serve::Server Checker(Accels, Serial);
    std::vector<uint64_t> Ids;
    for (int Rep = 0; Rep < kReps; ++Rep)
      for (const Key &K : Keys)
        Ids.push_back(Checker.submit(K.Request));
    Checker.drain();
    std::vector<serve::JobOutcome> Outcomes = Checker.takeOutcomes();
    CheckedPass Pass;
    std::map<uint64_t, const serve::JobOutcome *> ById;
    for (const serve::JobOutcome &Out : Outcomes)
      ById[Out.Id] = &Out;
    for (unsigned I = 0; I < kKeys; ++I) {
      std::vector<double> Refs, TaskClock, Counters;
      for (int Rep = 0; Rep < kReps; ++Rep) {
        const serve::JobOutcome *Out = ById[Ids[Rep * kKeys + I]];
        if (!Out || Out->Status != serve::JobStatus::Completed ||
            Out->Checksum != Keys[I].Checksum) {
          std::fprintf(stderr, "perfbench: serve key %s: wrong outcome\n",
                       Keys[I].S.key().c_str());
          Pass.Ok = false;
          continue;
        }
        Refs.push_back(double(Out->Report.CacheReferences));
        TaskClock.push_back(Out->ModeledMs);
        Counters = addressFreeCounters(Out->Report);
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
    std::vector<double> SubmitUs, DrainMs;
    serve::ServerStats Total;
    Clock::time_point Start = Clock::now();
    do {
      std::unique_ptr<serve::Server> Pool = startServer();
      for (unsigned W = 0; W < kWaves; ++W)
        keepBest(P.PartBestMs, W,
                 wave(*Pool, &Requests[W * kWave], W * kWave, P, &SubmitUs,
                      &DrainMs));
      serve::ServerStats Stats = Pool->stats();
      Total.Retries += Stats.Retries;
      Total.Failovers += Stats.Failovers;
      Total.BreakerTrips += Stats.BreakerTrips;
      Total.CpuFallbacks += Stats.CpuFallbacks;
      Total.Overloaded +=
          Stats.Overloaded + Stats.DeadlineExceeded + Stats.Rejected;
      Total.Plans.Hits += Stats.Plans.Hits;
      Total.Plans.Misses += Stats.Plans.Misses;
      ++P.Passes;
    } while (msBetween(Start, Clock::now()) < Seconds * 1e3 ||
             P.Passes < MinPasses);
    if (Traced) {
      double Passes = double(P.Passes);
      double Hits = double(Total.Plans.Hits);
      double Misses = double(Total.Plans.Misses);
      Metrics &D = P.Direct;
      D.push_back({"serve.submit_us_p50", {median(SubmitUs), "us"}});
      D.push_back({"serve.wave_ms_p50", {median(DrainMs), "ms"}});
      D.push_back({"serve.plan_cache_hit_ratio",
                   {Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio"}});
      // Counts per session (one pass).
      D.push_back({"serve.retries", {double(Total.Retries) / Passes, "count"}});
      D.push_back(
          {"serve.failovers", {double(Total.Failovers) / Passes, "count"}});
      D.push_back(
          {"serve.breaker_trips",
           {double(Total.BreakerTrips) / Passes, "count"}});
      D.push_back(
          {"serve.cpu_fallbacks",
           {double(Total.CpuFallbacks) / Passes, "count"}});
      D.push_back({"serve.shed", {double(Total.Overloaded) / Passes, "count"}});
    }
    return P;
  }

private:
  static constexpr unsigned kKeys = 40;
  /// 48 waves of 16: 768 jobs a pass, so 38 lie beyond the p95.
  static constexpr unsigned kWaves = 48;
  static constexpr unsigned kWave = 16;
  static constexpr unsigned kBrownoutAttempts = 48;
  static constexpr int kReps = 3;

  std::unique_ptr<serve::Server> startServer() {
    auto Pool = std::make_unique<serve::Server>(Accels, Options);
    Pool->setInstanceFaults(FaultyInstance, Faults);
    return Pool;
  }

  /// Submits one request for each of the kWave keys at \p WaveKeys,
  /// drains them and checks every outcome. Records each job's
  /// submit-to-drain latency as the time of job \p FirstJob + I of the
  /// pass and returns the wave's wall ms (first submit to drain return).
  double wave(serve::Server &Pool, const unsigned *WaveKeys, size_t FirstJob,
              Phase &P, std::vector<double> *SubmitUs = nullptr,
              std::vector<double> *DrainMs = nullptr) {
    std::map<uint64_t, unsigned> KeyOf;
    std::vector<Clock::time_point> Submitted;
    for (unsigned I = 0; I < kWave; ++I) {
      unsigned K = WaveKeys[I];
      Submitted.push_back(Clock::now());
      double SubmitMs = 0;
      uint64_t Id =
          timed(SubmitMs, [&] { return Pool.submit(Keys[K].Request); });
      if (SubmitUs)
        SubmitUs->push_back(SubmitMs * 1e3);
      KeyOf[Id] = K;
    }
    double Drained = 0;
    timed(Drained, [&] { Pool.drain(); });
    Clock::time_point End = Clock::now();
    if (DrainMs)
      DrainMs->push_back(Drained);
    for (unsigned I = 0; I < kWave; ++I)
      keepBest(P.BestMs, FirstJob + I, msBetween(Submitted[I], End));
    for (const serve::JobOutcome &Out : Pool.takeOutcomes()) {
      ++P.Attempted;
      auto It = KeyOf.find(Out.Id);
      if (Out.Status != serve::JobStatus::Completed || It == KeyOf.end() ||
          Out.Checksum != Keys[It->second].Checksum)
        ++P.Failed;
    }
    return msBetween(Submitted.front(), End);
  }

  std::string ConfigText;
  std::unique_ptr<Rng> Gen;
  std::vector<Key> Keys;
  /// Key index of every request of the pass, wave by wave.
  std::vector<unsigned> Requests;
  std::vector<parser::AcceleratorDesc> Accels;
  serve::ServerOptions Options;
  serve::InstanceFaults Faults;
  unsigned FaultyInstance = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServePool() {
  return std::make_unique<ServePool>();
}
