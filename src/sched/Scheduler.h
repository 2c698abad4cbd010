//===- sched/Scheduler.h - Parallel proof scheduling -----------------------===//
///
/// \file
/// The proof scheduler: runs the independent obligations of a verification
/// run — one per unsafe function, one per safe client (§2.1: each is
/// proved against its own specification) — with a shared, sharded
/// entailment memo (QueryCache.h) and a per-job budget (support/Budget.h)
/// that degrades stuck obligations to a reported \c Unknown instead of
/// stalling the run. With \c Threads > 1 the jobs run on a fork-join loop:
/// that many threads take the next job index from a shared counter until
/// none is left, and the caller joins them.
///
/// It is the only path to a verdict: every \c HybridDriver::run and
/// \c engine::Verifier::verifyAll overload is defined in Scheduler.cpp and
/// runs through it (the overloads without a \c SchedulerConfig use the
/// default one). \c Threads == 1 is the serial path (jobs run inline, in
/// input order, on the calling thread) and still exercises the cache and
/// budget paths; \c CacheCapacity == 0 turns the entailment memo off.
/// Every job writes its report into its own input-order slot, so reports
/// are always in input order; with budgets disabled, the parallel report
/// (timing aside) is byte-identical to the serial one.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SCHED_SCHEDULER_H
#define GILR_SCHED_SCHEDULER_H

#include "hybrid/Driver.h"
#include "sched/QueryCache.h"

#include <functional>
#include <memory>

namespace gilr {
namespace incr {
class Session;
} // namespace incr

namespace sched {

/// Knobs of one scheduled run.
struct SchedulerConfig {
  /// Worker threads; 1 = serial on the calling thread (the default).
  unsigned Threads = 1;
  /// Total entries of the sharded entailment cache; 0 disables caching.
  std::size_t CacheCapacity = 1u << 16;
  /// Per-job wall-clock budget in milliseconds; 0 = unlimited. Budgeted
  /// jobs that run out are reported Unknown (TimedOut). Note that budgets
  /// trade determinism for liveness: a near-deadline job may flip between
  /// Unknown and Proved across runs.
  uint64_t JobTimeoutMs = 0;
  /// Per-job cap on DPLL branches; 0 = unlimited.
  uint64_t JobBranchCap = 0;
  /// Key the entailment cache with the process-stable structural
  /// fingerprint instead of the intern-id one. Required (and turned on
  /// automatically) for incremental runs that persist or preload cache
  /// entries across processes; slightly slower to hash.
  bool StableCacheKeys = false;
};

/// Orchestrates one or more verification runs under a single cache. The
/// cache persists across run* calls on the same scheduler, so a bench can
/// measure warm-cache behaviour; HybridDriver / Verifier construct a fresh
/// scheduler per call.
class Scheduler {
public:
  explicit Scheduler(const SchedulerConfig &C);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Verifies both hybrid sides: every unsafe function and every safe
  /// client is an independent job. Reports come back in input order. With
  /// \p Incr, jobs whose stored verdict is still valid short-circuit to the
  /// cached report (marked Cached), and freshly proved jobs are recorded
  /// with the dependencies their proof consulted.
  ///
  /// When Env.Lint.Enabled, a lint phase runs first (one job per entity,
  /// run the same way): entities the pre-pass rejects are reported failed
  /// without a proof job, and every report carries its entity's
  /// diagnostics. The aggregated analysis verdict lands in
  /// HybridReport::Analysis. The engine::Verifier::verifyAll overloads run
  /// the unsafe side alone as a hybrid run with no contracts and no
  /// clients.
  hybrid::HybridReport runHybrid(engine::VerifEnv &Env,
                                 const creusot::PearliteSpecTable &Contracts,
                                 const std::vector<std::string> &UnsafeFuncs,
                                 const std::vector<creusot::SafeFn> &Clients,
                                 incr::Session *Incr = nullptr);

  const SchedulerConfig &config() const { return Config; }

  /// The entailment cache (nullptr when CacheCapacity == 0). The mutable
  /// form exists so a caller can make it its solver's \c Memo for pre-run
  /// solver work — lemma registration, contract encoding — which runs
  /// before runHybrid points Env.Solv at it for the run.
  const QueryCache *cache() const { return Cache.get(); }
  QueryCache *cache() { return Cache.get(); }

  /// Cache activity so far (zeros when caching is disabled).
  CacheStatsSnapshot cacheStats() const;

  /// Preloads the entailment cache with persisted entries (no-op when
  /// caching is disabled). Only sound in stable-keys mode.
  void preloadCache(const std::vector<SavedQueryVerdict> &Entries);

  /// Every resident cache entry, for persisting (empty when disabled).
  std::vector<SavedQueryVerdict> exportCacheEntries() const;

private:
  /// Calls \p RunOne(I) once for every I in [0, N), which must store its
  /// result into slot I. With at most one thread or one job the calls run
  /// inline in index order; otherwise min(Threads, N) threads each take
  /// the next index from a shared counter, and the caller joins them. If
  /// a job throws, no further job starts and the exception reaches the
  /// caller.
  void runJobs(std::size_t N, const std::function<void(std::size_t)> &RunOne);

  /// Publishes the end-of-run cache snapshot to the metrics registry so the
  /// telemetry JSON can report hit rates (no-op when caching is disabled).
  void recordCacheReport() const;

  /// The pre-verification lint phase: one lint job per entity
  /// (cached verdicts replayed through \p Incr), then the program-level
  /// lints, finalized into the returned result. \p Verdicts receives the
  /// per-entity verdicts in input order (the proof phase consults them to
  /// skip blocked entities and attach diagnostics). \p Summaries (from
  /// the summary phase) powers the interprocedural lints; may be null.
  analysis::AnalysisResult
  lintPhase(engine::VerifEnv &Env, const std::vector<std::string> &Names,
            incr::Session *Incr, const analysis::SummaryTable *Summaries,
            std::vector<std::pair<std::string, analysis::EntityVerdict>>
                &Verdicts);

  SchedulerConfig Config;
  std::unique_ptr<QueryCache> Cache;
};

} // namespace sched
} // namespace gilr

#endif // GILR_SCHED_SCHEDULER_H
