//===- sched/Scheduler.h - Parallel proof scheduling -----------------------===//
///
/// \file
/// The proof scheduler: runs the independent obligations of a verification
/// run (ProofJob.h) on a work-stealing pool (WorkerPool.h) with a shared,
/// sharded entailment memo (QueryCache.h) and a per-job budget
/// (support/Budget.h) that degrades stuck obligations to a reported
/// \c Unknown instead of stalling the pool.
///
/// Drivers reach it through \c HybridDriver::run and
/// \c engine::Verifier::verifyAll overloads taking a \c SchedulerConfig;
/// \c Threads == 1 keeps the serial semantics (jobs run inline, in input
/// order, on the calling thread) while still exercising the cache and
/// budget paths. Reports are always emitted in deterministic input order;
/// with budgets disabled, the parallel report (timing aside) is
/// byte-identical to the serial one.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SCHED_SCHEDULER_H
#define GILR_SCHED_SCHEDULER_H

#include "hybrid/Driver.h"
#include "sched/ProofJob.h"
#include "sched/QueryCache.h"

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
  /// jobs that run out degrade to JobStatus::Unknown. Note that budgets
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
  /// When Env.Lint.Enabled, a lint phase runs first (its jobs on the same
  /// pool): entities the pre-pass rejects are reported failed without a
  /// proof job, and every report carries its entity's diagnostics. The
  /// aggregated analysis verdict lands in HybridReport::Analysis. The
  /// engine::Verifier::verifyAll overloads run the unsafe side alone as a
  /// hybrid run with no contracts and no clients.
  hybrid::HybridReport runHybrid(engine::VerifEnv &Env,
                                 const creusot::PearliteSpecTable &Contracts,
                                 const std::vector<std::string> &UnsafeFuncs,
                                 const std::vector<creusot::SafeFn> &Clients,
                                 incr::Session *Incr = nullptr);

  const SchedulerConfig &config() const { return Config; }

  /// The entailment cache (nullptr when CacheCapacity == 0). The mutable
  /// form exists so a caller can install the cache as the query memo
  /// (ScopedQueryCache) around pre-run solver work — lemma registration,
  /// contract encoding — which runs before runHybrid installs it itself.
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
  /// Runs every job of \p G, writing results through \p RunOne (which
  /// receives the job and must store into its slot). Parallel iff
  /// Threads > 1.
  void runJobs(const JobGraph &G,
               const std::function<void(const ProofJob &)> &RunOne);

  /// Publishes the end-of-run cache snapshot to the metrics registry so the
  /// telemetry JSON can report hit rates (no-op when caching is disabled).
  void recordCacheReport() const;

  /// The pre-verification lint phase: one lint job per entity on the pool
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
