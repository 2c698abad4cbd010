//===- support/Metrics.h - Process-wide verification metrics ---------------===//
///
/// \file
/// The metrics registry backing the telemetry layer: named monotonic
/// counters, the process-wide solver statistics (shared by every \c Solver
/// instance, so counts survive the multiple instantiations in engine/,
/// creusot/ and the test/bench harnesses), a log2 latency histogram for
/// solver queries, and the repeat-entailment fingerprint set that
/// quantifies the headroom of the scheduler's query cache.
///
/// Concurrency: the proof scheduler (src/sched/) runs solver queries from
/// many worker threads against the single shared \c SolverStats instance,
/// so its fields are relaxed atomics wrapped in \c RelaxedCounter — plain
/// reads/writes in the API (snapshots and \c operator- keep their value
/// semantics), atomic increments underneath. Everything behind the
/// registry's named-counter/histogram/fingerprint API is mutex-protected.
///
/// Cost model: the \c SolverStats fields are single relaxed atomic adds and
/// are always live. Everything that allocates (named counters,
/// fingerprints, latency samples) is only fed by call sites when tracing is
/// enabled, so the default GILR_TRACE=off configuration adds no allocation
/// to any hot path.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SUPPORT_METRICS_H
#define GILR_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace gilr {

/// A monotonic counter that is safe to bump from concurrent proof workers:
/// a relaxed atomic with value semantics (copy/assign snapshot the value),
/// so structs of counters keep behaving like plain structs of integers.
class RelaxedCounter {
public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t X) : V(X) {}
  RelaxedCounter(const RelaxedCounter &O) : V(O.get()) {}
  RelaxedCounter &operator=(const RelaxedCounter &O) {
    V.store(O.get(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter &operator=(uint64_t X) {
    V.store(X, std::memory_order_relaxed);
    return *this;
  }

  uint64_t get() const { return V.load(std::memory_order_relaxed); }
  operator uint64_t() const { return get(); }

  RelaxedCounter &operator++() {
    V.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter &operator+=(uint64_t D) {
    V.fetch_add(D, std::memory_order_relaxed);
    return *this;
  }

private:
  std::atomic<uint64_t> V{0};
};

/// Counters of the SMT-lite solver. One process-wide instance lives in the
/// metrics registry and is shared by every \c Solver (the per-instance
/// stats of earlier revisions silently reset whenever a component built a
/// fresh solver); reporting code takes before/after snapshots to attribute
/// deltas to a phase. A second, thread-local instance
/// (metrics::threadSolverStats) attributes work to the proof job running on
/// the current worker thread — the per-function deltas in VerifyReport /
/// SafeReport come from there, so they stay exact when the scheduler runs
/// jobs concurrently.
struct SolverStats {
  RelaxedCounter SatQueries;
  RelaxedCounter EntailQueries;
  RelaxedCounter Branches;
  RelaxedCounter TheoryChecks;
  /// Queries the DPLL search gave up on (budget/depth exhaustion).
  RelaxedCounter UnknownResults;
  /// Entailment calls whose (context, goal) fingerprint was already seen —
  /// the hit rate a syntactic query memo would achieve. Only counted while
  /// tracing is enabled (the fingerprint set allocates).
  RelaxedCounter EntailRepeats;

  SolverStats operator-(const SolverStats &O) const {
    SolverStats D;
    D.SatQueries = SatQueries - O.SatQueries;
    D.EntailQueries = EntailQueries - O.EntailQueries;
    D.Branches = Branches - O.Branches;
    D.TheoryChecks = TheoryChecks - O.TheoryChecks;
    D.UnknownResults = UnknownResults - O.UnknownResults;
    D.EntailRepeats = EntailRepeats - O.EntailRepeats;
    return D;
  }
};

namespace metrics {

/// Number of log2 buckets in the solver latency histogram. Bucket i counts
/// queries with latency in [2^i, 2^{i+1}) nanoseconds (bucket 0 also takes
/// sub-nanosecond readings, the last bucket everything slower).
constexpr std::size_t LatencyBuckets = 32;

/// Cap on the repeat-entailment fingerprint set: long traced runs would
/// otherwise grow it without bound. Once saturated, new fingerprints are no
/// longer recorded (the reported repeat rate becomes approximate) and the
/// overflow counter counts the drops.
constexpr std::size_t EntailSeenCap = 1u << 20; // ~1M entries.

/// Hit/miss counts of one query-cache shard, as recorded into the registry.
struct QueryCacheShardStat {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Snapshot of the scheduler's entailment cache at the end of the most
/// recent scheduled run. The scheduler (src/sched/) records it here so the
/// telemetry JSON (support/Trace.cpp) can report totals and per-shard hit
/// rates without the support layer depending on sched.
struct QueryCacheReport {
  /// False until a scheduled run with caching enabled has completed.
  bool Valid = false;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  std::vector<QueryCacheShardStat> Shards;
};

/// One solver query as observed by the flight recorder's TimingSolver
/// decorator (solver/Flight.h): where it came from, what it cost, and what
/// it answered. \c Side is 'U' (unsafe/Gillian side), 'S' (safe/Creusot
/// side), 'L' (pre-verification lint) or '?' (no obligation scope open).
/// \c Verdict encodes SatResult: 0 Sat, 1 Unsat, 2 Unknown.
struct SolverQuerySample {
  std::string Obligation;
  char Side = '?';
  uint32_t QueryIdx = 0; ///< Per-obligation query sequence number.
  uint32_t PcSize = 0;   ///< Assertion count of the query.
  uint64_t Fp = 0;       ///< Process-stable query fingerprint.
  uint8_t Verdict = 2;
  bool CacheHit = false;
  uint64_t DurationNs = 0;
};

/// Aggregate view of all flight-recorded solver queries of the process,
/// surfaced as the \c solver_queries section of the telemetry JSON and the
/// "slowest queries" block of HybridReport::summaryText(). Populated only
/// while the flight recorder's timing decorator is enabled
/// (solver/Flight.h); Valid stays false otherwise.
struct SolverQueriesReport {
  bool Valid = false;
  uint64_t Queries = 0;
  uint64_t CacheHits = 0;
  uint64_t Unknowns = 0;
  uint64_t TotalNs = 0;
  uint64_t MaxNs = 0;
  /// Log2 latency buckets over *all* queries (cache hits included — unlike
  /// the trace-gated solver_latency_log2_ns histogram, which only times
  /// full searches).
  std::array<uint64_t, 32> Histogram = {};
  /// The slowest queries seen, sorted by descending duration.
  std::vector<SolverQuerySample> Slowest;
  /// Journal activity (recorded by the QueryJournalSolver decorator).
  uint64_t JournalRecords = 0;
  uint64_t JournalDropped = 0;
};

/// How many slowest-query samples the registry retains (and the JSON /
/// summary report at most shows).
constexpr std::size_t SlowestQueryCap = 16;

/// Summary of the pre-verification static analysis pass of the most recent
/// run. The analysis layer (src/analysis/) records it here so the telemetry
/// JSON (support/Trace.cpp) can emit an \c analysis section without the
/// support layer depending on analysis — the same inversion as
/// \c QueryCacheReport.
struct AnalysisReport {
  /// False until an analysis pass has completed.
  bool Valid = false;
  bool Enabled = false;
  uint64_t Entities = 0; ///< Entities linted (analyzed + cache replays).
  uint64_t Cached = 0;   ///< Verdicts replayed from the proof store.
  uint64_t Blocked = 0;  ///< Entities rejected before symbolic execution.
  uint64_t Errors = 0;
  uint64_t Warnings = 0;
  uint64_t Suppressed = 0;
  double Seconds = 0.0;
};

/// Summary of the incremental-verification session of the most recent run.
/// The incremental layer (src/incr/ via the scheduler entry points) records
/// it here so the telemetry JSON (support/Trace.cpp) can emit an
/// \c incremental section without the support layer depending on incr —
/// the same inversion as \c QueryCacheReport and \c AnalysisReport.
struct IncrReport {
  /// False until an incremental run has completed.
  bool Valid = false;
  uint64_t Cached = 0;      ///< Proof verdicts replayed from the store.
  uint64_t Verified = 0;    ///< Proof obligations re-verified.
  uint64_t Invalidated = 0; ///< Store records rejected (fingerprint moved).
  /// Verdicts replayed although a dependency fingerprint moved: the edit
  /// touched no relied-on clause (Salvaged, zero solver work) / the salvage
  /// implications held (Implied). Both also count in Cached.
  uint64_t Salvaged = 0;
  uint64_t Implied = 0;
  /// Solver queries spent discharging salvage implications.
  uint64_t SalvageQueries = 0;
  /// Load-time store compaction rewrites.
  uint64_t Compactions = 0;
  uint64_t CachedLint = 0;
  uint64_t AnalyzedLint = 0;
  bool StoreLoaded = false;
};

/// Summary of the interprocedural summary phase and triage tier of the most
/// recent scheduled run (analysis/Summary.h, sched/Scheduler.cpp). Recorded
/// by the scheduler so the telemetry JSON can emit an \c interproc section
/// without the support layer depending on sched — the same inversion as
/// \c IncrReport.
struct InterprocReport {
  /// False until a run with the summary phase enabled has completed.
  bool Valid = false;
  /// Function/predicate summaries in the table this run ended with.
  uint64_t FnSummaries = 0;
  uint64_t PredSummaries = 0;
  /// Obligations the triage tier discharged statically (the executor never
  /// ran; see engine::staticTriageReport).
  uint64_t TriagedStatic = 0;
  /// Wall time of the (serial) summary phase.
  double Seconds = 0.0;
};

class Registry {
public:
  /// The process-wide registry.
  static Registry &get();

  /// The shared solver statistics (always live; relaxed atomic increments).
  SolverStats Solver;

  /// Adds \p Delta to the named counter. Callers gate on trace::enabled().
  void add(const std::string &Name, uint64_t Delta = 1);

  /// Records one solver query latency into the log2 histogram.
  void recordSolverLatencyNs(uint64_t Ns);

  /// Notes an entails-call fingerprint; returns true iff it was already
  /// seen (a would-be memo hit). Bumps \c Solver.EntailRepeats (process and
  /// thread-local) itself. The set is capped at \c EntailSeenCap entries;
  /// fingerprints arriving after saturation are dropped and counted in
  /// \c entailSeenOverflow(), making the repeat rate approximate.
  bool noteEntailFingerprint(uint64_t Fp);

  /// Number of fingerprints dropped because the seen-set was full. Nonzero
  /// means the reported entail_repeat_rate is a lower bound.
  uint64_t entailSeenOverflow() const;

  /// Records the final cache snapshot of a scheduled run (overwrites the
  /// previous run's; cleared by reset()).
  void setQueryCacheReport(QueryCacheReport R);

  /// The last recorded cache snapshot (Valid == false if none).
  QueryCacheReport queryCacheReport() const;

  /// Records one flight-recorded solver query into the solver_queries
  /// aggregates (totals, latency histogram, slowest-N). Called by the
  /// TimingSolver decorator only while the flight recorder is enabled, so
  /// the per-query lock is never taken in the default configuration.
  void recordSolverQuery(const SolverQuerySample &Q);

  /// Adds to the journal activity counters of the solver_queries report.
  void noteJournalActivity(uint64_t Records, uint64_t Dropped);

  /// Snapshot of the flight-recorded query aggregates (Valid == false until
  /// the first recorded query).
  SolverQueriesReport solverQueriesReport() const;

  /// Records the summary of a pre-verification analysis pass (overwrites
  /// the previous run's; cleared by reset()).
  void setAnalysisReport(AnalysisReport R);

  /// The last recorded analysis summary (Valid == false if none).
  AnalysisReport analysisReport() const;

  /// Records the summary of an incremental session (overwrites the previous
  /// run's; cleared by reset()).
  void setIncrReport(IncrReport R);

  /// The last recorded incremental summary (Valid == false if none).
  IncrReport incrReport() const;

  /// Records the summary of the interprocedural phase of a scheduled run
  /// (overwrites the previous run's; cleared by reset()).
  void setInterprocReport(InterprocReport R);

  /// The last recorded interprocedural summary (Valid == false if none).
  InterprocReport interprocReport() const;

  /// Snapshot of the named counters.
  std::map<std::string, uint64_t> counters() const;

  /// Snapshot of the latency histogram (bucket counts).
  std::array<uint64_t, LatencyBuckets> latencyHistogram() const;

  /// Clears everything, including the shared solver stats.
  void reset();

private:
  Registry() = default;

  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Counters;
  std::unordered_set<uint64_t> EntailSeen;
  uint64_t EntailSeenDropped = 0;
  std::array<uint64_t, LatencyBuckets> Latency = {};
  QueryCacheReport CacheReport;
  AnalysisReport AnalysisRep;
  IncrReport IncrRep;
  InterprocReport InterprocRep;
  /// Flight-recorder aggregates; Slowest kept sorted descending, capped at
  /// SlowestQueryCap.
  SolverQueriesReport FlightRep;
};

/// Shorthand for Registry::get().Solver — the live process-wide stats.
inline SolverStats &solverStats() { return Registry::get().Solver; }

/// The calling thread's solver statistics. The solver bumps both this and
/// the process-wide instance, so a proof job's before/after snapshot on its
/// own worker thread attributes exactly its own work, even while other
/// workers are running queries concurrently. On a cache hit the memoised
/// work delta is replayed into this instance (and only this one), keeping
/// per-job reports byte-identical whether the query was computed or served
/// from the cache.
SolverStats &threadSolverStats();

/// RAII for tests that assert on solver work within a scope (e.g. "a warm
/// incremental run performs zero solver queries"): zeroes the process-wide
/// and calling-thread solver stats on construction; on destruction, restores
/// the saved counts *plus* whatever accrued inside the scope, so the
/// surrounding run's totals are not lost. Only the constructing thread's
/// thread-local stats are touched — use from serial code.
class ScopedSolverStatsReset {
public:
  ScopedSolverStatsReset();
  ~ScopedSolverStatsReset();
  ScopedSolverStatsReset(const ScopedSolverStatsReset &) = delete;
  ScopedSolverStatsReset &operator=(const ScopedSolverStatsReset &) = delete;

  /// Solver work accrued since construction (process-wide view).
  SolverStats accrued() const;

private:
  SolverStats SavedProcess;
  SolverStats SavedThread;
};

} // namespace metrics
} // namespace gilr

#endif // GILR_SUPPORT_METRICS_H
