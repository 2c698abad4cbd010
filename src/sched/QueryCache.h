//===- sched/QueryCache.h - Sharded, thread-safe entailment memo -----------===//
///
/// \file
/// The scheduler's query cache: a sharded, LRU-bounded memo from normalized
/// (ctx, goal) query fingerprints to definite solver verdicts. PR 1's
/// telemetry measured a substantial syntactic repeat rate across entailment
/// queries (SolverStats::EntailRepeats); this cache converts that headroom
/// into real speedup by answering repeats without re-running the DPLL
/// search. It implements the \c QueryMemo interface consulted by
/// \c Solver::checkSat (and therefore \c Solver::entails).
///
/// Soundness: only definite \c Sat / \c Unsat verdicts are stored —
/// \c Unknown (budget/depth exhaustion) is never memoised — and the key
/// includes the solver's branch budget, so a cached answer is exactly the
/// answer the full search would produce for that query. A 64-bit check hash
/// independent of the primary fingerprint guards against collisions
/// (effective 128-bit key).
///
/// Concurrency: the table is split into \c NumShards shards selected by
/// fingerprint bits, each with its own mutex, LRU list and capacity, so
/// workers hitting different shards never contend.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SCHED_QUERYCACHE_H
#define GILR_SCHED_QUERYCACHE_H

#include "solver/Solver.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace gilr {
namespace sched {

/// Hit/miss counts of one shard.
struct ShardStatsSnapshot {
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

/// Snapshot of cache activity (values, not atomics).
struct CacheStatsSnapshot {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  /// Per-shard hit/miss breakdown (empty if the snapshot predates a cache,
  /// e.g. caching disabled). Surfaced in the telemetry JSON so shard
  /// balance is observable.
  std::vector<ShardStatsSnapshot> Shards;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

class QueryCache final : public QueryMemo {
public:
  /// Number of independently locked shards (a power of two).
  static constexpr std::size_t NumShards = 16;

  /// \p Capacity bounds the total number of entries across all shards
  /// (each shard holds Capacity/NumShards, at least 1). \p StableKeys makes
  /// the solver key entries with the process-stable fingerprint
  /// (stableQueryFingerprint) instead of the intern-id one — required when
  /// the cache contents are persisted or preloaded across processes (the
  /// incremental runs of src/incr/).
  explicit QueryCache(std::size_t Capacity, bool StableKeys = false);
  ~QueryCache() override;

  QueryCache(const QueryCache &) = delete;
  QueryCache &operator=(const QueryCache &) = delete;

  // QueryMemo interface (thread-safe).
  bool lookup(uint64_t Fp, uint64_t Fp2, QueryVerdict &Out) override;
  void insert(uint64_t Fp, uint64_t Fp2, const QueryVerdict &V) override;
  bool wantsStableKeys() const override { return StableKeys; }

  /// Snapshot of every resident entry (for persisting the cache). Entries
  /// are only meaningful across processes when the cache runs in
  /// stable-keys mode.
  std::vector<SavedQueryVerdict> exportEntries() const;

  /// Inserts \p Entries (e.g. loaded from the proof store) without touching
  /// the hit/miss statistics. Entries beyond a shard's capacity are dropped
  /// (counted as evictions).
  void preload(const std::vector<SavedQueryVerdict> &Entries);

  /// Drops every entry (stats are kept).
  void clear();

  /// Current number of resident entries (sums the shards; racy but exact
  /// when quiescent).
  std::size_t size() const;

  std::size_t capacity() const { return TotalCapacity; }

  CacheStatsSnapshot stats() const;

  /// Shard an entry with fingerprint \p Fp lands in (exposed for the
  /// cross-shard isolation test).
  static std::size_t shardOf(uint64_t Fp);

private:
  struct Entry {
    uint64_t Fp;
    uint64_t Fp2;
    QueryVerdict V;
  };
  struct Shard {
    mutable std::mutex Mu;
    /// Front = most recently used.
    std::list<Entry> LRU;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> Map;
    std::size_t Capacity = 0;
    /// Per-shard activity, maintained under Mu (the shard lock is already
    /// taken on every path that bumps these).
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };

  std::unique_ptr<Shard[]> Shards;
  std::size_t TotalCapacity;
  bool StableKeys = false;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Insertions{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace sched
} // namespace gilr

#endif // GILR_SCHED_QUERYCACHE_H
