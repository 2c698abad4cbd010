//===- tests/sched_test.cpp - Scheduler subsystem unit tests ----------------===//
//
// Units of the parallel proof scheduler: the sharded LRU entailment cache
// (hit/miss, eviction, cross-shard isolation, soundness of cached verdicts)
// and per-job budgets. That a scheduled run executes every job and keeps
// input order at any thread count is sched_determinism_test's subject.
//
//===----------------------------------------------------------------------===//

#include "sched/QueryCache.h"
#include "support/Budget.h"
#include "sym/ExprBuilder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace gilr;
using namespace gilr::sched;

namespace {

QueryVerdict satVerdict(uint64_t Branches = 3, uint64_t Checks = 2) {
  return QueryVerdict{SatResult::Sat, Branches, Checks};
}

//===----------------------------------------------------------------------===//
// QueryCache
//===----------------------------------------------------------------------===//

TEST(QueryCacheTest, HitAndMiss) {
  QueryCache C(1024);
  QueryVerdict Out;

  EXPECT_FALSE(C.lookup(42, 7, Out));
  C.insert(42, 7, QueryVerdict{SatResult::Unsat, 11, 5});
  ASSERT_TRUE(C.lookup(42, 7, Out));
  EXPECT_EQ(Out.R, SatResult::Unsat);
  EXPECT_EQ(Out.Branches, 11u);
  EXPECT_EQ(Out.TheoryChecks, 5u);

  CacheStatsSnapshot S = C.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_DOUBLE_EQ(S.hitRate(), 0.5);
}

TEST(QueryCacheTest, CheckHashMismatchIsAMiss) {
  // A primary-fingerprint collision with a different check hash must not
  // serve the colliding entry's verdict.
  QueryCache C(1024);
  C.insert(42, 7, satVerdict());
  QueryVerdict Out;
  EXPECT_FALSE(C.lookup(42, 8, Out));
  // A later insert under the same primary fingerprint takes the slot over
  // (otherwise the collision would starve the new query forever).
  C.insert(42, 8, QueryVerdict{SatResult::Unsat, 1, 1});
  ASSERT_TRUE(C.lookup(42, 8, Out));
  EXPECT_EQ(Out.R, SatResult::Unsat);
  EXPECT_FALSE(C.lookup(42, 7, Out));
}

TEST(QueryCacheTest, UnknownIsNeverStored) {
  QueryCache C(1024);
  C.insert(1, 1, QueryVerdict{SatResult::Unknown, 0, 0});
  QueryVerdict Out;
  EXPECT_FALSE(C.lookup(1, 1, Out));
  EXPECT_EQ(C.size(), 0u);
}

TEST(QueryCacheTest, LRUEvictionPrefersOldest) {
  // Capacity 2 * NumShards = two entries per shard. Fingerprints 0..2
  // differ only in low bits, so shardOf (high bits) puts them all in one
  // shard.
  QueryCache C(2 * QueryCache::NumShards);
  ASSERT_EQ(QueryCache::shardOf(0), QueryCache::shardOf(1));
  ASSERT_EQ(QueryCache::shardOf(0), QueryCache::shardOf(2));

  C.insert(0, 100, satVerdict());
  C.insert(1, 101, satVerdict());
  QueryVerdict Out;
  ASSERT_TRUE(C.lookup(0, 100, Out)); // 0 becomes most-recently-used.
  C.insert(2, 102, satVerdict());     // Shard full: evicts 1, the LRU.

  EXPECT_TRUE(C.lookup(0, 100, Out));
  EXPECT_FALSE(C.lookup(1, 101, Out));
  EXPECT_TRUE(C.lookup(2, 102, Out));
  EXPECT_EQ(C.stats().Evictions, 1u);
}

TEST(QueryCacheTest, CrossShardIsolation) {
  // One entry per shard. Entries landing in different shards never evict
  // each other, even when every shard is at capacity.
  QueryCache C(QueryCache::NumShards);
  for (uint64_t I = 0; I != QueryCache::NumShards; ++I) {
    uint64_t Fp = I << 59; // shardOf keys on the high bits.
    EXPECT_EQ(QueryCache::shardOf(Fp), I);
    C.insert(Fp, I, satVerdict());
  }
  EXPECT_EQ(C.size(), QueryCache::NumShards);
  EXPECT_EQ(C.stats().Evictions, 0u);
  QueryVerdict Out;
  for (uint64_t I = 0; I != QueryCache::NumShards; ++I)
    EXPECT_TRUE(C.lookup(I << 59, I, Out)) << "shard " << I;

  // A second entry in shard 0 evicts only shard 0's resident.
  C.insert(1, 999, satVerdict());
  EXPECT_FALSE(C.lookup(0, 0, Out));
  for (uint64_t I = 1; I != QueryCache::NumShards; ++I)
    EXPECT_TRUE(C.lookup(I << 59, I, Out)) << "shard " << I;
}

TEST(QueryCacheTest, ClearDropsEntriesKeepsStats) {
  QueryCache C(1024);
  C.insert(1, 1, satVerdict());
  C.clear();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.stats().Insertions, 1u);
  QueryVerdict Out;
  EXPECT_FALSE(C.lookup(1, 1, Out));
}

TEST(QueryCacheTest, CachedVerdictNeverFlipsSolverAnswer) {
  // The end-to-end soundness property: with the cache installed, repeated
  // queries are served from the memo (hits observed) and the verdicts are
  // identical to the uncached solver's.
  Expr X = mkVar("x", Sort::Int);
  Expr Y = mkVar("y", Sort::Int);
  Expr Z = mkVar("z", Sort::Int);
  std::vector<Expr> UnsatCtx = {mkEq(X, Y), mkEq(Y, Z), mkNe(X, Z)};
  std::vector<Expr> SatCtx = {mkEq(X, Y), mkNe(Y, Z)};
  std::vector<Expr> EntailCtx = {mkEq(X, Y), mkEq(Y, Z)};

  Solver Bare; // No cache: the ground truth.
  ASSERT_EQ(Bare.checkSat(UnsatCtx), SatResult::Unsat);
  ASSERT_EQ(Bare.checkSat(SatCtx), SatResult::Sat);
  ASSERT_TRUE(Bare.entails(EntailCtx, mkEq(X, Z)));
  ASSERT_FALSE(Bare.entails(SatCtx, mkEq(X, Z)));

  QueryCache C(1024);
  Solver S;
  S.Memo = &C;
  for (int Round = 0; Round != 3; ++Round) {
    EXPECT_EQ(S.checkSat(UnsatCtx), SatResult::Unsat) << "round " << Round;
    EXPECT_EQ(S.checkSat(SatCtx), SatResult::Sat) << "round " << Round;
    EXPECT_TRUE(S.entails(EntailCtx, mkEq(X, Z))) << "round " << Round;
    EXPECT_FALSE(S.entails(SatCtx, mkEq(X, Z))) << "round " << Round;
  }
  // Rounds 2 and 3 repeat round 1's queries verbatim: all hits.
  EXPECT_GE(C.stats().Hits, 8u);
  EXPECT_GT(C.stats().Insertions, 0u);
}

TEST(QueryCacheTest, BranchBudgetIsPartOfTheKey) {
  // The same query under a different MaxBranches must not share an entry:
  // a budget-limited verdict is only valid under its own budget.
  Expr X = mkVar("x", Sort::Int);
  std::vector<Expr> Ctx = {mkEq(X, mkInt(1))};

  QueryCache C(1024);
  Solver S;
  S.Memo = &C;
  ASSERT_EQ(S.checkSat(Ctx), SatResult::Sat);
  uint64_t InsertionsAfterFirst = C.stats().Insertions;
  S.MaxBranches = 7; // Different budget: a fresh fingerprint.
  ASSERT_EQ(S.checkSat(Ctx), SatResult::Sat);
  EXPECT_GT(C.stats().Insertions, InsertionsAfterFirst);
}

TEST(QueryCacheTest, ConcurrentMixedUse) {
  // Hammer one cache from several threads; the test is that nothing tears
  // and every served verdict is the one inserted for that key.
  QueryCache C(256);
  std::atomic<uint64_t> BadVerdicts{0};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != 4; ++T)
    Ts.emplace_back([&C, &BadVerdicts, T] {
      for (uint64_t I = 0; I != 2000; ++I) {
        uint64_t Fp = (T * 131 + I * 7919) % 512;
        SatResult Want = Fp % 2 ? SatResult::Sat : SatResult::Unsat;
        C.insert(Fp, Fp + 1, QueryVerdict{Want, Fp, Fp});
        QueryVerdict Out;
        if (C.lookup(Fp, Fp + 1, Out) && Out.R != Want)
          ++BadVerdicts;
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(BadVerdicts.load(), 0u);
  EXPECT_LE(C.size(), C.capacity());
}

//===----------------------------------------------------------------------===//
// Budgets
//===----------------------------------------------------------------------===//

TEST(BudgetTest, DisarmedByDefault) {
  EXPECT_FALSE(budget::active());
  EXPECT_FALSE(budget::exceeded());
}

TEST(BudgetTest, BranchCapDegradesSolverToUnknown) {
  // An Unsat query that needs many case splits under a 1-branch cap: the
  // solver must answer Unknown (the sound direction), not hang or lie.
  Expr X = mkVar("x", Sort::Int);
  std::vector<Expr> Branchy = {mkEq(X, mkInt(0))};
  std::vector<Expr> Cases;
  for (int I = 1; I <= 10; ++I)
    Cases.push_back(mkEq(X, mkInt(I)));
  Branchy.push_back(mkOr(Cases));

  Solver S;
  ASSERT_EQ(S.checkSat(Branchy), SatResult::Unsat); // Unlimited: provable.

  budget::begin(0, 1);
  EXPECT_TRUE(budget::active());
  EXPECT_EQ(S.checkSat(Branchy), SatResult::Unknown);
  EXPECT_TRUE(budget::exceeded()); // Sticky once fired.
  budget::clear();
  EXPECT_FALSE(budget::active());
  EXPECT_TRUE(budget::wasExceeded()); // Survives clear for classification.
  EXPECT_EQ(budget::describe(), "branch budget");
}

TEST(BudgetTest, BudgetTrippedUnknownIsNotCached) {
  // Soundness: a verdict degraded by the budget must never be memoised —
  // the same query under no budget must still get its real answer.
  Expr X = mkVar("x", Sort::Int);
  std::vector<Expr> Branchy = {mkEq(X, mkInt(0))};
  std::vector<Expr> Cases;
  for (int I = 1; I <= 10; ++I)
    Cases.push_back(mkEq(X, mkInt(I)));
  Branchy.push_back(mkOr(Cases));

  QueryCache C(1024);
  Solver S;
  S.Memo = &C;
  budget::begin(0, 1);
  ASSERT_EQ(S.checkSat(Branchy), SatResult::Unknown);
  budget::clear();
  EXPECT_EQ(S.checkSat(Branchy), SatResult::Unsat);
}

TEST(BudgetTest, JobScopeIsRAII) {
  {
    budget::JobScope Scope(1000000000ull, 0);
    EXPECT_TRUE(budget::active());
    EXPECT_FALSE(budget::exceeded());
  }
  EXPECT_FALSE(budget::active());
}

TEST(BudgetTest, FreshBeginResetsWasExceeded) {
  budget::begin(0, 0); // No limits: also clears the sticky flag.
  EXPECT_FALSE(budget::wasExceeded());
  budget::clear();
}

} // namespace
