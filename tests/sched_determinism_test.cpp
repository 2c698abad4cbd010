//===- tests/sched_determinism_test.cpp - Parallel == serial ----------------===//
//
// The scheduler's determinism contract: the LinkedList hybrid proof run
// through 4 workers produces a machine-readable report byte-identical
// (timing aside) to the serial run, with and without the entailment memo,
// and so does a run with more threads than jobs; a parallel run with no
// jobs returns empty reports; the shared entailment cache observes real
// hits, and per-job budgets degrade stuck obligations to a reported
// Unknown instead of a spurious failure.
//
//===----------------------------------------------------------------------===//

#include "rustlib/Clients.h"
#include "rustlib/LinkedList.h"
#include "sched/Scheduler.h"

#include <gtest/gtest.h>

using namespace gilr;
using namespace gilr::rustlib;

namespace {

/// Blanks every "seconds": <number> value (wall-clock is the one
/// legitimately nondeterministic field of the report).
std::string stripTimings(std::string S) {
  const std::string Key = "\"seconds\": ";
  std::size_t Pos = 0;
  while ((Pos = S.find(Key, Pos)) != std::string::npos) {
    std::size_t ValBegin = Pos + Key.size();
    std::size_t ValEnd = ValBegin;
    while (ValEnd < S.size() && S[ValEnd] != ',' && S[ValEnd] != '}' &&
           S[ValEnd] != '\n')
      ++ValEnd;
    S.erase(ValBegin, ValEnd - ValBegin);
    Pos = ValBegin;
  }
  return S;
}

class SchedDeterminismTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = buildLinkedListLib(SpecMode::Functional).release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static LinkedListLib *Lib;
};

LinkedListLib *SchedDeterminismTest::Lib = nullptr;

TEST_F(SchedDeterminismTest, FourWorkersMatchSerialByteForByte) {
  std::vector<std::string> Funcs = functionalFunctions();
  std::vector<creusot::SafeFn> Clients = makeClients();

  // The reference: serial, with no entailment memo.
  sched::SchedulerConfig NoMemo;
  NoMemo.Threads = 1;
  NoMemo.CacheCapacity = 0;
  engine::VerifEnv NoMemoEnv = Lib->env();
  hybrid::HybridDriver NoMemoDriver(NoMemoEnv, Lib->Contracts);
  hybrid::HybridReport NoMemoR = NoMemoDriver.run(Funcs, Clients, NoMemo);
  ASSERT_TRUE(NoMemoR.ok());

  sched::SchedulerConfig Serial;
  Serial.Threads = 1;
  engine::VerifEnv SerialEnv = Lib->env();
  hybrid::HybridDriver SerialDriver(SerialEnv, Lib->Contracts);
  hybrid::HybridReport SerialR = SerialDriver.run(Funcs, Clients, Serial);
  ASSERT_TRUE(SerialR.ok());

  sched::SchedulerConfig Par;
  Par.Threads = 4;
  engine::VerifEnv ParEnv = Lib->env();
  hybrid::HybridDriver ParDriver(ParEnv, Lib->Contracts);
  hybrid::HybridReport ParR = ParDriver.run(Funcs, Clients, Par);
  ASSERT_TRUE(ParR.ok());

  std::string NoMemoJson = stripTimings(NoMemoR.renderJson());
  std::string SerialJson = stripTimings(SerialR.renderJson());
  std::string ParJson = stripTimings(ParR.renderJson());

  // Cache hits replay the original computation's work counts into the
  // job's stats, so even the solver-work numbers agree everywhere.
  EXPECT_EQ(SerialJson, ParJson);
  EXPECT_EQ(NoMemoJson, SerialJson);
}

TEST_F(SchedDeterminismTest, MoreThreadsThanJobsMatchSerial) {
  // Three jobs on eight threads: the loop starts one thread per job, and
  // every job still lands in its own slot.
  std::vector<std::string> Funcs = functionalFunctions();
  ASSERT_GE(Funcs.size(), 2u);
  Funcs.resize(2);
  std::vector<creusot::SafeFn> Clients = makeClients();
  ASSERT_GE(Clients.size(), 1u);
  Clients.resize(1);

  sched::SchedulerConfig Serial;
  Serial.Threads = 1;
  engine::VerifEnv SerialEnv = Lib->env();
  hybrid::HybridDriver SerialDriver(SerialEnv, Lib->Contracts);
  hybrid::HybridReport SerialR = SerialDriver.run(Funcs, Clients, Serial);
  ASSERT_TRUE(SerialR.ok());

  sched::SchedulerConfig Wide;
  Wide.Threads = 8;
  engine::VerifEnv WideEnv = Lib->env();
  hybrid::HybridDriver WideDriver(WideEnv, Lib->Contracts);
  hybrid::HybridReport WideR = WideDriver.run(Funcs, Clients, Wide);
  ASSERT_EQ(WideR.UnsafeSide.size(), 2u);
  ASSERT_EQ(WideR.SafeSide.size(), 1u);

  EXPECT_EQ(stripTimings(SerialR.renderJson()),
            stripTimings(WideR.renderJson()));
}

TEST_F(SchedDeterminismTest, ParallelRunWithNoJobsIsEmpty) {
  sched::SchedulerConfig Par;
  Par.Threads = 4;
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  hybrid::HybridReport R = Driver.run({}, {}, Par);
  EXPECT_TRUE(R.UnsafeSide.empty());
  EXPECT_TRUE(R.SafeSide.empty());
  EXPECT_TRUE(R.ok());
}

TEST_F(SchedDeterminismTest, ParallelRunIsRepeatable) {
  std::vector<std::string> Funcs = functionalFunctions();
  std::vector<creusot::SafeFn> Clients = makeClients();
  sched::SchedulerConfig Par;
  Par.Threads = 4;

  std::string First;
  for (int Round = 0; Round != 2; ++Round) {
    engine::VerifEnv Env = Lib->env();
    hybrid::HybridDriver Driver(Env, Lib->Contracts);
    std::string Json =
        stripTimings(Driver.run(Funcs, Clients, Par).renderJson());
    if (Round == 0)
      First = Json;
    else
      EXPECT_EQ(First, Json);
  }
}

TEST_F(SchedDeterminismTest, SharedCacheObservesHits) {
  // The LinkedList proofs repeat entailment queries heavily (PR 1 measured
  // the repeat rate); the sharded cache must turn them into hits.
  sched::SchedulerConfig C;
  C.Threads = 4;
  sched::Scheduler S(C);
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridReport R =
      S.runHybrid(Env, Lib->Contracts, functionalFunctions(), makeClients());
  EXPECT_TRUE(R.ok());
  sched::CacheStatsSnapshot Stats = S.cacheStats();
  EXPECT_GT(Stats.Hits, 0u);
  EXPECT_GT(Stats.Insertions, 0u);
  EXPECT_GT(Stats.hitRate(), 0.0);
}

TEST_F(SchedDeterminismTest, CacheDisabledStillProves) {
  sched::SchedulerConfig C;
  C.Threads = 4;
  C.CacheCapacity = 0;
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  hybrid::HybridReport R =
      Driver.run(functionalFunctions(), makeClients(), C);
  EXPECT_TRUE(R.ok());
}

TEST_F(SchedDeterminismTest, VerifyAllSchedulerPathMatchesSerial) {
  std::vector<std::string> Funcs = functionalFunctions();

  sched::SchedulerConfig NoMemo;
  NoMemo.CacheCapacity = 0;
  engine::VerifEnv Env1 = Lib->env();
  engine::Verifier V1(Env1);
  std::vector<engine::VerifyReport> Serial = V1.verifyAll(Funcs, NoMemo);

  sched::SchedulerConfig C;
  C.Threads = 4;
  engine::VerifEnv Env2 = Lib->env();
  engine::Verifier V2(Env2);
  std::vector<engine::VerifyReport> Par = V2.verifyAll(Funcs, C);

  ASSERT_EQ(Serial.size(), Par.size());
  for (std::size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].Func, Par[I].Func) << "input order preserved";
    EXPECT_EQ(Serial[I].Ok, Par[I].Ok) << Serial[I].Func;
    EXPECT_EQ(Serial[I].PathsCompleted, Par[I].PathsCompleted)
        << Serial[I].Func;
    EXPECT_EQ(static_cast<uint64_t>(Serial[I].Solver.EntailQueries),
              static_cast<uint64_t>(Par[I].Solver.EntailQueries))
        << Serial[I].Func;
    EXPECT_EQ(static_cast<uint64_t>(Serial[I].Solver.Branches),
              static_cast<uint64_t>(Par[I].Solver.Branches))
        << Serial[I].Func;
  }
}

TEST_F(SchedDeterminismTest, BudgetExhaustionDegradesToUnknown) {
  // A 1-branch cap is far below what any LinkedList functional proof
  // needs: every job must come back TimedOut (reported Unknown), never a
  // spurious definite failure, and the report must say so.
  sched::SchedulerConfig C;
  C.Threads = 2;
  C.JobBranchCap = 1;
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  hybrid::HybridReport R =
      Driver.run({"LinkedList::push_front_node"}, {}, C);

  ASSERT_EQ(R.UnsafeSide.size(), 1u);
  const engine::VerifyReport &Job = R.UnsafeSide[0];
  EXPECT_FALSE(Job.Ok);
  EXPECT_TRUE(Job.TimedOut);
  ASSERT_FALSE(Job.Errors.empty());
  EXPECT_NE(Job.Errors.back().find("budget"), std::string::npos);

  EXPECT_NE(R.renderJson().find("\"timed_out\": true"), std::string::npos);
  EXPECT_NE(R.summaryText().find("UNKNOWN (budget)"), std::string::npos);
}

} // namespace
