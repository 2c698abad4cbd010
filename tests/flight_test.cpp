//===- tests/flight_test.cpp - Proof flight recorder ------------------------===//
//
// The flight recorder end to end: the journal expression grammar
// round-trips, each distinct assertion is written once and referenced, the
// timing decorator attributes queries to their obligation,
// the journal captures cache-served and searched queries alike, a 4-worker
// hybrid run's journal replays serially with byte-identical verdicts, warm
// incremental runs journal `cached` markers, env-derived output paths
// create parent directories (with diagnostics on failure), and everything
// is off — zero records, zero report — by default.
//
//===----------------------------------------------------------------------===//

#include "incr/Session.h"
#include "rustlib/Clients.h"
#include "rustlib/LinkedList.h"
#include "sched/Scheduler.h"
#include "solver/Flight.h"
#include "solver/Journal.h"
#include "solver/Replay.h"
#include "solver/Solver.h"
#include "support/Files.h"
#include "support/Metrics.h"
#include "sym/ExprBuilder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <unistd.h>

using namespace gilr;
using namespace gilr::rustlib;

namespace {

/// Restores a recorder-off state however a test exits.
struct FlightOff {
  ~FlightOff() { flight::reset(); }
};

std::string tempPath(const std::string &Name) {
  return (std::filesystem::temp_directory_path() /
          ("gilr_flight_" + Name + "_" + std::to_string(::getpid())))
      .string();
}

/// Minimal in-test QueryMemo so cache-hit journaling can be exercised
/// without spinning up the scheduler.
class MapMemo : public QueryMemo {
public:
  bool lookup(uint64_t Fp, uint64_t Fp2, QueryVerdict &Out) override {
    auto It = M.find({Fp, Fp2});
    if (It == M.end())
      return false;
    Out = It->second;
    return true;
  }
  void insert(uint64_t Fp, uint64_t Fp2, const QueryVerdict &V) override {
    M[{Fp, Fp2}] = V;
  }

private:
  std::map<std::pair<uint64_t, uint64_t>, QueryVerdict> M;
};

Expr roundTrip(const Expr &E) {
  std::string Err;
  Expr Back = journal::exprFromJournal(journal::exprToJournal(E), &Err);
  EXPECT_TRUE(Back) << "parse failed: " << Err << " for "
                    << journal::exprToJournal(E);
  return Back;
}

void expectRoundTrips(const Expr &E) {
  Expr Back = roundTrip(E);
  ASSERT_TRUE(Back);
  EXPECT_TRUE(exprEquals(E, Back))
      << "round-trip changed " << journal::exprToJournal(E) << " into "
      << journal::exprToJournal(Back);
}

//===----------------------------------------------------------------------===//
// Journal expression grammar
//===----------------------------------------------------------------------===//

TEST(JournalGrammar, LeavesRoundTrip) {
  expectRoundTrips(mkVar("x", Sort::Int));
  expectRoundTrips(mkVar("vals", Sort::Seq));
  expectRoundTrips(mkLftVar("'a"));
  expectRoundTrips(mkInt(0));
  expectRoundTrips(mkInt(-7));
  expectRoundTrips(mkInt((__int128)1 << 100));
  expectRoundTrips(mkReal(Rational(1, 2)));
  expectRoundTrips(mkReal(Rational(-3, 7)));
  expectRoundTrips(mkTrue());
  expectRoundTrips(mkFalse());
  expectRoundTrips(mkUnit());
  expectRoundTrips(mkLoc(42));
  expectRoundTrips(mkNone());
  expectRoundTrips(mkSeqNil());
}

TEST(JournalGrammar, CompoundTermsRoundTrip) {
  Expr X = mkVar("x", Sort::Int), Y = mkVar("y", Sort::Int);
  Expr O = mkVar("o", Sort::Opt);
  Expr S = mkVar("s", Sort::Seq), T = mkVar("t", Sort::Seq);
  Expr B = mkVar("b", Sort::Bool), C = mkVar("c", Sort::Bool);

  expectRoundTrips(mkAnd(mkLt(X, Y), mkIsSome(O)));
  expectRoundTrips(mkOr(mkNot(B), mkImplies(B, C)));
  expectRoundTrips(mkIte(B, mkAdd(X, Y), mkSub(X, Y)));
  expectRoundTrips(mkEq(mkMul(X, Y), mkNeg(X)));
  expectRoundTrips(mkLe(mkSeqLen(S), mkInt(10)));
  expectRoundTrips(mkEq(mkSome(X), O));
  expectRoundTrips(mkEq(mkUnwrap(O), X));
  expectRoundTrips(mkEq(mkSeqConcat(S, mkSeqUnit(X)), T));
  expectRoundTrips(mkEq(mkSeqNth(S, X), mkSeqNth(T, Y)));
  expectRoundTrips(mkEq(mkSeqSub(S, X, Y), T));
  expectRoundTrips(mkEq(mkTuple({X, Y, mkUnit()}), mkVar("p", Sort::Tuple)));
  expectRoundTrips(mkEq(mkTupleGet(mkVar("p", Sort::Tuple), 1), X));
  expectRoundTrips(mkLftIncl(mkLftVar("'a"), mkLftVar("'b")));
  expectRoundTrips(mkEq(mkApp("model", {X, S}, Sort::Seq), T));
}

TEST(JournalGrammar, NamesWithDelimitersRoundTrip) {
  // '|' and '\' in symbol names must survive the |...| quoting.
  expectRoundTrips(mkVar("a|b\\c d(e)", Sort::Int));
  expectRoundTrips(mkApp("odd|name\\", {mkVar("x", Sort::Int)}, Sort::Bool));
}

TEST(JournalGrammar, MalformedInputIsRejectedWithDiagnostics) {
  std::string Err;
  EXPECT_FALSE(journal::exprFromJournal("(and true", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(journal::exprFromJournal("(bogus-op 1 2)", &Err));
  EXPECT_FALSE(journal::exprFromJournal("(v |x| NoSuchSort)", &Err));
  EXPECT_FALSE(journal::exprFromJournal("(= 1 2) trailing", &Err));
}

TEST(JournalGrammar, RecordsRoundTrip) {
  journal::Record R;
  R.RecKind = journal::Record::Kind::Query;
  R.Obligation = "list::push_front";
  R.Side = 'U';
  R.QueryIdx = 3;
  R.PcSize = 2;
  R.CacheHit = true;
  R.Verdict = 1;
  R.DurationNs = 12345;
  R.Branches = 7;
  R.TheoryChecks = 4;
  R.MaxBranches = 50000;
  R.Fp = 0xdeadbeefcafe1234ull;
  R.Fp2 = 0x0123456789abcdefull;
  R.Assertions = {mkLt(mkVar("x", Sort::Int), mkInt(3)),
                  mkIsSome(mkVar("o", Sort::Opt))};

  journal::Record C;
  C.RecKind = journal::Record::Kind::Cached;
  C.Obligation = "list::pop_front";
  C.Side = 'S';
  C.CachedOk = true;

  std::string Text = std::string(journal::journalMagic()) + "\n";
  for (uint64_t I = 0; I != R.Assertions.size(); ++I) {
    journal::renderDef(I, journal::exprToJournal(R.Assertions[I]), Text);
    Text += '\n';
  }
  journal::renderRecord(R, {0, 1}, Text);
  Text += '\n';
  journal::renderRecord(C, {}, Text);
  Text += '\n';
  journal::ParsedJournal P = journal::parseJournal(Text);
  EXPECT_TRUE(P.HeaderOk);
  EXPECT_TRUE(P.Errors.empty()) << P.Errors.front();
  ASSERT_EQ(P.Records.size(), 2u);

  const journal::Record &Q = P.Records[0];
  EXPECT_EQ(Q.RecKind, journal::Record::Kind::Query);
  EXPECT_EQ(Q.Obligation, "list::push_front");
  EXPECT_EQ(Q.Side, 'U');
  EXPECT_EQ(Q.QueryIdx, 3u);
  EXPECT_EQ(Q.PcSize, 2u);
  EXPECT_TRUE(Q.CacheHit);
  EXPECT_EQ(Q.Verdict, 1);
  EXPECT_EQ(Q.DurationNs, 12345u);
  EXPECT_EQ(Q.Branches, 7u);
  EXPECT_EQ(Q.TheoryChecks, 4u);
  EXPECT_EQ(Q.MaxBranches, 50000u);
  EXPECT_EQ(Q.Fp, R.Fp);
  EXPECT_EQ(Q.Fp2, R.Fp2);
  ASSERT_EQ(Q.Assertions.size(), 2u);
  EXPECT_TRUE(exprEquals(Q.Assertions[0], R.Assertions[0]));
  EXPECT_TRUE(exprEquals(Q.Assertions[1], R.Assertions[1]));

  EXPECT_EQ(P.Records[1].RecKind, journal::Record::Kind::Cached);
  EXPECT_EQ(P.Records[1].Obligation, "list::pop_front");
  EXPECT_EQ(P.Records[1].Side, 'S');
  EXPECT_TRUE(P.Records[1].CachedOk);
}

TEST(JournalGrammar, DistinctAssertionsAreDefinedOnceAndReferenced) {
  FlightOff Off;
  flight::Options O;
  O.Journal = true;
  flight::configure(O);
  Expr X = mkVar("x", Sort::Int);
  Expr Shared = mkLt(X, mkInt(5));
  std::vector<Expr> Q1 = {Shared, mkLt(mkInt(1), X)};
  std::vector<Expr> Q2 = {Shared, mkLt(mkInt(2), X)};
  Solver S;
  {
    flight::ObligationScope Scope("test::defs", 'U');
    EXPECT_EQ(S.checkSat(Q1), SatResult::Sat);
    EXPECT_EQ(S.checkSat(Q2), SatResult::Sat);
  }
  std::string Text = flight::journalText();
  EXPECT_EQ(Text.rfind(journal::journalMagic(), 0), 0u);
  // Three distinct assertions over two queries: three def lines, and the
  // shared one is referenced by both records.
  std::size_t Defs = 0;
  for (std::size_t P = Text.find("(def "); P != std::string::npos;
       P = Text.find("(def ", P + 1))
    ++Defs;
  EXPECT_EQ(Defs, 3u);
  EXPECT_EQ(Text.find("(assert (<"), std::string::npos) << Text;

  journal::ParsedJournal P = journal::parseJournal(Text);
  EXPECT_TRUE(P.Errors.empty()) << P.Errors.front();
  ASSERT_EQ(P.Records.size(), 2u);
  ASSERT_EQ(P.Records[0].Assertions.size(), 2u);
  ASSERT_EQ(P.Records[1].Assertions.size(), 2u);
  EXPECT_TRUE(exprEquals(P.Records[0].Assertions[0], Shared));
  EXPECT_TRUE(exprEquals(P.Records[1].Assertions[0], Shared));
  EXPECT_TRUE(exprEquals(P.Records[1].Assertions[1], Q2[1]));
}

TEST(JournalGrammar, UndefinedReferencesAreReported) {
  std::string Query = "(query :ob |o| :side U :idx 0 :pc 1 :cached f "
                      ":verdict sat :ns 1 :branches 0 :theory 1 "
                      ":budget 50000 :fp 0 :fp2 0 ";
  // A reference to a def that never appeared is a per-line error.
  journal::ParsedJournal Bad = journal::parseJournal(
      std::string(journal::journalMagic()) + "\n(def 0 true)\n" + Query +
      "(assert @1))\n" + Query + "(assert @0))\n(def x true)\n");
  EXPECT_TRUE(Bad.HeaderOk);
  ASSERT_EQ(Bad.Errors.size(), 2u);
  EXPECT_NE(Bad.Errors[0].find("undefined assertion '@1'"),
            std::string::npos);
  EXPECT_NE(Bad.Errors[1].find("malformed (def N E)"), std::string::npos);
  ASSERT_EQ(Bad.Records.size(), 1u);
  EXPECT_TRUE(isTrueLit(Bad.Records[0].Assertions.at(0)));
}

TEST(JournalGrammar, BadHeaderIsReported) {
  journal::ParsedJournal P = journal::parseJournal("NOT_A_JOURNAL\n");
  EXPECT_FALSE(P.HeaderOk);
  EXPECT_FALSE(P.Errors.empty());
}

//===----------------------------------------------------------------------===//
// Recorder layers
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, DisabledByDefaultRecordsNothing) {
  FlightOff Off;
  flight::reset();
  metrics::SolverQueriesReport Before =
      metrics::Registry::get().solverQueriesReport();

  Solver S;
  flight::ObligationScope Scope("ignored", 'U');
  EXPECT_EQ(S.checkSat({mkLt(mkVar("x", Sort::Int), mkInt(1))}),
            SatResult::Sat);

  metrics::SolverQueriesReport After =
      metrics::Registry::get().solverQueriesReport();
  EXPECT_EQ(After.Queries, Before.Queries);
  EXPECT_EQ(flight::journalRecordCount(), 0u);
}

TEST(FlightRecorder, TimingAttributesQueriesToObligations) {
  FlightOff Off;
  // Full registry reset so the slowest-query list is empty — this test's
  // micro-queries must be guaranteed slots in it.
  metrics::Registry::get().reset();
  flight::Options O;
  O.Timing = true;
  flight::configure(O);
  metrics::SolverQueriesReport Before =
      metrics::Registry::get().solverQueriesReport();

  Expr X = mkVar("x", Sort::Int);
  Solver S;
  {
    flight::ObligationScope Scope("test::alpha", 'U');
    EXPECT_EQ(S.checkSat({mkLt(X, mkInt(5))}), SatResult::Sat);
    EXPECT_EQ(S.checkSat({mkLt(X, mkInt(2)), mkLt(mkInt(3), X)}),
              SatResult::Unsat);
  }

  metrics::SolverQueriesReport After =
      metrics::Registry::get().solverQueriesReport();
  EXPECT_TRUE(After.Valid);
  EXPECT_EQ(After.Queries, Before.Queries + 2);
  // Both queries were full searches under a named scope; the slowest list
  // must know their provenance and per-scope indices.
  bool SawAlpha0 = false, SawAlpha1 = false;
  for (const metrics::SolverQuerySample &Q : After.Slowest) {
    if (Q.Obligation != "test::alpha")
      continue;
    EXPECT_EQ(Q.Side, 'U');
    SawAlpha0 = SawAlpha0 || Q.QueryIdx == 0;
    SawAlpha1 = SawAlpha1 || Q.QueryIdx == 1;
  }
  EXPECT_TRUE(SawAlpha0);
  EXPECT_TRUE(SawAlpha1);
}

TEST(FlightRecorder, JournalMarksCacheHitsAndReplays) {
  FlightOff Off;
  flight::Options O;
  O.Journal = true;
  flight::configure(O);

  MapMemo Memo;
  QueryMemo *Prev = setQueryMemo(&Memo);
  Expr X = mkVar("x", Sort::Int);
  std::vector<Expr> Q = {mkLt(X, mkInt(2)), mkLt(mkInt(3), X)};
  Solver S;
  {
    flight::ObligationScope Scope("test::memo", 'S');
    EXPECT_EQ(S.checkSat(Q), SatResult::Unsat); // miss: full search
    EXPECT_EQ(S.checkSat(Q), SatResult::Unsat); // hit: memo-served
  }
  setQueryMemo(Prev);

  journal::ParsedJournal P = journal::parseJournal(flight::journalText());
  EXPECT_TRUE(P.HeaderOk);
  ASSERT_EQ(P.Records.size(), 2u);
  EXPECT_FALSE(P.Records[0].CacheHit);
  EXPECT_TRUE(P.Records[1].CacheHit);
  EXPECT_EQ(P.Records[0].Verdict, 1);
  EXPECT_EQ(P.Records[1].Verdict, 1);
  EXPECT_EQ(P.Records[0].QueryIdx, 0u);
  EXPECT_EQ(P.Records[1].QueryIdx, 1u);
  // Work attribution survives the cache: the hit record replays the
  // original search's counters.
  EXPECT_EQ(P.Records[1].Branches, P.Records[0].Branches);
  EXPECT_EQ(P.Records[1].TheoryChecks, P.Records[0].TheoryChecks);

  // The journal replays: both records re-solve to unsat.
  replay::ReplayResult R = replay::replayJournalText(flight::journalText());
  EXPECT_TRUE(R.ok()) << replay::summaryText(R);
  EXPECT_EQ(R.Replayed, 2u);
  EXPECT_EQ(R.Matches, 2u);
  EXPECT_EQ(R.FpMismatches, 0u);
}

TEST(FlightRecorder, ReplayFlagsTamperedVerdicts) {
  FlightOff Off;
  flight::Options O;
  O.Journal = true;
  flight::configure(O);
  Solver S;
  {
    flight::ObligationScope Scope("test::tamper", 'U');
    EXPECT_EQ(S.checkSat({mkLt(mkVar("x", Sort::Int), mkInt(1))}),
              SatResult::Sat);
  }
  std::string Text = flight::journalText();
  std::size_t Pos = Text.find(":verdict sat");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 12, ":verdict unsat");

  replay::ReplayResult R = replay::replayJournalText(Text);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Divergences.size(), 1u);
  EXPECT_EQ(R.Divergences[0].Obligation, "test::tamper");
  EXPECT_EQ(R.Divergences[0].Recorded, 1);
  EXPECT_EQ(R.Divergences[0].Replayed, 0);
}

//===----------------------------------------------------------------------===//
// Output-file plumbing (env-derived paths)
//===----------------------------------------------------------------------===//

TEST(OutputFiles, ParentDirectoriesAreCreated) {
  std::string Root = tempPath("dirs");
  std::string Nested = Root + "/deep/ly/nested/journal.jrn";
  EXPECT_TRUE(files::writeFile(Nested, "hello\n", "test artifact"));
  std::string Back;
  EXPECT_TRUE(files::readFile(Nested, Back, "test artifact"));
  EXPECT_EQ(Back, "hello\n");
  std::filesystem::remove_all(Root);
}

TEST(OutputFiles, UnwritablePathFailsWithDiagnosticNotSilently) {
  // A path whose "parent directory" is a regular file can never be created;
  // writeFile must return false (and print a diagnostic) instead of
  // dropping the data silently.
  std::string File = tempPath("blocker");
  ASSERT_TRUE(files::writeFile(File, "x", "test artifact"));
  EXPECT_FALSE(
      files::writeFile(File + "/child.jrn", "y", "test artifact"));
  std::filesystem::remove(File);
}

TEST(OutputFiles, JournalFlushHonoursPidPlaceholderAndCreatesDirs) {
  FlightOff Off;
  std::string Root = tempPath("flush");
  flight::Options O;
  O.Journal = true;
  O.JournalFile = Root + "/journals/run_%p.jrn";
  flight::configure(O);
  Solver S;
  {
    flight::ObligationScope Scope("test::flush", 'U');
    EXPECT_EQ(S.checkSat({mkLt(mkVar("x", Sort::Int), mkInt(1))}),
              SatResult::Sat);
  }
  EXPECT_TRUE(flight::flushJournal());
  std::string Expected =
      Root + "/journals/run_" + std::to_string(::getpid()) + ".jrn";
  std::string Text;
  ASSERT_TRUE(files::readFile(Expected, Text, "flushed journal"));
  journal::ParsedJournal P = journal::parseJournal(Text);
  EXPECT_TRUE(P.HeaderOk);
  EXPECT_EQ(P.Records.size(), 1u);
  std::filesystem::remove_all(Root);
}

//===----------------------------------------------------------------------===//
// End-to-end: scheduled runs
//===----------------------------------------------------------------------===//

class FlightE2ETest : public ::testing::Test {
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

LinkedListLib *FlightE2ETest::Lib = nullptr;

/// Blanks the fields that legitimately differ between runs of the same
/// input: wall-clock durations and cache-hit markers (which query hits the
/// shared cache depends on scheduling).
std::string stripNondeterministicFields(const std::string &Journal) {
  std::string Out;
  std::size_t Pos = 0;
  while (Pos < Journal.size()) {
    std::size_t Nl = Journal.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Journal.size();
    std::string Line = Journal.substr(Pos, Nl - Pos);
    for (const char *Key : {" :cached ", " :ns "}) {
      std::size_t K = Line.find(Key);
      if (K == std::string::npos)
        continue;
      std::size_t ValBegin = K + std::string(Key).size();
      std::size_t ValEnd = Line.find(' ', ValBegin);
      if (ValEnd == std::string::npos)
        ValEnd = Line.size();
      Line.erase(K, ValEnd - K);
    }
    Out += Line;
    Out += '\n';
    Pos = Nl + 1;
  }
  return Out;
}

TEST_F(FlightE2ETest, FourWorkerJournalIsDeterministicAndReplaysSerially) {
  FlightOff Off;
  std::vector<std::string> Funcs = functionalFunctions();
  std::vector<creusot::SafeFn> Clients = makeClients();

  flight::Options O;
  O.Journal = true;

  // 4-worker scheduled run.
  flight::configure(O);
  sched::SchedulerConfig Par;
  Par.Threads = 4;
  engine::VerifEnv ParEnv = Lib->env();
  hybrid::HybridDriver ParDriver(ParEnv, Lib->Contracts);
  ASSERT_TRUE(ParDriver.run(Funcs, Clients, Par).ok());
  std::string ParJournal = flight::journalText();

  // Serial scheduled run of the same input.
  flight::configure(O); // clears the buffer
  sched::SchedulerConfig Serial;
  Serial.Threads = 1;
  engine::VerifEnv SerialEnv = Lib->env();
  hybrid::HybridDriver SerialDriver(SerialEnv, Lib->Contracts);
  ASSERT_TRUE(SerialDriver.run(Funcs, Clients, Serial).ok());
  std::string SerialJournal = flight::journalText();
  flight::reset();

  // Deterministic ordering: modulo durations and cache-hit markers, the
  // 4-worker journal is byte-identical to the serial one.
  EXPECT_EQ(stripNondeterministicFields(ParJournal),
            stripNondeterministicFields(SerialJournal));

  // The 4-worker journal replays serially with byte-identical verdicts:
  // every definite verdict matches, nothing diverges.
  replay::ReplayResult R = replay::replayJournalText(ParJournal);
  EXPECT_TRUE(R.ok()) << replay::summaryText(R);
  EXPECT_GT(R.TotalQueries, 0u);
  EXPECT_EQ(R.Replayed, R.TotalQueries);
  EXPECT_EQ(R.Matches + R.Improved, R.Replayed);
  EXPECT_TRUE(R.Divergences.empty());

  // Filters restrict the replayed set.
  replay::ReplayOptions Slow;
  Slow.SlowestN = 3;
  replay::ReplayResult RS = replay::replayJournalText(ParJournal, Slow);
  EXPECT_TRUE(RS.ok()) << replay::summaryText(RS);
  EXPECT_EQ(RS.Replayed, 3u);
}

TEST_F(FlightE2ETest, WarmIncrementalRunJournalsCachedMarkers) {
  FlightOff Off;
  std::string Path = tempPath("incr_store");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig C;
  std::vector<std::string> Funcs = functionalFunctions();
  std::vector<creusot::SafeFn> Clients = makeClients();

  flight::Options O;
  O.Journal = true;

  // Cold run populates the store; its journal holds real query records and
  // no cached markers.
  flight::configure(O);
  engine::VerifEnv E1 = Lib->env();
  hybrid::HybridDriver D1(E1, Lib->Contracts);
  ASSERT_TRUE(D1.run(Funcs, Clients, C, Inc).ok());
  journal::ParsedJournal Cold = journal::parseJournal(flight::journalText());
  std::size_t ColdCached = 0;
  for (const journal::Record &R : Cold.Records)
    ColdCached += R.RecKind == journal::Record::Kind::Cached;
  EXPECT_EQ(ColdCached, 0u);
  EXPECT_GT(Cold.Records.size(), 0u);

  // Warm run: every obligation replays from the store — the journal must
  // say so with cached markers instead of re-solved queries.
  flight::configure(O);
  engine::VerifEnv E2 = Lib->env();
  hybrid::HybridDriver D2(E2, Lib->Contracts);
  ASSERT_TRUE(D2.run(Funcs, Clients, C, Inc).ok());
  journal::ParsedJournal Warm = journal::parseJournal(flight::journalText());
  flight::reset();

  std::size_t WarmLint = 0, WarmUnsafe = 0, WarmSafe = 0, WarmQueries = 0;
  for (const journal::Record &R : Warm.Records) {
    if (R.RecKind == journal::Record::Kind::Cached) {
      EXPECT_TRUE(R.CachedOk);
      switch (R.Side) {
      case 'L': ++WarmLint; break;
      case 'U': ++WarmUnsafe; break;
      case 'S': ++WarmSafe; break;
      default: ADD_FAILURE() << "unexpected side " << R.Side;
      }
    } else {
      ++WarmQueries;
    }
  }
  // Every obligation of the run replays from the store: one lint and one
  // proof marker per unsafe function, one proof marker per safe client —
  // and not a single query is re-solved.
  EXPECT_EQ(WarmLint, Funcs.size());
  EXPECT_EQ(WarmUnsafe, Funcs.size());
  EXPECT_EQ(WarmSafe, Clients.size());
  EXPECT_EQ(WarmQueries, 0u);

  std::remove(Path.c_str());
}

} // namespace
