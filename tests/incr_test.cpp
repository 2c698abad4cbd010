//===- tests/incr_test.cpp - Incremental verification -----------------------===//
//
// The incremental subsystem's contract:
//
//  * stable fingerprints are intern-id independent and canonical under
//    commutative operand order;
//  * the proof store round-trips verdicts and survives corruption by
//    degrading to a cold run, never an error;
//  * a warm run replays every verdict (zero solver work) and its report is
//    byte-identical to the cold run's, modulo the "cached" markers;
//  * editing one lemma / contract re-verifies exactly its dependents;
//  * semantic salvage (incr/SpecDiff.h): clause reorders and doc edits
//    revalidate with zero solver work, equivalence-preserving pure-clause
//    rewrites revalidate through implication queries, and deleting a clause
//    the proof relied on falls back to full re-verification.
//
//===----------------------------------------------------------------------===//

#include "creusot/Pearlite.h"
#include "incr/Fingerprint.h"
#include "incr/ProofStore.h"
#include "incr/Session.h"
#include "rustlib/Clients.h"
#include "rustlib/LinkedList.h"
#include "rustlib/Stack.h"
#include "rustlib/Vec.h"
#include "sched/Scheduler.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <tuple>

using namespace gilr;
using namespace gilr::rustlib;

namespace {

std::string stripCachedMarkers(std::string S) {
  const std::string Key = ", \"cached\": true";
  std::size_t Pos;
  while ((Pos = S.find(Key)) != std::string::npos)
    S.erase(Pos, Key.size());
  return S;
}

/// A fresh (absent) store directory.
std::string tempStorePath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "gilr_incr_" + Name;
  std::filesystem::remove_all(Path);
  return Path;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// The functional set plus front_mut — the one function whose proof applies
/// lemmas, so lemma-edit invalidation has a dependent to find.
std::vector<std::string> unsafeFuncs() {
  std::vector<std::string> F = functionalFunctions();
  F.push_back("LinkedList::front_mut");
  return F;
}

class IncrTest : public ::testing::Test {
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

LinkedListLib *IncrTest::Lib = nullptr;

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST_F(IncrTest, StableExprHashIsCommutativeAndDiscriminating) {
  Expr A = mkVar("a", Sort::Int);
  Expr B = mkVar("b", Sort::Int);
  EXPECT_EQ(exprStableHash(mkAdd(A, B)), exprStableHash(mkAdd(B, A)));
  EXPECT_EQ(exprStableHash(mkAnd(mkLe(A, B), mkLe(B, A))),
            exprStableHash(mkAnd(mkLe(B, A), mkLe(A, B))));
  EXPECT_NE(exprStableHash(mkAdd(A, B)), exprStableHash(mkAdd(A, A)));
  // Non-commutative operands keep their order.
  EXPECT_NE(exprStableHash(mkLe(A, B)), exprStableHash(mkLe(B, A)));
  EXPECT_NE(exprStableHash(A), 0u);
}

TEST_F(IncrTest, FingerprintsAreStableAcrossRebuilds) {
  // A second, independently interned universe (fresh intern ids throughout)
  // must produce identical fingerprints for identical entities — the
  // process-stability requirement of the on-disk store.
  auto Lib2 = buildLinkedListLib(SpecMode::Functional);
  for (const std::string &Name : allFunctions()) {
    const rmir::Function *F1 = Lib->Prog.lookup(Name);
    const rmir::Function *F2 = Lib2->Prog.lookup(Name);
    ASSERT_NE(F1, nullptr) << Name;
    ASSERT_NE(F2, nullptr) << Name;
    EXPECT_EQ(incr::fpFunction(*F1), incr::fpFunction(*F2)) << Name;
  }
  for (const auto &[Name, Spec] : Lib->Contracts.all()) {
    const creusot::PearliteSpec *S2 = Lib2->Contracts.lookup(Name);
    ASSERT_NE(S2, nullptr) << Name;
    EXPECT_EQ(incr::fpContract(Spec), incr::fpContract(*S2)) << Name;
  }
  const auto *L1 = Lib->Lemmas.lookup("ll_extract_head");
  const auto *L2 = Lib2->Lemmas.lookup("ll_extract_head");
  ASSERT_NE(L1, nullptr);
  ASSERT_NE(L2, nullptr);
  EXPECT_EQ(incr::fpLemma(*L1), incr::fpLemma(*L2));
}

TEST_F(IncrTest, FingerprintsCoverEdits) {
  const creusot::PearliteSpec *PS =
      Lib->Contracts.lookup("LinkedList::push_front");
  ASSERT_NE(PS, nullptr);
  creusot::PearliteSpec Edited = *PS;
  Edited.Doc += " (edited)";
  EXPECT_NE(incr::fpContract(*PS), incr::fpContract(Edited));

  const auto *LV = Lib->Lemmas.lookup("ll_extract_head");
  ASSERT_NE(LV, nullptr);
  auto EditedLemma = *LV;
  std::get<engine::ExtractLemma>(EditedLemma).ToPred += "x";
  EXPECT_NE(incr::fpLemma(*LV), incr::fpLemma(EditedLemma));
}

//===----------------------------------------------------------------------===//
// Proof store
//===----------------------------------------------------------------------===//

engine::VerifyReport sampleReport() {
  engine::VerifyReport R;
  R.Func = "f";
  R.Ok = true;
  R.Seconds = 1.25;
  R.PathsCompleted = 3;
  R.StatesExplored = 7;
  R.GhostAnnotations = 2;
  R.Errors = {"a note", "another"};
  R.Solver.SatQueries = 5;
  R.Solver.EntailQueries = 11;
  R.Solver.Branches = 13;
  R.Phases = {{"engine.consume", 4, 123456}};
  return R;
}

TEST_F(IncrTest, RecordCodecsRoundTrip) {
  incr::StoredObligation Ob;
  Ob.S = incr::Side::Unsafe;
  Ob.Name = "f";
  Ob.SelfFp = 0xabc;
  Ob.ConfigFp = 0xdef;
  Ob.Deps = {{deps::Kind::Lemma, "ll_extract_head", 42, false, {}},
             {deps::Kind::Spec, "f", 43, false, {}}};
  Ob.Blob = incr::encodeVerifyReport(sampleReport());

  incr::StoredObligation Got;
  ASSERT_TRUE(incr::decodeObligationRecord(incr::encodeObligationRecord(Ob),
                                           Got));
  EXPECT_EQ(Got.SelfFp, 0xabcu);
  EXPECT_EQ(Got.ConfigFp, 0xdefu);
  ASSERT_EQ(Got.Deps.size(), 2u);
  EXPECT_EQ(Got.Deps[0].K, deps::Kind::Lemma);
  EXPECT_EQ(Got.Deps[0].Name, "ll_extract_head");
  EXPECT_EQ(Got.Deps[0].Fp, 42u);

  engine::VerifyReport R;
  ASSERT_TRUE(incr::decodeVerifyReport(Got.Blob, R));
  engine::VerifyReport Want = sampleReport();
  EXPECT_EQ(R.Func, Want.Func);
  EXPECT_EQ(R.Ok, Want.Ok);
  EXPECT_EQ(R.Seconds, Want.Seconds);
  EXPECT_EQ(R.PathsCompleted, Want.PathsCompleted);
  EXPECT_EQ(R.StatesExplored, Want.StatesExplored);
  EXPECT_EQ(R.GhostAnnotations, Want.GhostAnnotations);
  EXPECT_EQ(R.Errors, Want.Errors);
  EXPECT_EQ(static_cast<uint64_t>(R.Solver.SatQueries), 5u);
  EXPECT_EQ(static_cast<uint64_t>(R.Solver.EntailQueries), 11u);
  ASSERT_EQ(R.Phases.size(), 1u);
  EXPECT_EQ(R.Phases[0].Key, "engine.consume");
  EXPECT_EQ(R.Phases[0].Nanos, 123456u);

  // The solver block encodes in (Fp, Fp2) order, so any shard order of the
  // same entries gives the same bytes.
  std::vector<SavedQueryVerdict> Es = {{11, 22, {SatResult::Unsat, 9, 4}},
                                       {3, 5, {SatResult::Sat, 1, 2}},
                                       {11, 7, {SatResult::Unsat, 0, 1}}};
  std::string Block = incr::encodeSolverBlock(Es);
  std::reverse(Es.begin(), Es.end());
  EXPECT_EQ(incr::encodeSolverBlock(Es), Block);
  std::vector<SavedQueryVerdict> Back;
  ASSERT_TRUE(incr::decodeSolverBlock(Block, Back));
  ASSERT_EQ(Back.size(), 3u);
  EXPECT_EQ(Back[0].Fp, 3u);
  EXPECT_EQ(Back[1].Fp2, 7u);
  EXPECT_EQ(Back[2].V.R, SatResult::Unsat);
  EXPECT_EQ(Back[2].V.Branches, 9u);
  EXPECT_FALSE(incr::decodeSolverBlock(Block.substr(0, Block.size() - 1),
                                       Back));

  // An element count the bytes left could not hold is malformed input, not
  // a request to allocate: each decoder returns false.
  const std::string Huge(4, '\xff');
  EXPECT_FALSE(incr::decodeSolverBlock(Huge, Back));
  incr::StoredObligation NoDeps;
  NoDeps.Name = "f";
  std::string Rec = incr::encodeObligationRecord(NoDeps);
  Rec.replace(1 + 4 + 1 + 8 + 8, 4, Huge); // Side, name, fps, then NDeps.
  EXPECT_FALSE(incr::decodeObligationRecord(Rec, Got));
  std::string Rep = incr::encodeVerifyReport(sampleReport());
  Rep.replace(4 + 1 + 1 + 1 + 8 + 4 * 3, 4, Huge); // Func .. ghosts, NErrors.
  EXPECT_FALSE(incr::decodeVerifyReport(Rep, R));
}

/// The store key of unsafe obligation \p Func under the fingerprints of
/// \p Env.
incr::CacheKey unsafeKey(engine::VerifEnv &Env, const std::string &Func) {
  return incr::obligationCacheKey(
      incr::Side::Unsafe, Func, incr::fpFunction(*Env.Prog.lookup(Func)),
      incr::fpAutomation(Env.Auto, Env.Solv.MaxBranches));
}

/// What runThroughSession observed.
struct SessionRun {
  hybrid::HybridReport Report;
  incr::IncrRunStats Stats;
  std::vector<SavedQueryVerdict> Loaded, Saved;
};

/// One scheduled LinkedList run through a session over \p Inc's store:
/// preloads the solver block, saves the run's entries back and flushes.
SessionRun runThroughSession(LinkedListLib &Lib, const incr::IncrConfig &Inc,
                             unsigned Threads) {
  SessionRun Out;
  sched::SchedulerConfig SC;
  SC.Threads = Threads;
  SC.StableCacheKeys = true;
  sched::Scheduler S(SC);
  engine::VerifEnv Env = Lib.env();
  incr::Session Sess(Inc, Env, &Lib.Contracts);
  Out.Loaded = Sess.solverEntriesToLoad();
  S.preloadCache(Out.Loaded);
  Out.Report =
      S.runHybrid(Env, Lib.Contracts, unsafeFuncs(), makeClients(), &Sess);
  Out.Saved = S.exportCacheEntries();
  Sess.saveSolverEntries(Out.Saved);
  EXPECT_TRUE(Sess.flush());
  Out.Stats = Sess.stats();
  return Out;
}

TEST_F(IncrTest, SolverBlockRoundTripsThroughTheStore) {
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = tempStorePath("solver_block");

  SessionRun Cold = runThroughSession(*Lib, Inc, 1);
  ASSERT_TRUE(Cold.Report.ok());
  EXPECT_TRUE(Cold.Loaded.empty());
  ASSERT_FALSE(Cold.Saved.empty());

  // The warm session preloads exactly what the cold one saved.
  engine::VerifEnv Env = Lib->env();
  incr::Session Warm(Inc, Env, &Lib->Contracts);
  auto Sorted = [](std::vector<SavedQueryVerdict> Es) {
    std::sort(Es.begin(), Es.end(),
              [](const SavedQueryVerdict &A, const SavedQueryVerdict &B) {
                return std::tie(A.Fp, A.Fp2) < std::tie(B.Fp, B.Fp2);
              });
    return Es;
  };
  std::vector<SavedQueryVerdict> Want = Sorted(Cold.Saved);
  std::vector<SavedQueryVerdict> Got = Sorted(Warm.solverEntriesToLoad());
  ASSERT_EQ(Got.size(), Want.size());
  for (std::size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Fp, Want[I].Fp) << I;
    EXPECT_EQ(Got[I].Fp2, Want[I].Fp2) << I;
    EXPECT_EQ(Got[I].V.R, Want[I].V.R) << I;
    EXPECT_EQ(Got[I].V.Branches, Want[I].V.Branches) << I;
    EXPECT_EQ(Got[I].V.TheoryChecks, Want[I].V.TheoryChecks) << I;
  }
}

TEST_F(IncrTest, WarmRunWithNothingNewWritesNothing) {
  std::string Path = tempStorePath("untouched_block");
  incr::SharedDirConfig SC;
  SC.Dir = Path;
  incr::SharedDirBackend Store(SC);
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.Backend = &Store;
  ASSERT_TRUE(runThroughSession(*Lib, Inc, 1).Report.ok());
  std::string BlockPath = Store.recordPath(incr::SolverBlockCacheKey);
  std::string Before = readFileBytes(BlockPath);
  ASSERT_FALSE(Before.empty());

  // Four workers may export the shards in another order; the block still
  // encodes to the stored bytes, so its put is skipped.
  incr::CacheBackendStats S0 = Store.stats();
  SessionRun Warm = runThroughSession(*Lib, Inc, 4);
  ASSERT_TRUE(Warm.Report.ok());
  EXPECT_EQ(Warm.Stats.verified(), 0u);
  incr::CacheBackendStats S1 = Store.stats();
  EXPECT_EQ(S1.Puts, S0.Puts);
  EXPECT_EQ(S1.PutsSkipped, S0.PutsSkipped + 1);
  EXPECT_EQ(readFileBytes(BlockPath), Before);
}

TEST_F(IncrTest, LookAlikeModulesKeepSeparateLintRecords) {
  // The safety and functional Stack modules have the same function bodies
  // under different specs. Verified in turn through one store, each keeps
  // its own lint records: the second round re-lints nothing.
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = tempStorePath("lookalike_lint");
  sched::SchedulerConfig C;
  auto Run = [&](StackSpecMode Mode) {
    std::unique_ptr<StackLib> L = buildStackLib(Mode);
    engine::VerifEnv E = L->env();
    engine::Verifier V(E);
    incr::IncrRunStats S;
    for (const engine::VerifyReport &R :
         V.verifyAll(stackFunctions(), C, Inc, &S))
      EXPECT_TRUE(R.Ok) << R.Func;
    return S;
  };
  for (StackSpecMode Mode :
       {StackSpecMode::TypeSafety, StackSpecMode::Functional})
    Run(Mode);
  for (StackSpecMode Mode :
       {StackSpecMode::TypeSafety, StackSpecMode::Functional}) {
    incr::IncrRunStats S = Run(Mode);
    EXPECT_EQ(S.AnalyzedLint, 0u);
    EXPECT_EQ(S.CachedLint, stackFunctions().size());
    EXPECT_EQ(S.verified(), 0u);
    EXPECT_EQ(S.Invalidated, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Cold / warm end-to-end
//===----------------------------------------------------------------------===//

TEST_F(IncrTest, WarmRunReplaysEverythingWithZeroSolverWork) {
  std::string Path = tempStorePath("warm");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig C;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();
  std::size_t Total = Funcs.size() + Clients.size();

  incr::IncrRunStats S1;
  engine::VerifEnv E1 = Lib->env();
  hybrid::HybridDriver D1(E1, Lib->Contracts);
  hybrid::HybridReport Cold = D1.run(Funcs, Clients, C, Inc, &S1);
  ASSERT_TRUE(Cold.ok());
  EXPECT_EQ(S1.cached(), 0u);
  EXPECT_EQ(S1.verified(), Total);

  incr::IncrRunStats S2;
  engine::VerifEnv E2 = Lib->env();
  hybrid::HybridDriver D2(E2, Lib->Contracts);
  hybrid::HybridReport Warm;
  {
    metrics::ScopedSolverStatsReset Zero;
    Warm = D2.run(Funcs, Clients, C, Inc, &S2);
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().SatQueries), 0u);
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().EntailQueries), 0u);
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().Branches), 0u);
  }
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(S2.cached(), Total);
  EXPECT_EQ(S2.verified(), 0u);
  EXPECT_EQ(S2.Invalidated, 0u);

  // Reports round-trip byte-for-byte — timing included, since the stored
  // blob carries the cold run's wall time — modulo the cached markers.
  EXPECT_EQ(Cold.renderJson(), stripCachedMarkers(Warm.renderJson()));
  EXPECT_NE(Warm.renderJson().find("\"cached\": true"), std::string::npos);
  EXPECT_NE(Warm.summaryText().find("ok (cached)"), std::string::npos);
}

TEST_F(IncrTest, WarmRunIsWorkerCountIndependent) {
  std::string Path = tempStorePath("warm_parallel");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();

  sched::SchedulerConfig Serial;
  engine::VerifEnv E1 = Lib->env();
  hybrid::HybridDriver D1(E1, Lib->Contracts);
  hybrid::HybridReport Cold = D1.run(Funcs, Clients, Serial, Inc);
  ASSERT_TRUE(Cold.ok());

  for (unsigned Threads : {1u, 4u}) {
    sched::SchedulerConfig C;
    C.Threads = Threads;
    incr::IncrRunStats S;
    engine::VerifEnv E = Lib->env();
    hybrid::HybridDriver D(E, Lib->Contracts);
    hybrid::HybridReport Warm = D.run(Funcs, Clients, C, Inc, &S);
    ASSERT_TRUE(Warm.ok());
    EXPECT_EQ(S.cached(), Funcs.size() + Clients.size()) << Threads;
    EXPECT_EQ(Cold.renderJson(), stripCachedMarkers(Warm.renderJson()))
        << Threads << " workers";
  }
}

TEST_F(IncrTest, CorruptStoreDegradesToColdRunWithoutError) {
  std::string Path = tempStorePath("corrupt_e2e");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig C;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::size_t Total = Funcs.size() + makeClients().size();
  auto Run = [&](incr::IncrRunStats &S) {
    engine::VerifEnv E = Lib->env();
    hybrid::HybridDriver D(E, Lib->Contracts);
    return D.run(Funcs, makeClients(), C, Inc, &S).ok();
  };

  // A store directory holding only foreign files runs cold.
  std::filesystem::create_directories(Path + "/objects/ab");
  {
    std::ofstream Out(Path + "/objects/ab/not-a-record.rec");
    Out << "this is not a proof record at all";
  }
  incr::IncrRunStats S1;
  ASSERT_TRUE(Run(S1));
  EXPECT_EQ(S1.cached(), 0u);
  EXPECT_EQ(S1.verified(), Total);

  // Flip a payload byte of one record, truncate another and the solver
  // block, and give a third a well-formed record file whose payload claims
  // 2^32 - 1 dependencies: each reads as a miss, only those three
  // obligations re-verify, and their puts replace the broken files.
  engine::VerifEnv Env = Lib->env();
  incr::SharedDirConfig SC;
  SC.Dir = Path;
  incr::SharedDirBackend Store(SC);
  std::string Flipped = Store.recordPath(unsafeKey(Env, Funcs[0]));
  std::string Torn = Store.recordPath(unsafeKey(Env, Funcs[1]));
  std::string Block = Store.recordPath(incr::SolverBlockCacheKey);
  std::string Good = readFileBytes(Flipped);
  ASSERT_FALSE(Good.empty());
  std::string Bad = Good;
  Bad[Bad.size() / 2] ^= 0x40;
  for (const auto &[File, Bytes] :
       {std::pair<std::string, std::string>{Flipped, Bad},
        {Torn, readFileBytes(Torn).substr(0, 20)},
        {Block, readFileBytes(Block).substr(0, 30)}}) {
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  incr::CacheKey HugeKey = unsafeKey(Env, Funcs[2]);
  std::string Payload;
  incr::StoredObligation Ob;
  ASSERT_TRUE(Store.get(HugeKey, Payload));
  ASSERT_TRUE(incr::decodeObligationRecord(Payload, Ob));
  Ob.Deps.clear();
  Payload = incr::encodeObligationRecord(Ob);
  Payload.replace(1 + 4 + Ob.Name.size() + 8 + 8, 4, std::string(4, '\xff'));
  ASSERT_TRUE(Store.put(HugeKey, Payload));
  incr::IncrRunStats S2;
  ASSERT_TRUE(Run(S2));
  EXPECT_EQ(S2.VerifiedUnsafe, 3u);
  EXPECT_EQ(S2.cached(), Total - 3);
  EXPECT_EQ(S2.Invalidated, 0u);
  EXPECT_NE(readFileBytes(Flipped), Bad);
  std::string Replaced;
  ASSERT_TRUE(incr::SharedDirBackend(SC).get(HugeKey, Replaced));
  EXPECT_TRUE(incr::decodeObligationRecord(Replaced, Ob));

  incr::IncrRunStats S3;
  ASSERT_TRUE(Run(S3));
  EXPECT_EQ(S3.verified(), 0u);
  EXPECT_EQ(S3.cached(), Total);
}

//===----------------------------------------------------------------------===//
// Dependency-aware invalidation
//===----------------------------------------------------------------------===//

TEST_F(IncrTest, DependencyGraphAttributesLemmasToFrontMut) {
  std::string Path = tempStorePath("depgraph");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig C;
  C.StableCacheKeys = true;
  sched::Scheduler S(C);
  engine::VerifEnv Env = Lib->env();
  incr::Session Sess(Inc, Env, &Lib->Contracts);
  hybrid::HybridReport R =
      S.runHybrid(Env, Lib->Contracts, unsafeFuncs(), makeClients(), &Sess);
  ASSERT_TRUE(R.ok());

  // Every obligation of the run: each function on the unsafe and lint
  // sides, each client on the safe side.
  std::vector<incr::ObligationId> Obligations;
  for (const std::string &F : unsafeFuncs())
    for (incr::Side Sd : {incr::Side::Unsafe, incr::Side::Lint})
      Obligations.push_back(incr::ObligationId{Sd, F});
  for (const creusot::SafeFn &F : makeClients())
    Obligations.push_back(incr::ObligationId{incr::Side::Safe, F.Name});

  // front_mut is the only function whose proof applies the lemmas.
  for (const char *Lemma : {"ll_extract_head", "ll_freeze_list"}) {
    std::vector<incr::ObligationId> Dependents;
    for (const incr::ObligationId &Ob : Obligations)
      if (const std::set<incr::DepKey> *Deps = Sess.graph().depsOf(Ob))
        if (Deps->count(incr::DepKey{deps::Kind::Lemma, Lemma}))
          Dependents.push_back(Ob);
    ASSERT_EQ(Dependents.size(), 1u) << Lemma;
    EXPECT_EQ(Dependents[0].S, incr::Side::Unsafe);
    EXPECT_EQ(Dependents[0].Name, "LinkedList::front_mut");
  }

  // Every obligation depends on (at least) its own spec/contract context.
  const std::set<incr::DepKey> *FrontDeps = Sess.graph().depsOf(
      incr::ObligationId{incr::Side::Unsafe, "LinkedList::front_mut"});
  ASSERT_NE(FrontDeps, nullptr);
  EXPECT_TRUE(FrontDeps->count(
      incr::DepKey{deps::Kind::Function, "LinkedList::front_mut"}));
  EXPECT_TRUE(FrontDeps->count(
      incr::DepKey{deps::Kind::Spec, "LinkedList::front_mut"}));
}

TEST_F(IncrTest, LemmaEditReverifiesExactlyItsDependents) {
  std::string Path = tempStorePath("lemma_edit");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  // Blanket invalidation: any dependency fingerprint change re-verifies the
  // dependent. (With semantic salvage on, this particular edit is instead
  // rescued by an implication query — the companion test below.)
  Inc.SemanticSalvage = false;
  sched::SchedulerConfig C;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();

  engine::VerifEnv E1 = Lib->env();
  hybrid::HybridDriver D1(E1, Lib->Contracts);
  ASSERT_TRUE(D1.run(Funcs, Clients, C, Inc).ok());

  // Simulate an edit: conjoin a LinArith-true but syntactically irreducible
  // fact onto the extraction lemma's pure requirement. The lemma's meaning
  // is unchanged (the proof still goes through); its fingerprint is not.
  auto *LV = Lib->Lemmas.lookupMutable("ll_extract_head");
  ASSERT_NE(LV, nullptr);
  auto &Ex = std::get<engine::ExtractLemma>(*LV);
  Expr Old = Ex.Requires;
  Expr Z = mkVar("incr$edit", Sort::Int);
  Ex.Requires = mkAnd(Old, mkLe(Z, mkAdd(Z, mkInt(1))));

  incr::IncrRunStats S;
  engine::VerifEnv E2 = Lib->env();
  hybrid::HybridDriver D2(E2, Lib->Contracts);
  hybrid::HybridReport Warm = D2.run(Funcs, Clients, C, Inc, &S);
  Ex.Requires = Old; // Restore before asserting (the fixture is shared).

  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(S.Invalidated, 1u);
  EXPECT_EQ(S.VerifiedUnsafe, 1u);
  EXPECT_EQ(S.CachedUnsafe, Funcs.size() - 1);
  EXPECT_EQ(S.CachedSafe, Clients.size());
  for (const engine::VerifyReport &R : Warm.UnsafeSide)
    EXPECT_EQ(R.Cached, R.Func != "LinkedList::front_mut") << R.Func;
  for (const creusot::SafeReport &R : Warm.SafeSide)
    EXPECT_TRUE(R.Cached) << R.Func;
}

TEST_F(IncrTest, LemmaEditSalvagesThroughImplication) {
  std::string Path = tempStorePath("lemma_salvage");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig C;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();
  std::size_t Total = Funcs.size() + Clients.size();

  engine::VerifEnv E1 = Lib->env();
  hybrid::HybridDriver D1(E1, Lib->Contracts);
  ASSERT_TRUE(D1.run(Funcs, Clients, C, Inc).ok());

  // The same equivalence-preserving edit as the blanket test: conjoin a
  // LinArith-true fact onto the extraction lemma's requirement. A lemma
  // requirement behaves like a precondition at the application site, so the
  // salvage obligation is old-requires => added-conjunct — which the solver
  // discharges, keeping front_mut's cached verdict.
  auto *LV = Lib->Lemmas.lookupMutable("ll_extract_head");
  ASSERT_NE(LV, nullptr);
  auto &Ex = std::get<engine::ExtractLemma>(*LV);
  Expr Old = Ex.Requires;
  Expr Z = mkVar("incr$edit", Sort::Int);
  Ex.Requires = mkAnd(Old, mkLe(Z, mkAdd(Z, mkInt(1))));

  incr::IncrRunStats S;
  engine::VerifEnv E2 = Lib->env();
  hybrid::HybridDriver D2(E2, Lib->Contracts);
  hybrid::HybridReport Warm = D2.run(Funcs, Clients, C, Inc, &S);
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(S.Invalidated, 0u);
  EXPECT_EQ(S.verified(), 0u);
  EXPECT_EQ(S.cached(), Total);
  EXPECT_EQ(S.Implied, 1u);
  EXPECT_EQ(S.Salvaged, 0u);
  EXPECT_GE(S.SalvageQueries, 1u);
  for (const engine::VerifyReport &R : Warm.UnsafeSide)
    EXPECT_TRUE(R.Cached) << R.Func;
  for (const creusot::SafeReport &R : Warm.SafeSide)
    EXPECT_TRUE(R.Cached) << R.Func;

  // The salvaged record was refreshed under the current fingerprints, so
  // the next run (same edited lemma) is a plain warm hit.
  incr::IncrRunStats S3;
  engine::VerifEnv E3 = Lib->env();
  hybrid::HybridDriver D3(E3, Lib->Contracts);
  hybrid::HybridReport Again = D3.run(Funcs, Clients, C, Inc, &S3);
  Ex.Requires = Old; // Restore before asserting (the fixture is shared).
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(S3.cached(), Total);
  EXPECT_EQ(S3.verified(), 0u);
  EXPECT_EQ(S3.Salvaged + S3.Implied, 0u);
  EXPECT_EQ(S3.SalvageQueries, 0u);
}

TEST_F(IncrTest, SalvagedWarmRunIsWorkerCountIndependent) {
  std::string Path = tempStorePath("salvage_parallel");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();

  sched::SchedulerConfig Serial;
  engine::VerifEnv E1 = Lib->env();
  hybrid::HybridDriver D1(E1, Lib->Contracts);
  hybrid::HybridReport Cold = D1.run(Funcs, Clients, Serial, Inc);
  ASSERT_TRUE(Cold.ok());
  std::string ColdStore = tempStorePath("salvage_parallel_cold");
  std::filesystem::copy(Path, ColdStore,
                        std::filesystem::copy_options::recursive);

  auto *LV = Lib->Lemmas.lookupMutable("ll_extract_head");
  ASSERT_NE(LV, nullptr);
  auto &Ex = std::get<engine::ExtractLemma>(*LV);
  Expr Old = Ex.Requires;
  Expr Z = mkVar("incr$edit", Sort::Int);
  Ex.Requires = mkAnd(Old, mkLe(Z, mkAdd(Z, mkInt(1))));

  // Both runs start from a copy of the cold store (a salvage refreshes the
  // record on disk), so each takes the implication-salvage path; the
  // rendered reports must not depend on the worker count.
  std::vector<std::string> Rendered;
  for (unsigned Threads : {1u, 4u}) {
    std::filesystem::remove_all(Path);
    std::filesystem::copy(ColdStore, Path,
                          std::filesystem::copy_options::recursive);
    sched::SchedulerConfig C;
    C.Threads = Threads;
    incr::IncrRunStats S;
    engine::VerifEnv E = Lib->env();
    hybrid::HybridDriver D(E, Lib->Contracts);
    hybrid::HybridReport Warm = D.run(Funcs, Clients, C, Inc, &S);
    ASSERT_TRUE(Warm.ok()) << Threads;
    EXPECT_EQ(S.Implied, 1u) << Threads;
    EXPECT_EQ(S.verified(), 0u) << Threads;
    Rendered.push_back(Warm.renderJson());
  }
  Ex.Requires = Old;
  EXPECT_EQ(Rendered[0], Rendered[1]);
  EXPECT_EQ(Cold.renderJson(), stripCachedMarkers(Rendered[0]));
}

TEST_F(IncrTest, ContractDocEditSalvagesWithZeroSolverWork) {
  std::string Path = tempStorePath("contract_doc_edit");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig SC;
  SC.StableCacheKeys = true;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();

  engine::VerifEnv E1 = Lib->env();
  incr::Session Cold(Inc, E1, &Lib->Contracts);
  {
    sched::Scheduler S(SC);
    ASSERT_TRUE(
        S.runHybrid(E1, Lib->Contracts, Funcs, Clients, &Cold).ok());
    Cold.saveSolverEntries(S.exportCacheEntries());
    ASSERT_TRUE(Cold.flush());
  }

  // An edited contract: push_front's documentation string changes. The
  // whole-entity fingerprint moves, but the clause multiset is untouched
  // (doc strings are outside the skeleton), so every dependent client is
  // salvaged with zero solver work instead of re-verified.
  creusot::PearliteSpecTable Edited;
  for (const auto &[Name, Spec] : Lib->Contracts.all()) {
    creusot::PearliteSpec Copy = Spec;
    if (Name == "LinkedList::push_front")
      Copy.Doc += " (edited)";
    Edited.add(std::move(Copy));
  }

  incr::DepKey EditedKey{deps::Kind::Contract, "LinkedList::push_front"};
  unsigned Users = 0;
  for (const creusot::SafeFn &F : Clients) {
    const std::set<incr::DepKey> *Deps =
        Cold.graph().depsOf(incr::ObligationId{incr::Side::Safe, F.Name});
    ASSERT_NE(Deps, nullptr) << F.Name;
    Users += Deps->count(EditedKey) != 0;
  }
  ASSERT_GE(Users, 1u);

  engine::VerifEnv E2 = Lib->env();
  incr::Session WarmSess(Inc, E2, &Edited);
  sched::Scheduler S2(SC);
  hybrid::HybridReport Warm;
  {
    metrics::ScopedSolverStatsReset Zero;
    Warm = S2.runHybrid(E2, Edited, Funcs, Clients, &WarmSess);
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().SatQueries), 0u);
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().EntailQueries), 0u);
  }
  ASSERT_TRUE(Warm.ok());
  for (const engine::VerifyReport &R : Warm.UnsafeSide)
    EXPECT_TRUE(R.Cached) << R.Func;
  for (const creusot::SafeReport &R : Warm.SafeSide)
    EXPECT_TRUE(R.Cached) << R.Func;
  EXPECT_EQ(WarmSess.stats().verified(), 0u);
  EXPECT_EQ(WarmSess.stats().Invalidated, 0u);
  EXPECT_EQ(WarmSess.stats().Salvaged, Users);
  EXPECT_EQ(WarmSess.stats().Implied, 0u);
  EXPECT_EQ(WarmSess.stats().SalvageQueries, 0u);
}

TEST_F(IncrTest, ContractClauseEditReverifiesExactlyItsDependents) {
  std::string Path = tempStorePath("contract_clause_edit");
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;
  sched::SchedulerConfig SC;
  SC.StableCacheKeys = true;
  std::vector<std::string> Funcs = unsafeFuncs();
  std::vector<creusot::SafeFn> Clients = makeClients();

  engine::VerifEnv E1 = Lib->env();
  incr::Session Cold(Inc, E1, &Lib->Contracts);
  {
    sched::Scheduler S(SC);
    ASSERT_TRUE(
        S.runHybrid(E1, Lib->Contracts, Funcs, Clients, &Cold).ok());
    Cold.saveSolverEntries(S.exportCacheEntries());
    ASSERT_TRUE(Cold.flush());
  }

  // A real clause edit: conjoin `true` onto push_front's ensures. Contract
  // clauses never get implication salvage (Pearlite terms have no journal
  // grammar), so every client whose cold proof consulted the contract must
  // re-verify — and only those.
  creusot::PearliteSpecTable Edited;
  for (const auto &[Name, Spec] : Lib->Contracts.all()) {
    creusot::PearliteSpec Copy = Spec;
    if (Name == "LinkedList::push_front")
      Copy.Post = creusot::pAnd(Copy.Post, creusot::pBool(true));
    Edited.add(std::move(Copy));
  }

  engine::VerifEnv E2 = Lib->env();
  incr::Session WarmSess(Inc, E2, &Edited);
  sched::Scheduler S2(SC);
  hybrid::HybridReport Warm =
      S2.runHybrid(E2, Edited, Funcs, Clients, &WarmSess);
  ASSERT_TRUE(Warm.ok());

  // The unsafe side never consults the Pearlite table during proofs (its
  // specs were encoded at build time), so it stays fully cached; a safe
  // client re-verifies iff its cold proof consulted the edited contract.
  incr::DepKey EditedKey{deps::Kind::Contract, "LinkedList::push_front"};
  for (const engine::VerifyReport &R : Warm.UnsafeSide)
    EXPECT_TRUE(R.Cached) << R.Func;
  unsigned Reverified = 0;
  for (std::size_t I = 0; I != Clients.size(); ++I) {
    const std::set<incr::DepKey> *Deps = Cold.graph().depsOf(
        incr::ObligationId{incr::Side::Safe, Clients[I].Name});
    ASSERT_NE(Deps, nullptr) << Clients[I].Name;
    bool UsesPushFront = Deps->count(EditedKey) != 0;
    EXPECT_EQ(Warm.SafeSide[I].Cached, !UsesPushFront) << Clients[I].Name;
    Reverified += !Warm.SafeSide[I].Cached;
  }
  EXPECT_GE(Reverified, 1u);
  EXPECT_EQ(WarmSess.stats().VerifiedSafe, Reverified);
  EXPECT_EQ(WarmSess.stats().Invalidated, Reverified);
  EXPECT_EQ(WarmSess.stats().Salvaged + WarmSess.stats().Implied, 0u);
}

//===----------------------------------------------------------------------===//
// Semantic salvage across Gilsonite spec edits (Vec universe)
//===----------------------------------------------------------------------===//

/// Scaffold for the spec-edit tests: a private Vec universe (the edits
/// mutate the spec table in place), lints off so the runs measure proof
/// obligations only.
struct VecEditRun {
  std::unique_ptr<VecLib> VL = buildVecLib();
  std::vector<std::string> Funcs = vecFunctions();
  incr::IncrConfig Inc;
  sched::SchedulerConfig C;

  explicit VecEditRun(const std::string &Name) {
    Inc.Enabled = true;
    Inc.StorePath = tempStorePath(Name);
  }

  std::vector<engine::VerifyReport> run(incr::IncrRunStats &S) {
    engine::VerifEnv E = VL->env();
    E.Lint.Enabled = false;
    engine::Verifier V(E);
    return V.verifyAll(Funcs, C, Inc, &S);
  }
};

TEST_F(IncrTest, SpecConjunctReorderSalvagesWithZeroSolverWork) {
  VecEditRun R("spec_reorder");
  incr::IncrRunStats S1;
  for (const engine::VerifyReport &Rep : R.run(S1))
    ASSERT_TRUE(Rep.Ok) << Rep.Func;
  EXPECT_EQ(S1.verified(), R.Funcs.size());

  // Rotate the *-conjuncts of get_raw's precondition. Star parts are
  // hashed in order, so the whole-entity fingerprint moves — but the
  // clause multiset is unchanged, so the cached verdict is salvaged
  // without a single solver query.
  gilsonite::Spec *Sp = R.VL->Specs.lookupMutable("Vec::get_raw");
  ASSERT_NE(Sp, nullptr);
  uint64_t FpBefore = incr::fpSpec(*Sp);
  std::vector<gilsonite::AssertionP> Parts = Sp->Pre->Parts;
  ASSERT_GE(Parts.size(), 2u);
  std::rotate(Parts.begin(), Parts.begin() + 1, Parts.end());
  Sp->Pre = gilsonite::star(std::move(Parts));
  ASSERT_NE(incr::fpSpec(*Sp), FpBefore); // The premise: order is hashed.

  incr::IncrRunStats S2;
  {
    metrics::ScopedSolverStatsReset Zero;
    for (const engine::VerifyReport &Rep : R.run(S2)) {
      EXPECT_TRUE(Rep.Ok) << Rep.Func;
      EXPECT_TRUE(Rep.Cached) << Rep.Func;
    }
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().SatQueries), 0u);
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().EntailQueries), 0u);
  }
  EXPECT_EQ(S2.cached(), R.Funcs.size());
  EXPECT_EQ(S2.verified(), 0u);
  EXPECT_EQ(S2.Invalidated, 0u);
  EXPECT_EQ(S2.Salvaged, 1u);
  EXPECT_EQ(S2.Implied, 0u);
  EXPECT_EQ(S2.SalvageQueries, 0u);
}

TEST_F(IncrTest, SpecConjunctStrengthenSalvagesThroughImplication) {
  VecEditRun R("spec_strengthen");
  incr::IncrRunStats S1;
  for (const engine::VerifyReport &Rep : R.run(S1))
    ASSERT_TRUE(Rep.Ok) << Rep.Func;

  // An equivalence-preserving rewrite of one pure pre conjunct of get_raw:
  // `i < len` becomes `i + 1 <= len`. The salvage pass reconstructs the old
  // clause from its journal text and proves both implication directions
  // (the spec is a self dependency), keeping the cached verdict.
  gilsonite::Spec *Sp = R.VL->Specs.lookupMutable("Vec::get_raw");
  ASSERT_NE(Sp, nullptr);
  Expr I = mkVar("i", Sort::Int);
  Expr Len = mkVar("len", Sort::Int);
  std::vector<gilsonite::AssertionP> Parts = Sp->Pre->Parts;
  ASSERT_GE(Parts.size(), 2u);
  Parts[1] = gilsonite::pure(mkLe(mkAdd(I, mkInt(1)), Len));
  Sp->Pre = gilsonite::star(std::move(Parts));

  incr::IncrRunStats S2;
  for (const engine::VerifyReport &Rep : R.run(S2)) {
    EXPECT_TRUE(Rep.Ok) << Rep.Func;
    EXPECT_TRUE(Rep.Cached) << Rep.Func;
  }
  EXPECT_EQ(S2.cached(), R.Funcs.size());
  EXPECT_EQ(S2.verified(), 0u);
  EXPECT_EQ(S2.Invalidated, 0u);
  EXPECT_EQ(S2.Implied, 1u);
  EXPECT_EQ(S2.Salvaged, 0u);
  // One removed pre conjunct (self direction) + one added (use direction).
  EXPECT_GE(S2.SalvageQueries, 2u);

  // The refreshed record makes the next run a plain warm hit.
  incr::IncrRunStats S3;
  for (const engine::VerifyReport &Rep : R.run(S3))
    EXPECT_TRUE(Rep.Cached) << Rep.Func;
  EXPECT_EQ(S3.cached(), R.Funcs.size());
  EXPECT_EQ(S3.Salvaged + S3.Implied, 0u);
  EXPECT_EQ(S3.SalvageQueries, 0u);
}

TEST_F(IncrTest, SpecConjunctDeleteOnUsedSideReverifies) {
  VecEditRun R("spec_delete");
  incr::IncrRunStats S1;
  for (const engine::VerifyReport &Rep : R.run(S1))
    ASSERT_TRUE(Rep.Ok) << Rep.Func;

  // Delete the pure post conjunct `ret == s[i]` the proof established. The
  // salvage obligation (new post must imply the removed conjunct) has an
  // empty context and fails, so the verdict is re-proved from scratch —
  // successfully, since the remaining post is weaker.
  gilsonite::Spec *Sp = R.VL->Specs.lookupMutable("Vec::get_raw");
  ASSERT_NE(Sp, nullptr);
  std::vector<gilsonite::AssertionP> Parts = Sp->Post->Parts;
  ASSERT_GE(Parts.size(), 2u);
  ASSERT_EQ(Parts[0]->Kind, gilsonite::AsrtKind::Pure);
  Parts.erase(Parts.begin());
  Sp->Post = gilsonite::star(std::move(Parts));

  incr::IncrRunStats S2;
  for (const engine::VerifyReport &Rep : R.run(S2))
    EXPECT_TRUE(Rep.Ok) << Rep.Func;
  EXPECT_EQ(S2.Invalidated, 1u);
  EXPECT_EQ(S2.VerifiedUnsafe, 1u);
  EXPECT_EQ(S2.CachedUnsafe, R.Funcs.size() - 1);
  EXPECT_EQ(S2.Salvaged + S2.Implied, 0u);

  // The re-proved verdict replaced the stale record, so the next run
  // replays everything.
  incr::IncrRunStats S3;
  for (const engine::VerifyReport &Rep : R.run(S3))
    EXPECT_TRUE(Rep.Cached) << Rep.Func;
  EXPECT_EQ(S3.verified(), 0u);
  EXPECT_EQ(S3.Invalidated, 0u);
}

//===----------------------------------------------------------------------===//
// Telemetry / metrics satellites
//===----------------------------------------------------------------------===//

TEST_F(IncrTest, TelemetryReportsPerShardCacheHitRates) {
  sched::SchedulerConfig C;
  C.Threads = 2;
  sched::Scheduler S(C);
  engine::VerifEnv Env = Lib->env();
  ASSERT_TRUE(
      S.runHybrid(Env, Lib->Contracts, unsafeFuncs(), makeClients()).ok());

  metrics::QueryCacheReport QC = metrics::Registry::get().queryCacheReport();
  ASSERT_TRUE(QC.Valid);
  EXPECT_EQ(QC.Shards.size(), sched::QueryCache::NumShards);
  EXPECT_GT(QC.Hits + QC.Misses, 0u);

  std::string Json = trace::renderStatsJson({});
  EXPECT_NE(Json.find("\"query_cache\""), std::string::npos);
  EXPECT_NE(Json.find("\"shards\""), std::string::npos);
  EXPECT_NE(Json.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(Json.find("\"entail_seen_overflow\""), std::string::npos);
}

TEST_F(IncrTest, ScopedSolverStatsResetRestoresOuterCounts) {
  uint64_t Before = metrics::solverStats().SatQueries;
  {
    metrics::ScopedSolverStatsReset Zero;
    EXPECT_EQ(static_cast<uint64_t>(metrics::solverStats().SatQueries), 0u);
    metrics::solverStats().SatQueries += 2;
    metrics::threadSolverStats().SatQueries += 2;
    EXPECT_EQ(static_cast<uint64_t>(Zero.accrued().SatQueries), 2u);
  }
  EXPECT_EQ(static_cast<uint64_t>(metrics::solverStats().SatQueries),
            Before + 2);
}

} // namespace
