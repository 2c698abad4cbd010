//===- tests/intern_test.cpp - Hash-consed interning ------------------------===//
//
// Pointer-identity guarantees of the intern layer (sym/Intern.h), the
// identity-keyed simplify memo, and the collision resistance of the solver
// query fingerprint built on intern ids.
//
//===----------------------------------------------------------------------===//

#include "solver/PathCondition.h"
#include "solver/Simplify.h"
#include "solver/Solver.h"
#include "sym/ExprBuilder.h"
#include "sym/Intern.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace gilr;

namespace {

/// A moderately deep expression with heavy internal sharing, rebuilt from
/// scratch on every call: (x + y) appears under Ite, Eq and SeqLen chains.
Expr buildShared(int Depth) {
  Expr X = mkVar("x", Sort::Int);
  Expr Y = mkVar("y", Sort::Int);
  Expr Acc = mkAdd(X, Y);
  for (int I = 0; I != Depth; ++I)
    Acc = mkIte(mkLe(X, Acc), mkAdd(Acc, Y), mkSub(Acc, X));
  return mkAnd(mkLe(mkInt(0), Acc), mkEq(Acc, Acc));
}

} // namespace

TEST(InternTest, StructurallyEqualConstructionsArePointerIdentical) {
  Expr A = mkAdd(mkVar("a", Sort::Int), mkInt(1));
  Expr B = mkAdd(mkVar("a", Sort::Int), mkInt(1));
  EXPECT_EQ(A.get(), B.get());
  EXPECT_NE(A->Id, 0u);
  EXPECT_EQ(A->Id, B->Id);
  EXPECT_EQ(A->CanonId, B->CanonId);

  Expr C = buildShared(6);
  Expr D = buildShared(6);
  EXPECT_EQ(C.get(), D.get());
}

TEST(InternTest, DistinctTermsGetDistinctIds) {
  Expr A = mkVar("distinct_a", Sort::Int);
  Expr B = mkVar("distinct_b", Sort::Int);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(A->Id, B->Id);
  EXPECT_NE(A->CanonId, B->CanonId);
}

TEST(InternTest, VarSortAnnotationsKeepNodesButShareCanonId) {
  // The same variable written with different sort knowledge (specs use Any,
  // the executor knows Int) must stay exprEquals-equal: distinct interned
  // nodes, one equivalence class.
  Expr Spec = mkVar("vsort", Sort::Any);
  Expr Exec = mkVar("vsort", Sort::Int);
  EXPECT_NE(Spec.get(), Exec.get());
  EXPECT_NE(Spec->Id, Exec->Id);
  EXPECT_EQ(Spec->CanonId, Exec->CanonId);
  EXPECT_TRUE(exprEquals(Spec, Exec));
  EXPECT_FALSE(exprLess(Spec, Exec));
  EXPECT_FALSE(exprLess(Exec, Spec));
}

TEST(InternTest, PointerIdentityAcrossThreads) {
  // Workers racing to intern the same deep term must all observe one node.
  constexpr int NumThreads = 4;
  std::vector<Expr> Results(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([T, &Results] { Results[T] = buildShared(32); });
  for (std::thread &Th : Threads)
    Th.join();
  for (int T = 1; T != NumThreads; ++T)
    EXPECT_EQ(Results[0].get(), Results[T].get());
}

TEST(InternTest, InternStatsCountHitsAndNodes) {
  InternStats Before = internStats();
  Expr A = mkAdd(mkVar("stats_v", Sort::Int), mkInt(42));
  InternStats Mid = internStats();
  EXPECT_GT(Mid.Nodes, Before.Nodes);
  // Rebuilding the identical term is all hits, no new nodes.
  Expr B = mkAdd(mkVar("stats_v", Sort::Int), mkInt(42));
  ASSERT_EQ(A.get(), B.get());
  InternStats After = internStats();
  EXPECT_EQ(After.Nodes, Mid.Nodes);
  EXPECT_GT(After.Hits, Mid.Hits);
}

TEST(SimplifyMemoTest, SimplifyIsPointerStableIdempotent) {
  Expr E = buildShared(12);
  Expr S1 = simplify(E);
  EXPECT_EQ(simplify(S1).get(), S1.get());
  EXPECT_EQ(simplify(E).get(), S1.get());
}

TEST(SimplifyMemoTest, IdempotenceHoldsWithoutTheMemo) {
  // The fixpoint property must come from simplify itself, not from memo
  // seeding.
  bool Prev = setSimplifyMemoEnabled(false);
  Expr E = buildShared(12);
  Expr S1 = simplify(E);
  EXPECT_EQ(simplify(S1).get(), S1.get());
  setSimplifyMemoEnabled(Prev);
}

TEST(SimplifyMemoTest, RepeatSimplifyHitsTheMemo) {
  Expr E = buildShared(24);
  simplify(E);
  SimplifyStats Before = simplifyMemoStats();
  simplify(E);
  SimplifyStats After = simplifyMemoStats();
  EXPECT_GT(After.Hits, Before.Hits);
  EXPECT_EQ(After.Misses, Before.Misses);
}

TEST(FingerprintTest, SumCollisionMultisetsAreDistinguished) {
  // {1, 4} and {2, 3} have equal sums and equal sizes, so the former
  // commutative-sum fingerprint could not tell these queries apart; the
  // positional hash over sorted ids must.
  uint64_t FpA = 0, FpA2 = 0, FpB = 0, FpB2 = 0;
  satFingerprintFromIds({1, 4}, 50000, FpA, FpA2);
  satFingerprintFromIds({2, 3}, 50000, FpB, FpB2);
  EXPECT_NE(FpA, FpB);
  EXPECT_NE(FpA2, FpB2);
}

TEST(FingerprintTest, DuplicateShufflesWithEqualSumsAreDistinguished) {
  // {0, 2, 2} vs {1, 1, 2}: same size, same sum.
  uint64_t FpA = 0, FpA2 = 0, FpB = 0, FpB2 = 0;
  satFingerprintFromIds({0, 2, 2}, 50000, FpA, FpA2);
  satFingerprintFromIds({1, 1, 2}, 50000, FpB, FpB2);
  EXPECT_NE(FpA, FpB);
  EXPECT_NE(FpA2, FpB2);
}

TEST(FingerprintTest, AssertionOrderIsIrrelevant) {
  Expr A = mkLe(mkVar("fp_a", Sort::Int), mkInt(3));
  Expr B = mkLt(mkInt(0), mkVar("fp_b", Sort::Int));
  Expr C = mkEq(mkVar("fp_c", Sort::Int), mkInt(9));
  uint64_t Fp1 = 0, Fp1b = 0, Fp2 = 0, Fp2b = 0;
  satQueryFingerprint({A, B, C}, 50000, Fp1, Fp1b);
  satQueryFingerprint({C, A, B}, 50000, Fp2, Fp2b);
  EXPECT_EQ(Fp1, Fp2);
  EXPECT_EQ(Fp1b, Fp2b);
}

TEST(FingerprintTest, BudgetIsPartOfTheKey) {
  Expr A = mkLe(mkVar("fp_budget", Sort::Int), mkInt(3));
  uint64_t Fp1 = 0, Fp1b = 0, Fp2 = 0, Fp2b = 0;
  satQueryFingerprint({A}, 50000, Fp1, Fp1b);
  satQueryFingerprint({A}, 1000, Fp2, Fp2b);
  EXPECT_NE(Fp1, Fp2);
}

TEST(PathConditionTest, DuplicateFactsAreDeduplicated) {
  PathCondition PC;
  Expr Fact = mkLe(mkInt(0), mkVar("pc_n", Sort::Int));
  for (int I = 0; I != 64; ++I)
    EXPECT_TRUE(PC.add(mkLe(mkInt(0), mkVar("pc_n", Sort::Int))));
  EXPECT_EQ(PC.size(), 1u);
  EXPECT_TRUE(exprEquals(PC.facts()[0], Fact));
}

TEST(PathConditionTest, EntailmentMemoSurvivesAppends) {
  PathCondition PC;
  Solver S;
  PC.add(mkLe(mkInt(1), mkVar("pc_m", Sort::Int)));
  Expr Goal = mkLe(mkInt(0), mkVar("pc_m", Sort::Int));
  EXPECT_TRUE(PC.entails(S, Goal));
  // Monotone: appending facts cannot unprove the goal, and the memoized
  // answer must agree with a fresh query.
  PC.add(mkLe(mkVar("pc_m", Sort::Int), mkInt(10)));
  EXPECT_TRUE(PC.entails(S, Goal));
}

TEST(FreeVarsTest, MemoizedSummariesMatchStructure) {
  Expr E = mkAnd(mkLe(mkVar("fv_a", Sort::Int), mkVar("fv_b", Sort::Int)),
                 mkEq(mkVar("fv_a", Sort::Int), mkInt(2)));
  std::set<std::string> Vars;
  collectVars(E, Vars);
  EXPECT_EQ(Vars, (std::set<std::string>{"fv_a", "fv_b"}));
  // Second query serves the cached summary; results must be identical.
  std::set<std::string> Again;
  collectVars(E, Again);
  EXPECT_EQ(Vars, Again);
  EXPECT_TRUE(containsVar(E, "fv_a"));
  EXPECT_FALSE(containsVar(E, "fv_c"));
}

TEST(FreeVarsTest, ProphecyFlagIsPrecomputed) {
  Expr P = mkVar(std::string(prophecyVarPrefix()) + "obs", Sort::Int);
  Expr E = mkAdd(P, mkInt(1));
  EXPECT_TRUE(mentionsProphecy(P));
  EXPECT_TRUE(mentionsProphecy(E));
  EXPECT_FALSE(mentionsProphecy(mkAdd(mkVar("plain", Sort::Int), mkInt(1))));
}
