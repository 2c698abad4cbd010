//===- tests/congruence_property_test.cpp - Closure properties --------------===//
//
// Parameterized properties of the congruence-closure core: agreement with a
// brute-force transitive/congruent closure on random equality graphs (with
// and without projection terms, in both union orders), seqShapeWitness
// against a scan of every node, the structural invariants (equivalence
// laws, constructor conflicts), and the closure's termination: it stops at
// its fixpoint, and at MaxRounds when there is none.
//
//===----------------------------------------------------------------------===//

#include "solver/Congruence.h"
#include "solver/Solver.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

using namespace gilr;

namespace {

struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed * 2654435761u + 99991) {}
  uint64_t next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return State >> 33;
  }
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
};

class CongruenceProps : public ::testing::TestWithParam<int> {};

TEST_P(CongruenceProps, MatchesBruteForceClosureWithFunctionSymbols) {
  Lcg Rng(static_cast<uint64_t>(GetParam()));
  const int NVars = 5;
  std::vector<Expr> Base;
  for (int I = 0; I != NVars; ++I)
    Base.push_back(mkVar("v" + std::to_string(I), Sort::Int));
  // Terms: the variables plus f(v_i) for each.
  std::vector<Expr> Terms = Base;
  for (int I = 0; I != NVars; ++I)
    Terms.push_back(mkApp("f", {Base[static_cast<std::size_t>(I)]}));

  // Random equalities among the base variables.
  std::vector<std::pair<int, int>> Eqs;
  int NEqs = Rng.range(1, 4);
  for (int I = 0; I != NEqs; ++I)
    Eqs.push_back({Rng.range(0, NVars - 1), Rng.range(0, NVars - 1)});

  Congruence C;
  for (const Expr &T : Terms)
    C.registerTerm(T);
  for (auto [A, B] : Eqs)
    ASSERT_TRUE(C.addEquality(Base[static_cast<std::size_t>(A)],
                              Base[static_cast<std::size_t>(B)]));

  // Brute force: union-find on variable indices.
  std::vector<int> UF(NVars);
  for (int I = 0; I != NVars; ++I)
    UF[static_cast<std::size_t>(I)] = I;
  std::function<int(int)> Find = [&](int I) {
    while (UF[static_cast<std::size_t>(I)] != I)
      I = UF[static_cast<std::size_t>(I)] =
          UF[static_cast<std::size_t>(UF[static_cast<std::size_t>(I)])];
    return I;
  };
  for (auto [A, B] : Eqs)
    UF[static_cast<std::size_t>(Find(A))] = Find(B);

  for (int I = 0; I != NVars; ++I)
    for (int J = 0; J != NVars; ++J) {
      bool Expected = Find(I) == Find(J);
      EXPECT_EQ(C.provedEqual(Base[static_cast<std::size_t>(I)],
                              Base[static_cast<std::size_t>(J)]),
                Expected)
          << "v" << I << " ~ v" << J;
      // Congruence lifts through the function symbol.
      EXPECT_EQ(
          C.provedEqual(Terms[static_cast<std::size_t>(NVars + I)],
                        Terms[static_cast<std::size_t>(NVars + J)]),
          Expected)
          << "f(v" << I << ") ~ f(v" << J << ")";
    }
}

/// Brute-force union-find over dense indices.
struct BruteUF {
  std::vector<int> Parent;
  explicit BruteUF(int N) : Parent(static_cast<std::size_t>(N)) {
    for (int I = 0; I != N; ++I)
      Parent[static_cast<std::size_t>(I)] = I;
  }
  int find(int I) {
    while (Parent[static_cast<std::size_t>(I)] != I)
      I = Parent[static_cast<std::size_t>(I)];
    return I;
  }
  bool unite(int A, int B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[static_cast<std::size_t>(A)] = B;
    return true;
  }
};

// Option variables o_i equated with each other and with Some(v_j), checked
// against a brute-force closure that applies Some-injectivity by hand: the
// projections Unwrap(o_i) and IsSome(o_i) evaluate against the class's Some
// witness, and witness() finds it whichever root the union kept. The
// equalities are asserted one at a time in a seeded order, so classes of
// different sizes meet, and each seed runs twice, once with every equality
// flipped, so both union orders of every merge are exercised.
TEST_P(CongruenceProps, ProjectionsMatchBruteForceInBothUnionOrders) {
  const int N = 5;
  std::vector<Expr> V, O;
  for (int I = 0; I != N; ++I) {
    V.push_back(mkVar("pv" + std::to_string(I), Sort::Int));
    O.push_back(mkVar("po" + std::to_string(I), Sort::Opt));
  }
  // Index space for the brute force: v_i = i, o_i = N + i.
  Lcg Rng(static_cast<uint64_t>(GetParam()) + 1000);
  std::vector<std::pair<int, int>> VarEqs;  // Over the whole index space.
  std::vector<std::pair<int, int>> SomeEqs; // o_i = Some(v_j).
  for (int I = 0, E = Rng.range(0, 3); I != E; ++I)
    VarEqs.push_back({Rng.range(0, N - 1), Rng.range(0, N - 1)});
  for (int I = 0, E = Rng.range(0, 3); I != E; ++I)
    VarEqs.push_back({N + Rng.range(0, N - 1), N + Rng.range(0, N - 1)});
  for (int I = 0, E = Rng.range(1, 4); I != E; ++I)
    SomeEqs.push_back({Rng.range(0, N - 1), Rng.range(0, N - 1)});

  // Brute force: close under transitivity, Some-injectivity (o ~ Some(a),
  // o ~ Some(b) gives a ~ b) and Some-congruence (a ~ b gives Some(a) ~
  // Some(b), so their options meet).
  BruteUF UF(2 * N);
  for (auto [A, B] : VarEqs)
    UF.unite(A, B);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto [OI, VJ] : SomeEqs)
      for (auto [OK, VL] : SomeEqs) {
        if (UF.find(N + OI) == UF.find(N + OK))
          Changed |= UF.unite(VJ, VL);
        if (UF.find(VJ) == UF.find(VL))
          Changed |= UF.unite(N + OI, N + OK);
      }
  }
  // Some-argument of each option class, if any.
  auto someArg = [&](int OI) -> int {
    for (auto [OK, VJ] : SomeEqs)
      if (UF.find(N + OK) == UF.find(N + OI))
        return VJ;
    return -1;
  };

  for (bool Flip : {false, true}) {
    SCOPED_TRACE(Flip ? "flipped" : "as generated");
    Congruence C;
    for (int I = 0; I != N; ++I) {
      C.registerTerm(mkUnwrap(O[static_cast<std::size_t>(I)]));
      C.registerTerm(mkIsSome(O[static_cast<std::size_t>(I)]));
    }
    auto term = [&](int Idx) {
      return Idx < N ? V[static_cast<std::size_t>(Idx)]
                     : O[static_cast<std::size_t>(Idx - N)];
    };
    std::vector<std::pair<Expr, Expr>> Eqs;
    for (auto [A, B] : VarEqs)
      Eqs.push_back({term(A), term(B)});
    for (auto [OI, VJ] : SomeEqs)
      Eqs.push_back({O[static_cast<std::size_t>(OI)],
                     mkSome(V[static_cast<std::size_t>(VJ)])});
    Lcg Order(static_cast<uint64_t>(GetParam()) + 2000);
    for (std::size_t I = Eqs.size(); I > 1; --I)
      std::swap(Eqs[I - 1],
                Eqs[static_cast<std::size_t>(
                    Order.range(0, static_cast<int>(I) - 1))]);
    for (auto &[A, B] : Eqs)
      ASSERT_TRUE(Flip ? C.addEquality(B, A) : C.addEquality(A, B));

    for (int I = 0; I != 2 * N; ++I)
      for (int J = 0; J != 2 * N; ++J) {
        if ((I < N) != (J < N))
          continue;
        EXPECT_EQ(C.provedEqual(term(I), term(J)), UF.find(I) == UF.find(J))
            << I << " ~ " << J;
      }
    for (int I = 0; I != N; ++I) {
      const Expr &Oi = O[static_cast<std::size_t>(I)];
      int Arg = someArg(I);
      Expr W = C.witness(Oi);
      EXPECT_EQ(W != nullptr, Arg != -1) << "witness of o" << I;
      if (W) {
        EXPECT_EQ(W->Kind, ExprKind::Some);
      }
      EXPECT_EQ(C.provedEqual(mkIsSome(Oi), mkTrue()), Arg != -1);
      for (int J = 0; J != N; ++J)
        EXPECT_EQ(C.provedEqual(mkUnwrap(Oi), V[static_cast<std::size_t>(J)]),
                  Arg != -1 && UF.find(Arg) == UF.find(J))
            << "unwrap(o" << I << ") ~ v" << J;
      for (int K = 0; K != N; ++K)
        EXPECT_EQ(C.provedEqual(mkUnwrap(Oi),
                                mkUnwrap(O[static_cast<std::size_t>(K)])),
                  UF.find(N + I) == UF.find(N + K))
            << "unwrap(o" << I << ") ~ unwrap(o" << K << ")";
    }
  }
}

/// The reference for seqShapeWitness over every registered term: one scan
/// of every node, in id order, records the first sequence constructor of
/// each class.
std::vector<Expr> scanSeqShapes(Congruence &C) {
  std::map<int, Expr> FirstShape;
  std::vector<int> Class;
  for (int I = 0, N = static_cast<int>(C.numTerms()); I != N; ++I) {
    const Expr &T = C.term(I);
    Class.push_back(C.canonClass(T));
    if (T->Kind == ExprKind::SeqConcat || T->Kind == ExprKind::SeqUnit ||
        T->Kind == ExprKind::SeqNil)
      FirstShape.emplace(Class.back(), T);
  }
  std::vector<Expr> Shapes;
  for (int K : Class) {
    auto It = FirstShape.find(K);
    Shapes.push_back(It != FirstShape.end() ? It->second : nullptr);
  }
  return Shapes;
}

// Sequence variables equated with each other and with nil, units, conses,
// concatenations of variables and static sequences, one equality at a
// time in a seeded order, each seed also with every equality flipped. After
// every equality, seqShapeWitness of every registered term (including the
// re-flattened concatenations the closure registers itself) must be the
// member the scan finds. The variables come in three levels, and a shape
// equated with a variable mentions only variables of the next level, so no
// concatenation is cyclic (a cycle such as s = t ++ t, t = s re-flattens
// into terms that double every round until the round cap).
TEST_P(CongruenceProps, SeqShapeWitnessMatchesAScanInBothUnionOrders) {
  const int Levels = 3, PerLevel = 3;
  std::vector<Expr> A;
  for (int I = 0; I != 3; ++I)
    A.push_back(mkVar("sa" + std::to_string(I), Sort::Int));
  Lcg Rng(static_cast<uint64_t>(GetParam()) + 3000);
  auto var = [&](int Level) {
    return mkVar("ss" + std::to_string(Level) + "_" +
                     std::to_string(Rng.range(0, PerLevel - 1)),
                 Sort::Seq);
  };
  auto elem = [&] { return A[static_cast<std::size_t>(Rng.range(0, 2))]; };
  // The other side of an equality with a variable of \p Level.
  auto side = [&](int Level) -> Expr {
    int Pick = Rng.range(0, Level + 1 < Levels ? 6 : 0);
    switch (Pick) {
    case 1:
      return mkSeqNil();
    case 2:
      return mkSeqUnit(elem());
    case 3:
      return mkSeqCons(elem(), var(Level + 1));
    case 4:
      return mkSeqConcat(var(Level + 1), var(Level + 1));
    case 5:
      return mkSeqLit({elem(), elem()});
    default:
      return var(Level);
    }
  };
  std::vector<std::pair<Expr, Expr>> Eqs;
  for (int I = 0, E = Rng.range(2, 8); I != E; ++I) {
    int Level = Rng.range(0, Levels - 1);
    Eqs.push_back({var(Level), side(Level)});
  }

  for (bool Flip : {false, true}) {
    SCOPED_TRACE(Flip ? "flipped" : "as generated");
    Congruence C;
    for (auto &[L, R] : Eqs) {
      if (!(Flip ? C.addEquality(R, L) : C.addEquality(L, R)))
        break; // A constructor clash; the classes stop changing.
      std::vector<Expr> Want = scanSeqShapes(C);
      for (int I = 0, E = static_cast<int>(Want.size()); I != E; ++I)
        EXPECT_EQ(C.seqShapeWitness(C.term(I)),
                  Want[static_cast<std::size_t>(I)])
            << "term " << I << " of " << E;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CongruenceProps, ::testing::Range(1, 60));

TEST(CongruenceUnit, ProjectionClosureStopsAtItsFixpoint) {
  Congruence C;
  Expr O = mkVar("o", Sort::Opt);
  Expr T = mkVar("t", Sort::Any);
  Expr S = mkVar("s", Sort::Seq);
  Expr A = mkVar("a", Sort::Int);
  Expr B = mkVar("b", Sort::Int);
  Expr Unwrap = mkUnwrap(O), IsSome = mkIsSome(O);
  Expr Get = mkTupleGet(T, 1), Len = mkSeqLen(S);
  for (const Expr &E : {Unwrap, IsSome, Get, Len})
    C.registerTerm(E);
  C.queueEquality(O, mkSome(A));
  C.queueEquality(T, mkTuple({A, B}));
  C.queueEquality(S, mkSeqLit({A, B}));
  ASSERT_TRUE(C.saturate());
  unsigned Closed = C.rounds();
  EXPECT_GE(Closed, 1u);
  EXPECT_LE(Closed, 4u) << "the closure must stop once nothing changes";

  // Every projection was evaluated.
  EXPECT_EQ(C.canonClass(Unwrap), C.canonClass(A));
  EXPECT_EQ(C.canonClass(IsSome), C.canonClass(mkTrue()));
  EXPECT_EQ(C.canonClass(Get), C.canonClass(B));
  EXPECT_EQ(C.canonClass(Len), C.canonClass(mkInt(2)));

  // A closed closure runs no further rounds: saturate() and lookups of
  // registered terms are free.
  ASSERT_TRUE(C.saturate());
  C.canonClass(Unwrap);
  C.canonClass(Len);
  EXPECT_TRUE(C.provedEqual(Get, B));
  EXPECT_EQ(C.rounds(), Closed);

  // Registering new terms reopens it, and it closes again over them.
  Expr FU = mkApp("f", {Unwrap}, Sort::Int);
  Expr FA = mkApp("f", {A}, Sort::Int);
  C.registerTerm(FU);
  C.registerTerm(FA);
  EXPECT_EQ(C.canonClass(FU), C.canonClass(FA));
  unsigned Reclosed = C.rounds();
  EXPECT_GT(Reclosed, Closed);
  EXPECT_LE(Reclosed, Closed + 2);
  C.canonClass(FA);
  EXPECT_EQ(C.rounds(), Reclosed);
}

TEST(CongruenceUnit, WitnessFollowsTheRootInBothUnionOrders) {
  for (bool BigSideFirst : {false, true}) {
    SCOPED_TRACE(BigSideFirst ? "witnessless root" : "witnessed root");
    Congruence C;
    Expr O = mkVar("o", Sort::Opt);
    Expr A = mkVar("a", Sort::Int);
    // A three-member class without a witness, and a two-member class with
    // Some(a); union by size keeps the bigger class's root either way, so
    // the witness must move across.
    Expr X = mkVar("x", Sort::Opt), Y = mkVar("y", Sort::Opt);
    ASSERT_TRUE(C.addEquality(X, Y));
    ASSERT_TRUE(C.addEquality(Y, O));
    ASSERT_TRUE(C.addEquality(mkVar("p", Sort::Opt), mkSome(A)));
    if (BigSideFirst)
      ASSERT_TRUE(C.addEquality(O, mkVar("p", Sort::Opt)));
    else
      ASSERT_TRUE(C.addEquality(mkVar("p", Sort::Opt), O));
    Expr W = C.witness(X);
    ASSERT_TRUE(W);
    EXPECT_EQ(W->Kind, ExprKind::Some);
    EXPECT_TRUE(C.provedEqual(mkUnwrap(X), A));
    // The decomposition still fires against the moved witness.
    Expr B = mkVar("b", Sort::Int);
    ASSERT_TRUE(C.addEquality(Y, mkSome(B)));
    EXPECT_TRUE(C.provedEqual(A, B));
    EXPECT_FALSE(C.addEquality(X, mkNone()));
  }
}

TEST(CongruenceUnit, WitnessPrefersALiteralInBothUnionOrders) {
  // An Any-sorted class holding a tuple literal and an integer literal (an
  // ill-sorted input the closure does not reject): whichever side is the
  // bigger class, the literal is the class's witness.
  for (bool TupleSideBigger : {false, true}) {
    SCOPED_TRACE(TupleSideBigger ? "tuple side bigger" : "literal side bigger");
    Congruence C;
    Expr T = mkVar("t", Sort::Any);
    Expr U = mkVar("u", Sort::Any);
    Expr Tup = mkTuple({mkVar("a", Sort::Int), mkVar("b", Sort::Int)});
    ASSERT_TRUE(C.addEquality(T, Tup));
    ASSERT_TRUE(C.addEquality(U, mkInt(5)));
    Expr &Bigger = TupleSideBigger ? T : U;
    ASSERT_TRUE(C.addEquality(Bigger, mkVar("w1", Sort::Any)));
    ASSERT_TRUE(C.addEquality(Bigger, mkVar("w2", Sort::Any)));
    ASSERT_TRUE(C.addEquality(T, U));
    Expr W = C.witness(T);
    ASSERT_TRUE(W);
    EXPECT_EQ(W->Kind, ExprKind::IntLit);
  }
}

TEST(CongruenceUnit, CyclicConcatenationStopsAtMaxRounds) {
  trace::Options On;
  On.M = trace::Mode::Json;
  On.TraceFile.clear();
  On.StatsFile.clear();
  trace::configure(On);
  trace::reset();

  Expr X = mkVar("x", Sort::Seq), Y = mkVar("y", Sort::Seq);
  Expr A = mkVar("a", Sort::Int), B = mkVar("b", Sort::Int);
  Expr XDef = mkEq(X, mkSeqCons(A, Y)), YDef = mkEq(Y, mkSeqCons(B, X));
  {
    // Re-flattening x = [a] ++ y through y = [b] ++ x yields ever longer
    // concatenations; the round cap ends it, visibly, and for good.
    Congruence C;
    C.queueEquality(X, mkSeqCons(A, Y));
    C.queueEquality(Y, mkSeqCons(B, X));
    ASSERT_TRUE(C.saturate());
    EXPECT_EQ(C.rounds(), Congruence::MaxRounds);
    EXPECT_NE(trace::renderTraceJson().find("congruence-capped"),
              std::string::npos);
    C.canonClass(mkSeqLen(X));
    EXPECT_EQ(C.rounds(), Congruence::MaxRounds);
  }
  // The solver still refutes it (by lengths: |x| = |x| + 2).
  Solver S;
  EXPECT_EQ(S.checkSat({XDef, YDef}), SatResult::Unsat);

  trace::configure(trace::Options());
  trace::reset();
}

TEST(CongruenceUnit, ConstructorConflicts) {
  {
    Congruence C;
    EXPECT_FALSE(C.addEquality(mkInt(1), mkInt(2)));
    EXPECT_TRUE(C.inConflict());
  }
  {
    Congruence C;
    Expr X = mkVar("x", Sort::Opt);
    ASSERT_TRUE(C.addEquality(X, mkNone()));
    EXPECT_FALSE(C.addEquality(X, mkSome(mkInt(1))));
  }
  {
    // Transitive literal clash through a variable chain.
    Congruence C;
    Expr X = mkVar("x", Sort::Int);
    Expr Y = mkVar("y", Sort::Int);
    ASSERT_TRUE(C.addEquality(X, mkInt(5)));
    ASSERT_TRUE(C.addEquality(X, Y));
    EXPECT_FALSE(C.addEquality(Y, mkInt(6)));
  }
}

TEST(CongruenceUnit, ConstructorDecomposition) {
  Congruence C;
  Expr A = mkVar("a", Sort::Int);
  Expr B = mkVar("b", Sort::Int);
  ASSERT_TRUE(C.addEquality(mkSome(A), mkSome(B)));
  EXPECT_TRUE(C.provedEqual(A, B));

  Expr T1 = mkVar("t1", Sort::Any);
  ASSERT_TRUE(C.addEquality(T1, mkTuple({A, mkInt(1)})));
  EXPECT_TRUE(C.provedEqual(mkTupleGet(T1, 0), B)); // Via a ~ b.
}

TEST(CongruenceUnit, ProjectionEvaluation) {
  Congruence C;
  Expr O = mkVar("o", Sort::Opt);
  ASSERT_TRUE(C.addEquality(O, mkSome(mkInt(7))));
  EXPECT_TRUE(C.provedEqual(mkUnwrap(O), mkInt(7)));

  Expr S = mkVar("s", Sort::Seq);
  ASSERT_TRUE(C.addEquality(S, mkSeqLit({mkInt(1), mkInt(2)})));
  EXPECT_TRUE(C.provedEqual(mkSeqLen(S), mkInt(2)));
  EXPECT_TRUE(C.provedEqual(mkSeqNth(S, mkInt(1)), mkInt(2)));
}

TEST(CongruenceUnit, SeqLengthConflictDetection) {
  Congruence C;
  Expr S = mkVar("s", Sort::Seq);
  Expr T = mkVar("t", Sort::Seq);
  ASSERT_TRUE(C.addEquality(S, mkSeqNil()));
  ASSERT_TRUE(C.addEquality(S, mkSeqCons(mkVar("x", Sort::Int), T)));
  EXPECT_TRUE(C.hasSeqLengthConflict());
}

TEST(CongruenceUnit, DisequalityConflictsOnlyWhenMerged) {
  Congruence C;
  Expr X = mkVar("x", Sort::Int);
  Expr Y = mkVar("y", Sort::Int);
  C.addDisequality(X, Y);
  ASSERT_TRUE(C.saturate());
  EXPECT_FALSE(C.hasDisequalityConflict());
  ASSERT_TRUE(C.addEquality(X, Y));
  EXPECT_TRUE(C.hasDisequalityConflict());
}

} // namespace
