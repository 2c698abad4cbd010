//===- tests/seq_theory_property_test.cpp - Sequence facts vs. reference ---===//
//
// deriveSeqFacts evaluates the sequence facts semi-naively: each round
// works only on the literals the round before it added. This file keeps the
// evaluation it replaced, in which every round re-runs the whole pass over
// every literal gathered so far and drops the repeats, as the reference.
// On seeded literal sets over nil / unit / concat / sub / len shapes both
// must derive the same facts, in the same order, and the same conflicts,
// whenever the reference stays below its caps. One case per cap checks
// that the call returns and reports the cap as a trace instant.
//
//===----------------------------------------------------------------------===//

#include "solver/SeqTheory.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"
#include "sym/Printer.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

using namespace gilr;

namespace {

//===----------------------------------------------------------------------===//
// Reference: the round-by-round evaluation, as it was in
// solver/SeqTheory.cpp, plus a flag set when one of its caps was reached.
//===----------------------------------------------------------------------===//

/// Set when a reference call reached its transitivity budget, its
/// decomposition fuel or its round cap (conservatively: reaching a cap
/// exactly also counts).
bool ReferenceCapped = false;

static bool isSeqSorted(const Expr &E) {
  return E->NodeSort == Sort::Seq || E->Kind == ExprKind::SeqNil ||
         E->Kind == ExprKind::SeqUnit || E->Kind == ExprKind::SeqConcat ||
         E->Kind == ExprKind::SeqSub;
}

/// Collects all SeqLen / SeqSub / SeqConcat subterms of \p E.
static void collectSeqTerms(const Expr &E, std::vector<Expr> &Lens,
                            std::vector<Expr> &Subs,
                            std::vector<Expr> &Concats,
                            std::set<const ExprNode *> &Seen) {
  if (!E || !Seen.insert(E.get()).second)
    return;
  if (E->Kind == ExprKind::SeqLen)
    Lens.push_back(E);
  if (E->Kind == ExprKind::SeqSub)
    Subs.push_back(E);
  if (E->Kind == ExprKind::SeqConcat)
    Concats.push_back(E);
  for (const Expr &Kid : E->Kids)
    collectSeqTerms(Kid, Lens, Subs, Concats, Seen);
}

/// Merges adjacent subsequences of the same base inside a concatenation:
/// sub(s, f, l) ++ sub(s, f + l, l') = sub(s, f, l + l'). Returns the
/// merged expression, or nullptr if nothing merged.
static Expr mergeAdjacentSubs(const Expr &Concat) {
  std::vector<Expr> Parts(Concat->Kids.begin(), Concat->Kids.end());
  bool Changed = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (std::size_t I = 0; I + 1 < Parts.size(); ++I) {
      const Expr &A = Parts[I];
      const Expr &B = Parts[I + 1];
      if (A->Kind != ExprKind::SeqSub || B->Kind != ExprKind::SeqSub)
        continue;
      if (!exprEquals(A->Kids[0], B->Kids[0]))
        continue;
      if (!exprEquals(mkAdd(A->Kids[1], A->Kids[2]), B->Kids[1]))
        continue;
      Parts[I] = mkSeqSub(A->Kids[0], A->Kids[1],
                          mkAdd(A->Kids[2], B->Kids[2]));
      Parts.erase(Parts.begin() + static_cast<long>(I) + 1);
      Changed = true;
      Progress = true;
      break;
    }
  }
  if (!Changed)
    return nullptr;
  return mkSeqConcat(std::move(Parts));
}

/// Flattens a sequence expression into concatenation parts.
static void flattenParts(const Expr &E, std::vector<Expr> &Out) {
  if (E->Kind == ExprKind::SeqNil)
    return;
  if (E->Kind == ExprKind::SeqConcat) {
    for (const Expr &Kid : E->Kids)
      flattenParts(Kid, Out);
    return;
  }
  Out.push_back(E);
}

/// Decomposes an equality between two sequence expressions, appending derived
/// literals. Returns false on definite conflict.
static bool decomposeSeqEq(const Expr &A, const Expr &B,
                           std::vector<Literal> &Out) {
  std::vector<Expr> PA, PB;
  flattenParts(A, PA);
  flattenParts(B, PB);

  std::size_t FrontA = 0, FrontB = 0;
  std::size_t EndA = PA.size(), EndB = PB.size();

  // Strip unit prefixes.
  while (FrontA < EndA && FrontB < EndB &&
         PA[FrontA]->Kind == ExprKind::SeqUnit &&
         PB[FrontB]->Kind == ExprKind::SeqUnit) {
    Out.push_back({mkEq(PA[FrontA]->Kids[0], PB[FrontB]->Kids[0]), true});
    ++FrontA;
    ++FrontB;
  }
  // Strip unit suffixes.
  while (FrontA < EndA && FrontB < EndB &&
         PA[EndA - 1]->Kind == ExprKind::SeqUnit &&
         PB[EndB - 1]->Kind == ExprKind::SeqUnit) {
    Out.push_back({mkEq(PA[EndA - 1]->Kids[0], PB[EndB - 1]->Kids[0]), true});
    --EndA;
    --EndB;
  }

  std::vector<Expr> RestA(PA.begin() + FrontA, PA.begin() + EndA);
  std::vector<Expr> RestB(PB.begin() + FrontB, PB.begin() + EndB);

  Expr RemA = mkSeqConcat(RestA);
  Expr RemB = mkSeqConcat(RestB);

  // Clash detection: one side is empty while the other has static minimum
  // length > 0.
  if (RemA->Kind == ExprKind::SeqNil && minStaticSeqLen(RemB) > 0)
    return false;
  if (RemB->Kind == ExprKind::SeqNil && minStaticSeqLen(RemA) > 0)
    return false;

  // Emit remainder equality if we made progress; emit length equality always
  // (it feeds the arithmetic backend).
  if (FrontA != 0 || FrontB != 0 || EndA != PA.size() || EndB != PB.size())
    Out.push_back({mkEq(RemA, RemB), true});
  Expr LenEq = mkEq(mkSeqLen(A), mkSeqLen(B));
  if (!isTrueLit(LenEq))
    Out.push_back({LenEq, true});
  return true;
}

/// One derivation pass over \p Atoms; new literals are appended to Result.
static void deriveSeqFactsPass(const std::vector<Literal> &Atoms,
                               SeqFacts &Result) {
  std::vector<Expr> Lens, Subs, Concats;
  std::set<const ExprNode *> Seen;
  for (const Literal &Lit : Atoms)
    collectSeqTerms(Lit.first, Lens, Subs, Concats, Seen);

  for (const Expr &Len : Lens)
    Result.Derived.push_back({mkLe(mkInt(0), Len), true});

  // Syntactic equality-fact index, used to instantiate conditional axioms.
  auto hasEqFact = [&Atoms](const Expr &A, const Expr &B) {
    Expr Want = mkEq(A, B);
    if (isTrueLit(Want))
      return true;
    for (const Literal &L : Atoms)
      if (L.second && exprEquals(L.first, Want))
        return true;
    return false;
  };

  for (const Expr &Sub : Subs) {
    const Expr &S = Sub->Kids[0];
    const Expr &From = Sub->Kids[1];
    const Expr &Count = Sub->Kids[2];
    Result.Derived.push_back({mkLe(mkInt(0), From), true});
    Result.Derived.push_back({mkLe(mkInt(0), Count), true});
    Result.Derived.push_back({mkLe(mkAdd(From, Count), mkSeqLen(S)), true});
    // sub(s, 0, |s|) = s, instantiated when the branch knows |s| = Count.
    __int128 F;
    if (getIntLit(From, F) && F == 0 &&
        (exprEquals(Count, mkSeqLen(S)) || hasEqFact(mkSeqLen(S), Count)))
      Result.Derived.push_back({mkEq(Sub, S), true});
  }

  // Reassembly: adjacent subsequences of the same base merge.
  for (const Expr &C : Concats)
    if (Expr Merged = mergeAdjacentSubs(C))
      Result.Derived.push_back({mkEq(C, Merged), true});

  // Syntactic transitivity: close the positive equalities (over *all*
  // sorts) into classes and derive equalities between the sequence-shaped
  // members of each class, so the decomposition below sees constructor
  // shapes that were only ever equated through shared variables.
  {
    struct ExprKeyHash {
      std::size_t operator()(const Expr &E) const { return E->hash(); }
    };
    struct ExprKeyEq {
      bool operator()(const Expr &A, const Expr &B) const {
        return exprEquals(A, B);
      }
    };
    std::unordered_map<Expr, std::size_t, ExprKeyHash, ExprKeyEq> Ids;
    std::vector<std::size_t> Parent;
    std::vector<Expr> Terms;
    std::function<std::size_t(std::size_t)> Find =
        [&](std::size_t I) -> std::size_t {
      while (Parent[I] != I) {
        Parent[I] = Parent[Parent[I]];
        I = Parent[I];
      }
      return I;
    };
    auto idOf = [&](const Expr &E) {
      auto [It, Inserted] = Ids.emplace(E, Terms.size());
      if (Inserted) {
        Terms.push_back(E);
        Parent.push_back(Parent.size());
      }
      return It->second;
    };
    for (const Literal &L : Atoms) {
      if (!L.second || L.first->Kind != ExprKind::Eq)
        continue;
      std::size_t A = idOf(L.first->Kids[0]);
      std::size_t B = idOf(L.first->Kids[1]);
      Parent[Find(A)] = Find(B);
    }
    auto seqShaped = [](const Expr &E) {
      return E->Kind == ExprKind::SeqConcat || E->Kind == ExprKind::SeqUnit ||
             E->Kind == ExprKind::SeqNil || E->Kind == ExprKind::SeqSub;
    };
    std::map<std::size_t, std::vector<const Expr *>> Shaped;
    for (std::size_t I = 0; I != Terms.size(); ++I)
      if (seqShaped(Terms[I]))
        Shaped[Find(I)].push_back(&Terms[I]);
    int Budget = 256;
    for (auto &[Rep, Members] : Shaped)
      for (std::size_t I = 0; I + 1 < Members.size() && Budget > 0; ++I)
        for (std::size_t J = I + 1; J < Members.size() && Budget > 0; ++J) {
          Expr EqF = mkEq(*Members[I], *Members[J]);
          if (isTrueLit(EqF))
            continue;
          --Budget;
          Result.Derived.push_back({EqF, true});
        }
    if (Budget == 0)
      ReferenceCapped = true;
  }

  // Decompose positive sequence equalities, iterating on newly derived
  // equalities to a small fixpoint.
  std::vector<Literal> Queue = Atoms;
  std::set<const ExprNode *> Processed;
  int Fuel = 256;
  for (std::size_t I = 0; I < Queue.size() && Fuel > 0; ++I) {
    auto [Atom, Positive] = Queue[I];
    if (!Positive || Atom->Kind != ExprKind::Eq)
      continue;
    if (!isSeqSorted(Atom->Kids[0]) && !isSeqSorted(Atom->Kids[1]))
      continue;
    if (!Processed.insert(Atom.get()).second)
      continue;
    --Fuel;
    std::vector<Literal> Derived;
    if (!decomposeSeqEq(Atom->Kids[0], Atom->Kids[1], Derived)) {
      Result.Conflict = true;
      return;
    }
    for (Literal &D : Derived) {
      if (isFalseLit(D.first) && D.second) {
        Result.Conflict = true;
        return;
      }
      if (isTrueLit(D.first))
        continue;
      Result.Derived.push_back(D);
      Queue.push_back(D);
    }
  }
  if (Fuel == 0)
    ReferenceCapped = true;
}

SeqFacts referenceDeriveSeqFacts(const std::vector<Literal> &Atoms) {
  // Iterate the pass: derived facts (e.g. merged subsequences) can enable
  // further axiom instantiations (e.g. sub(s, 0, |s|) = s).
  SeqFacts Result;
  // Fact identity: intern CanonId when available (exact), structural hash
  // with the top bit set for foreign nodes; lowest bit carries polarity.
  auto factKey = [](const Literal &L) {
    uint64_t Id = L.first->CanonId != 0
                      ? L.first->CanonId
                      : (static_cast<uint64_t>(L.first->hash()) |
                         (uint64_t(1) << 62));
    return (Id << 1) | (L.second ? 1 : 0);
  };
  std::unordered_set<uint64_t> SeenFacts;
  std::vector<Literal> All = Atoms;
  // Enough rounds for deep cons-chains (each pop/push layer may need one
  // union-find + decomposition alternation).
  int MaxRounds = 8 + static_cast<int>(Atoms.size());
  for (int Round = 0; Round != MaxRounds; ++Round) {
    SeqFacts Pass;
    deriveSeqFactsPass(All, Pass);
    if (Pass.Conflict) {
      Result.Conflict = true;
      return Result;
    }
    bool New = false;
    for (Literal &D : Pass.Derived) {
      if (!SeenFacts.insert(factKey(D)).second)
        continue;
      Result.Derived.push_back(D);
      All.push_back(D);
      New = true;
    }
    if (!New)
      return Result;
  }
  ReferenceCapped = true;
  return Result;
}

//===----------------------------------------------------------------------===//
// Seeded literal sets
//===----------------------------------------------------------------------===//

/// A tiny deterministic PRNG (no std::random to keep runs reproducible).
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed * 2654435761u + 4242) {}
  uint64_t next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return State >> 33;
  }
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
};

/// Literal sets over four sequence variables, three element variables, two
/// integer variables and small literals, shaped to reach every rule: unit
/// prefixes and suffixes to strip, static-length clashes, adjacent
/// subsequences to merge, sub(s, 0, c) with |s| = c asserted directly or
/// reached through a decomposition, and sequence shapes equated only through
/// shared variables.
class LiteralGen {
public:
  explicit LiteralGen(uint64_t Seed) : Rng(Seed) {}

  std::vector<Literal> next() {
    std::vector<Literal> Lits;
    for (int I = 0, N = Rng.range(1, 6); I != N;) {
      Literal L = literal();
      if (isTrueLit(L.first) || isFalseLit(L.first))
        continue;
      Lits.push_back(std::move(L));
      ++I;
    }
    return Lits;
  }

private:
  Expr seqVar() {
    return mkVar("s" + std::to_string(Rng.range(0, 3)), Sort::Seq);
  }
  Expr intVar() {
    return mkVar("n" + std::to_string(Rng.range(0, 1)), Sort::Int);
  }
  Expr elem() {
    if (Rng.range(0, 3) == 0)
      return mkInt(Rng.range(0, 1));
    return mkVar("e" + std::to_string(Rng.range(0, 2)), Sort::Int);
  }
  Expr from() {
    switch (Rng.range(0, 4)) {
    case 0:
      return intVar();
    case 1:
      return mkInt(1);
    default:
      return mkInt(0);
    }
  }
  Expr count(const Expr &Base) {
    switch (Rng.range(0, 3)) {
    case 0:
      return mkInt(Rng.range(1, 2));
    case 1:
      return mkSeqLen(Base);
    default:
      return intVar();
    }
  }
  Expr sub(int Depth) {
    Expr Base = Rng.range(0, 2) == 0 ? seq(Depth - 1) : seqVar();
    return mkSeqSub(Base, from(), count(Base));
  }
  /// sub(s, f, l) ++ sub(s, f + l, l'), the shape reassembly merges.
  Expr adjacentSubs() {
    Expr S = seqVar(), F = from(), L = count(S);
    return mkSeqConcat(mkSeqSub(S, F, L), mkSeqSub(S, mkAdd(F, L), intVar()));
  }
  Expr seq(int Depth) {
    int Pick = Rng.range(0, Depth == 0 ? 3 : 9);
    switch (Pick) {
    case 0:
    case 1:
      return seqVar();
    case 2:
      return Rng.range(0, 2) == 0 ? mkSeqNil() : mkSeqUnit(elem());
    case 3:
      return mkSeqUnit(elem());
    case 4:
    case 5:
      return mkSeqConcat(seq(Depth - 1), seq(Depth - 1));
    case 6:
      return mkSeqConcat(
          {mkSeqUnit(elem()), seq(Depth - 1), mkSeqUnit(elem())});
    case 7:
      return sub(Depth);
    case 8:
      return adjacentSubs();
    default:
      return mkSeqCons(elem(), seqVar());
    }
  }
  Literal literal() {
    switch (Rng.range(0, 9)) {
    case 0:
    case 1:
    case 2:
      return {mkEq(seq(2), seq(2)), true};
    case 3:
    case 4:
      return {mkEq(seqVar(), seq(2)), true};
    case 5:
      return {mkEq(seq(2), seq(1)), false};
    case 6: {
      Expr S = seqVar();
      return {mkEq(mkSeqLen(S), Rng.range(0, 1) ? intVar() : mkInt(2)), true};
    }
    case 7:
      return {mkLe(mkInt(0), mkSeqLen(seq(1))), Rng.range(0, 3) != 0};
    case 8:
      return {mkEq(intVar(), mkInt(Rng.range(0, 2))), Rng.range(0, 1) == 0};
    default:
      return {mkEq(elem(), elem()), true};
    }
  }

  Lcg Rng;
};

/// The derived facts as (CanonId, polarity), in derivation order.
std::vector<std::pair<uint64_t, bool>> factIds(const SeqFacts &F) {
  std::vector<std::pair<uint64_t, bool>> Out;
  for (const Literal &L : F.Derived)
    Out.push_back({L.first->CanonId, L.second});
  return Out;
}

std::string render(const std::vector<Literal> &Lits) {
  std::string Out;
  for (const Literal &L : Lits)
    Out += std::string(L.second ? "  " : "  not ") + exprToString(L.first) +
           "\n";
  return Out;
}

TEST(SeqFactsReference, SemiNaiveMatchesRoundByRoundOnSeededLiteralSets) {
  const int Cases = 30000;
  int Compared = 0, Capped = 0, Conflicts = 0, Mismatches = 0;
  std::size_t Facts = 0;
  for (int Seed = 1; Seed <= Cases; ++Seed) {
    std::vector<Literal> Lits = LiteralGen(static_cast<uint64_t>(Seed)).next();
    ReferenceCapped = false;
    SeqFacts Want = referenceDeriveSeqFacts(Lits);
    if (ReferenceCapped) {
      ++Capped;
      continue;
    }
    SeqFacts Got = deriveSeqFacts(Lits);
    ++Compared;
    Conflicts += Want.Conflict;
    Facts += Want.Derived.size();
    if (Got.Conflict == Want.Conflict && factIds(Got) == factIds(Want))
      continue;
    if (++Mismatches <= 5) {
      ADD_FAILURE() << "seed " << Seed << ": conflict " << Got.Conflict
                    << " (reference " << Want.Conflict << "), "
                    << Got.Derived.size() << " facts (reference "
                    << Want.Derived.size() << ")\nliterals:\n"
                    << render(Lits) << "derived:\n"
                    << render(Got.Derived) << "reference:\n"
                    << render(Want.Derived);
    }
  }
  EXPECT_EQ(Mismatches, 0);
  // The generator must keep reaching the rules: most cases below the caps,
  // a share of them in conflict, and facts derived in the rest.
  EXPECT_GE(Compared, Cases * 9 / 10);
  EXPECT_GE(Conflicts, Compared / 20);
  EXPECT_GE(Facts, static_cast<std::size_t>(Compared));
  std::printf("[ seq facts ] %d cases: %d compared (%d in conflict, %zu facts),"
              " %d beyond a reference cap\n",
              Cases, Compared, Conflicts, Facts, Capped);
}

//===----------------------------------------------------------------------===//
// Caps
//===----------------------------------------------------------------------===//

class SeqFactsCaps : public ::testing::Test {
protected:
  void SetUp() override {
    trace::Options On;
    On.M = trace::Mode::Json;
    On.TraceFile.clear();
    On.StatsFile.clear();
    trace::configure(On);
    trace::reset();
  }
  void TearDown() override {
    trace::configure(trace::Options());
    trace::reset();
  }
  /// True if a `solver/seq-capped` instant named \p Cap was recorded.
  static bool cappedAt(const std::string &Cap) {
    std::string Trace = trace::renderTraceJson();
    return Trace.find("\"name\":\"seq-capped\"") != std::string::npos &&
           Trace.find("\"detail\":\"" + Cap + "\"") != std::string::npos;
  }
  /// Runs \p Lits through the call and the reference; returns whether the
  /// reference reached a cap.
  static bool run(const std::vector<Literal> &Lits, SeqFacts &Got) {
    ReferenceCapped = false;
    referenceDeriveSeqFacts(Lits);
    Got = deriveSeqFacts(Lits);
    return ReferenceCapped;
  }
};

/// s = [e_i] for N element variables: one class with N sequence-shaped
/// members, so N(N - 1)/2 pairs in the first round.
std::vector<Literal> unitsOfOneClass(int N) {
  Expr S = mkVar("s", Sort::Seq);
  std::vector<Literal> Lits;
  for (int I = 0; I != N; ++I)
    Lits.push_back(
        {mkEq(S, mkSeqUnit(mkVar("e" + std::to_string(I), Sort::Int))), true});
  return Lits;
}

TEST_F(SeqFactsCaps, TransitivityBudget) {
  SeqFacts Got;
  // 22 members, 231 pairs: below the budget, so no instant.
  EXPECT_FALSE(run(unitsOfOneClass(22), Got));
  EXPECT_FALSE(cappedAt("transitivity"));
  // 24 members, 276 pairs: the budget of 256 stops the round.
  EXPECT_TRUE(run(unitsOfOneClass(24), Got));
  EXPECT_FALSE(Got.Conflict);
  EXPECT_TRUE(cappedAt("transitivity"));
}

TEST_F(SeqFactsCaps, DecompositionFuel) {
  // 300 sequence equalities in the first round; the fuel is 256.
  std::vector<Literal> Lits;
  for (int I = 0; I != 300; ++I)
    Lits.push_back({mkEq(mkVar("s" + std::to_string(I), Sort::Seq),
                         mkSeqUnit(mkVar("e" + std::to_string(I), Sort::Int))),
                    true});
  SeqFacts Got;
  EXPECT_TRUE(run(Lits, Got));
  EXPECT_FALSE(Got.Conflict);
  EXPECT_TRUE(cappedAt("decomposition"));
}

/// x_k = [a_k] ++ x_{k+1} for k < Layers, and x_0 = [b_0, ..., b_{L-1}] ++ z.
/// Each layer takes two rounds: one to pair x_k's two shapes by
/// transitivity, one to decompose that pair into x_{k+1} = [b_{k+1}, ...]
/// ++ z, which the next round pairs again. Layers + 1 atoms allow
/// 9 + Layers rounds.
std::vector<Literal> consChains(int Layers) {
  auto X = [](int K) { return mkVar("x" + std::to_string(K), Sort::Seq); };
  std::vector<Literal> Lits;
  std::vector<Expr> Bs;
  for (int K = 0; K != Layers; ++K) {
    Lits.push_back(
        {mkEq(X(K), mkSeqCons(mkVar("a" + std::to_string(K), Sort::Int),
                              X(K + 1))),
         true});
    Bs.push_back(mkSeqUnit(mkVar("b" + std::to_string(K), Sort::Int)));
  }
  Bs.push_back(mkVar("z", Sort::Seq));
  Lits.push_back({mkEq(X(0), mkSeqConcat(std::move(Bs))), true});
  return Lits;
}

TEST_F(SeqFactsCaps, RoundCap) {
  SeqFacts Got;
  // Four layers fit in the rounds, and both evaluations agree.
  EXPECT_FALSE(run(consChains(4), Got));
  EXPECT_FALSE(cappedAt("rounds"));
  ReferenceCapped = false;
  EXPECT_EQ(factIds(Got), factIds(referenceDeriveSeqFacts(consChains(4))));
  // Twelve do not.
  EXPECT_TRUE(run(consChains(12), Got));
  EXPECT_FALSE(Got.Conflict);
  EXPECT_TRUE(cappedAt("rounds"));
}

} // namespace
