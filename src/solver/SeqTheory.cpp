//===- solver/SeqTheory.cpp --------------------------------------------------===//

#include "solver/SeqTheory.h"

#include "solver/TermIndex.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"

#include <algorithm>
#include <tuple>
#include <unordered_set>

using namespace gilr;

__int128 gilr::minStaticSeqLen(const Expr &E) {
  switch (E->Kind) {
  case ExprKind::SeqNil:
    return 0;
  case ExprKind::SeqUnit:
    return 1;
  case ExprKind::SeqConcat: {
    __int128 Total = 0;
    for (const Expr &Kid : E->Kids)
      Total += minStaticSeqLen(Kid);
    return Total;
  }
  default:
    return 0;
  }
}

static bool isSeqSorted(const Expr &E) {
  return E->NodeSort == Sort::Seq || E->Kind == ExprKind::SeqNil ||
         E->Kind == ExprKind::SeqUnit || E->Kind == ExprKind::SeqConcat ||
         E->Kind == ExprKind::SeqSub;
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

namespace {

bool seqShaped(const Expr &E) {
  return E->Kind == ExprKind::SeqConcat || E->Kind == ExprKind::SeqUnit ||
         E->Kind == ExprKind::SeqNil || E->Kind == ExprKind::SeqSub;
}

/// Fact identity: intern CanonId when available (exact), structural hash
/// with the top bit set for foreign nodes; lowest bit carries polarity.
uint64_t factKey(const Literal &L) {
  uint64_t Id = L.first->CanonId != 0
                    ? L.first->CanonId
                    : (static_cast<uint64_t>(L.first->hash()) |
                       (uint64_t(1) << 62));
  return (Id << 1) | (L.second ? 1 : 0);
}

void capped(const char *Cap) {
  trace::instant("solver", "seq-capped", [Cap] { return std::string(Cap); });
}

/// The sequence facts of one call, evaluated semi-naively. Derived facts
/// (e.g. merged subsequences) enable further axiom instantiations (e.g.
/// sub(s, 0, |s|) = s), so the facts are derived in rounds until a round
/// adds nothing new. This state lives for the whole call, and each round
/// works only on the literals the round before it added: every rule is
/// monotone in the literals gathered so far, so older literals only re-derive
/// facts that are already known. Each round emits its facts in the order a
/// full pass over all literals would first emit them.
class SeqFactDeriver {
public:
  SeqFacts run(const std::vector<Literal> &Atoms);

private:
  /// One round over \p Delta; appends the facts it derives to \p Out.
  /// Returns false on a definite conflict.
  bool round(const std::vector<Literal> &Delta, std::vector<Literal> &Out);
  /// Records the SeqLen / SeqSub / SeqConcat subterms of \p E not seen yet.
  void collect(const Expr &E);
  void instantiateSubs(std::vector<Literal> &Out);
  void closeEqualities(const std::vector<Literal> &Delta,
                       std::vector<Literal> &Out);
  bool decompose(const std::vector<Literal> &Delta, std::vector<Literal> &Out);
  std::size_t termId(const Expr &E);
  std::size_t findRoot(std::size_t I);

  /// Subterms of all literals so far, and the ones this round added.
  std::unordered_set<const ExprNode *> Seen;
  std::vector<Expr> NewLens, NewSubs, NewConcats;
  /// The positive literals so far.
  TermIndex PositiveFacts;
  /// sub(s, 0, c) terms still waiting for the fact |s| = c, in the order
  /// they were found.
  struct WaitingSub {
    Expr Sub;
    Expr Want;
  };
  std::vector<WaitingSub> Waiting;
  /// Union-find over the sides of the positive equalities (over all sorts),
  /// with each class's sequence-shaped members at its root.
  TermIndex TermIds;
  std::vector<Expr> Terms;
  std::vector<std::size_t> Parent;
  std::vector<std::vector<std::size_t>> Shaped;
  /// Sequence equalities already decomposed.
  std::unordered_set<Expr> Decomposed;
};

} // namespace

SeqFacts SeqFactDeriver::run(const std::vector<Literal> &Atoms) {
  SeqFacts Result;
  std::unordered_set<uint64_t> SeenFacts;
  std::vector<Literal> Delta = Atoms;
  // Enough rounds for deep cons-chains (each pop/push layer may need one
  // union-find + decomposition alternation).
  int MaxRounds = 8 + static_cast<int>(Atoms.size());
  for (int Round = 0; Round != MaxRounds; ++Round) {
    std::vector<Literal> Found;
    if (!round(Delta, Found)) {
      Result.Conflict = true;
      return Result;
    }
    Delta.clear();
    for (Literal &D : Found)
      if (SeenFacts.insert(factKey(D)).second) {
        Result.Derived.push_back(D);
        Delta.push_back(std::move(D));
      }
    if (Delta.empty())
      return Result;
  }
  capped("rounds");
  return Result;
}

bool SeqFactDeriver::round(const std::vector<Literal> &Delta,
                           std::vector<Literal> &Out) {
  NewLens.clear();
  NewSubs.clear();
  NewConcats.clear();
  for (const Literal &Lit : Delta) {
    collect(Lit.first);
    if (Lit.second)
      PositiveFacts.insert(Lit.first, 0);
  }

  for (const Expr &Len : NewLens)
    Out.push_back({mkLe(mkInt(0), Len), true});

  instantiateSubs(Out);

  // Reassembly: adjacent subsequences of the same base merge.
  for (const Expr &C : NewConcats)
    if (Expr Merged = mergeAdjacentSubs(C))
      Out.push_back({mkEq(C, Merged), true});

  closeEqualities(Delta, Out);
  return decompose(Delta, Out);
}

void SeqFactDeriver::collect(const Expr &E) {
  if (!E || !Seen.insert(E.get()).second)
    return;
  if (E->Kind == ExprKind::SeqLen)
    NewLens.push_back(E);
  if (E->Kind == ExprKind::SeqSub)
    NewSubs.push_back(E);
  if (E->Kind == ExprKind::SeqConcat)
    NewConcats.push_back(E);
  for (const Expr &Kid : E->Kids)
    collect(Kid);
}

void SeqFactDeriver::instantiateSubs(std::vector<Literal> &Out) {
  // sub(s, 0, |s|) = s, instantiated once the branch knows |s| = Count.
  // Subterms found earlier come first, as in a pass over all literals.
  std::size_t Kept = 0;
  for (WaitingSub &W : Waiting) {
    if (PositiveFacts.find(W.Want) != -1)
      Out.push_back({mkEq(W.Sub, W.Sub->Kids[0]), true});
    else
      Waiting[Kept++] = std::move(W);
  }
  Waiting.resize(Kept);

  for (const Expr &Sub : NewSubs) {
    const Expr &S = Sub->Kids[0];
    const Expr &From = Sub->Kids[1];
    const Expr &Count = Sub->Kids[2];
    Out.push_back({mkLe(mkInt(0), From), true});
    Out.push_back({mkLe(mkInt(0), Count), true});
    Out.push_back({mkLe(mkAdd(From, Count), mkSeqLen(S)), true});
    __int128 F;
    if (!getIntLit(From, F) || F != 0)
      continue;
    Expr Len = mkSeqLen(S);
    Expr Want = mkEq(Len, Count);
    if (exprEquals(Count, Len) || isTrueLit(Want) ||
        PositiveFacts.find(Want) != -1)
      Out.push_back({mkEq(Sub, S), true});
    else
      Waiting.push_back({Sub, std::move(Want)});
  }
}

std::size_t SeqFactDeriver::termId(const Expr &E) {
  auto [Id, Inserted] = TermIds.insert(E, static_cast<int>(Terms.size()));
  if (Inserted) {
    Terms.push_back(E);
    Parent.push_back(Parent.size());
    Shaped.emplace_back();
    if (seqShaped(E))
      Shaped.back().push_back(static_cast<std::size_t>(Id));
  }
  return static_cast<std::size_t>(Id);
}

std::size_t SeqFactDeriver::findRoot(std::size_t I) {
  while (Parent[I] != I) {
    Parent[I] = Parent[Parent[I]];
    I = Parent[I];
  }
  return I;
}

void SeqFactDeriver::closeEqualities(const std::vector<Literal> &Delta,
                                     std::vector<Literal> &Out) {
  // Syntactic transitivity: close the positive equalities (over *all*
  // sorts) into classes and derive equalities between the sequence-shaped
  // members of each class, so the decomposition sees constructor shapes
  // that were only ever equated through shared variables. A pair is new
  // exactly when a union of this round first puts its members together.
  std::vector<std::pair<std::size_t, std::size_t>> Pairs;
  for (const Literal &L : Delta) {
    if (!L.second || L.first->Kind != ExprKind::Eq)
      continue;
    std::size_t A = findRoot(termId(L.first->Kids[0]));
    std::size_t B = findRoot(termId(L.first->Kids[1]));
    if (A == B)
      continue;
    for (std::size_t I : Shaped[A])
      for (std::size_t J : Shaped[B])
        Pairs.push_back({std::min(I, J), std::max(I, J)});
    Parent[A] = B;
    std::vector<std::size_t> &Into = Shaped[B];
    if (Into.size() < Shaped[A].size())
      Into.swap(Shaped[A]);
    Into.insert(Into.end(), Shaped[A].begin(), Shaped[A].end());
    Shaped[A] = {};
  }
  // The order a pass over all classes would take: by root, then by the
  // members' first appearance.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> Ordered;
  Ordered.reserve(Pairs.size());
  for (auto [I, J] : Pairs)
    Ordered.emplace_back(findRoot(I), I, J);
  std::sort(Ordered.begin(), Ordered.end());
  int Budget = 256;
  for (auto &[Root, I, J] : Ordered) {
    Expr EqF = mkEq(Terms[I], Terms[J]);
    if (isTrueLit(EqF))
      continue;
    if (Budget == 0) {
      capped("transitivity");
      return;
    }
    --Budget;
    Out.push_back({EqF, true});
  }
}

bool SeqFactDeriver::decompose(const std::vector<Literal> &Delta,
                               std::vector<Literal> &Out) {
  // Decompose positive sequence equalities, iterating on newly derived
  // equalities to a small fixpoint.
  std::vector<Literal> Queue = Delta;
  int Fuel = 256;
  for (std::size_t I = 0; I < Queue.size(); ++I) {
    auto [Atom, Positive] = Queue[I];
    if (!Positive || Atom->Kind != ExprKind::Eq)
      continue;
    if (!isSeqSorted(Atom->Kids[0]) && !isSeqSorted(Atom->Kids[1]))
      continue;
    if (Decomposed.count(Atom))
      continue;
    if (Fuel == 0) {
      capped("decomposition");
      return true;
    }
    --Fuel;
    Decomposed.insert(Atom);
    std::vector<Literal> Derived;
    if (!decomposeSeqEq(Atom->Kids[0], Atom->Kids[1], Derived))
      return false;
    for (Literal &D : Derived) {
      if (isFalseLit(D.first) && D.second)
        return false;
      if (isTrueLit(D.first))
        continue;
      Out.push_back(D);
      Queue.push_back(D);
    }
  }
  return true;
}

SeqFacts gilr::deriveSeqFacts(const std::vector<Literal> &Atoms) {
  return SeqFactDeriver().run(Atoms);
}
