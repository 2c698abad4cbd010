//===- solver/PathCondition.cpp ----------------------------------------------===//

#include "solver/PathCondition.h"

#include "solver/Simplify.h"
#include "sym/ExprBuilder.h"

using namespace gilr;

bool PathCondition::add(const Expr &Fact) {
  Expr F = simplify(Fact);
  if (isTrueLit(F))
    return !TriviallyFalse;
  if (isFalseLit(F)) {
    TriviallyFalse = true;
    Facts.push_back(F);
    return false;
  }
  if (F->Kind == ExprKind::And) {
    for (const Expr &Kid : F->Kids)
      add(Kid);
    return !TriviallyFalse;
  }
  // Drop exact duplicates: O(1) via the CanonId set.
  if (!FactIds.insert(F->CanonId).second)
    return !TriviallyFalse;
  Facts.push_back(F);
  return true;
}

bool PathCondition::isUnsat(Solver &S) const {
  if (TriviallyFalse)
    return true;
  return S.checkSat(Facts) == SatResult::Unsat;
}

bool PathCondition::entails(Solver &S, const Expr &Goal) const {
  if (TriviallyFalse)
    return true;
  Expr G = simplify(Goal);
  if (isTrueLit(G))
    return true;
  uint64_t Key = G->CanonId;
  auto Hit = ProvenAt.find(Key);
  if (Hit != ProvenAt.end() && Hit->second <= Facts.size())
    return true; // Monotone: more facts cannot unprove it.
  auto Miss = RefutedAt.find(Key);
  if (Miss != RefutedAt.end() && Miss->second == Facts.size())
    return false; // Same context: same answer.
  bool R = S.entails(Facts, G);
  if (R)
    ProvenAt[Key] = Facts.size();
  else
    RefutedAt[Key] = Facts.size();
  return R;
}
