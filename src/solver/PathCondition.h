//===- solver/PathCondition.h - Symbolic path conditions -------------------===//
///
/// \file
/// The path condition pi of a symbolic execution configuration (sigma, pi):
/// a conjunction of first-order facts constraining the symbolic variables
/// (§2.3). Observations (§5.2) reuse this representation as a second layer
/// of truth over prophecy variables.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_PATHCONDITION_H
#define GILR_SOLVER_PATHCONDITION_H

#include "solver/Solver.h"
#include "sym/Expr.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gilr {

/// An append-only conjunction of boolean facts.
class PathCondition {
public:
  PathCondition() = default;

  /// Conjoins \p Fact (simplified; conjunctions are flattened). Returns
  /// false if the path condition became syntactically false.
  bool add(const Expr &Fact);

  /// True if the literal false has been recorded.
  bool isTriviallyFalse() const { return TriviallyFalse; }

  const std::vector<Expr> &facts() const { return Facts; }

  /// Whether \p S proves this path condition inconsistent.
  bool isUnsat(Solver &S) const;

  /// Whether the facts entail \p Goal under \p S.
  bool entails(Solver &S, const Expr &Goal) const;

  std::size_t size() const { return Facts.size(); }

private:
  std::vector<Expr> Facts;
  /// Intern CanonIds of the recorded facts, for O(1) duplicate detection in
  /// \c add.
  std::unordered_set<uint64_t> FactIds;
  bool TriviallyFalse = false;
  /// Positive-entailment cache keyed by the goal's intern CanonId: facts
  /// are append-only, so a goal proven from a prefix of the facts stays
  /// proven (monotonicity). Negative results are cached per fact count.
  /// Mutable: caching is semantically transparent.
  mutable std::unordered_map<uint64_t, std::size_t> ProvenAt;
  mutable std::unordered_map<uint64_t, std::size_t> RefutedAt;
};

} // namespace gilr

#endif // GILR_SOLVER_PATHCONDITION_H
