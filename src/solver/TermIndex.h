//===- solver/TermIndex.h - Dense term ids up to exprEquals ----------------===//
///
/// \file
/// Maps terms to dense int ids up to \c exprEquals, for the solver's theory
/// passes that build a table over the terms of one query. Terms are keyed
/// by their CanonId, an integer lookup.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_TERMINDEX_H
#define GILR_SOLVER_TERMINDEX_H

#include "sym/Expr.h"

#include <unordered_map>
#include <utility>

namespace gilr {

class TermIndex {
public:
  /// The id of \p E, or -1 if it has none.
  int find(const Expr &E) const {
    auto It = ByCanon.find(E->CanonId);
    return It != ByCanon.end() ? It->second : -1;
  }

  /// Gives \p E the id \p Fresh unless it has one. Returns its id and
  /// whether it was new.
  std::pair<int, bool> insert(const Expr &E, int Fresh) {
    auto [It, Inserted] = ByCanon.try_emplace(E->CanonId, Fresh);
    return {It->second, Inserted};
  }

private:
  std::unordered_map<uint64_t, int> ByCanon;
};

} // namespace gilr

#endif // GILR_SOLVER_TERMINDEX_H
