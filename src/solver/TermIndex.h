//===- solver/TermIndex.h - Dense term ids up to exprEquals ----------------===//
///
/// \file
/// Maps terms to dense int ids up to \c exprEquals, for the solver's theory
/// passes that build a table over the terms of one query. Interned nodes
/// are keyed by their CanonId, an integer lookup; only foreign nodes (built
/// while interning is disabled, see sym/Intern.h) go through a structural
/// map. A foreign node is never identified with an interned one.
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
    if (E->CanonId != 0) {
      auto It = ByCanon.find(E->CanonId);
      return It != ByCanon.end() ? It->second : -1;
    }
    auto It = Foreign.find(E);
    return It != Foreign.end() ? It->second : -1;
  }

  /// Gives \p E the id \p Fresh unless it has one. Returns its id and
  /// whether it was new.
  std::pair<int, bool> insert(const Expr &E, int Fresh) {
    if (E->CanonId != 0) {
      auto [It, Inserted] = ByCanon.try_emplace(E->CanonId, Fresh);
      return {It->second, Inserted};
    }
    auto [It, Inserted] = Foreign.try_emplace(E, Fresh);
    return {It->second, Inserted};
  }

private:
  struct StructuralHash {
    std::size_t operator()(const Expr &E) const { return E->hash(); }
  };
  struct StructuralEq {
    bool operator()(const Expr &A, const Expr &B) const {
      return exprEquals(A, B);
    }
  };

  std::unordered_map<uint64_t, int> ByCanon;
  std::unordered_map<Expr, int, StructuralHash, StructuralEq> Foreign;
};

} // namespace gilr

#endif // GILR_SOLVER_TERMINDEX_H
