//===- solver/Simplify.h - Formula normalisation ---------------------------===//
///
/// \file
/// Bottom-up re-simplification and negation normal form helpers used by the
/// solver front-end before case-splitting.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_SIMPLIFY_H
#define GILR_SOLVER_SIMPLIFY_H

#include "sym/Expr.h"

#include <cstdint>

namespace gilr {

/// Recursively rebuilds \p E through the smart constructors, re-triggering
/// all local simplifications (useful after substitution or as a cheap
/// pre-pass before solving). Results for interned nodes are memoized in a
/// process-wide identity-keyed (node id) table: simplify is pure and
/// deterministic, and hash-consing makes the result node identical no matter
/// which thread computed it first, so a shared memo is sound.
Expr simplify(const Expr &E);

/// Hit/miss counters for the identity-keyed simplify memo.
struct SimplifyStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

SimplifyStats simplifyMemoStats();

/// Enables/disables the simplify memo and returns the previous setting. On
/// by default; disabling exists for tests that must observe un-memoized
/// behaviour. Toggle only while no other thread is simplifying.
bool setSimplifyMemoEnabled(bool Enabled);

/// Returns the negation of \p E with the negation pushed into comparisons:
/// not (a < b) becomes b <= a, not (a <= b) becomes b < a, De Morgan over
/// and/or, etc. Equalities stay as negated equalities.
Expr negate(const Expr &E);

/// Rewrites every Ite subterm of \p E whose condition is structurally equal
/// to \p Cond into its then- (if \p Positive) or else-branch. Used by the
/// solver when splitting on Ite conditions in term positions.
Expr resolveIte(const Expr &E, const Expr &Cond, bool Positive);

/// Finds some Ite subterm occurring in a *term* position inside \p E and
/// returns its condition, or nullptr if none exists.
Expr findIteCondition(const Expr &E);

/// Rewrites \p E using the equality \p Facts: subterms equated to
/// constructor forms (tuples, options, locations, literals, sequences) are
/// replaced by them and the result re-simplified, normalising projection
/// chains like Unwrap(TupleGet(v, 0)) into decodable structures. Bounded
/// iteration; never loops.
Expr reduceWithFacts(const Expr &E, const std::vector<Expr> &Facts);

} // namespace gilr

#endif // GILR_SOLVER_SIMPLIFY_H
