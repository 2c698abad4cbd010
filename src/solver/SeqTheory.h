//===- solver/SeqTheory.h - Sequence reasoning -----------------------------===//
///
/// \file
/// Axiom instantiation and equality decomposition for the sequence sort:
/// non-negativity of lengths, range facts for subsequences, unit-prefix/
/// suffix stripping of concatenation equalities (needed to discharge
/// postconditions like repr = cons(x, repr')), and static-length clash
/// detection.
///
/// Note on SeqSub: subsequence terms are only ever constructed by the heap
/// within solver-checked ranges, so their range side-conditions
/// (0 <= from, 0 <= len, from + len <= |s|) are asserted as facts here.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_SEQTHEORY_H
#define GILR_SOLVER_SEQTHEORY_H

#include "sym/Expr.h"

#include <utility>
#include <vector>

namespace gilr {

/// A literal: an atom with a polarity.
using Literal = std::pair<Expr, bool>;

/// Result of sequence-fact derivation.
struct SeqFacts {
  std::vector<Literal> Derived; ///< Extra literals to assert.
  bool Conflict = false;        ///< A definite clash was found.
};

/// Derives sequence facts from the atoms of one solver branch, in rounds
/// until a round derives nothing new; each round works only on what the
/// round before it added. Three caps bound the work: 256 transitivity
/// pairs and 256 decompositions per round, and 8 + |Atoms| rounds. A cap
/// that stops the derivation emits a `solver/seq-capped` trace instant
/// naming it; the facts derived up to then are still sound.
SeqFacts deriveSeqFacts(const std::vector<Literal> &Atoms);

/// Minimum length of \p E provable from its constructors alone.
__int128 minStaticSeqLen(const Expr &E);

} // namespace gilr

#endif // GILR_SOLVER_SEQTHEORY_H
