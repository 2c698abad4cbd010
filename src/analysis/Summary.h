//===- analysis/Summary.h - Interprocedural function/predicate summaries ---===//
///
/// \file
/// Compositional summaries in the Gillian tradition: per-function memory
/// footprints (which parameters' ownership is read / written through /
/// escaped), purity, initialization effects and parameter may-alias sets,
/// plus per-predicate footprints (which predicate parameters the unfolding
/// may claim ownership rooted at). Summaries are computed bottom-up over
/// the SCC condensation of the call graph (analysis/CallGraph.h):
///
///  * may-facts (Read/Written/Escaped, heap effects, aliasing, MayOwn)
///    start at bottom and climb monotonically to the least fixpoint, which
///    within a recursive SCC is iterated until stable;
///  * must-facts (Pure) start at top inside the SCC and shrink, so a
///    self-recursive pure function still summarizes as pure;
///  * an opaque body (no blocks) or a call to a function the program does
///    not contain collapses the affected facts to conservative top.
///
/// Consumers: the scheduler's triage tier (trivially-safe obligations skip
/// symbolic execution, analysis/Interproc.h) and the summary-powered lints
/// (W008 de-opaquing, W009, W010). Summaries are recomputed every run and
/// never persisted. Each records its reachable closure (DepFns/DepPreds),
/// which the W008 and W009 lints note as dependencies, so a cached lint
/// verdict invalidates when anything the summary saw is edited.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_ANALYSIS_SUMMARY_H
#define GILR_ANALYSIS_SUMMARY_H

#include "analysis/CallGraph.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gilr {
namespace analysis {

/// May-effects of one function on the memory reachable from one parameter.
struct ParamEffect {
  bool Read = false;    ///< May be read through (deref, ghost mention).
  bool Written = false; ///< May be written through (deref store, free).
  bool Escaped = false; ///< May escape: returned, stored to heap, passed on.

  bool operator==(const ParamEffect &O) const {
    return Read == O.Read && Written == O.Written && Escaped == O.Escaped;
  }
  bool operator!=(const ParamEffect &O) const { return !(*this == O); }
};

/// Summary of one RMIR function.
struct FnSummary {
  /// A body was present and analyzed. False for opaque entries (no blocks),
  /// whose remaining facts are conservative top.
  bool Known = false;
  /// Member of a recursive SCC (self- or mutual recursion).
  bool Recursive = false;
  /// No Call terminators at all (known or unknown callees).
  bool Leaf = false;
  /// No heap writes and no unsafe operations, transitively through every
  /// callee. Must-fact: false whenever in doubt.
  bool Pure = false;
  bool HeapReads = false;  ///< May read through a pointer (incl. callees).
  bool HeapWrites = false; ///< May write heap memory (incl. callees).
  /// This body itself performs raw-pointer operations (AddrOf, PtrOffset,
  /// Alloc, Free, deref of a raw-pointer-typed local) — the same surface
  /// GILR-W003 checks. Local fact; transitive escape is UnsafeEscapes.
  bool UnsafeOps = false;
  /// The unsafe surface escapes this function: it performs (or transitively
  /// calls into) raw-pointer operations and carries no ownership-bearing
  /// spec to contain them. An ownership-bearing spec (spatial pre or post)
  /// is the containment boundary — its proof obligations cover the unsafety.
  bool UnsafeEscapes = false;
  bool HasGhost = false;        ///< Any ghost statement in the body.
  bool HasCheckedArith = false; ///< Add/Sub/Mul or unary Neg (overflow obligations).
  bool HasUnreachable = false;  ///< An Unreachable terminator.
  bool HasLemmaApply = false;   ///< An ApplyLemma ghost in this body (local fact).
  bool WritesReturn = false;    ///< Assigns the return slot on some path.
  /// Per-parameter effects, size NumParams.
  std::vector<ParamEffect> Params;
  /// Symmetric parameter may-alias relation: pairs (I, J), I < J, of
  /// parameter indices whose values may flow into the same local (or be
  /// merged by a callee's may-alias set).
  std::vector<std::pair<unsigned, unsigned>> MayAliasParams;
  /// Reachable function closure (self, known callees transitively, and the
  /// names of unknown callees — so a summary invalidates when one appears).
  std::set<std::string> DepFns;
  /// Predicate closure: spec/ghost mentions, transitively through predicate
  /// references and callees.
  std::set<std::string> DepPreds;

  bool operator==(const FnSummary &O) const;
  bool operator!=(const FnSummary &O) const { return !(*this == O); }

  /// The conservative top summary for an opaque body of \p NumParams
  /// parameters: every may-fact set, Pure false.
  static FnSummary top(unsigned NumParams);
};

/// Summary of one Gilsonite predicate.
struct PredSummary {
  /// Declared with clauses (not abstract).
  bool Known = false;
  /// Abstract or undeclared: the unfolding may own anything its arguments
  /// reach, so consumers must treat the footprint as opaque.
  bool OwnsUnknown = false;
  /// Per-parameter: the predicate's unfolding may claim ownership (a
  /// points-to-family part, transitively through referenced predicates)
  /// rooted at this parameter.
  std::vector<bool> MayOwnParam;
  /// Reachable predicate closure, self included.
  std::set<std::string> DepPreds;

  bool operator==(const PredSummary &O) const {
    return Known == O.Known && OwnsUnknown == O.OwnsUnknown &&
           MayOwnParam == O.MayOwnParam && DepPreds == O.DepPreds;
  }
  bool operator!=(const PredSummary &O) const { return !(*this == O); }

  static PredSummary top(std::size_t NumParams);
};

/// All summaries of one program, plus the condensation they were computed
/// over (the recursive-SCC structure feeds the W010 lint and the triage
/// tier's recursion exclusion).
struct SummaryTable {
  std::map<std::string, FnSummary> Fns;
  std::map<std::string, PredSummary> Preds;
  std::vector<Scc> FnSccs;   ///< Bottom-up condensation of the call graph.
  std::vector<Scc> PredSccs; ///< Bottom-up condensation of predicate refs.

  const FnSummary *fn(const std::string &Name) const {
    auto It = Fns.find(Name);
    return It == Fns.end() ? nullptr : &It->second;
  }
  const PredSummary *pred(const std::string &Name) const {
    auto It = Preds.find(Name);
    return It == Preds.end() ? nullptr : &It->second;
  }
};

/// Builds the call graph, condenses it, and runs both bottom-up fixpoints
/// (predicates first, then functions). Every run calls this: recomputing
/// the table costs less than fetching and validating stored summaries
/// (docs/ANALYSIS.md).
SummaryTable computeSummaries(const rmir::Program &Prog,
                              const gilsonite::PredTable &Preds,
                              const gilsonite::SpecTable &Specs);

} // namespace analysis
} // namespace gilr

#endif // GILR_ANALYSIS_SUMMARY_H
