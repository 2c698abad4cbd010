//===- analysis/Summary.h - Interprocedural function/predicate summaries ---===//
///
/// \file
/// Compositional summaries in the Gillian tradition, holding exactly what
/// the summary-powered lints read: per function, its unsafe surface (does
/// it, or anything it calls, perform raw-pointer operations no spec
/// contains — GILR-W009), whether it applies a lemma (GILR-W010's decreasing
/// evidence) and its reachable closure; per predicate, which parameters the
/// unfolding may claim ownership rooted at (GILR-W008's summary mode).
/// Summaries are computed bottom-up over the SCC condensation of the call
/// graph (analysis/CallGraph.h): each body takes one flow-insensitive pass
/// that applies its callees' summaries, and a recursive SCC iterates to
/// the least fixpoint, seeding not-yet-computed members optimistically. An
/// opaque body (no blocks) or a call to a function the program does not
/// contain counts as an escaping unsafe surface.
///
/// Summaries are recomputed every run and never persisted. Each records
/// its reachable closure (DepFns/DepPreds), which the W008 and W009 lints
/// note as dependencies, so a cached lint verdict invalidates when
/// anything the summary saw is edited.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_ANALYSIS_SUMMARY_H
#define GILR_ANALYSIS_SUMMARY_H

#include "analysis/CallGraph.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gilr {
namespace analysis {

/// Summary of one RMIR function.
struct FnSummary {
  /// This body itself performs raw-pointer operations (AddrOf, PtrOffset,
  /// Alloc, Free, deref of a raw-pointer-typed local) — the same surface
  /// GILR-W003 checks. Local fact; transitive escape is UnsafeEscapes.
  bool UnsafeOps = false;
  /// The unsafe surface escapes this function: it performs (or transitively
  /// calls into) raw-pointer operations and carries no ownership-bearing
  /// spec to contain them. An ownership-bearing spec (spatial pre or post)
  /// is the containment boundary — its proof obligations cover the unsafety.
  bool UnsafeEscapes = false;
  /// An ApplyLemma ghost in this body (local fact).
  bool HasLemmaApply = false;
  /// Reachable function closure (self, known callees transitively, and the
  /// names of unknown callees — so a summary invalidates when one appears).
  std::set<std::string> DepFns;
  /// Predicate closure: spec/ghost mentions, transitively through predicate
  /// references and callees.
  std::set<std::string> DepPreds;

  bool operator==(const FnSummary &O) const = default;
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
/// over (the recursive-SCC structure feeds the W010 lint).
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
