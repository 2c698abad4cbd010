//===- analysis/Interproc.h - Summary-powered lint passes -----------------===//
///
/// \file
/// The consumers of the interprocedural summaries (analysis/Summary.h) that
/// live in the analysis layer:
///
///  * \c checkUnsafeEscape (GILR-W009) — a call site whose callee's unsafe
///    surface escapes (raw-pointer operations, transitively, with no
///    ownership-bearing spec to contain them) inside a caller that has no
///    spec of its own: the unsafety leaks through two layers with no
///    contract anywhere.
///
///  * \c checkRecursionVariant (GILR-W010) — a recursive call cycle (self
///    or mutual, from the SCC condensation) with no decreasing evidence
///    anywhere in the cycle: no lemma application in any member's body and
///    no inductive predicate in any member's spec.
///
/// The W008 de-opaquing upgrade lives with the original pass
/// (analysis/FrameLint.cpp, \c checkFrameRule's summary overload).
///
//===----------------------------------------------------------------------===//

#ifndef GILR_ANALYSIS_INTERPROC_H
#define GILR_ANALYSIS_INTERPROC_H

#include "analysis/Diagnostic.h"
#include "analysis/Summary.h"

namespace gilr {
namespace analysis {

/// GILR-W009: \p F (which has no spec — pass the caller's spec lookup
/// result as \p CallerSpec) calls a function whose summary says its unsafe
/// surface escapes. Notes the callee closure's dependencies so cached lint
/// verdicts invalidate when any reachable body or spec changes.
void checkUnsafeEscape(const rmir::Function &F,
                       const gilsonite::Spec *CallerSpec,
                       const SummaryTable &T, DiagnosticEngine &DE);

/// GILR-W010: recursive SCCs with no decreasing lemma/variant evidence.
/// Program-level — reported once per cycle, against the lexicographically
/// least member.
void checkRecursionVariant(const rmir::Program &Prog,
                           const gilsonite::SpecTable &Specs,
                           const SummaryTable &T, DiagnosticEngine &DE);

} // namespace analysis
} // namespace gilr

#endif // GILR_ANALYSIS_INTERPROC_H
