//===- analysis/Interproc.cpp - Summary-powered lints W009/W010 -----------===//

#include "analysis/Interproc.h"

#include "analysis/Passes.h"
#include "support/Deps.h"

#include <set>

using namespace gilr;
using namespace gilr::analysis;

void gilr::analysis::checkUnsafeEscape(const rmir::Function &F,
                                       const gilsonite::Spec *CallerSpec,
                                       const SummaryTable &T,
                                       DiagnosticEngine &DE) {
  // A caller with a spec of its own is a contract boundary; the escape
  // lint targets the spec-free gap between two unguarded layers.
  if (CallerSpec)
    return;
  for (std::size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const rmir::Terminator &Term = F.Blocks[BI].Term;
    if (Term.Kind != rmir::Terminator::Call)
      continue;
    // The verdict — fired or not — depends on everything the callee's
    // summary saw: any reachable body or spec edit must invalidate a cached
    // lint verdict, including one that found nothing.
    deps::note(deps::Kind::Function, Term.Callee);
    deps::note(deps::Kind::Spec, Term.Callee);
    const FnSummary *CS = T.fn(Term.Callee);
    if (CS) {
      for (const std::string &Dep : CS->DepFns) {
        deps::note(deps::Kind::Function, Dep);
        deps::note(deps::Kind::Spec, Dep);
      }
      for (const std::string &Dep : CS->DepPreds)
        deps::note(deps::Kind::Pred, Dep);
    }
    if (!CS || !CS->UnsafeEscapes)
      continue;
    Diagnostic D;
    D.Code = code::UnsafeEscape;
    D.Sev = codeSeverity(D.Code);
    D.Entity = F.Name;
    D.Block = static_cast<int>(BI);
    D.Message = "call to '" + Term.Callee +
                "' lets its unsafe surface escape: the callee performs "
                "raw-pointer operations with no ownership-bearing spec, and "
                "this caller has no spec to contain them";
    D.Notes.push_back(
        "give '" + Term.Callee +
        "' (or this caller) a spec with a spatial footprint, or drop the "
        "raw-pointer operations from the call chain");
    DE.report(std::move(D));
  }
}

void gilr::analysis::checkRecursionVariant(const rmir::Program &Prog,
                                           const gilsonite::SpecTable &Specs,
                                           const SummaryTable &T,
                                           DiagnosticEngine &DE) {
  for (const Scc &S : T.FnSccs) {
    if (!S.Recursive || S.Members.empty())
      continue;
    bool HasEvidence = false;
    for (const std::string &Name : S.Members) {
      if (const FnSummary *Sum = T.fn(Name))
        if (Sum->HasLemmaApply)
          HasEvidence = true;
      if (const gilsonite::Spec *Sp = Specs.lookup(Name)) {
        std::set<std::string> SpecPreds;
        collectPredNames(Sp->Pre, SpecPreds);
        collectPredNames(Sp->Post, SpecPreds);
        // An inductive predicate in the spec is the usual decreasing
        // structure (the proof recurses over its unfolding).
        if (!SpecPreds.empty())
          HasEvidence = true;
      }
      if (HasEvidence)
        break;
    }
    if (HasEvidence)
      continue;
    // One finding per cycle, pinned to the least member so the report is
    // deterministic whatever order the SCC was discovered in.
    std::string Cycle;
    for (const std::string &Name : S.Members) {
      if (!Cycle.empty())
        Cycle += ", ";
      Cycle += Name;
    }
    Diagnostic D;
    D.Code = code::RecursionNoVariant;
    D.Sev = codeSeverity(D.Code);
    D.Entity = S.Members.front();
    D.Message = "recursive cycle {" + Cycle +
                "} has no decreasing argument: no lemma application in any "
                "body and no inductive predicate in any spec of the cycle";
    D.Notes.push_back(
        "termination-sensitive proofs need a variant: apply a decreasing "
        "lemma in the cycle or specify a member against an inductive "
        "predicate");
    DE.report(std::move(D));
  }
}
