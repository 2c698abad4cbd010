//===- engine/Verifier.cpp --------------------------------------------------------===//

#include "engine/Verifier.h"

#include "solver/Flight.h"
#include "support/Deps.h"

#include <chrono>

using namespace gilr;
using namespace gilr::engine;

analysis::AnalysisInput gilr::engine::lintInput(VerifEnv &Env) {
  analysis::AnalysisInput In;
  In.Prog = &Env.Prog;
  In.Preds = &Env.Preds;
  In.Specs = &Env.Specs;
  In.Solv = &Env.Solv;
  In.LemmaNames = Env.Lemmas.names();
  In.Cfg = Env.Lint;
  return In;
}

VerifyReport gilr::engine::lintBlockedReport(const std::string &Func,
                                             const analysis::EntityVerdict &V) {
  VerifyReport R;
  R.Func = Func;
  R.Ok = false;
  R.LintBlocked = true;
  R.Diags = V.Diags;
  uint64_t NErrors = 0;
  for (const analysis::Diagnostic &D : V.Diags)
    NErrors += D.Sev == analysis::Severity::Error;
  R.Errors.push_back("rejected by pre-verification analysis (" +
                     std::to_string(NErrors) +
                     " error diagnostic(s)); symbolic execution skipped");
  for (const analysis::Diagnostic &D : V.Diags)
    if (D.Sev == analysis::Severity::Error)
      R.Errors.push_back(D.str());
  return R;
}

unsigned gilr::engine::countGhostAnnotations(const rmir::Function &F) {
  unsigned Count = 0;
  for (const rmir::BasicBlock &B : F.Blocks)
    for (const rmir::Statement &S : B.Stmts)
      if (S.Kind == rmir::Statement::GhostStmt)
        ++Count;
  return Count;
}

VerifyReport Verifier::verifyFunction(const std::string &FuncName) {
  VerifyReport Report;
  Report.Func = FuncName;

  // Program::lookup is a header inline, so note the body dependency here:
  // the obligation depends on its own function's RMIR.
  deps::note(deps::Kind::Function, FuncName);
  const rmir::Function *F = Env.Prog.lookup(FuncName);
  if (!F) {
    Report.Errors.push_back("unknown function " + FuncName);
    return Report;
  }
  const gilsonite::Spec *S = Env.Specs.lookup(FuncName);
  if (!S) {
    Report.Errors.push_back("no spec registered for " + FuncName);
    return Report;
  }
  if (S->Trusted) {
    // Trusted specs are axioms (e.g. the conclusion lemma of a borrow
    // extraction, §4.3, or an axiomatised std contract): assumed, not
    // verified.
    Report.Ok = true;
    Report.Errors.push_back("trusted spec: assumed without verification");
    return Report;
  }
  Report.GhostAnnotations = countGhostAnnotations(*F);

  GILR_TRACE_SCOPE_D("verify", "function", FuncName);
  // Flight-recorder provenance: queries below belong to this obligation on
  // the unsafe/Gillian side.
  flight::ObligationScope FlightScope(FuncName, 'U');
  // Thread-local snapshot: attributes exactly this job's solver work, even
  // while other scheduler workers run queries concurrently.
  SolverStats Before = metrics::threadSolverStats();
  std::vector<trace::PhaseStat> PhasesBefore;
  if (trace::enabled())
    PhasesBefore = trace::phases();

  auto Start = std::chrono::steady_clock::now();
  Executor Exec(Env);
  ExecResult R = Exec.run(*F, *S);
  auto End = std::chrono::steady_clock::now();

  Report.Ok = R.Ok;
  Report.Seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(End - Start)
          .count();
  Report.PathsCompleted = R.PathsCompleted;
  Report.StatesExplored = R.StatesExplored;
  Report.Errors = R.Errors;
  Report.TimedOut = R.BudgetExhausted;
  Report.Solver = metrics::threadSolverStats() - Before;
  if (trace::enabled())
    Report.Phases = trace::diffPhases(PhasesBefore, trace::phases());
  return Report;
}
