//===- engine/Verifier.h - The verification driver --------------------------===//
///
/// \file
/// Verifies one function against its spec with one Executor run, with
/// wall-clock timing and annotation counting so that the evaluation tables
/// of the paper (§6) can be regenerated by the benchmark harness. Whole-run
/// verification (\c Verifier::verifyAll) goes through the proof scheduler
/// (sched/Scheduler.h), which defines every verifyAll overload.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_ENGINE_VERIFIER_H
#define GILR_ENGINE_VERIFIER_H

#include "analysis/Analysis.h"
#include "engine/Executor.h"
#include "support/Metrics.h"
#include "support/Trace.h"

namespace gilr {
namespace sched {
struct SchedulerConfig;
} // namespace sched
namespace incr {
struct IncrConfig;
struct IncrRunStats;
} // namespace incr

namespace engine {

/// Result of verifying one function.
struct VerifyReport {
  std::string Func;
  bool Ok = false;
  /// The proof job's budget (wall-clock or branch cap) ran out: the result
  /// is Unknown rather than a definite failure.
  bool TimedOut = false;
  /// The verdict was replayed from a persistent incremental proof store
  /// (incr/Session.h) instead of being re-proved.
  bool Cached = false;
  double Seconds = 0.0;
  unsigned PathsCompleted = 0;
  unsigned StatesExplored = 0;
  /// Ghost statements in the function body (the paper's annotation-count
  /// metric: §6 reports which functions need extra annotations).
  unsigned GhostAnnotations = 0;
  std::vector<std::string> Errors;
  /// Solver work attributable to this function (After - Before snapshot of
  /// the thread-local stats; see support/Metrics.h — exact even when other
  /// scheduler workers run queries concurrently).
  SolverStats Solver;
  /// Per-phase wall-time breakdown (only populated when tracing is on;
  /// rendered by trace::phaseReportText).
  std::vector<trace::PhaseStat> Phases;
  /// Findings of the pre-verification analysis for this entity (attached by
  /// the verifyAll / HybridDriver paths; empty when the pre-pass is off).
  std::vector<analysis::Diagnostic> Diags;
  /// The pre-pass rejected this entity (error-severity findings under
  /// FailOnError): Ok is false and the Executor never ran.
  bool LintBlocked = false;
  /// Always false: every verdict comes from the Executor or the proof
  /// store. Kept for code that still reads it.
  bool Static = false;
};

/// Builds the pre-verification analysis input over \p Env (the analysis
/// layer cannot see VerifEnv or LemmaTable — see analysis/Analysis.h).
analysis::AnalysisInput lintInput(VerifEnv &Env);

/// The failed report for an entity the pre-pass rejected: diagnostics
/// attached, no Executor run.
VerifyReport lintBlockedReport(const std::string &Func,
                               const analysis::EntityVerdict &V);

/// The verification driver.
class Verifier {
public:
  explicit Verifier(VerifEnv &Env) : Env(Env) {}

  /// Verifies \p FuncName against its registered spec.
  VerifyReport verifyFunction(const std::string &FuncName);

  /// Verifies each function in \p Names through the proof scheduler with
  /// its default configuration (one thread, the entailment memo on).
  /// Reports come back in input order. Defined in sched/Scheduler.cpp, as
  /// are the overloads below.
  std::vector<VerifyReport> verifyAll(const std::vector<std::string> &Names);

  /// Same, under \p Config (parallel workers, entailment cache, per-job
  /// budgets — see sched/Scheduler.h).
  std::vector<VerifyReport> verifyAll(const std::vector<std::string> &Names,
                                      const sched::SchedulerConfig &Config);

  /// Same, with incremental verification: still-valid persisted verdicts
  /// are replayed from the proof store (marked Cached), the rest proved
  /// and recorded. A plain scheduled run when Inc.Enabled is false.
  std::vector<VerifyReport> verifyAll(const std::vector<std::string> &Names,
                                      const sched::SchedulerConfig &Config,
                                      const incr::IncrConfig &Inc,
                                      incr::IncrRunStats *StatsOut = nullptr);

  VerifEnv &env() { return Env; }

  /// The pre-verification analysis result of the most recent verifyAll run
  /// (a default/disabled result before any run or when Env.Lint.Enabled is
  /// off). verifyFunction does not update it — the pre-pass is a whole-run
  /// concern.
  const analysis::AnalysisResult &lastAnalysis() const { return LastAnalysis; }

private:
  VerifEnv &Env;
  analysis::AnalysisResult LastAnalysis;
};

/// Counts ghost statements in \p F (the annotation metric of §6).
unsigned countGhostAnnotations(const rmir::Function &F);

} // namespace engine
} // namespace gilr

#endif // GILR_ENGINE_VERIFIER_H
