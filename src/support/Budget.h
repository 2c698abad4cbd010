//===- support/Budget.h - Cooperative per-job proof budgets ----------------===//
///
/// \file
/// Thread-local budget for one proof job: a wall-clock deadline and a cap
/// on DPLL branches. The scheduler (src/sched/) arms the budget before
/// running a job on a worker thread; the solver and the symbolic executor
/// poll \c exceeded() at their natural re-entry points and degrade to an
/// Unknown/aborted result instead of stalling the run's threads on a
/// pathological obligation.
///
/// Cost model: \c exceeded() is a thread-local flag check plus a branch
/// count comparison; the clock is only sampled every 64th call, so polling
/// from the solver's branch loop is safe.
///
/// Soundness: an exhausted budget only ever turns an answer into "don't
/// know" — the solver reports \c Unknown (which fails entailments, the safe
/// direction) and such results are never memoised by the query cache.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SUPPORT_BUDGET_H
#define GILR_SUPPORT_BUDGET_H

#include <cstdint>
#include <string>

namespace gilr {
namespace budget {

/// Arms the calling thread's job budget. \p WallNs is the allowed
/// wall-clock time from now (0 = unlimited); \p BranchCap caps the DPLL
/// branches the job may explore from this point (0 = unlimited). Clears any
/// sticky exhaustion from a previous job.
void begin(uint64_t WallNs, uint64_t BranchCap);

/// Disarms the budget (the thread returns to unlimited).
void clear();

/// True iff a budget is armed on this thread.
bool active();

/// True iff the armed budget is exhausted. Sticky: once it fires it keeps
/// returning true until \c begin or \c clear.
bool exceeded();

/// True iff the budget fired at any point since the last \c begin. Survives
/// \c clear so the scheduler can classify the finished job as Unknown.
bool wasExceeded();

/// Human-readable description of what fired ("wall-clock", "branch cap"),
/// empty if nothing did.
std::string describe();

/// RAII guard: arms on construction, disarms on destruction.
class JobScope {
public:
  JobScope(uint64_t WallNs, uint64_t BranchCap) { begin(WallNs, BranchCap); }
  ~JobScope() { clear(); }
  JobScope(const JobScope &) = delete;
  JobScope &operator=(const JobScope &) = delete;
};

} // namespace budget
} // namespace gilr

#endif // GILR_SUPPORT_BUDGET_H
