//===- solver/Flight.h - Proof flight recorder ------------------------------===//
///
/// \file
/// The proof flight recorder: per-query timing and a replayable query
/// journal, implemented as decorator layers of the solver chain
/// (SolverChain.h). Both are off by default and cost one relaxed atomic
/// load per query when disabled.
///
/// \b TimingSolver wraps the memo layer, clocks every query (cache-served
/// or searched), and feeds the process-wide \c SolverQueriesReport in the
/// metrics registry: totals, a log2 latency histogram and the slowest-N
/// queries with provenance.
///
/// \b QueryJournalSolver additionally records every query — assertion set,
/// provenance, verdict, work counters, duration, cache marker — into an
/// in-memory buffer, rendered as a \c GILRJRN2 journal (solver/Journal.h)
/// only when the journal is read or written at exit. Obligations whose verdicts the incremental proof
/// store replays without solving are marked with \c cached records via
/// \c noteCachedObligation, so the journal accounts for every obligation of
/// a warm run. The rendered journal is deterministically ordered by
/// (obligation, side, query index) — a 4-worker run and a serial run of the
/// same input produce the same record sequence (only timings differ).
///
/// Provenance comes from \c ObligationScope, an RAII marker the verifiers
/// (engine/, creusot/, analysis/) open around each obligation; queries
/// outside any scope journal with an empty obligation name.
///
/// Configuration: programmatic via \c configure(), or from the environment
/// on the first enabled-check (any binary, including the test runners,
/// honours these without code changes):
///
///   GILR_TIMING=1         enable the timing layer only.
///   GILR_JOURNAL=<path>   enable timing + journal; the journal is written
///                         to <path> at exit ("%p" expands to the pid).
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_FLIGHT_H
#define GILR_SOLVER_FLIGHT_H

#include "solver/SolverChain.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace gilr {
namespace flight {

struct Options {
  bool Timing = false;
  bool Journal = false; ///< Implies Timing (the journal needs durations).
  std::string JournalFile; ///< "" keeps the journal in memory only.
};

namespace detail {
/// Bit 0: timing, bit 1: journal; 0xFF: not yet configured (first
/// enabled-check initialises from the environment).
extern std::atomic<uint8_t> Flags;
uint8_t initFromEnvSlow();
/// Depth of Pause scopes on this thread. Defined inline, so every use sees
/// its constant initializer: an extern thread_local is reached through a
/// TLS wrapper function that UBSan reports as a null load.
inline thread_local unsigned PauseDepth = 0;

inline uint8_t flags() {
  uint8_t F = Flags.load(std::memory_order_relaxed);
  if (F == 0xFF)
    F = initFromEnvSlow();
  return PauseDepth ? 0 : F;
}
} // namespace detail

/// True iff the timing layer is active (and this thread is not paused).
inline bool timingEnabled() { return detail::flags() & 1; }

/// True iff the journal layer is active (and this thread is not paused).
inline bool journalEnabled() { return detail::flags() & 2; }

/// True iff any recorder layer is active.
inline bool enabled() { return detail::flags() != 0; }

/// (Re)configures the recorder explicitly, overriding the environment, and
/// clears the journal buffer (a fresh recording session).
void configure(const Options &O);

/// Reads GILR_TIMING / GILR_JOURNAL and configures accordingly. Called
/// implicitly on the first enabled-check; explicit calls re-read the
/// environment.
void configureFromEnv();

/// Disables both layers and clears the journal buffer (for tests).
void reset();

/// RAII provenance marker: queries issued on this thread while the scope is
/// open are attributed to obligation \p Name on side \p Side ('U' Gillian/
/// unsafe, 'S' Creusot/safe, 'L' analysis lint). Scopes nest; the inner
/// scope wins and the outer numbering resumes on restore.
class ObligationScope {
public:
  ObligationScope(std::string Name, char Side);
  ~ObligationScope();

  ObligationScope(const ObligationScope &) = delete;
  ObligationScope &operator=(const ObligationScope &) = delete;

private:
  std::string PrevName;
  char PrevSide;
  uint32_t PrevNextIdx;
};

/// RAII recorder suppression for the current thread. The replay tool runs
/// logged queries under a Pause so the replay itself is neither timed nor
/// re-journaled.
class Pause {
public:
  Pause() { ++detail::PauseDepth; }
  ~Pause() { --detail::PauseDepth; }
  Pause(const Pause &) = delete;
  Pause &operator=(const Pause &) = delete;
};

/// Journals a \c cached record: obligation \p Name on side \p Side was
/// short-circuited by the incremental proof store with verdict \p Ok — no
/// solver queries ran. No-op when journaling is off.
void noteCachedObligation(const std::string &Name, char Side, bool Ok);

/// The timing decorator. Records duration, provenance and outcome of every
/// query into the metrics registry's SolverQueriesReport.
class TimingSolver final : public SolverLayer {
public:
  explicit TimingSolver(SolverLayer &Next) : Next(Next) {}
  ChainOutcome solve(const ChainQuery &Q) override;

private:
  SolverLayer &Next;
};

/// The journal decorator. Must sit directly above a TimingSolver (it reads
/// the provenance and duration that layer recorded for the same query).
class QueryJournalSolver final : public SolverLayer {
public:
  explicit QueryJournalSolver(SolverLayer &Next) : Next(Next) {}
  ChainOutcome solve(const ChainQuery &Q) override;

private:
  SolverLayer &Next;
};

/// Renders the buffered journal (header + deterministically ordered
/// records).
std::string journalText();

/// Number of buffered journal records / records dropped at the buffer cap.
uint64_t journalRecordCount();
uint64_t journalDroppedCount();

/// Writes the journal to the configured file (no-op returning true when no
/// file is configured). Registered atexit when GILR_JOURNAL is set.
bool flushJournal();

} // namespace flight
} // namespace gilr

#endif // GILR_SOLVER_FLIGHT_H
