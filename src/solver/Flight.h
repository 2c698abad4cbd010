//===- solver/Flight.h - Proof flight recorder ------------------------------===//
///
/// \file
/// The proof flight recorder: per-query timing and a replayable query
/// journal. \c Solver::checkSat calls \c beginQuery before its memo lookup
/// and \c endQuery after the search, so cache-served and searched queries
/// are observed alike. Both halves are off by default and cost one relaxed
/// atomic load per query when disabled.
///
/// \b Timing clocks every query and feeds the process-wide
/// \c SolverQueriesReport in the metrics registry: totals, a log2 latency
/// histogram and the slowest-N queries with provenance.
///
/// \b Journaling additionally records every query — assertion set,
/// provenance, verdict, work counters, duration, cache marker — into an
/// in-memory buffer, rendered as a \c GILRJRN2 journal (solver/Journal.h)
/// only when the journal is read or written at exit. Obligations whose
/// verdicts the incremental proof store replays without solving are marked
/// with \c cached records via \c noteCachedObligation, so the journal
/// accounts for every obligation of a warm run. The rendered journal is
/// deterministically ordered by (obligation, side, query index) — a
/// 4-worker run and a serial run of the same input produce the same record
/// sequence (only timings differ).
///
/// Provenance comes from \c ObligationScope, an RAII marker the verifiers
/// (engine/, creusot/, analysis/) open around each obligation; queries
/// outside any scope journal with an empty obligation name.
///
/// Configuration: programmatic via \c configure(), or from the environment
/// on the first enabled-check (any binary, including the test runners,
/// honours these without code changes):
///
///   GILR_TRACE=text|json  tracing in any mode (support/Trace.h) also
///                         times solver queries.
///   GILR_JOURNAL=<path>   timing + journal; the journal is written to
///                         <path> at exit ("%p" expands to the pid).
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_FLIGHT_H
#define GILR_SOLVER_FLIGHT_H

#include "solver/Solver.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

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

/// True iff queries are timed (and this thread is not paused).
inline bool timingEnabled() { return detail::flags() & 1; }

/// True iff queries are journaled (and this thread is not paused).
inline bool journalEnabled() { return detail::flags() & 2; }

/// True iff any part of the recorder is on.
inline bool enabled() { return detail::flags() != 0; }

/// (Re)configures the recorder explicitly, overriding the environment, and
/// clears the journal buffer (a fresh recording session).
void configure(const Options &O);

/// Reads GILR_TRACE / GILR_JOURNAL and configures accordingly. Called
/// implicitly on the first enabled-check; explicit calls re-read the
/// environment.
void configureFromEnv();

/// Turns timing and the journal off and clears the journal buffer (for
/// tests).
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

/// A timed query's provenance and start time, as \c beginQuery stamped it.
struct QueryStamp {
  std::string Obligation;
  char Side = '?';
  uint32_t QueryIdx = 0;
  uint64_t StartNs = 0;
};

/// Starts timing a query: stamps it with the open ObligationScope's name,
/// side and next query index, and reads the clock. Call only when
/// \c timingEnabled().
QueryStamp beginQuery();

/// Ends the query \p S started: stops the clock, records the timing sample
/// into the metrics registry's SolverQueriesReport and, when journaling is
/// on, the journal record. \p Work is the simplified assertion set; \p V
/// the verdict with the work of the search that computed it (on a cache
/// hit, the original search's).
void endQuery(QueryStamp S, const std::vector<Expr> &Work,
              unsigned MaxBranches, const QueryVerdict &V, bool CacheHit);

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
