//===- solver/Replay.h - Offline journal replay ----------------------------===//
///
/// \file
/// Re-runs a recorded query journal (solver/Journal.h) against the in-tree
/// solver and diffs the verdicts — the offline half of the proof flight
/// recorder, driven by the \c gilr-replay tool.
///
/// Replay semantics: each \c query record's assertion set is re-solved from
/// scratch under the recorded DPLL budget, with the flight recorder paused
/// and by a fresh solver with no query memo, so the replay is a pure
/// function of the journal. Verdict comparison is asymmetric by design:
///
///  - a recorded \b definite verdict (sat/unsat) that replays differently
///    is a \b divergence — the solver or the journal codec changed meaning;
///  - a recorded \b unknown that replays definite counts as \b improved,
///    not divergent: Unknown records budget/scheduler exhaustion, which a
///    quieter replay machine may legitimately get past.
///
/// \c cached records carry no query to re-run; they are counted so the
/// replay summary accounts for every obligation of the original run.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_REPLAY_H
#define GILR_SOLVER_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

namespace gilr {
namespace replay {

struct ReplayOptions {
  /// Replay only records of this obligation ("" = all).
  std::string ObligationFilter;
  /// Replay only the N slowest recorded queries (0 = all).
  std::size_t SlowestN = 0;
  /// Hard cap on replayed queries after filtering (0 = no cap).
  std::size_t Limit = 0;
};

/// One verdict mismatch between the journal and the replay.
struct Divergence {
  std::string Obligation;
  char Side = '?';
  uint32_t QueryIdx = 0;
  uint8_t Recorded = 2; ///< 0 Sat, 1 Unsat, 2 Unknown.
  uint8_t Replayed = 2;
};

struct ReplayResult {
  bool HeaderOk = false;
  std::vector<std::string> ParseErrors;

  std::size_t TotalQueries = 0;  ///< Query records in the journal.
  std::size_t CachedRecords = 0; ///< Incremental-store cached records.
  std::size_t Replayed = 0;      ///< Queries actually re-solved.
  std::size_t Matches = 0;
  std::size_t Improved = 0; ///< Recorded unknown, replayed definite.
  /// Re-simplified assertion sets whose stable fingerprint no longer equals
  /// the recorded one. Informational (simplifier drift), never gating.
  std::size_t FpMismatches = 0;

  uint64_t RecordedNs = 0; ///< Summed recorded durations of replayed set.
  uint64_t ReplayNs = 0;   ///< Summed replay durations.

  std::vector<Divergence> Divergences;

  /// True iff the journal parsed cleanly and no definite verdict diverged.
  bool ok() const {
    return HeaderOk && ParseErrors.empty() && Divergences.empty();
  }
};

/// Replays the journal in \p Text. Pure: consults no memo, pauses the
/// flight recorder, leaves no state behind.
ReplayResult replayJournalText(const std::string &Text,
                               const ReplayOptions &O = {});

/// Renders a human-readable replay summary (the gilr-replay output).
std::string summaryText(const ReplayResult &R);

} // namespace replay
} // namespace gilr

#endif // GILR_SOLVER_REPLAY_H
