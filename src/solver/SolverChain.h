//===- solver/SolverChain.h - Layered checkSat decorator chain -------------===//
///
/// \file
/// The decorator interface \c Solver::checkSat routes every query through,
/// in the style of KLEE's solver chain (TimingSolver / QueryLoggingSolver /
/// CachingSolver stacked over the core). Layers are small stack objects
/// assembled per query; the memo table is the one \c Solver::Memo points
/// at, and the flight recorder's aggregates and journal buffer are
/// process-wide.
///
/// The chain, outermost first:
///
///   QueryJournalSolver   (solver/Flight.h, only when journaling is on)
///     TimingSolver       (solver/Flight.h, only when the recorder is on)
///       memo layer       (Solver::Memo, the scheduler's QueryCache)
///         core solver    (the DPLL(T) search, Solver.cpp)
///
/// The journal and timing layers sit *above* the memo so cache-served and
/// searched queries are both observed — journal records carry a cache
/// marker, and the timing layer attributes a hit's (tiny) lookup cost
/// rather than losing the query entirely.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_SOLVERCHAIN_H
#define GILR_SOLVER_SOLVERCHAIN_H

#include "sym/Expr.h"

#include <cstdint>
#include <vector>

namespace gilr {

enum class SatResult { Sat, Unsat, Unknown };

/// One checkSat query as it travels down the chain. \c Work is the
/// simplified assertion set; the stable fingerprint pair is computed on
/// first use and shared by the observing layers (the memo computes its own
/// key, which may differ — see QueryMemo::wantsStableKeys).
struct ChainQuery {
  const std::vector<Expr> &Work;
  unsigned MaxBranches;

  /// Lazily computed process-stable fingerprint (stableQueryFingerprint);
  /// valid once StableFpReady.
  mutable uint64_t StableFp = 0;
  mutable uint64_t StableFp2 = 0;
  mutable bool StableFpReady = false;

  /// The stable fingerprint pair, computing it on first call.
  void stableFingerprint(uint64_t &Fp, uint64_t &Fp2) const;
};

/// What a layer returns: the verdict, whether it was served by the memo,
/// and the DPLL work the (original) search performed. \c DurationNs is
/// filled in by the TimingSolver layer on the way out (0 when timing is
/// off).
struct ChainOutcome {
  SatResult R = SatResult::Unknown;
  bool CacheHit = false;
  uint64_t Branches = 0;
  uint64_t TheoryChecks = 0;
  uint64_t DurationNs = 0;
};

/// One link of the chain. Decorators hold a reference to the next layer
/// and forward, observing the query and/or the outcome.
class SolverLayer {
public:
  virtual ~SolverLayer() = default;
  virtual ChainOutcome solve(const ChainQuery &Q) = 0;
};

} // namespace gilr

#endif // GILR_SOLVER_SOLVERCHAIN_H
