//===- solver/Solver.h - SMT-lite solver facade ----------------------------===//
///
/// \file
/// The entailment/satisfiability oracle used by every component of the
/// verifier, standing in for Z3 (see DESIGN.md). The architecture is a small
/// DPLL(T): boolean structure is explored by case-splitting; each branch's
/// literal set is checked by the theory stack (sequence facts, congruence
/// closure with constructor reasoning, Fourier–Motzkin linear arithmetic,
/// lifetime-inclusion closure).
///
/// Soundness contract: \c Unsat answers are proofs; \c Sat answers may be
/// approximate ("no conflict found"), which is the safe direction for
/// verification — an entailment that cannot be proved fails the proof rather
/// than admitting it.
///
/// One query, in order (\c checkSat; \c entails delegates to it):
///   1. simplify the assertions;
///   2. when the proof flight recorder (solver/Flight.h) times queries,
///      \c flight::beginQuery stamps the query's provenance and starts the
///      clock;
///   3. look the query up in the solver's \c QueryMemo, if it has one
///      (\c Solver::Memo; the scheduler points it at its sharded
///      QueryCache, src/sched/, for the duration of a run), replaying the
///      stored work on a hit; on a miss, run the DPLL(T) search and memoise
///      its verdict;
///   4. when timing, \c flight::endQuery records the timing sample and,
///      when journaling, a replayable journal record.
/// Cache-served and searched queries are thus timed and journaled alike.
/// Only definite \c Sat / \c Unsat verdicts are ever memoised — \c Unknown
/// results (budget or depth exhaustion) are recomputed every time — so a
/// cached answer is always the answer the full search would produce. With
/// the recorder off (the default) steps 2 and 4 cost a relaxed flag load.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_SOLVER_H
#define GILR_SOLVER_SOLVER_H

#include "solver/SeqTheory.h"
#include "support/Metrics.h"
#include "sym/Expr.h"

#include <cstdint>
#include <vector>

namespace gilr {

enum class SatResult { Sat, Unsat, Unknown };

/// A memoised query verdict plus the DPLL work the original computation
/// performed. On a hit the work counts are replayed into the thread-local
/// job statistics so a job's report is identical whether its queries were
/// computed or served from the cache (identical queries do identical work).
struct QueryVerdict {
  SatResult R = SatResult::Unknown;
  uint64_t Branches = 0;
  uint64_t TheoryChecks = 0;
};

/// One memo entry as an exchangeable value: the (stable) fingerprint pair
/// plus the verdict. The incremental proof store persists vectors of these
/// and the scheduler's QueryCache exports/preloads them to round-trip the
/// cache across processes.
struct SavedQueryVerdict {
  uint64_t Fp = 0;
  uint64_t Fp2 = 0;
  QueryVerdict V;
};

/// Abstract memo consulted by \c Solver::checkSat before the DPLL search.
/// Implementations must be thread-safe; the scheduler's sharded LRU cache
/// (sched/QueryCache.h) is the production one. \p Fp is the normalized
/// (order-insensitive) structural fingerprint of the query; \p Fp2 an
/// independent check hash guarding against fingerprint collisions.
class QueryMemo {
public:
  virtual ~QueryMemo() = default;
  virtual bool lookup(uint64_t Fp, uint64_t Fp2, QueryVerdict &Out) = 0;
  virtual void insert(uint64_t Fp, uint64_t Fp2, const QueryVerdict &V) = 0;

  /// When true, \c Solver::checkSat keys this memo with
  /// \c stableQueryFingerprint instead of \c satQueryFingerprint. Stable
  /// keys are required whenever entries outlive the process (the
  /// incremental proof store persists them): CanonIds are assigned in
  /// interning order, which is racy under the parallel scheduler, so a
  /// CanonId-based key pair from one process could systematically collide
  /// with a *different* query's pair in the next — not a random collision
  /// but a reproducible unsound hit. The stable fingerprint depends only on
  /// expression structure (sym::exprStableHash).
  virtual bool wantsStableKeys() const { return false; }
};

/// Computes the memo fingerprint of a checkSat query over the simplified
/// assertion set \p Work: assertions are mapped to their intern CanonIds,
/// sorted for order-insensitivity, and hashed *positionally* — unlike a
/// commutative sum, two different multisets of ids cannot cancel into the
/// same value.
/// \p Fp2 receives an independently mixed hash of the same sequence.
void satQueryFingerprint(const std::vector<Expr> &Work, unsigned MaxBranches,
                         uint64_t &Fp, uint64_t &Fp2);

/// The pure core of \c satQueryFingerprint over an already-sorted id
/// sequence; exposed separately so tests can exercise collision behaviour
/// on crafted id multisets.
void satFingerprintFromIds(const std::vector<uint64_t> &SortedIds,
                           unsigned MaxBranches, uint64_t &Fp, uint64_t &Fp2);

/// Process-stable variant of \c satQueryFingerprint: identical sort-and-
/// hash-positionally construction, but assertions are identified by
/// \c exprStableHash rather than by their process-local intern CanonIds, so
/// the resulting key pair is reproducible across processes and safe to
/// persist (see \c QueryMemo::wantsStableKeys).
void stableQueryFingerprint(const std::vector<Expr> &Work,
                            unsigned MaxBranches, uint64_t &Fp,
                            uint64_t &Fp2);

/// The SMT-lite decision engine. Keeps no state between queries beyond its
/// configuration (\c MaxBranches, \c Memo); statistics live in the
/// process-wide metrics registry (see support/Metrics.h) and are mirrored
/// into a thread-local instance for per-job attribution, so they survive
/// across the many Solver instantiations in engine/, creusot/ and the
/// harnesses. Callers wanting a per-phase delta snapshot the thread-local
/// stats before and after (SolverStats::operator-).
class Solver {
public:
  /// Checks the conjunction of \p Assertions for satisfiability.
  SatResult checkSat(const std::vector<Expr> &Assertions);

  /// True iff Ctx /\ not Goal is unsatisfiable (a proof of entailment).
  bool entails(const std::vector<Expr> &Ctx, const Expr &Goal);

  /// Entailment of a conjunction of goals.
  bool entailsAll(const std::vector<Expr> &Ctx,
                  const std::vector<Expr> &Goals);

  /// True iff Ctx is *not* proven unsatisfiable (the branch is viable).
  bool consistent(const std::vector<Expr> &Ctx) {
    return checkSat(Ctx) != SatResult::Unsat;
  }

  /// The process-wide solver statistics.
  SolverStats &stats() { return metrics::solverStats(); }
  const SolverStats &stats() const { return metrics::solverStats(); }

  /// Maximum number of DPLL branches explored per query before giving up.
  /// Part of the memo fingerprint: queries under different budgets never
  /// share cache entries.
  unsigned MaxBranches = 50000;

  /// The memo \c checkSat consults before the search (nullptr: none). Not
  /// owned; it must outlive every query issued while it is set. Workers of
  /// one run share the solver, so the memo must be thread-safe.
  QueryMemo *Memo = nullptr;

private:
  /// The DPLL(T) search over the simplified assertions \p Work: its verdict
  /// and the branches and theory checks it took.
  QueryVerdict search(const std::vector<Expr> &Work);

  SatResult solveRec(std::vector<Expr> Work, std::vector<Literal> Lits,
                     unsigned Depth, unsigned &Budget);
  SatResult theoryCheck(const std::vector<Literal> &Lits, unsigned &Budget);
  SatResult baseTheoryCheck(const std::vector<Literal> &Lits);
};

} // namespace gilr

#endif // GILR_SOLVER_SOLVER_H
