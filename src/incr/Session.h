//===- incr/Session.h - One incremental verification session ---------------===//
///
/// \file
/// The orchestration point of incremental verification: opens the proof
/// store (the content-addressed directory of incr/CacheBackend.h) and owns
/// the dependency graph for one run, answers the scheduler's "is this
/// obligation's cached verdict still valid?" question, and records fresh
/// results. An obligation's cached verdict is reused iff
///
///   * the store holds a record under its key — side, name, its own
///     entity's current fingerprint and the current configuration
///     fingerprint (automation knobs + solver budget), and
///   * *every* recorded dependency's current fingerprint matches the one it
///     had when the proof ran.
///
/// Fingerprint comparisons are against the *current* tables, so editing one
/// lemma invalidates exactly the obligations whose proofs consulted it —
/// the dependency sets are closures (a proof consults everything it
/// transitively uses), so checking the directly recorded deps covers the
/// transitive case.
///
/// When a dependency's whole-entity fingerprint *has* moved, the session
/// does not give up immediately: it diffs the stored clause-level signature
/// against the current entity (incr/SpecDiff.h). An edit confined to
/// clauses the proof could not have relied on (reorders, doc strings)
/// revalidates with zero solver work ("salvaged"); an edit to pure clauses
/// is justified by implication queries through the run's solver — prove
/// new-spec => old-spec in the direction the use site requires — and keeps
/// the cached verdict when they hold ("implied"). Anything else falls back
/// to full re-verification. Lint verdicts never salvage: their rendered
/// diagnostics quote spec text, so they require strict equality.
///
/// Thread-safe: the scheduler's workers call lookup*/record* concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_SESSION_H
#define GILR_INCR_SESSION_H

#include "incr/CacheBackend.h"
#include "incr/DepGraph.h"
#include "incr/Fingerprint.h"
#include "incr/SpecDiff.h"

#include <functional>
#include <memory>
#include <mutex>
#include <optional>

namespace gilr {
namespace incr {

/// Knobs of incremental verification. Off by default: a default-constructed
/// config makes the drivers behave exactly as before.
struct IncrConfig {
  /// Master switch; when false the overloads fall through to the plain
  /// scheduler path and never touch the disk.
  bool Enabled = false;
  /// The proof-store directory (incr/CacheBackend.h), created on demand. A
  /// missing directory or a corrupt record means a cold run for what it
  /// held, never an error.
  std::string StorePath;
  /// Clause-level semantic salvage across spec edits (incr/SpecDiff.h).
  /// Off = blanket invalidation: any dependency fingerprint change
  /// re-verifies the dependent, the pre-salvage behaviour (the baseline
  /// bench_incr measures the edit-to-verdict speedup against).
  bool SemanticSalvage = true;
  /// Externally owned store, overriding StorePath — the gilrd daemon shares
  /// one resident backend across requests. Non-owning: the owner runs its
  /// GC, and only while no run uses the store (gilrd runs it after each
  /// run's flush when it has a size budget, and at shutdown).
  SharedDirBackend *Backend = nullptr;
};

/// Counters of one incremental run.
struct IncrRunStats {
  uint64_t CachedUnsafe = 0;
  uint64_t CachedSafe = 0;
  uint64_t VerifiedUnsafe = 0;
  uint64_t VerifiedSafe = 0;
  /// Pre-verification lint verdicts replayed from the store / computed
  /// fresh. Kept out of cached()/verified(), which count proof obligations.
  uint64_t CachedLint = 0;
  uint64_t AnalyzedLint = 0;
  /// Store records found under the obligation's key but rejected because a
  /// dependency fingerprint moved. A changed body or configuration changes
  /// the key itself, so it is a plain miss.
  uint64_t Invalidated = 0;
  /// Obligations replayed although a dependency fingerprint moved, because
  /// the edit touched no clause the proof relied on (zero solver work) /
  /// because the salvage implications held. Both also count in cached().
  uint64_t Salvaged = 0;
  uint64_t Implied = 0;
  /// Solver queries spent discharging salvage implications.
  uint64_t SalvageQueries = 0;
  /// Records written to the store (fresh verdicts and salvage refreshes).
  uint64_t SharedPuts = 0;

  uint64_t cached() const { return CachedUnsafe + CachedSafe; }
  /// Records replayed from the store, proof and lint verdicts alike.
  uint64_t sharedHits() const { return cached() + CachedLint; }
  uint64_t verified() const { return VerifiedUnsafe + VerifiedSafe; }
  uint64_t salvaged() const { return Salvaged + Implied; }
};

class Session {
public:
  /// Opens the store (Cfg.Backend, else a directory at Cfg.StorePath; with
  /// neither every lookup misses and nothing persists). \p Contracts may be
  /// null for unsafe-only runs (engine::Verifier::verifyAll); Contract deps
  /// then never validate unless absent from the record.
  Session(const IncrConfig &Cfg, engine::VerifEnv &Env,
          const creusot::PearliteSpecTable *Contracts);

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Returns true and fills \p Out (with \c Cached set) when the store
  /// holds a still-valid verdict for unsafe obligation \p Func. On a miss
  /// \p Out is unspecified (it may hold a rejected record's verdict); the
  /// same holds for lookupSafe and lookupLint.
  bool lookupUnsafe(const std::string &Func, engine::VerifyReport &Out);

  /// Records a freshly computed unsafe verdict with the dependencies its
  /// proof consulted. Budget-degraded (TimedOut) results are never cached.
  void recordUnsafe(const std::string &Func, const std::set<DepKey> &Deps,
                    const engine::VerifyReport &R);

  /// Safe-side counterparts (the obligation's own fingerprint is the
  /// client body's, which lives in no table).
  bool lookupSafe(const creusot::SafeFn &F, creusot::SafeReport &Out);
  void recordSafe(const creusot::SafeFn &F, const std::set<DepKey> &Deps,
                  const creusot::SafeReport &R);

  /// Pre-verification lint verdicts, cached like proofs but keyed by the
  /// analysis configuration fingerprint (incr::fpAnalysisConfig) instead of
  /// the automation one — toggling a lint knob re-lints without
  /// invalidating proofs, and vice versa — and by the function's spec
  /// fingerprint as well as its body's: two modules with the same body
  /// under different specs keep separate records.
  bool lookupLint(const std::string &Func, analysis::EntityVerdict &Out);
  void recordLint(const std::string &Func, const std::set<DepKey> &Deps,
                  const analysis::EntityVerdict &V);

  /// The solver-entry block the store holds, to pre-warm the QueryCache
  /// with (empty when it holds none or it does not decode).
  std::vector<SavedQueryVerdict> solverEntriesToLoad() const;

  /// Hands the run's QueryCache contents to the store; flush writes them
  /// as its solver-entry block.
  void saveSolverEntries(std::vector<SavedQueryVerdict> Entries);

  /// Writes the solver-entry block handed over since the last flush. The
  /// same entries as the stored block write nothing. Obligation records
  /// are written as the run produces them, so nothing else is pending, and
  /// the store's GC is not run here: without a size budget (a StorePath
  /// store has none) it would evict nothing. False on I/O failure.
  bool flush();

  const IncrRunStats &stats() const { return Stats; }
  const DepGraph &graph() const { return Graph; }
  const IncrConfig &config() const { return Cfg; }

  /// The current fingerprint of \p Key against the session's tables
  /// (memoised; a missing entity maps to a fixed sentinel, so "was missing
  /// then, still missing now" validates). Exposed for tests.
  uint64_t currentFp(const DepKey &Key);

  /// The current clause-level signature of \p Key (memoised; invalid for
  /// missing entities and for kinds without clause structure). Exposed for
  /// tests.
  const EntitySig &currentSig(const DepKey &Key);

private:
  /// Outcome of validating a stored obligation's dependency set.
  enum class DepsVerdict {
    Clean,    ///< Every fingerprint matches: plain warm hit.
    Salvaged, ///< Some moved, but no relied-on clause changed (zero work).
    Implied,  ///< Some moved; the salvage implications all held.
    Invalid,  ///< Re-verify.
  };
  DepsVerdict checkDeps(StoredObligation &Ob, char FlightSide);
  /// Gives the pure clauses of the stored signature \p Sig their formulas,
  /// parsing each distinct journal text once per session: every dependent
  /// of an edited spec carries the same old clauses. Mu held.
  void resolveFormulas(EntitySig &Sig);
  std::vector<StoredDep> snapshotDeps(const std::set<DepKey> &Deps);
  /// The own fingerprint of \p Func's lint record: its body and its spec.
  uint64_t lintSelfFp(const std::string &Func);
  /// The one lookup path of all three sides: fetches the record under (S,
  /// Name, SelfFp, the side's configuration fingerprint), validates its
  /// dependencies, hands its blob to \p Decode and, on a salvage, rewrites
  /// the record under the current dependency fingerprints so the next run
  /// takes the plain warm path. Takes Mu for the session state only: the
  /// store's file I/O runs outside it (the store has its own lock).
  bool lookup(Side S, const std::string &Name, uint64_t SelfFp,
              const std::function<bool(const std::string &)> &Decode);
  /// A record ready for the store: its key and bytes.
  struct PendingPut {
    CacheKey K;
    std::string Record;
  };
  /// Encodes the record of a verdict with the dependencies it consulted,
  /// under the current fingerprints, and counts the put (no store:
  /// nothing). Mu held; write() stores it once Mu is released.
  std::optional<PendingPut> encodeRecord(Side S, const std::string &Name,
                                         uint64_t SelfFp,
                                         const std::set<DepKey> &Deps,
                                         std::string Blob);
  /// Stores \p P (empty: a no-op). Mu not held.
  void write(const std::optional<PendingPut> &P);

  IncrConfig Cfg;
  engine::VerifEnv &Env;
  const creusot::PearliteSpecTable *Contracts;
  /// The StorePath directory this session opened — Store points at it, or
  /// at the externally owned Cfg.Backend.
  std::unique_ptr<SharedDirBackend> OwnedStore;
  SharedDirBackend *Store = nullptr;
  /// The encoded entries of the last saveSolverEntries, until flush.
  std::optional<std::string> SolverBlock;
  DepGraph Graph;
  IncrRunStats Stats;
  uint64_t ConfigFp = 0;
  uint64_t LintConfigFp = 0;
  std::mutex Mu;
  std::map<DepKey, uint64_t> FpMemo;
  std::map<DepKey, EntitySig> SigMemo;
  std::map<std::string, Expr> FormulaMemo;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_SESSION_H
