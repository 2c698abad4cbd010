//===- incr/Session.h - One incremental verification session ---------------===//
///
/// \file
/// The orchestration point of incremental verification: owns the proof
/// store and the dependency graph for one run, answers the scheduler's
/// "is this obligation's cached verdict still valid?" question, and records
/// fresh results. An obligation's cached verdict is reused iff
///
///   * the store holds a record for it,
///   * the configuration fingerprint (automation knobs + solver budget)
///     matches,
///   * its own entity's fingerprint matches, and
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
/// is justified by implication queries through the solver chain — prove
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
#include "incr/ProofStore.h"
#include "incr/SpecDiff.h"

#include <memory>
#include <mutex>

namespace gilr {
namespace incr {

/// Knobs of incremental verification. Off by default: a default-constructed
/// config makes the drivers behave exactly as before.
struct IncrConfig {
  /// Master switch; when false the overloads fall through to the plain
  /// scheduler path and never touch the disk.
  bool Enabled = false;
  /// The proof-store file. Created on first flush; a missing or corrupt
  /// file means a cold run, never an error.
  std::string StorePath;
  /// Pre-warm the scheduler's QueryCache shards with the persisted solver
  /// entries.
  bool LoadSolverCache = true;
  /// Persist the QueryCache contents at the end of the run.
  bool SaveSolverCache = true;
  /// Use the store without writing it back (e.g. CI replay).
  bool ReadOnly = false;
  /// Clause-level semantic salvage across spec edits (incr/SpecDiff.h).
  /// Off = blanket invalidation: any dependency fingerprint change
  /// re-verifies the dependent, the pre-salvage behaviour (the baseline
  /// bench_incr measures the edit-to-verdict speedup against).
  bool SemanticSalvage = true;
  /// Shared content-addressed cache directory (incr/CacheBackend.h), the
  /// second cache level behind the local store: local misses consult it,
  /// fresh and salvaged verdicts are published to it. Empty = no shared cache. The
  /// session owns the backend; ReadOnly above also makes it read-only.
  std::string SharedCacheDir;
  /// Size budget of the shared directory in bytes, enforced by its LRU GC
  /// at flush time (0 = unlimited).
  uint64_t SharedCacheBudgetBytes = 0;
  /// Externally owned backend, overriding SharedCacheDir — the gilrd
  /// daemon shares one resident backend across requests. Non-owning: the
  /// session never flushes it (the owner runs GC on its own schedule), but
  /// pins every key the run touches so a host-driven GC cannot evict them
  /// mid-run.
  CacheBackend *Backend = nullptr;
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
  /// Obligations the triage tier discharged statically (summary proves them
  /// trivially safe; the executor never ran). Bumped by the scheduler, not
  /// the session.
  uint64_t TriagedStatic = 0;
  /// Store records found but rejected because a fingerprint changed.
  uint64_t Invalidated = 0;
  /// Obligations replayed although a dependency fingerprint moved, because
  /// the edit touched no clause the proof relied on (zero solver work) /
  /// because the salvage implications held. Both also count in cached().
  uint64_t Salvaged = 0;
  uint64_t Implied = 0;
  /// Solver queries spent discharging salvage implications.
  uint64_t SalvageQueries = 0;
  /// Load-time store compaction rewrites (superseded append-log records or
  /// a torn tail dropped).
  uint64_t Compactions = 0;
  /// Verdicts replayed from the shared content-addressed backend after a
  /// local-store miss (also counted in cached()/CachedLint), and fresh
  /// verdicts published to it.
  uint64_t SharedHits = 0;
  uint64_t SharedPuts = 0;
  bool StoreLoaded = false;
  bool StoreTruncated = false;

  uint64_t cached() const { return CachedUnsafe + CachedSafe; }
  uint64_t verified() const { return VerifiedUnsafe + VerifiedSafe; }
  uint64_t salvaged() const { return Salvaged + Implied; }
};

class Session {
public:
  /// Loads the store (if any). \p Contracts may be null for unsafe-only
  /// runs (engine::Verifier::verifyAll); Contract deps then never validate
  /// unless absent from the record.
  Session(const IncrConfig &Cfg, engine::VerifEnv &Env,
          const creusot::PearliteSpecTable *Contracts);

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Returns true and fills \p Out (with \c Cached set) when the store
  /// holds a still-valid verdict for unsafe obligation \p Func.
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
  /// invalidating proofs, and vice versa.
  bool lookupLint(const std::string &Func, analysis::EntityVerdict &Out);
  void recordLint(const std::string &Func, const std::set<DepKey> &Deps,
                  const analysis::EntityVerdict &V);

  /// Bumps the static-triage counter (the scheduler's triage tier reports
  /// through the session so the counters travel with the run stats).
  void noteTriagedStatic();

  /// The persisted solver-cache entries to pre-warm the QueryCache with
  /// (empty when LoadSolverCache is off or the store had none).
  std::vector<SavedQueryVerdict> solverEntriesToLoad() const;

  /// Hands the run's QueryCache contents to the store (no-op when
  /// SaveSolverCache is off).
  void saveSolverEntries(std::vector<SavedQueryVerdict> Entries);

  /// Writes the store back (atomic rename). No-op (success) when ReadOnly.
  bool flush();

  const IncrRunStats &stats() const { return Stats; }
  const DepGraph &graph() const { return Graph; }
  const IncrConfig &config() const { return Cfg; }
  const ProofStore &store() const { return Store; }
  /// The shared cache backend in use (configured or owned), or nullptr.
  CacheBackend *backend() const { return Remote; }

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
  DepsVerdict checkDeps(const StoredObligation &Ob, char FlightSide);
  std::vector<StoredDep> snapshotDeps(const std::set<DepKey> &Deps);
  /// Consults the shared backend for (S, Name) under the *current*
  /// fingerprints and pins the key for the run. False on miss or when no
  /// backend is configured; a hit still goes through checkDeps.
  bool fetchShared(Side S, const std::string &Name, uint64_t SelfFp,
                   uint64_t CfgFp, StoredObligation &Out);
  /// Publishes \p Ob to the shared backend (no-op without one).
  void publishShared(const StoredObligation &Ob);
  /// Re-records a salvaged obligation under the current fingerprints (same
  /// blob) in the local store and the shared backend, so the next run takes
  /// the plain warm path. Invalidates \p Ob.
  void refreshRecord(const StoredObligation &Ob, uint64_t SelfFp,
                     const std::set<DepKey> &DepKeys);

  IncrConfig Cfg;
  engine::VerifEnv &Env;
  const creusot::PearliteSpecTable *Contracts;
  ProofStore Store;
  /// SharedCacheDir-owned backend (flushed by this session) — Remote
  /// points at it, or at the externally owned Cfg.Backend.
  std::unique_ptr<CacheBackend> OwnedRemote;
  CacheBackend *Remote = nullptr;
  DepGraph Graph;
  IncrRunStats Stats;
  uint64_t ConfigFp = 0;
  uint64_t LintConfigFp = 0;
  std::mutex Mu;
  std::map<DepKey, uint64_t> FpMemo;
  std::map<DepKey, EntitySig> SigMemo;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_SESSION_H
