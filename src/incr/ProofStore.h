//===- incr/ProofStore.h - Persistent proof-result store -------------------===//
///
/// \file
/// The on-disk cache of the incremental verification subsystem: obligation
/// verdicts (full serialized reports, so a cached run reproduces the cold
/// run's report byte-for-byte) keyed by stable fingerprints, plus the
/// solver QueryCache entries of the producing run (keyed by the stable
/// query fingerprint) to pre-warm the sched shards.
///
/// Format (little-endian host widths, version 6; a file with any other
/// version loads as no store, i.e. a cold run, and the next writable flush
/// replaces it):
///
///   magic "GILRPRF1" | u32 version | u32 reserved
///   record*          where record = u8 type | u32 len | payload[len]
///                                 | u64 fnv1a(type ++ payload)
///
/// Record types: 1 = obligation (append-log semantics: on load, the *last*
/// record for an (side, name) pair wins), 2 = solver-entry block. Crash
/// safety: \c load verifies the header and every record checksum, stopping
/// at the first malformed/truncated record while keeping everything before
/// it — a torn write degrades to a partially warm run, never to an error or
/// a wrong verdict. \c flush appends only the records that changed since
/// load when the on-disk log is intact (cheap warm-loop writes; superseded
/// records accumulate and are dropped by a load-time compaction rewrite),
/// and otherwise writes a full snapshot to "<path>.tmp" and renames it over
/// the store atomically.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_PROOFSTORE_H
#define GILR_INCR_PROOFSTORE_H

#include "analysis/Analysis.h"
#include "creusot/SafeVerifier.h"
#include "engine/Verifier.h"
#include "incr/DepGraph.h"
#include "incr/SpecDiff.h"
#include "solver/Solver.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gilr {
namespace incr {

/// One recorded dependency: the entity and the fingerprint it had when the
/// proof ran, plus its clause-level signature so a later session can diff
/// the edit and attempt salvage (incr/SpecDiff.h).
struct StoredDep {
  deps::Kind K = deps::Kind::Function;
  std::string Name;
  uint64_t Fp = 0;
  /// Whether \c Sig below was recorded. False for entity kinds without
  /// clause structure (RMIR functions), which fall back to plain
  /// fingerprint equality.
  bool HasSig = false;
  EntitySig Sig;
};

/// One cached obligation verdict.
struct StoredObligation {
  Side S = Side::Unsafe;
  std::string Name;
  /// Fingerprint of the obligation's own entity (the RMIR function for the
  /// unsafe side, the SafeFn body for the safe side).
  uint64_t SelfFp = 0;
  /// Fingerprint of the verification configuration (automation knobs +
  /// solver budget) the verdict was produced under.
  uint64_t ConfigFp = 0;
  /// Everything the proof consulted, with its then-current fingerprint.
  std::vector<StoredDep> Deps;
  /// The serialized report (encode/decode helpers below).
  std::string Blob;
};

/// The store: an in-memory index over the on-disk append log.
class ProofStore {
public:
  explicit ProofStore(std::string Path) : Path(std::move(Path)) {}

  /// Reads the store file. Returns false when there is no usable store
  /// (missing file, foreign magic, any version but the current one) — the
  /// caller runs cold. A valid header followed by a torn tail loads the
  /// valid prefix and reports \c truncated(). With \p AllowCompaction
  /// (writable sessions), a log containing superseded records or a torn
  /// tail is rewritten in place as a compacted snapshot — the GILRPRF1
  /// append-log would otherwise grow without bound across sessions;
  /// \c compactions() counts the rewrites.
  bool load(bool AllowCompaction = false);

  /// Whether the last \c load stopped early at a malformed record.
  bool truncated() const { return Truncated; }

  /// Number of load-time compaction rewrites performed (0 or 1 per load).
  uint64_t compactions() const { return Compactions; }

  const StoredObligation *lookup(Side S, const std::string &Name) const;

  /// Inserts or replaces the verdict for (Ob.S, Ob.Name).
  void put(StoredObligation Ob);

  void setSolverEntries(std::vector<SavedQueryVerdict> Entries);
  const std::vector<SavedQueryVerdict> &solverEntries() const {
    return Solver;
  }

  /// Persists the store. When the on-disk log is intact this appends only
  /// the records changed since \c load (append-log semantics make the new
  /// records win on the next load); otherwise it writes a full snapshot to
  /// "<path>.tmp" and renames it over the store atomically. Returns false
  /// on I/O failure; the previous store file is left intact.
  bool flush();

  std::size_t size() const { return Index.size(); }
  const std::string &path() const { return Path; }

private:
  bool writeSnapshot();

  std::string Path;
  std::map<std::pair<uint8_t, std::string>, StoredObligation> Index;
  std::vector<SavedQueryVerdict> Solver;
  bool Truncated = false;
  /// Keys put() since the last load/flush (the append set), and whether the
  /// solver block changed. DiskValid means the on-disk file is a current-
  /// version log whose replayed state equals Index minus the dirty set, so
  /// appending is safe.
  std::set<std::pair<uint8_t, std::string>> Dirty;
  bool SolverDirty = false;
  bool DiskValid = false;
  uint64_t Compactions = 0;
};

/// Report serialization. Every field round-trips (timing included, stored
/// as raw IEEE-754 bits), so a warm run's report is byte-identical to the
/// cold run that produced it, modulo the \c Cached marker the session sets
/// on hits. Decoders are bounds-checked and return false on malformed
/// blobs, which the session treats as a miss.
std::string encodeVerifyReport(const engine::VerifyReport &R);
bool decodeVerifyReport(const std::string &Blob, engine::VerifyReport &Out);
std::string encodeSafeReport(const creusot::SafeReport &R);
bool decodeSafeReport(const std::string &Blob, creusot::SafeReport &Out);

/// Lint-verdict blobs (Side::Lint records): the per-entity diagnostics of
/// the pre-verification analysis, cached the way proof verdicts are.
std::string encodeLintVerdict(const analysis::EntityVerdict &V);
bool decodeLintVerdict(const std::string &Blob, analysis::EntityVerdict &Out);

/// Whole-record codec at the current format version, shared with the
/// content-addressed cache backends (incr/CacheBackend.h): a backend blob
/// is exactly a GILRPRF1 obligation record payload. The decoder is
/// bounds-checked and returns false on malformed input.
std::string encodeObligationRecord(const StoredObligation &Ob);
bool decodeObligationRecord(const std::string &Payload, StoredObligation &Out);

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_PROOFSTORE_H
