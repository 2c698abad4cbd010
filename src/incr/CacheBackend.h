//===- incr/CacheBackend.h - The content-addressed proof store ------------===//
///
/// \file
/// The proof store behind incr::Session: a content-addressed directory of
/// obligation verdicts keyed by the obligation's identity *and* the
/// fingerprints the verdict was produced under — (side, name, self
/// fingerprint, configuration fingerprint) hashed into a 128-bit CacheKey.
/// Because the current fingerprints are part of the key, a get against the
/// current tables can only return a record produced for the same entity
/// under the same configuration; dependency validation (Session::checkDeps)
/// still runs on top, so a hit is never trusted blindly. The dependency
/// fingerprints are not part of the key: after a dependency edit the same
/// key receives a record with new bytes, and a put replaces the stored one.
///
/// SharedDirBackend keeps one checksummed file per record under
/// objects/<hh>/<hex>.rec, so one directory serves `gilr verify
/// --incr-store`, several gilrd daemons and CI jobs alike: a record read
/// while another process rewrites it, or torn by a crash, reads as a miss,
/// never as a wrong verdict. Gets refresh the record's mtime so the
/// size-budgeted GC evicts in LRU order (to the minute). gilrd runs the GC
/// after each run under a size budget, and at shutdown; a record evicted
/// under another process's live run costs that run a miss, never a wrong
/// verdict.
///
/// Blobs are the records of incr/ProofStore.h: obligation records under
/// obligationCacheKey, and one solver-entry block under the reserved
/// SolverBlockCacheKey.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_CACHEBACKEND_H
#define GILR_INCR_CACHEBACKEND_H

#include "incr/ProofStore.h"

#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>

namespace gilr {
namespace incr {

/// 128-bit content-address of one cached obligation verdict.
struct CacheKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator<(const CacheKey &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }
  bool operator==(const CacheKey &O) const { return Hi == O.Hi && Lo == O.Lo; }

  /// 32 lowercase hex digits (Hi then Lo); the SharedDirBackend file name.
  std::string hex() const;
};

/// The cache key of an obligation verdict: side + name + the obligation's
/// own fingerprint + the configuration fingerprint it was produced under
/// (fpAutomation for proofs, fpAnalysisConfig for lint verdicts).
CacheKey obligationCacheKey(Side S, const std::string &Name, uint64_t SelfFp,
                            uint64_t ConfigFp);

/// The reserved key of the solver-entry block (Session::saveSolverEntries).
/// Obligation keys are hash outputs, so none takes this fixed value.
constexpr CacheKey SolverBlockCacheKey{0, 0};

/// Counters of one backend instance (monotonic over its lifetime).
struct CacheBackendStats {
  uint64_t Gets = 0;
  uint64_t Hits = 0;
  uint64_t Puts = 0;
  /// Puts skipped because the stored record already holds the same bytes.
  uint64_t PutsSkipped = 0;
  uint64_t Evictions = 0;
  uint64_t GcRuns = 0;
  /// Directory payload bytes after the last GC.
  uint64_t Bytes = 0;
  /// Records after the last GC.
  uint64_t Entries = 0;
};

/// Configuration of a SharedDirBackend.
struct SharedDirConfig {
  /// Root directory (created on demand). Records live under objects/.
  std::string Dir;
  /// Payload size budget in bytes enforced by gc() (0 = unlimited, GC
  /// only drops stale temp files).
  uint64_t SizeBudgetBytes = 0;
  /// In-memory write-through cache of record blobs, so a resident daemon
  /// serves repeat gets without file I/O. 0 disables it.
  std::size_t MemCacheEntries = 4096;
};

/// A filesystem directory shared by several processes. Layout:
///
///   <dir>/objects/<hh>/<30 hex>.rec
///
/// where <hh> is the first two hex digits of the key (256-way fan-out) and
/// the file name the remaining 30. Each record file carries the magic
/// "GILRCAS1", a format version, the full key (guarding against renamed or
/// misplaced files) and an FNV-1a checksum over the payload; any mismatch
/// reads as a miss. A put writes the record file in place, creating it
/// when missing, under an exclusive flock that makes concurrent writers of
/// one key take turns; readers take no lock, and one that races a write
/// sees a length or checksum mismatch, i.e. a miss. A put whose bytes
/// equal the stored record writes nothing. GC walks objects/, and while
/// the payload total exceeds the budget evicts records oldest-mtime-first
/// (gets refresh an mtime older than a minute, making this LRU to the
/// minute); it also removes temp files older than an
/// hour, which older versions' crashed writers could leave. GC is
/// idempotent: a second run with no intervening traffic evicts nothing.
///
/// Thread-safe: scheduler workers and daemon request handlers call get/put
/// concurrently.
class SharedDirBackend {
public:
  explicit SharedDirBackend(SharedDirConfig Cfg);

  /// Fills \p Blob with the record stored under \p K. A miss (false) is
  /// never an error: corrupt, torn or concurrently evicted records read as
  /// misses.
  bool get(const CacheKey &K, std::string &Blob);

  /// Stores \p Blob under \p K, replacing a record with different bytes.
  /// Returns false only on I/O failure; a put of the stored bytes (as this
  /// instance last read or wrote them, else as the file holds them) writes
  /// nothing and succeeds.
  bool put(const CacheKey &K, const std::string &Blob);

  /// Runs the size-budget GC. Call it while no run of this process uses
  /// the store: nothing shields the records a live run reads or writes.
  /// Returns false on I/O failure.
  bool gc();

  CacheBackendStats stats() const;

  const SharedDirConfig &config() const { return Cfg; }

  /// The record file path for \p K (under objects/). Exposed for tests.
  std::string recordPath(const CacheKey &K) const;

private:
  /// Reads and checks the record file \p Path of \p K into \p Blob;
  /// \p MTime receives the file's mtime.
  bool readRecordFile(const std::string &Path, const CacheKey &K,
                      std::string &Blob, std::time_t &MTime) const;
  /// Puts \p Blob in the memory cache under \p K: replaces a held entry,
  /// adds a new one while there is room. Mu held.
  void remember(const CacheKey &K, const std::string &Blob);

  SharedDirConfig Cfg;
  /// <Dir>/objects, the parent of every record's fan-out directory.
  std::string ObjectsDir;
  mutable std::mutex Mu;
  std::map<CacheKey, std::string> Mem;
  CacheBackendStats St;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_CACHEBACKEND_H
