//===- incr/CacheBackend.h - Content-addressed proof-cache backends --------===//
///
/// \file
/// The storage abstraction behind incr::Session: a content-addressed cache
/// of obligation verdicts keyed by the obligation's identity *and* the
/// fingerprints the verdict was produced under — (side, name, self
/// fingerprint, configuration fingerprint) hashed into a 128-bit CacheKey.
/// Because the current fingerprints are part of the key, a get against the
/// current tables can only return a record produced for the same entity
/// under the same configuration; dependency validation (Session::checkDeps)
/// still runs on top, so a hit is never trusted blindly. The dependency
/// fingerprints are not part of the key: after a dependency edit the same
/// key receives a record with new bytes, and a put replaces the stored one.
///
/// The implementation, SharedDirBackend, is a filesystem directory shared
/// by several daemons or CI jobs: one file per record under
/// objects/<hh>/<hex>.rec, written atomically (tmp + rename, safe against
/// concurrent writers), read mtimes refreshed on hits so the size-budgeted
/// GC evicts in LRU order. Keys pinned during a run are never evicted by
/// that run's GC.
///
/// Blobs are ProofStore obligation records
/// (encodeObligationRecord/decodeObligationRecord), so the local store and
/// the shared cache share one codec and one format version.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_CACHEBACKEND_H
#define GILR_INCR_CACHEBACKEND_H

#include "incr/ProofStore.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
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

/// Counters of one backend instance (monotonic over its lifetime).
struct CacheBackendStats {
  uint64_t Gets = 0;
  uint64_t Hits = 0;
  uint64_t Puts = 0;
  /// Puts skipped because the stored record already holds the same bytes
  /// or the backend is read-only.
  uint64_t PutsSkipped = 0;
  uint64_t Evictions = 0;
  uint64_t GcRuns = 0;
  /// Directory payload bytes after the last GC (SharedDirBackend only).
  uint64_t Bytes = 0;
  /// Records after the last GC (SharedDirBackend only).
  uint64_t Entries = 0;
};

/// Abstract content-addressed get/put store. Implementations are
/// thread-safe: scheduler workers and daemon request handlers call
/// get/put/pin concurrently.
class CacheBackend {
public:
  virtual ~CacheBackend() = default;

  /// A short stable name for telemetry ("shared-dir").
  virtual const char *kind() const = 0;

  /// Fills \p Blob with the record stored under \p K. A miss (false) is
  /// never an error: corrupt, torn or concurrently evicted records read as
  /// misses.
  virtual bool get(const CacheKey &K, std::string &Blob) = 0;

  /// Stores \p Blob under \p K, replacing a record with different bytes.
  /// Returns false only on I/O failure; a skipped write (same bytes already
  /// stored, read-only backend) succeeds.
  virtual bool put(const CacheKey &K, const std::string &Blob) = 0;

  /// Marks \p K as referenced by the current run: the backend's GC must
  /// not evict it while this instance lives.
  virtual void pin(const CacheKey &K) { (void)K; }

  /// Persists pending state and runs maintenance (the SharedDirBackend's
  /// size-budget GC). Returns false on I/O failure.
  virtual bool flush() { return true; }

  virtual CacheBackendStats stats() const = 0;
};

/// Configuration of a SharedDirBackend.
struct SharedDirConfig {
  /// Root directory (created on demand). Records live under objects/.
  std::string Dir;
  /// Payload size budget in bytes enforced by the GC at flush time
  /// (0 = unlimited, GC only drops stale temp files).
  uint64_t SizeBudgetBytes = 0;
  /// Serve gets but skip puts and GC (CI replay against a shared cache).
  bool ReadOnly = false;
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
/// reads as a miss. Writes go to a unique temp file in the same directory
/// and rename into place, so concurrent writers and readers never observe
/// torn records; a put whose bytes equal the stored record writes nothing.
/// GC walks objects/, and while the payload total exceeds the budget
/// evicts unpinned records oldest-mtime-first (gets refresh the mtime,
/// making this LRU); it also removes temp files older than an hour
/// (crashed writers). GC is idempotent: a second run with no intervening
/// traffic evicts nothing.
class SharedDirBackend final : public CacheBackend {
public:
  explicit SharedDirBackend(SharedDirConfig Cfg);

  const char *kind() const override { return "shared-dir"; }
  bool get(const CacheKey &K, std::string &Blob) override;
  bool put(const CacheKey &K, const std::string &Blob) override;
  void pin(const CacheKey &K) override;
  bool flush() override;
  CacheBackendStats stats() const override;

  /// Runs the size-budget GC immediately (flush calls this). Exposed for
  /// tests and the daemon's stats endpoint.
  bool gc();

  const SharedDirConfig &config() const { return Cfg; }

  /// The record file path for \p K (under objects/). Exposed for tests.
  std::string recordPath(const CacheKey &K) const;

private:
  bool readRecordFile(const std::string &Path, const CacheKey &K,
                      std::string &Blob) const;
  /// Puts \p Blob in the memory cache under \p K: replaces a held entry,
  /// adds a new one while there is room. Mu held.
  void remember(const CacheKey &K, const std::string &Blob);

  SharedDirConfig Cfg;
  mutable std::mutex Mu;
  std::set<CacheKey> Pinned;
  std::map<CacheKey, std::string> Mem;
  CacheBackendStats St;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_CACHEBACKEND_H
