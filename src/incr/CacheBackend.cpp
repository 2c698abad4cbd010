//===- incr/CacheBackend.cpp ------------------------------------------------------===//

#include "incr/CacheBackend.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <optional>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gilr;
using namespace gilr::incr;

namespace fs = std::filesystem;

namespace {

constexpr char RecMagic[8] = {'G', 'I', 'L', 'R', 'C', 'A', 'S', '1'};
constexpr uint32_t RecVersion = 1;
/// How stale a record's mtime may get before a get refreshes it: the
/// granularity of the GC's LRU order.
constexpr std::time_t MTimeRefreshSeconds = 60;

uint64_t fnv1a(const void *Data, std::size_t N, uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Quiet whole-file read: a missing or unreadable record is a cache miss,
/// not a diagnostic (unlike files::readFile). Reads up to the size the
/// file had when opened; a concurrent rewrite that changes it fails the
/// caller's length check. \p MTime receives the file's mtime.
bool readFileQuiet(const std::string &Path, std::string &Out,
                   std::time_t &MTime) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0;
  MTime = Ok ? St.st_mtime : 0;
  Out.resize(Ok ? static_cast<std::size_t>(St.st_size) : 0);
  std::size_t Done = 0;
  while (Ok && Done != Out.size()) {
    ssize_t N = ::pread(Fd, &Out[Done], Out.size() - Done,
                        static_cast<off_t>(Done));
    if (N < 0 && errno == EINTR)
      continue;
    Ok = N > 0;
    Done += Ok ? static_cast<std::size_t>(N) : 0;
  }
  ::close(Fd);
  return Ok;
}

/// Writes the record file \p Path in place, creating it (and its fan-out
/// directory) when missing. Rewriting a file costs far less than creating
/// one (about 5 us against 100 us per record on an ext4-backed 4-vCPU VM),
/// and every salvage refresh, and every re-proof after a dependency edit,
/// rewrites a stored record. Writers of one file take turns under an
/// exclusive flock, so the file always ends up holding one writer's whole
/// record. Readers take no lock: one that races a write, or a record torn
/// by a crash mid-write, fails the length or checksum check and reads as a
/// miss, never as a wrong verdict.
bool writeRecordFile(const std::string &Path, const std::string &Out) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (Fd < 0 && errno == ENOENT) {
    std::error_code EC;
    fs::create_directories(fs::path(Path).parent_path(), EC);
    Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  }
  if (Fd < 0)
    return false;
  int Locked;
  while ((Locked = ::flock(Fd, LOCK_EX)) != 0 && errno == EINTR) {
  }
  bool Ok = Locked == 0;
  for (std::size_t Done = 0; Ok && Done != Out.size();) {
    ssize_t N = ::pwrite(Fd, Out.data() + Done, Out.size() - Done,
                         static_cast<off_t>(Done));
    if (N < 0 && errno == EINTR)
      continue;
    Ok = N > 0;
    Done += Ok ? static_cast<std::size_t>(N) : 0;
  }
  // Drop the tail of a longer record this one replaced.
  struct stat St;
  if (Ok && ::fstat(Fd, &St) == 0 &&
      St.st_size > static_cast<off_t>(Out.size()))
    Ok = ::ftruncate(Fd, static_cast<off_t>(Out.size())) == 0;
  return ::close(Fd) == 0 && Ok; // Closing releases the lock.
}

} // namespace

std::string CacheKey::hex() const {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

CacheKey gilr::incr::obligationCacheKey(Side S, const std::string &Name,
                                        uint64_t SelfFp, uint64_t ConfigFp) {
  // Two FNV-1a passes with distinct seeds over (side ++ name ++ selffp ++
  // configfp). 128 bits so directory-scale collisions are out of reach;
  // the full key is also echoed inside every record file, so even a
  // collision reads as a miss rather than a wrong verdict.
  unsigned char Tag = static_cast<unsigned char>(S);
  auto Pass = [&](uint64_t Seed) {
    uint64_t H = fnv1a(&Tag, 1, Seed);
    H = fnv1a(Name.data(), Name.size(), H);
    H = fnv1a(&SelfFp, sizeof SelfFp, H);
    H = fnv1a(&ConfigFp, sizeof ConfigFp, H);
    return H;
  };
  CacheKey K;
  K.Hi = Pass(0xcbf29ce484222325ull);
  K.Lo = Pass(0x9e3779b97f4a7c15ull);
  return K;
}

//===----------------------------------------------------------------------===//
// SharedDirBackend
//===----------------------------------------------------------------------===//

SharedDirBackend::SharedDirBackend(SharedDirConfig Cfg_)
    : Cfg(std::move(Cfg_)),
      ObjectsDir((fs::path(Cfg.Dir) / "objects").string()) {
  std::error_code EC;
  fs::create_directories(ObjectsDir, EC);
  // A failure here degrades every get to a miss and every put to a failed
  // write: the run verifies cold and persists nothing.
}

std::string SharedDirBackend::recordPath(const CacheKey &K) const {
  // Plain concatenation: every get and put builds a path, and composing
  // it from fs::path pieces costs about as much as reading the record.
  std::string H = K.hex();
  std::string Path;
  Path.reserve(ObjectsDir.size() + 1 + 2 + 1 + 30 + 4);
  Path.append(ObjectsDir).append(1, '/').append(H, 0, 2).append(1, '/');
  Path.append(H, 2, std::string::npos).append(".rec");
  return Path;
}

bool SharedDirBackend::readRecordFile(const std::string &Path,
                                      const CacheKey &K, std::string &Blob,
                                      std::time_t &MTime) const {
  std::string Raw;
  if (!readFileQuiet(Path, Raw, MTime))
    return false;
  // magic[8] version[4] hi[8] lo[8] len[4] payload checksum[8]
  constexpr std::size_t Head = 8 + 4 + 8 + 8 + 4;
  if (Raw.size() < Head + 8 || std::memcmp(Raw.data(), RecMagic, 8) != 0)
    return false;
  uint32_t Version, Len;
  uint64_t Hi, Lo, Sum;
  std::memcpy(&Version, Raw.data() + 8, 4);
  std::memcpy(&Hi, Raw.data() + 12, 8);
  std::memcpy(&Lo, Raw.data() + 20, 8);
  std::memcpy(&Len, Raw.data() + 28, 4);
  if (Version != RecVersion || Hi != K.Hi || Lo != K.Lo ||
      Raw.size() != Head + Len + 8)
    return false;
  std::memcpy(&Sum, Raw.data() + Head + Len, 8);
  if (Sum != fnv1a(Raw.data() + Head, Len, 0xcbf29ce484222325ull))
    return false;
  Blob.assign(Raw.data() + Head, Len);
  return true;
}

bool SharedDirBackend::get(const CacheKey &K, std::string &Blob) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++St.Gets;
    auto It = Mem.find(K);
    if (It != Mem.end()) {
      Blob = It->second;
      ++St.Hits;
      return true;
    }
  }
  std::string Path = recordPath(K);
  std::time_t MTime;
  if (!readRecordFile(Path, K, Blob, MTime))
    return false;
  // Refresh the mtime so the size-budget GC evicts in LRU order. A record
  // written or read within the last minute is recent enough already, which
  // spares a warm run right after the last one a syscall per record.
  // Failures (e.g. a share this process cannot write) just age the record
  // faster.
  if (std::time(nullptr) - MTime > MTimeRefreshSeconds) {
    std::error_code EC;
    fs::last_write_time(Path, fs::file_time_type::clock::now(), EC);
  }
  std::lock_guard<std::mutex> Lock(Mu);
  ++St.Hits;
  if (Cfg.MemCacheEntries && Mem.size() < Cfg.MemCacheEntries)
    Mem.emplace(K, Blob);
  return true;
}

bool SharedDirBackend::put(const CacheKey &K, const std::string &Blob) {
  // The key leaves out the dependency fingerprints, so a put for a stored
  // key may carry a newer record (re-proved or salvaged after a dependency
  // edit), which replaces the stored one. Only a put of the stored bytes is
  // skipped. The stored bytes are those this instance last read or wrote
  // under K when the memory cache holds them (a salvage refresh follows a
  // get of the same key), else the file's.
  std::string Path = recordPath(K);
  std::optional<bool> Same;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Mem.find(K);
    if (It != Mem.end())
      Same = It->second == Blob;
  }
  if (!Same) {
    std::string Stored;
    std::time_t MTime;
    Same = readRecordFile(Path, K, Stored, MTime) && Stored == Blob;
  }
  if (*Same) {
    std::lock_guard<std::mutex> Lock(Mu);
    remember(K, Blob);
    ++St.PutsSkipped;
    return true;
  }
  std::string Out;
  Out.reserve(8 + 4 + 8 + 8 + 4 + Blob.size() + 8);
  Out.append(RecMagic, 8);
  uint32_t Version = RecVersion;
  uint32_t Len = static_cast<uint32_t>(Blob.size());
  uint64_t Sum = fnv1a(Blob.data(), Blob.size(), 0xcbf29ce484222325ull);
  Out.append(reinterpret_cast<const char *>(&Version), 4);
  Out.append(reinterpret_cast<const char *>(&K.Hi), 8);
  Out.append(reinterpret_cast<const char *>(&K.Lo), 8);
  Out.append(reinterpret_cast<const char *>(&Len), 4);
  Out.append(Blob);
  Out.append(reinterpret_cast<const char *>(&Sum), 8);
  if (!writeRecordFile(Path, Out))
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  remember(K, Blob);
  ++St.Puts;
  return true;
}

void SharedDirBackend::remember(const CacheKey &K, const std::string &Blob) {
  auto It = Mem.find(K);
  if (It != Mem.end())
    It->second = Blob;
  else if (Cfg.MemCacheEntries && Mem.size() < Cfg.MemCacheEntries)
    Mem.emplace(K, Blob);
}

bool SharedDirBackend::gc() {
  struct Rec {
    std::string Path;
    CacheKey K;
    uint64_t Size = 0;
    fs::file_time_type MTime;
  };
  std::vector<Rec> Recs;
  uint64_t Total = 0;
  std::error_code EC;
  fs::path Objects = ObjectsDir;
  const auto StaleTmpAge = std::chrono::hours(1);
  const auto Now = fs::file_time_type::clock::now();
  for (fs::recursive_directory_iterator It(Objects, EC), End; !EC && It != End;
       It.increment(EC)) {
    std::error_code E2;
    if (!It->is_regular_file(E2) || E2)
      continue;
    fs::path P = It->path();
    std::string Name = P.filename().string();
    fs::file_time_type MTime = fs::last_write_time(P, E2);
    if (E2)
      continue;
    if (Name.find(".tmp.") != std::string::npos) {
      // A temp file left by a crashed writer of an older version, which
      // renamed new records into place; reclaim it once it is stale.
      if (Now - MTime > StaleTmpAge)
        fs::remove(P, E2);
      continue;
    }
    // objects/<hh>/<30 hex>.rec — anything else is foreign, leave it alone.
    std::string Dir = P.parent_path().filename().string();
    if (Dir.size() != 2 || Name.size() != 30 + 4 ||
        Name.compare(30, 4, ".rec") != 0)
      continue;
    std::string Hex = Dir + Name.substr(0, 30);
    CacheKey K;
    if (std::sscanf(Hex.c_str(), "%16llx%16llx",
                    reinterpret_cast<unsigned long long *>(&K.Hi),
                    reinterpret_cast<unsigned long long *>(&K.Lo)) != 2)
      continue;
    uint64_t Size = It->file_size(E2);
    if (E2)
      continue;
    Recs.push_back(Rec{P.string(), K, Size, MTime});
    Total += Size;
  }

  std::lock_guard<std::mutex> Lock(Mu);
  ++St.GcRuns;
  uint64_t Evicted = 0;
  if (Cfg.SizeBudgetBytes && Total > Cfg.SizeBudgetBytes) {
    std::sort(Recs.begin(), Recs.end(), [](const Rec &A, const Rec &B) {
      return A.MTime != B.MTime ? A.MTime < B.MTime : A.Path < B.Path;
    });
    for (const Rec &R : Recs) {
      if (Total <= Cfg.SizeBudgetBytes)
        break;
      std::error_code RmEC;
      fs::remove(R.Path, RmEC);
      if (RmEC)
        continue;
      Total -= R.Size;
      Mem.erase(R.K);
      ++Evicted;
      ++St.Evictions;
    }
  }
  St.Bytes = Total;
  St.Entries = Recs.size() - Evicted;
  return true;
}

CacheBackendStats SharedDirBackend::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}
