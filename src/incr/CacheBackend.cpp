//===- incr/CacheBackend.cpp ------------------------------------------------------===//

#include "incr/CacheBackend.h"

#include "support/Files.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace gilr;
using namespace gilr::incr;

namespace fs = std::filesystem;

namespace {

constexpr char RecMagic[8] = {'G', 'I', 'L', 'R', 'C', 'A', 'S', '1'};
constexpr uint32_t RecVersion = 1;

uint64_t fnv1a(const void *Data, std::size_t N, uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Quiet whole-file read: a missing or unreadable record is a cache miss,
/// not a diagnostic (unlike files::readFile).
bool readFileQuiet(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  Out.clear();
  char Buf[1 << 16];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  return Ok;
}

int processId() {
#ifdef _WIN32
  return 0;
#else
  return static_cast<int>(::getpid());
#endif
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
    : Cfg(std::move(Cfg_)) {
  std::error_code EC;
  fs::create_directories(fs::path(Cfg.Dir) / "objects", EC);
  // A failure here degrades every get to a miss and every put to a no-op;
  // the session still works off its local store.
}

std::string SharedDirBackend::recordPath(const CacheKey &K) const {
  std::string H = K.hex();
  return (fs::path(Cfg.Dir) / "objects" / H.substr(0, 2) / (H.substr(2) + ".rec"))
      .string();
}

bool SharedDirBackend::readRecordFile(const std::string &Path,
                                      const CacheKey &K,
                                      std::string &Blob) const {
  std::string Raw;
  if (!readFileQuiet(Path, Raw))
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
  if (!readRecordFile(Path, K, Blob))
    return false;
  // Refresh the read mtime so the size-budget GC evicts in LRU order.
  // Failures (e.g. a read-only share) just age the record faster.
  std::error_code EC;
  fs::last_write_time(Path, fs::file_time_type::clock::now(), EC);
  std::lock_guard<std::mutex> Lock(Mu);
  ++St.Hits;
  if (Cfg.MemCacheEntries && Mem.size() < Cfg.MemCacheEntries)
    Mem.emplace(K, Blob);
  return true;
}

bool SharedDirBackend::put(const CacheKey &K, const std::string &Blob) {
  if (Cfg.ReadOnly) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++St.PutsSkipped;
    return true;
  }
  // The key leaves out the dependency fingerprints, so a put for a stored
  // key may carry a newer record (re-proved or salvaged after a dependency
  // edit), which replaces the stored one. Only a put of the stored bytes is
  // skipped.
  std::string Path = recordPath(K);
  std::string Stored;
  if (readRecordFile(Path, K, Stored) && Stored == Blob) {
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

  static std::atomic<unsigned> TmpCounter{0};
  std::string Tmp = Path + ".tmp." + std::to_string(processId()) + "." +
                    std::to_string(TmpCounter.fetch_add(1));
  if (!files::writeFile(Tmp, Out, "shared proof-cache record"))
    return false;
  // rename() replaces an existing record atomically: a concurrent reader
  // sees the old record or the new one, never a mix.
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return false;
  }
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

void SharedDirBackend::pin(const CacheKey &K) {
  std::lock_guard<std::mutex> Lock(Mu);
  Pinned.insert(K);
}

bool SharedDirBackend::gc() {
  if (Cfg.ReadOnly)
    return true;
  struct Rec {
    std::string Path;
    CacheKey K;
    uint64_t Size = 0;
    fs::file_time_type MTime;
  };
  std::vector<Rec> Recs;
  uint64_t Total = 0;
  std::error_code EC;
  fs::path Objects = fs::path(Cfg.Dir) / "objects";
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
      // A crashed writer's leftover; reclaim it once it is clearly stale.
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
      if (Pinned.count(R.K))
        continue; // Referenced by the current run: never evicted.
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

bool SharedDirBackend::flush() { return gc(); }

CacheBackendStats SharedDirBackend::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}
