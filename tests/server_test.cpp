//===- tests/server_test.cpp - gilrd daemon + shared proof cache ------------===//
//
// The verification-as-a-service contract:
//
//  * the content-addressed SharedDirBackend round-trips records, replaces
//    a record when a put for its key brings new bytes, degrades corruption
//    and foreign files to misses, enforces its size budget in LRU order,
//    and its GC is idempotent;
//  * two backends over the same directory (two daemons, or a daemon and a
//    CI job) share records under concurrent get/put: a hit is never torn,
//    and concurrent rewrites of one key leave one whole record;
//  * the gilr-server-v1 protocol round-trips requests and rejects
//    malformed, unversioned and unknown-method lines;
//  * the admission queue enforces per-client and global budgets and
//    schedules round-robin across clients;
//  * end to end over a real socket: a second submission of an unchanged
//    module replays every verdict with zero solver work and renders the
//    byte-identical `verdicts` array, and a *fresh* daemon pointed at the
//    same cache directory starts warm too; the daemon's shutdown GC brings
//    the directory within `--cache-budget`, its own records included; and
//    the daemon does not keep a thread per request it has served.
//
//===----------------------------------------------------------------------===//

#include "incr/CacheBackend.h"
#include "incr/ProofStore.h"
#include "server/Admission.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Files.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace gilr;

namespace {

std::string tempDir(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "gilr_server_" + Name;
  std::filesystem::remove_all(Path);
  return Path;
}

/// A small but realistic blob: an obligation record (incr/ProofStore.h),
/// the payload the store directory holds.
std::string sampleBlob(const std::string &Name, uint64_t SelfFp) {
  incr::StoredObligation Ob;
  Ob.S = incr::Side::Unsafe;
  Ob.Name = Name;
  Ob.SelfFp = SelfFp;
  Ob.ConfigFp = 42;
  Ob.Blob = "verdict:" + Name;
  return incr::encodeObligationRecord(Ob);
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST(CacheKey, DiscriminatesEveryComponent) {
  incr::CacheKey Base =
      incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 2);
  EXPECT_EQ(Base, incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 2));
  EXPECT_FALSE(Base ==
               incr::obligationCacheKey(incr::Side::Safe, "f", 1, 2));
  EXPECT_FALSE(Base ==
               incr::obligationCacheKey(incr::Side::Unsafe, "g", 1, 2));
  EXPECT_FALSE(Base ==
               incr::obligationCacheKey(incr::Side::Unsafe, "f", 3, 2));
  EXPECT_FALSE(Base ==
               incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 3));
  EXPECT_EQ(Base.hex().size(), 32u);
  EXPECT_EQ(Base.hex().find_first_not_of("0123456789abcdef"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// SharedDirBackend
//===----------------------------------------------------------------------===//

TEST(SharedDirBackend, PutGetRoundTripAndMiss) {
  incr::SharedDirConfig C;
  C.Dir = tempDir("roundtrip");
  incr::SharedDirBackend B(C);
  incr::CacheKey K = incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 2);
  std::string Blob = sampleBlob("f", 1);

  std::string Got;
  EXPECT_FALSE(B.get(K, Got));
  ASSERT_TRUE(B.put(K, Blob));
  ASSERT_TRUE(B.get(K, Got));
  EXPECT_EQ(Got, Blob);

  // The record decodes back to the obligation we stored.
  incr::StoredObligation Ob;
  ASSERT_TRUE(incr::decodeObligationRecord(Got, Ob));
  EXPECT_EQ(Ob.Name, "f");
  EXPECT_EQ(Ob.Blob, "verdict:f");

  // A second put of the same bytes is skipped (not an error); a second
  // backend over the same directory sees the record.
  EXPECT_TRUE(B.put(K, Blob));
  incr::SharedDirBackend B2(C);
  ASSERT_TRUE(B2.get(K, Got));
  EXPECT_EQ(Got, Blob);

  incr::CacheBackendStats St = B.stats();
  EXPECT_EQ(St.Puts, 1u);
  EXPECT_EQ(St.PutsSkipped, 1u);
  EXPECT_GE(St.Hits, 1u);
}

TEST(SharedDirBackend, PutWithNewBytesReplacesTheRecord) {
  incr::SharedDirConfig C;
  C.Dir = tempDir("replace");
  incr::SharedDirBackend B(C);
  incr::CacheKey K = incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 42);
  std::string Old = sampleBlob("f", 1);
  ASSERT_TRUE(B.put(K, Old));

  // The same obligation re-proved after a dependency edit: same key (the
  // dependency fingerprints are not part of it), different bytes.
  incr::StoredObligation Ob;
  ASSERT_TRUE(incr::decodeObligationRecord(Old, Ob));
  Ob.Deps.push_back({deps::Kind::Spec, "g", 7, false, {}});
  std::string New = incr::encodeObligationRecord(Ob);
  ASSERT_NE(New, Old);
  ASSERT_TRUE(B.put(K, New));

  std::string Got;
  ASSERT_TRUE(B.get(K, Got));
  EXPECT_EQ(Got, New);
  incr::SharedDirBackend Fresh(C);
  ASSERT_TRUE(Fresh.get(K, Got));
  EXPECT_EQ(Got, New);
  EXPECT_EQ(B.stats().Puts, 2u);
  EXPECT_EQ(B.stats().PutsSkipped, 0u);

  // The stored file is rewritten in place; a shorter record drops the
  // longer one's tail, so it reads back intact.
  ASSERT_TRUE(B.put(K, Old));
  incr::SharedDirBackend Again(C);
  ASSERT_TRUE(Again.get(K, Got));
  EXPECT_EQ(Got, Old);
  std::string Bytes;
  ASSERT_TRUE(files::readFile(B.recordPath(K), Bytes, "record"));
  EXPECT_EQ(Bytes.size(), Old.size() + 8 + 4 + 8 + 8 + 4 + 8);
}

TEST(SharedDirBackend, CorruptionAndForeignFilesReadAsMisses) {
  incr::SharedDirConfig C;
  C.Dir = tempDir("corrupt");
  C.MemCacheEntries = 0; // Force every get through the file.
  incr::SharedDirBackend B(C);
  incr::CacheKey K = incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 2);
  ASSERT_TRUE(B.put(K, sampleBlob("f", 1)));

  // Flip a payload byte: the checksum catches it.
  std::string Path = B.recordPath(K);
  std::string Bytes;
  ASSERT_TRUE(files::readFile(Path, Bytes, "record"));
  Bytes[Bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(files::writeFile(Path, Bytes, "record"));
  std::string Got;
  EXPECT_FALSE(B.get(K, Got));

  // Truncated record: miss, not an error.
  ASSERT_TRUE(files::writeFile(Path, Bytes.substr(0, 10), "record"));
  EXPECT_FALSE(B.get(K, Got));

  // A record renamed under the wrong key: the embedded key guards it.
  incr::CacheKey K2 = incr::obligationCacheKey(incr::Side::Unsafe, "g", 7, 2);
  ASSERT_TRUE(B.put(K2, sampleBlob("g", 7)));
  std::string Renamed;
  ASSERT_TRUE(files::readFile(B.recordPath(K2), Renamed, "record"));
  ASSERT_TRUE(files::writeFile(Path, Renamed, "record"));
  EXPECT_FALSE(B.get(K, Got));
}

TEST(SharedDirBackend, GcEnforcesBudgetAndIsIdempotent) {
  incr::SharedDirConfig C;
  C.Dir = tempDir("gc");
  C.MemCacheEntries = 0;
  incr::SharedDirBackend B(C);

  // Ten records, ~identical sizes.
  std::vector<incr::CacheKey> Keys;
  uint64_t RecordBytes = 0;
  for (uint64_t I = 0; I < 10; ++I) {
    incr::CacheKey K = incr::obligationCacheKey(
        incr::Side::Unsafe, "f" + std::to_string(I), I, 2);
    Keys.push_back(K);
    ASSERT_TRUE(B.put(K, sampleBlob("f" + std::to_string(I), I)));
    std::string Bytes;
    ASSERT_TRUE(files::readFile(B.recordPath(K), Bytes, "record"));
    RecordBytes = Bytes.size();
    // Distinct mtimes so the LRU order is well defined.
    std::filesystem::last_write_time(
        B.recordPath(K), std::filesystem::file_time_type::clock::now() -
                             std::chrono::seconds(100 - I));
  }

  // Budget for roughly four records: GC must evict down to it, oldest
  // first.
  incr::SharedDirConfig Budgeted = C;
  Budgeted.SizeBudgetBytes = RecordBytes * 4;
  incr::SharedDirBackend Owner(Budgeted);
  ASSERT_TRUE(Owner.gc());
  incr::CacheBackendStats St = Owner.stats();
  EXPECT_LE(St.Bytes, Budgeted.SizeBudgetBytes);
  EXPECT_GE(St.Evictions, 1u);

  std::string Got;
  // The newest records survive, the oldest go first.
  EXPECT_TRUE(Owner.get(Keys[9], Got));
  EXPECT_FALSE(Owner.get(Keys[0], Got));
  EXPECT_FALSE(Owner.get(Keys[1], Got));

  // Idempotence: a second GC with no intervening traffic evicts nothing.
  uint64_t EvictionsAfterFirst = St.Evictions;
  ASSERT_TRUE(Owner.gc());
  EXPECT_EQ(Owner.stats().Evictions, EvictionsAfterFirst);
}

TEST(SharedDirBackend, ConcurrentGetPutAcrossTwoBackends) {
  incr::SharedDirConfig C;
  C.Dir = tempDir("concurrent");
  incr::SharedDirBackend A(C), B(C);

  constexpr int N = 64;
  std::atomic<int> Misdelivered{0};
  auto Writer = [&](incr::SharedDirBackend &Back, int Lo, int Hi) {
    for (int I = Lo; I < Hi; ++I) {
      std::string Name = "f" + std::to_string(I);
      incr::CacheKey K = incr::obligationCacheKey(
          incr::Side::Unsafe, Name, static_cast<uint64_t>(I), 2);
      if (!Back.put(K, sampleBlob(Name, static_cast<uint64_t>(I))))
        ++Misdelivered;
    }
  };
  auto Reader = [&](incr::SharedDirBackend &Back) {
    for (int Round = 0; Round < 4; ++Round)
      for (int I = 0; I < N; ++I) {
        std::string Name = "f" + std::to_string(I);
        incr::CacheKey K = incr::obligationCacheKey(
            incr::Side::Unsafe, Name, static_cast<uint64_t>(I), 2);
        std::string Got;
        // Misses are fine while writes race; a hit must be intact.
        if (Back.get(K, Got) && Got != sampleBlob(Name, uint64_t(I)))
          ++Misdelivered;
      }
  };
  std::thread T1(Writer, std::ref(A), 0, N / 2);
  std::thread T2(Writer, std::ref(B), N / 2, N);
  std::thread T3(Reader, std::ref(A));
  std::thread T4(Reader, std::ref(B));
  T1.join();
  T2.join();
  T3.join();
  T4.join();
  EXPECT_EQ(Misdelivered.load(), 0);

  // After the dust settles both backends serve all records.
  for (int I = 0; I < N; ++I) {
    std::string Name = "f" + std::to_string(I);
    incr::CacheKey K = incr::obligationCacheKey(
        incr::Side::Unsafe, Name, static_cast<uint64_t>(I), 2);
    std::string Got;
    EXPECT_TRUE(A.get(K, Got)) << Name;
    EXPECT_TRUE(B.get(K, Got)) << Name;
  }
}

TEST(SharedDirBackend, ConcurrentRewritesOfOneKeyNeverServeAMix) {
  // Two backends over one directory with no memory cache, so every get and
  // put goes through the record files.
  incr::SharedDirConfig C;
  C.Dir = tempDir("rewrites");
  C.MemCacheEntries = 0;
  incr::SharedDirBackend A(C), B(C);

  constexpr int Keys = 32;
  constexpr int Variants = 3;
  auto KeyOf = [](int I) {
    return incr::obligationCacheKey(incr::Side::Unsafe,
                                    "f" + std::to_string(I),
                                    static_cast<uint64_t>(I), 2);
  };
  // Variant V of key I carries a verdict of 16 KiB * V bytes: every
  // rewrite changes the record's length, and the long writes span several
  // pages.
  std::vector<std::vector<std::string>> Blobs(Keys);
  for (int I = 0; I < Keys; ++I)
    for (int V = 0; V < Variants; ++V) {
      incr::StoredObligation Ob;
      ASSERT_TRUE(incr::decodeObligationRecord(
          sampleBlob("f" + std::to_string(I), static_cast<uint64_t>(I)), Ob));
      Ob.Blob.append(std::size_t(V) << 14, static_cast<char>('a' + V));
      Blobs[I].push_back(incr::encodeObligationRecord(Ob));
    }
  auto Written = [&](int I, const std::string &Got) {
    return std::find(Blobs[I].begin(), Blobs[I].end(), Got) != Blobs[I].end();
  };
  std::atomic<int> Failed{0}, Mixed{0};

  // Both backends rewrite every key with alternating lengths, walking the
  // keys in step, while two readers get them: a hit is one whole record.
  constexpr int Rounds = 8;
  auto Writer = [&](incr::SharedDirBackend &Back, int Offset) {
    for (int I = 0; I < Keys; ++I)
      for (int R = 0; R < Rounds; ++R)
        if (!Back.put(KeyOf(I), Blobs[I][(R + Offset) % Variants]))
          ++Failed;
  };
  auto Reader = [&](incr::SharedDirBackend &Back) {
    for (int I = 0; I < Keys; ++I)
      for (int R = 0; R < Rounds; ++R) {
        std::string Got;
        // A get that races a write is a miss, never a mix.
        if (Back.get(KeyOf(I), Got) && !Written(I, Got))
          ++Mixed;
      }
  };
  {
    std::thread T1(Writer, std::ref(A), 0);
    std::thread T2(Writer, std::ref(B), 1);
    std::thread T3(Reader, std::ref(A));
    std::thread T4(Reader, std::ref(B));
    T1.join();
    T2.join();
    T3.join();
    T4.join();
  }
  EXPECT_EQ(Failed.load(), 0);
  EXPECT_EQ(Mixed.load(), 0);

  // The writers took turns, so each file holds one writer's whole record.
  incr::SharedDirBackend Fresh(C);
  for (int I = 0; I < Keys; ++I) {
    std::string Got;
    ASSERT_TRUE(Fresh.get(KeyOf(I), Got)) << I;
    EXPECT_TRUE(Written(I, Got)) << I;
  }
}

TEST(SharedDirBackend, PutWaitsForAnotherWriterOfTheSameRecord) {
  // Another process is mid-way through rewriting a record with a longer
  // one: it holds the file's exclusive flock. A put of a shorter record
  // must wait for it rather than cut the longer record with its
  // truncation, and then leave its own whole record.
  incr::SharedDirConfig C;
  C.Dir = tempDir("turns");
  C.MemCacheEntries = 0;
  incr::SharedDirBackend B(C);
  incr::CacheKey K = incr::obligationCacheKey(incr::Side::Unsafe, "f", 1, 2);
  std::string Short = sampleBlob("f", 1);
  incr::StoredObligation Ob;
  ASSERT_TRUE(incr::decodeObligationRecord(Short, Ob));
  Ob.Blob.append(4096, 'x');
  std::string Long = incr::encodeObligationRecord(Ob);
  ASSERT_TRUE(B.put(K, Long));
  Ob.Blob.append(4096, 'y');
  std::string Longer = incr::encodeObligationRecord(Ob);
  // The other writer's file bytes: the same record format, from a store
  // of its own.
  incr::SharedDirConfig OtherC;
  OtherC.Dir = tempDir("turns_other");
  incr::SharedDirBackend Other(OtherC);
  ASSERT_TRUE(Other.put(K, Longer));
  std::string LongerFile;
  ASSERT_TRUE(files::readFile(Other.recordPath(K), LongerFile, "record"));

  int Fd = ::open(B.recordPath(K).c_str(), O_WRONLY);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::flock(Fd, LOCK_EX), 0);
  std::atomic<bool> Returned{false};
  std::thread Writer([&] {
    EXPECT_TRUE(B.put(K, Short));
    Returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Returned.load()) << "the put did not wait for the lock";
  EXPECT_EQ(::pwrite(Fd, LongerFile.data(), LongerFile.size(), 0),
            static_cast<ssize_t>(LongerFile.size()));
  ::close(Fd); // Releases the lock.
  Writer.join();

  std::string Got;
  ASSERT_TRUE(incr::SharedDirBackend(C).get(K, Got));
  EXPECT_EQ(Got, Short);
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTripAndRejection) {
  server::Request R;
  std::string Err;
  ASSERT_TRUE(server::parseRequest(
      "{\"gilr\": \"gilr-server-v1\", \"id\": \"r1\", \"method\": "
      "\"verify\", \"name\": \"m\", \"module\": \"fn f() {}\", \"client\": "
      "\"ci\", \"jobs\": 4, \"timeout_ms\": 250}",
      R, Err))
      << Err;
  EXPECT_EQ(R.Id, "r1");
  EXPECT_EQ(R.Method, "verify");
  EXPECT_EQ(R.Name, "m");
  EXPECT_EQ(R.Module, "fn f() {}");
  EXPECT_EQ(R.Client, "ci");
  EXPECT_EQ(R.Jobs, 4u);
  EXPECT_EQ(R.TimeoutMs, 250u);

  // Control methods need no module.
  EXPECT_TRUE(server::parseRequest(
      "{\"gilr\": \"gilr-server-v1\", \"id\": \"p\", \"method\": \"ping\"}",
      R, Err));

  // Rejected: not JSON, missing version tag, foreign version, unknown
  // method, verify without a module.
  EXPECT_FALSE(server::parseRequest("not json", R, Err));
  EXPECT_FALSE(server::parseRequest(
      "{\"id\": \"x\", \"method\": \"ping\"}", R, Err));
  EXPECT_FALSE(server::parseRequest(
      "{\"gilr\": \"gilr-server-v99\", \"id\": \"x\", \"method\": "
      "\"ping\"}",
      R, Err));
  EXPECT_FALSE(server::parseRequest(
      "{\"gilr\": \"gilr-server-v1\", \"id\": \"x\", \"method\": "
      "\"explode\"}",
      R, Err));
  EXPECT_FALSE(server::parseRequest(
      "{\"gilr\": \"gilr-server-v1\", \"id\": \"x\", \"method\": "
      "\"verify\"}",
      R, Err));
}

TEST(Protocol, EventsAreVersionedOneLineJson) {
  for (const std::string &Line :
       {server::renderAccepted("r1", 3),
        server::renderDiagnostic("r1", "warning: something\nwith newline"),
        server::renderError("r1", "broken", 4)}) {
    json::ValuePtr V = json::parse(Line);
    ASSERT_TRUE(V && V->isObject()) << Line;
    json::ValuePtr Tag = V->get("gilr");
    ASSERT_TRUE(Tag && Tag->isString());
    EXPECT_EQ(Tag->Str, server::protocolVersion());
    json::ValuePtr Id = V->get("id");
    ASSERT_TRUE(Id && Id->isString());
    EXPECT_EQ(Id->Str, "r1");
    EXPECT_EQ(Line.find('\n'), std::string::npos) << "NDJSON framing";
  }
}

TEST(Protocol, VerdictArrayIsStableAcrossRenderings) {
  std::vector<server::Verdict> Vs = {{"Vec::push_raw", false, true},
                                     {"client_sum", true, false}};
  std::string A = server::renderVerdicts(Vs);
  EXPECT_EQ(A, server::renderVerdicts(Vs));
  EXPECT_NE(A.find("\"unsafe\""), std::string::npos);
  EXPECT_NE(A.find("\"safe\""), std::string::npos);
  // Replay-stable: no timing or cache provenance in the array.
  EXPECT_EQ(A.find("seconds"), std::string::npos);
  EXPECT_EQ(A.find("cached"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

TEST(Admission, PerClientAndGlobalBudgets) {
  server::AdmissionConfig C;
  C.MaxQueued = 4;
  C.PerClientMaxQueued = 2;
  server::AdmissionQueue Q(C);

  std::size_t Pos = 0;
  uint64_t A1 = Q.enqueue("a", Pos);
  ASSERT_NE(A1, 0u);
  // A1 is immediately active; "a" may queue one more (running + queued = 2)
  // and the third is rejected.
  uint64_t A2 = Q.enqueue("a", Pos);
  ASSERT_NE(A2, 0u);
  EXPECT_EQ(Q.enqueue("a", Pos), 0u);

  // Other clients have their own budget until the global cap bites.
  uint64_t B1 = Q.enqueue("b", Pos);
  ASSERT_NE(B1, 0u);
  uint64_t C1 = Q.enqueue("c", Pos);
  ASSERT_NE(C1, 0u);
  EXPECT_EQ(Q.enqueue("d", Pos), 0u) << "global MaxQueued";

  server::AdmissionStats St = Q.stats();
  EXPECT_EQ(St.Admitted, 4u);
  EXPECT_EQ(St.Rejected, 2u);
  EXPECT_EQ(St.Clients, 3u);

  // Round-robin: after a's first job finishes, b and c go before a's
  // second (they are behind in the rotation but have queued work).
  EXPECT_TRUE(Q.waitTurn(A1));
  Q.done(A1);
  EXPECT_TRUE(Q.waitTurn(B1));
  Q.done(B1);
  EXPECT_TRUE(Q.waitTurn(C1));
  Q.done(C1);
  EXPECT_TRUE(Q.waitTurn(A2));
  Q.done(A2);
  EXPECT_EQ(Q.stats().Completed, 4u);
  EXPECT_EQ(Q.stats().Queued, 0u);
}

TEST(Admission, ShutdownWakesWaiters) {
  server::AdmissionQueue Q({});
  std::size_t Pos = 0;
  uint64_t T1 = Q.enqueue("a", Pos);
  uint64_t T2 = Q.enqueue("a", Pos);
  ASSERT_NE(T1, 0u);
  ASSERT_NE(T2, 0u);
  std::thread Waiter([&] { EXPECT_FALSE(Q.waitTurn(T2)); });
  Q.shutdown();
  Waiter.join();
  EXPECT_EQ(Q.enqueue("a", Pos), 0u) << "stopped queue admits nothing";
}

//===----------------------------------------------------------------------===//
// End to end over a real socket
//===----------------------------------------------------------------------===//

std::string corpusPath(const std::string &Name) {
  return std::string(GILR_CORPUS_DIR) + "/" + Name;
}

/// Runs `gilr client --json` against \p Socket for one module and returns
/// (exit code, parsed result object).
struct ClientRun {
  int Exit = -1;
  std::string RawLine;
  json::ValuePtr Result;
};

ClientRun submit(const std::string &Socket, const std::string &File) {
  server::ClientOptions Opt;
  Opt.SocketPath = Socket;
  Opt.Files = {File};
  Opt.Json = true;
  std::ostringstream Out, Err;
  ClientRun R;
  R.Exit = server::runClient(Opt, Out, Err);
  R.RawLine = Out.str();
  R.Result = json::parse(R.RawLine);
  EXPECT_TRUE(R.Result && R.Result->isObject())
      << "stdout: " << Out.str() << "\nstderr: " << Err.str();
  return R;
}

uint64_t field(const json::ValuePtr &Obj, const std::string &Path) {
  json::ValuePtr V = Obj ? Obj->at(Path) : nullptr;
  return V ? static_cast<uint64_t>(V->numberOr(0)) : ~0ull;
}

/// The raw `"verdicts": [...]` slice of a result line — compared as bytes,
/// because byte-identity (not just semantic equality) is the contract.
std::string verdictSlice(const std::string &Line) {
  std::size_t Start = Line.find("\"verdicts\": [");
  if (Start == std::string::npos)
    return "<no verdicts>";
  std::size_t End = Line.find(']', Start);
  return Line.substr(Start, End == std::string::npos ? End : End - Start + 1);
}

class ServerEndToEnd : public ::testing::Test {
protected:
  std::string startServer(server::Server &S) {
    std::string Err;
    if (!S.start(Err)) {
      ADD_FAILURE() << "server start: " << Err;
      return "";
    }
    Serving = std::thread([&S] { S.serve(); });
    return S.config().SocketPath;
  }
  void TearDown() override {
    if (Serving.joinable())
      Serving.join();
  }
  std::thread Serving;
};

TEST_F(ServerEndToEnd, WarmReplayAndSharedCacheAcrossDaemons) {
  std::string Dir = tempDir("e2e");
  server::ServerConfig Cfg;
  Cfg.SocketPath = Dir + ".sock";
  Cfg.CacheDir = Dir;

  std::string ColdVerdicts, ColdLine;
  {
    server::Server S(Cfg);
    ASSERT_FALSE(startServer(S).empty());

    // Cold: everything is verified, nothing cached.
    ClientRun Cold = submit(Cfg.SocketPath, corpusPath("vec.gilr"));
    EXPECT_EQ(Cold.Exit, 0);
    EXPECT_EQ(field(Cold.Result, "incremental.cached"), 0u);
    EXPECT_GT(field(Cold.Result, "incremental.verified"), 0u);
    EXPECT_GT(field(Cold.Result, "incremental.shared_puts"), 0u);
    ColdVerdicts = verdictSlice(Cold.RawLine);
    ASSERT_NE(ColdVerdicts, "<no verdicts>");

    // Warm, same daemon: replayed verdicts, zero solver work, and the
    // byte-identical verdicts array.
    ClientRun Warm = submit(Cfg.SocketPath, corpusPath("vec.gilr"));
    EXPECT_EQ(Warm.Exit, 0);
    EXPECT_EQ(field(Warm.Result, "incremental.verified"), 0u);
    EXPECT_GT(field(Warm.Result, "incremental.cached"), 0u);
    EXPECT_GT(field(Warm.Result, "incremental.shared_hits"), 0u);
    EXPECT_EQ(field(Warm.Result, "solver.sat_queries"), 0u);
    EXPECT_EQ(field(Warm.Result, "solver.entail_queries"), 0u);
    EXPECT_EQ(field(Warm.Result, "solver.branches"), 0u);
    EXPECT_EQ(verdictSlice(Warm.RawLine), ColdVerdicts);

    S.stop();
    Serving.join(); // serve() must drain before S is destroyed
  }

  // A fresh daemon over the same cache directory: no resident state, yet
  // the shared cache alone replays everything.
  {
    server::Server S2(Cfg);
    ASSERT_FALSE(startServer(S2).empty());
    ClientRun Fresh = submit(Cfg.SocketPath, corpusPath("vec.gilr"));
    EXPECT_EQ(Fresh.Exit, 0);
    EXPECT_EQ(field(Fresh.Result, "incremental.verified"), 0u);
    EXPECT_GT(field(Fresh.Result, "incremental.shared_hits"), 0u);
    EXPECT_EQ(field(Fresh.Result, "solver.sat_queries"), 0u);
    EXPECT_EQ(field(Fresh.Result, "solver.entail_queries"), 0u);
    EXPECT_EQ(verdictSlice(Fresh.RawLine), ColdVerdicts);
    S2.stop();
    Serving.join();
  }
}

TEST_F(ServerEndToEnd, ControlRequestsAndParseFailures) {
  std::string Dir = tempDir("ctl");
  server::ServerConfig Cfg;
  Cfg.SocketPath = Dir + ".sock";
  server::Server S(Cfg);
  ASSERT_FALSE(startServer(S).empty());

  // ping / stats round-trip with exit 0.
  for (const char *Method : {"ping", "stats"}) {
    server::ClientOptions Opt;
    Opt.SocketPath = Cfg.SocketPath;
    Opt.Method = Method;
    std::ostringstream Out, Err;
    EXPECT_EQ(server::runClient(Opt, Out, Err), 0)
        << Method << ": " << Err.str();
  }

  // A module that does not parse: exit 3 through the wire.
  std::string Bad = tempDir("badmod") + ".gilr";
  ASSERT_TRUE(files::writeFile(Bad, "fn broken(", "test module"));
  server::ClientOptions Opt;
  Opt.SocketPath = Cfg.SocketPath;
  Opt.Files = {Bad};
  std::ostringstream Out, Err;
  EXPECT_EQ(server::runClient(Opt, Out, Err), 3);
  std::remove(Bad.c_str());

  // Shutdown request stops the daemon; serve() returns (TearDown joins).
  Opt.Files.clear();
  Opt.Method = "shutdown";
  std::ostringstream Out2, Err2;
  EXPECT_EQ(server::runClient(Opt, Out2, Err2), 0) << Err2.str();

  // Connecting after shutdown is a transport failure (exit 4).
  Serving.join();
  std::ostringstream Out3, Err3;
  Opt.Method = "ping";
  EXPECT_EQ(server::runClient(Opt, Out3, Err3), 4);
}

/// Bytes of the record files under \p Dir's objects/ tree.
uint64_t recordBytes(const std::string &Dir) {
  uint64_t Total = 0;
  std::error_code EC;
  for (std::filesystem::recursive_directory_iterator
           It(Dir + "/objects", EC),
       End;
       !EC && It != End; It.increment(EC))
    if (It->is_regular_file() && It->path().extension() == ".rec")
      Total += It->file_size();
  return Total;
}

TEST_F(ServerEndToEnd, CacheBudgetHoldsWhileServing) {
  std::string Dir = tempDir("budget");
  server::ServerConfig Cfg;
  Cfg.SocketPath = Dir + ".sock";
  Cfg.CacheDir = Dir;
  Cfg.CacheBudgetBytes = 2000;
  server::Server S(Cfg);
  ASSERT_FALSE(startServer(S).empty());
  // The runs store more than the budget together; each run's GC evicts
  // down to it before the result is sent, records of the daemon's own
  // runs included.
  for (const char *Module :
       {"vec.gilr", "stack_safety.gilr", "stack_functional.gilr"}) {
    EXPECT_EQ(submit(Cfg.SocketPath, corpusPath(Module)).Exit, 0) << Module;
    EXPECT_LE(recordBytes(Dir), Cfg.CacheBudgetBytes) << Module;
  }
  S.stop();
  Serving.join();
  EXPECT_LE(recordBytes(Dir), Cfg.CacheBudgetBytes);
  EXPECT_GT(S.backend()->stats().Evictions, 0u);
}

/// The value of the `Threads:` line of /proc/self/status (running threads),
/// or 0 if it cannot be read.
std::size_t runningThreads() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return std::stoul(Line.substr(8));
  return 0;
}

/// Lines of /proc/self/maps, or 0 if it cannot be read. A thread that has
/// exited but was never joined keeps its stack and guard page mapped, two
/// lines, so this also counts the threads a process holds without running
/// them.
std::size_t mappedRegions() {
  std::ifstream Maps("/proc/self/maps");
  std::string Line;
  std::size_t N = 0;
  while (std::getline(Maps, Line))
    ++N;
  return N;
}

TEST_F(ServerEndToEnd, ServedConnectionsLeaveNoThreadBehind) {
  if (runningThreads() == 0 || mappedRegions() == 0)
    GTEST_SKIP() << "needs /proc/self/status and /proc/self/maps";
  std::string Dir = tempDir("reap");
  server::ServerConfig Cfg;
  Cfg.SocketPath = Dir + ".sock";
  server::Server S(Cfg);
  ASSERT_FALSE(startServer(S).empty());

  server::ClientOptions Ping;
  Ping.SocketPath = Cfg.SocketPath;
  Ping.Method = "ping";
  auto ping = [&Ping] {
    std::ostringstream Out, Err;
    EXPECT_EQ(server::runClient(Ping, Out, Err), 0) << Err.str();
  };
  // Warm up first, so that allocator arenas and the like already exist.
  for (int I = 0; I != 10; ++I)
    ping();
  std::size_t Threads = runningThreads(), Regions = mappedRegions();

  // 200 sequential requests, each on its own connection, as `gilr client`
  // makes them. Kept handler threads would add about 400 regions.
  std::size_t MostThreads = Threads;
  for (int I = 0; I != 200; ++I) {
    ping();
    MostThreads = std::max(MostThreads, runningThreads());
  }
  EXPECT_LE(MostThreads, Threads + 4);
  EXPECT_LE(mappedRegions(), Regions + 50);

  S.stop();
  Serving.join();
}

} // namespace
