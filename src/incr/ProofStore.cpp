//===- incr/ProofStore.cpp --------------------------------------------------------===//

#include "incr/ProofStore.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

using namespace gilr;
using namespace gilr::incr;

namespace {

constexpr char Magic[8] = {'G', 'I', 'L', 'R', 'P', 'R', 'F', '1'};
// Version 6 dropped the interprocedural summary records of version 5:
// summaries are recomputed every run. load() accepts this version only, so
// an older store is a cold run that the first writable flush replaces.
constexpr uint32_t FormatVersion = 6;
constexpr uint8_t RecObligation = 1;
constexpr uint8_t RecSolverBlock = 2;

uint64_t fnv1a(const char *Data, std::size_t N, uint64_t H) {
  for (std::size_t I = 0; I != N; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t recordChecksum(uint8_t Type, const std::string &Payload) {
  char T = static_cast<char>(Type);
  uint64_t H = fnv1a(&T, 1, 0xcbf29ce484222325ull);
  return fnv1a(Payload.data(), Payload.size(), H);
}

/// Appends fixed-width values to a byte string.
class Writer {
public:
  std::string Out;

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }

private:
  void raw(const void *P, std::size_t N) {
    Out.append(static_cast<const char *>(P), N);
  }
};

/// Bounds-checked reader over a byte string; every getter returns false
/// once the input is exhausted or malformed.
class Reader {
public:
  Reader(const char *Data, std::size_t N) : Data(Data), End(Data + N) {}
  explicit Reader(const std::string &S) : Reader(S.data(), S.size()) {}

  bool u8(uint8_t &V) {
    if (End - Data < 1)
      return false;
    V = static_cast<uint8_t>(*Data++);
    return true;
  }
  bool u32(uint32_t &V) { return raw(&V, sizeof V); }
  bool u64(uint64_t &V) { return raw(&V, sizeof V); }
  bool f64(double &V) {
    uint64_t Bits;
    if (!u64(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof V);
    return true;
  }
  bool str(std::string &S) {
    uint32_t N;
    if (!u32(N) || static_cast<std::size_t>(End - Data) < N)
      return false;
    S.assign(Data, N);
    Data += N;
    return true;
  }
  bool done() const { return Data == End; }

private:
  bool raw(void *P, std::size_t N) {
    if (static_cast<std::size_t>(End - Data) < N)
      return false;
    std::memcpy(P, Data, N);
    Data += N;
    return true;
  }

  const char *Data;
  const char *End;
};

} // namespace

std::string gilr::incr::encodeObligationRecord(const StoredObligation &Ob) {
  Writer W;
  W.u8(static_cast<uint8_t>(Ob.S));
  W.str(Ob.Name);
  W.u64(Ob.SelfFp);
  W.u64(Ob.ConfigFp);
  W.u32(static_cast<uint32_t>(Ob.Deps.size()));
  for (const StoredDep &D : Ob.Deps) {
    W.u8(static_cast<uint8_t>(D.K));
    W.str(D.Name);
    W.u64(D.Fp);
    // The clause-level signature (incr/SpecDiff.h). Live formulas are not
    // persisted — pure clauses round-trip through their journal text.
    W.u8(D.HasSig ? 1 : 0);
    if (D.HasSig) {
      W.u64(D.Sig.SkeletonFp);
      W.u32(static_cast<uint32_t>(D.Sig.Clauses.size()));
      for (const ClauseSig &C : D.Sig.Clauses) {
        W.u8(static_cast<uint8_t>(C.Role));
        W.u8(C.Pure ? 1 : 0);
        W.u64(C.Fp);
        W.str(C.Text);
      }
    }
  }
  W.str(Ob.Blob);
  return std::move(W.Out);
}

bool gilr::incr::decodeObligationRecord(const std::string &Payload,
                                        StoredObligation &Ob) {
  Reader R(Payload);
  uint8_t S;
  uint32_t NDeps;
  if (!R.u8(S) || S > static_cast<uint8_t>(Side::Lint) || !R.str(Ob.Name) ||
      !R.u64(Ob.SelfFp) || !R.u64(Ob.ConfigFp) || !R.u32(NDeps))
    return false;
  Ob.S = static_cast<Side>(S);
  Ob.Deps.clear();
  Ob.Deps.reserve(NDeps);
  for (uint32_t I = 0; I != NDeps; ++I) {
    StoredDep D;
    uint8_t K;
    if (!R.u8(K) || K > static_cast<uint8_t>(deps::Kind::Contract) ||
        !R.str(D.Name) || !R.u64(D.Fp))
      return false;
    D.K = static_cast<deps::Kind>(K);
    uint8_t HasSig;
    if (!R.u8(HasSig) || HasSig > 1)
      return false;
    D.HasSig = HasSig != 0;
    if (D.HasSig) {
      uint32_t NClauses;
      if (!R.u64(D.Sig.SkeletonFp) || !R.u32(NClauses))
        return false;
      D.Sig.Clauses.reserve(NClauses);
      for (uint32_t J = 0; J != NClauses; ++J) {
        ClauseSig C;
        uint8_t Role, Pure;
        if (!R.u8(Role) ||
            Role > static_cast<uint8_t>(ClauseRole::ContractPost) ||
            !R.u8(Pure) || Pure > 1 || !R.u64(C.Fp) || !R.str(C.Text))
          return false;
        C.Role = static_cast<ClauseRole>(Role);
        C.Pure = Pure != 0;
        D.Sig.Clauses.push_back(std::move(C));
      }
    }
    Ob.Deps.push_back(std::move(D));
  }
  return R.str(Ob.Blob) && R.done();
}

namespace {

std::string encodeSolverBlock(const std::vector<SavedQueryVerdict> &Es) {
  Writer W;
  W.u32(static_cast<uint32_t>(Es.size()));
  for (const SavedQueryVerdict &E : Es) {
    W.u64(E.Fp);
    W.u64(E.Fp2);
    W.u8(static_cast<uint8_t>(E.V.R));
    W.u64(E.V.Branches);
    W.u64(E.V.TheoryChecks);
  }
  return std::move(W.Out);
}

bool decodeSolverBlock(const std::string &Payload,
                       std::vector<SavedQueryVerdict> &Out) {
  Reader R(Payload);
  uint32_t N;
  if (!R.u32(N))
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    SavedQueryVerdict E;
    uint8_t V;
    if (!R.u64(E.Fp) || !R.u64(E.Fp2) || !R.u8(V) ||
        V > static_cast<uint8_t>(SatResult::Unknown) || !R.u64(E.V.Branches) ||
        !R.u64(E.V.TheoryChecks))
      return false;
    E.V.R = static_cast<SatResult>(V);
    Out.push_back(E);
  }
  return R.done();
}

void writeSolverStats(Writer &W, const SolverStats &S) {
  W.u64(S.SatQueries);
  W.u64(S.EntailQueries);
  W.u64(S.Branches);
  W.u64(S.TheoryChecks);
  W.u64(S.UnknownResults);
  W.u64(S.EntailRepeats);
}

bool readSolverStats(Reader &R, SolverStats &S) {
  uint64_t V[6];
  for (uint64_t &X : V)
    if (!R.u64(X))
      return false;
  S.SatQueries = V[0];
  S.EntailQueries = V[1];
  S.Branches = V[2];
  S.TheoryChecks = V[3];
  S.UnknownResults = V[4];
  S.EntailRepeats = V[5];
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Load / flush
//===----------------------------------------------------------------------===//

bool ProofStore::load(bool AllowCompaction) {
  Index.clear();
  Solver.clear();
  Truncated = false;
  Dirty.clear();
  SolverDirty = false;
  DiskValid = false;

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;

  char Head[8];
  uint32_t Version = 0, Reserved = 0;
  if (std::fread(Head, 1, sizeof Head, F) != sizeof Head ||
      std::memcmp(Head, Magic, sizeof Magic) != 0 ||
      std::fread(&Version, sizeof Version, 1, F) != 1 ||
      Version != FormatVersion ||
      std::fread(&Reserved, sizeof Reserved, 1, F) != 1) {
    std::fclose(F);
    return false;
  }

  // Superseded records: obligation records replaced by a later one for the
  // same key, and solver blocks replaced by a later block. They are the
  // growth of the append-log that load-time compaction reclaims.
  uint64_t Superseded = 0;
  for (;;) {
    uint8_t Type;
    uint32_t Len;
    if (std::fread(&Type, 1, 1, F) != 1)
      break; // Clean EOF.
    if (std::fread(&Len, sizeof Len, 1, F) != 1) {
      Truncated = true;
      break;
    }
    std::string Payload(Len, '\0');
    uint64_t Checksum;
    if ((Len && std::fread(&Payload[0], 1, Len, F) != Len) ||
        std::fread(&Checksum, sizeof Checksum, 1, F) != 1 ||
        Checksum != recordChecksum(Type, Payload)) {
      Truncated = true;
      break;
    }
    if (Type == RecObligation) {
      StoredObligation Ob;
      if (!decodeObligationRecord(Payload, Ob)) {
        Truncated = true;
        break;
      }
      // Append-log semantics: the last record for a key wins.
      std::pair<uint8_t, std::string> Key{static_cast<uint8_t>(Ob.S),
                                          Ob.Name};
      if (!Index.emplace(Key, Ob).second) {
        ++Superseded;
        Index[Key] = std::move(Ob);
      }
    } else if (Type == RecSolverBlock) {
      std::vector<SavedQueryVerdict> Es;
      if (!decodeSolverBlock(Payload, Es)) {
        Truncated = true;
        break;
      }
      if (!Solver.empty())
        ++Superseded;
      Solver = std::move(Es);
    }
    // Unknown record types are skipped: forward-compatible within a
    // version, since the checksum already validated the payload length.
  }
  std::fclose(F);

  DiskValid = !Truncated;
  if (AllowCompaction && (Superseded > 0 || Truncated)) {
    // Rewrite the log as a compacted snapshot: supersede chains collapse
    // and torn tails are dropped.
    if (writeSnapshot()) {
      ++Compactions;
      DiskValid = true;
    }
  }
  return true;
}

const StoredObligation *ProofStore::lookup(Side S,
                                           const std::string &Name) const {
  auto It = Index.find({static_cast<uint8_t>(S), Name});
  return It == Index.end() ? nullptr : &It->second;
}

void ProofStore::put(StoredObligation Ob) {
  std::pair<uint8_t, std::string> Key{static_cast<uint8_t>(Ob.S), Ob.Name};
  Dirty.insert(Key);
  Index[std::move(Key)] = std::move(Ob);
}

void ProofStore::setSolverEntries(std::vector<SavedQueryVerdict> Entries) {
  // A fully warm run exports the same entries it loaded (possibly in a
  // different shard order); comparing as sorted multisets keeps the flush a
  // no-op then, so an unchanged store file stays byte-identical on disk.
  auto Less = [](const SavedQueryVerdict &A, const SavedQueryVerdict &B) {
    return std::tie(A.Fp, A.Fp2) < std::tie(B.Fp, B.Fp2);
  };
  auto Same = [](const SavedQueryVerdict &A, const SavedQueryVerdict &B) {
    return A.Fp == B.Fp && A.Fp2 == B.Fp2 && A.V.R == B.V.R &&
           A.V.Branches == B.V.Branches && A.V.TheoryChecks == B.V.TheoryChecks;
  };
  if (Entries.size() == Solver.size()) {
    std::vector<SavedQueryVerdict> A = Entries, B = Solver;
    std::sort(A.begin(), A.end(), Less);
    std::sort(B.begin(), B.end(), Less);
    bool Equal = true;
    for (std::size_t I = 0; I != A.size() && Equal; ++I)
      Equal = Same(A[I], B[I]);
    if (Equal)
      return;
  }
  Solver = std::move(Entries);
  SolverDirty = true;
}

namespace {

bool writeStoreRecord(std::FILE *F, uint8_t Type, const std::string &Payload) {
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  uint64_t Checksum = recordChecksum(Type, Payload);
  return std::fwrite(&Type, 1, 1, F) == 1 &&
         std::fwrite(&Len, sizeof Len, 1, F) == 1 &&
         (!Len || std::fwrite(Payload.data(), 1, Len, F) == Len) &&
         std::fwrite(&Checksum, sizeof Checksum, 1, F) == 1;
}

} // namespace

bool ProofStore::writeSnapshot() {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;

  uint32_t Version = FormatVersion, Reserved = 0;
  bool Ok = std::fwrite(Magic, 1, sizeof Magic, F) == sizeof Magic &&
            std::fwrite(&Version, sizeof Version, 1, F) == 1 &&
            std::fwrite(&Reserved, sizeof Reserved, 1, F) == 1;
  for (const auto &[Key, Ob] : Index)
    Ok = Ok && writeStoreRecord(F, RecObligation, encodeObligationRecord(Ob));
  if (!Solver.empty())
    Ok = Ok && writeStoreRecord(F, RecSolverBlock, encodeSolverBlock(Solver));
  Ok = std::fflush(F) == 0 && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  Dirty.clear();
  SolverDirty = false;
  return true;
}

bool ProofStore::flush() {
  if (DiskValid && Dirty.empty() && !SolverDirty)
    return true; // Nothing changed since load: leave the file untouched.

  if (DiskValid) {
    // Cheap warm-loop write: append only the changed records. The log's
    // last-record-wins semantics make them supersede the on-disk ones, and
    // the next writable load compacts the chain away.
    std::FILE *F = std::fopen(Path.c_str(), "ab");
    if (!F)
      return false;
    bool Ok = true;
    for (const auto &Key : Dirty) {
      auto It = Index.find(Key);
      if (It != Index.end())
        Ok = Ok && writeStoreRecord(F, RecObligation,
                                    encodeObligationRecord(It->second));
    }
    if (SolverDirty && !Solver.empty())
      Ok = Ok &&
           writeStoreRecord(F, RecSolverBlock, encodeSolverBlock(Solver));
    Ok = std::fflush(F) == 0 && Ok;
    Ok = std::fclose(F) == 0 && Ok;
    if (Ok) {
      Dirty.clear();
      SolverDirty = false;
      return true;
    }
    // A torn append degrades the next load to the valid prefix; fall back
    // to the atomic snapshot path to leave a consistent file behind.
  }

  if (!writeSnapshot())
    return false;
  DiskValid = true;
  return true;
}

//===----------------------------------------------------------------------===//
// Report blobs
//===----------------------------------------------------------------------===//

std::string gilr::incr::encodeVerifyReport(const engine::VerifyReport &R) {
  Writer W;
  W.str(R.Func);
  W.u8(R.Ok ? 1 : 0);
  W.u8(R.TimedOut ? 1 : 0);
  W.f64(R.Seconds);
  W.u32(R.PathsCompleted);
  W.u32(R.StatesExplored);
  W.u32(R.GhostAnnotations);
  W.u32(static_cast<uint32_t>(R.Errors.size()));
  for (const std::string &E : R.Errors)
    W.str(E);
  writeSolverStats(W, R.Solver);
  W.u32(static_cast<uint32_t>(R.Phases.size()));
  for (const trace::PhaseStat &P : R.Phases) {
    W.str(P.Key);
    W.u64(P.Count);
    W.u64(P.Nanos);
  }
  W.u8(R.Static ? 1 : 0);
  return std::move(W.Out);
}

bool gilr::incr::decodeVerifyReport(const std::string &Blob,
                                    engine::VerifyReport &Out) {
  Reader R(Blob);
  uint8_t Ok, TimedOut;
  uint32_t NErrors, NPhases;
  if (!R.str(Out.Func) || !R.u8(Ok) || !R.u8(TimedOut) || !R.f64(Out.Seconds))
    return false;
  uint32_t Paths, States, Ghosts;
  if (!R.u32(Paths) || !R.u32(States) || !R.u32(Ghosts) || !R.u32(NErrors))
    return false;
  Out.Ok = Ok != 0;
  Out.TimedOut = TimedOut != 0;
  Out.PathsCompleted = Paths;
  Out.StatesExplored = States;
  Out.GhostAnnotations = Ghosts;
  Out.Errors.clear();
  Out.Errors.resize(NErrors);
  for (std::string &E : Out.Errors)
    if (!R.str(E))
      return false;
  if (!readSolverStats(R, Out.Solver) || !R.u32(NPhases))
    return false;
  Out.Phases.clear();
  Out.Phases.resize(NPhases);
  for (trace::PhaseStat &P : Out.Phases)
    if (!R.str(P.Key) || !R.u64(P.Count) || !R.u64(P.Nanos))
      return false;
  uint8_t Static;
  if (!R.u8(Static) || Static > 1)
    return false;
  Out.Static = Static != 0;
  return R.done();
}

std::string gilr::incr::encodeLintVerdict(const analysis::EntityVerdict &V) {
  Writer W;
  W.u8(V.Blocked ? 1 : 0);
  W.u64(V.Suppressed);
  W.u32(static_cast<uint32_t>(V.Diags.size()));
  for (const analysis::Diagnostic &D : V.Diags) {
    W.str(D.Code);
    W.u8(static_cast<uint8_t>(D.Sev));
    W.str(D.Entity);
    W.u64(static_cast<uint64_t>(static_cast<int64_t>(D.Block)));
    W.u64(static_cast<uint64_t>(static_cast<int64_t>(D.Stmt)));
    W.str(D.Message);
    W.u32(static_cast<uint32_t>(D.Notes.size()));
    for (const std::string &N : D.Notes)
      W.str(N);
    W.str(D.File);
    W.u32(D.Line);
    W.u32(D.Col);
  }
  return std::move(W.Out);
}

bool gilr::incr::decodeLintVerdict(const std::string &Blob,
                                   analysis::EntityVerdict &Out) {
  Reader R(Blob);
  uint8_t Blocked;
  uint32_t NDiags;
  if (!R.u8(Blocked) || !R.u64(Out.Suppressed) || !R.u32(NDiags))
    return false;
  Out.Blocked = Blocked != 0;
  Out.Diags.clear();
  Out.Diags.resize(NDiags);
  for (analysis::Diagnostic &D : Out.Diags) {
    uint8_t Sev;
    uint64_t Block, Stmt;
    uint32_t NNotes;
    if (!R.str(D.Code) || !R.u8(Sev) ||
        Sev > static_cast<uint8_t>(analysis::Severity::Warning) ||
        !R.str(D.Entity) || !R.u64(Block) || !R.u64(Stmt) ||
        !R.str(D.Message) || !R.u32(NNotes))
      return false;
    D.Sev = static_cast<analysis::Severity>(Sev);
    D.Block = static_cast<int>(static_cast<int64_t>(Block));
    D.Stmt = static_cast<int>(static_cast<int64_t>(Stmt));
    D.Notes.clear();
    D.Notes.resize(NNotes);
    for (std::string &N : D.Notes)
      if (!R.str(N))
        return false;
    if (!R.str(D.File) || !R.u32(D.Line) || !R.u32(D.Col))
      return false;
  }
  return R.done();
}

std::string gilr::incr::encodeSafeReport(const creusot::SafeReport &R) {
  Writer W;
  W.str(R.Func);
  W.u8(R.Ok ? 1 : 0);
  W.u8(R.TimedOut ? 1 : 0);
  W.f64(R.Seconds);
  W.u32(static_cast<uint32_t>(R.Obligations.size()));
  for (const creusot::SafeObligation &O : R.Obligations) {
    W.str(O.Where);
    W.str(O.What);
    W.u8(O.Ok ? 1 : 0);
  }
  W.u32(static_cast<uint32_t>(R.Errors.size()));
  for (const std::string &E : R.Errors)
    W.str(E);
  writeSolverStats(W, R.Solver);
  return std::move(W.Out);
}

bool gilr::incr::decodeSafeReport(const std::string &Blob,
                                  creusot::SafeReport &Out) {
  Reader R(Blob);
  uint8_t Ok, TimedOut;
  uint32_t NObl, NErrors;
  if (!R.str(Out.Func) || !R.u8(Ok) || !R.u8(TimedOut) ||
      !R.f64(Out.Seconds) || !R.u32(NObl))
    return false;
  Out.Ok = Ok != 0;
  Out.TimedOut = TimedOut != 0;
  Out.Obligations.clear();
  Out.Obligations.resize(NObl);
  for (creusot::SafeObligation &O : Out.Obligations) {
    uint8_t OOk;
    if (!R.str(O.Where) || !R.str(O.What) || !R.u8(OOk))
      return false;
    O.Ok = OOk != 0;
  }
  if (!R.u32(NErrors))
    return false;
  Out.Errors.clear();
  Out.Errors.resize(NErrors);
  for (std::string &E : Out.Errors)
    if (!R.str(E))
      return false;
  return readSolverStats(R, Out.Solver) && R.done();
}
