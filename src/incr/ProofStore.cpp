//===- incr/ProofStore.cpp --------------------------------------------------------===//

#include "incr/ProofStore.h"

#include <algorithm>
#include <cstring>
#include <tuple>

using namespace gilr;
using namespace gilr::incr;

namespace {

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
  /// Reads an element count, rejecting one that the bytes left could not
  /// hold at \p MinBytes per element, so a malformed count never sizes a
  /// container past the input.
  bool count(uint32_t &N, std::size_t MinBytes) {
    return u32(N) && N <= static_cast<std::size_t>(End - Data) / MinBytes;
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

/// The fewest bytes one encoded element can take: a string (its length),
/// a dependency (kind, name, fingerprint, signature flag) and a clause
/// (role, purity flag, fingerprint, text).
constexpr std::size_t StrBytes = 4;
constexpr std::size_t DepBytes = 1 + StrBytes + 8 + 1;
constexpr std::size_t ClauseBytes = 1 + 1 + 8 + StrBytes;

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
      !R.u64(Ob.SelfFp) || !R.u64(Ob.ConfigFp) || !R.count(NDeps, DepBytes))
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
      if (!R.u64(D.Sig.SkeletonFp) || !R.count(NClauses, ClauseBytes))
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

std::string
gilr::incr::encodeSolverBlock(std::vector<SavedQueryVerdict> Entries) {
  std::sort(Entries.begin(), Entries.end(),
            [](const SavedQueryVerdict &A, const SavedQueryVerdict &B) {
              return std::tie(A.Fp, A.Fp2) < std::tie(B.Fp, B.Fp2);
            });
  Writer W;
  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const SavedQueryVerdict &E : Entries) {
    W.u64(E.Fp);
    W.u64(E.Fp2);
    W.u8(static_cast<uint8_t>(E.V.R));
    W.u64(E.V.Branches);
    W.u64(E.V.TheoryChecks);
  }
  return std::move(W.Out);
}

bool gilr::incr::decodeSolverBlock(const std::string &Payload,
                                   std::vector<SavedQueryVerdict> &Out) {
  Reader R(Payload);
  uint32_t N;
  if (!R.count(N, 8 + 8 + 1 + 8 + 8))
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

namespace {

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
  // A reserved byte, always 0: dropping it would change the record layout
  // and turn every existing store cold.
  W.u8(0);
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
  if (!R.u32(Paths) || !R.u32(States) || !R.u32(Ghosts) ||
      !R.count(NErrors, StrBytes))
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
  if (!readSolverStats(R, Out.Solver) || !R.count(NPhases, StrBytes + 8 + 8))
    return false;
  Out.Phases.clear();
  Out.Phases.resize(NPhases);
  for (trace::PhaseStat &P : Out.Phases)
    if (!R.str(P.Key) || !R.u64(P.Count) || !R.u64(P.Nanos))
      return false;
  uint8_t Reserved; // See encodeVerifyReport.
  if (!R.u8(Reserved) || Reserved > 1)
    return false;
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
  // Code, severity, entity, block, stmt, message, note count, file, line,
  // column.
  if (!R.u8(Blocked) || !R.u64(Out.Suppressed) ||
      !R.count(NDiags, StrBytes + 1 + StrBytes + 8 + 8 + StrBytes + 4 +
                           StrBytes + 4 + 4))
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
        !R.str(D.Message) || !R.count(NNotes, StrBytes))
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
      !R.f64(Out.Seconds) || !R.count(NObl, StrBytes + StrBytes + 1))
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
  if (!R.count(NErrors, StrBytes))
    return false;
  Out.Errors.clear();
  Out.Errors.resize(NErrors);
  for (std::string &E : Out.Errors)
    if (!R.str(E))
      return false;
  return readSolverStats(R, Out.Solver) && R.done();
}
