//===- solver/Flight.cpp ---------------------------------------------------===//

#include "solver/Flight.h"

#include "solver/Journal.h"
#include "support/Files.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace gilr;
using namespace gilr::flight;

std::atomic<uint8_t> flight::detail::Flags{0xFF};

namespace {

/// One buffered journal record. It owns no heap memory: long-lived small
/// allocations interleaved with the solver's own cost a cold verify about
/// 2% (measured), so names and assertion texts live in shared tables.
struct Buffered {
  journal::Record R;          ///< Obligation and Assertions left empty.
  std::size_t Obligation = 0; ///< Index into RecorderState::Obligations.
  std::size_t RefsBegin = 0;  ///< R's assertions: RecorderState::Refs
  std::size_t RefsEnd = 0;    ///< [RefsBegin, RefsEnd), as text ids.
};

/// Process-wide recorder state. The mutex guards everything below it; the
/// hot path (recorder disabled) never touches it.
struct RecorderState {
  std::mutex Mu;
  std::string JournalFile;
  /// Records in append order.
  std::vector<Buffered> Buf;
  std::vector<std::string> Obligations;
  std::unordered_map<std::string, std::size_t> ObligationIds;
  std::vector<std::size_t> Refs;
  /// Each distinct assertion node of the session, rendered once when first
  /// recorded (while the solver has just walked it): text id -> its span
  /// of TextArena, and its node.
  std::string TextArena;
  std::vector<std::pair<std::size_t, std::size_t>> TextSpans;
  std::vector<Expr> TextNodes;
  /// Interned node id -> text id + 1 (0: not seen this session). A flat
  /// table, 8 bytes per interned node: interned ids are dense. Foreign
  /// nodes (id 0) get a text per occurrence.
  std::vector<std::size_t> TextOfNode;
  uint64_t Dropped = 0;
  bool AtExitRegistered = false;
};

RecorderState &state() {
  // Leaked for the same reason as the metrics registry: the atexit flush
  // must be able to run after static destruction has begun.
  static RecorderState *S = new RecorderState;
  return *S;
}

/// Journal buffer cap: a runaway run stops buffering (and counts drops)
/// rather than exhausting memory. 2^20 records is far beyond any test or
/// bench workload.
constexpr std::size_t JournalBufCap = 1u << 20;

/// Per-thread obligation provenance installed by ObligationScope.
struct ThreadScope {
  std::string Name;
  char Side = '?';
  uint32_t NextIdx = 0;
};

ThreadScope &threadScope() {
  thread_local ThreadScope S;
  return S;
}

/// The provenance TimingSolver stamped on the query it just timed, read by
/// the QueryJournalSolver directly above it on the same thread.
struct LastProvenance {
  std::string Obligation;
  char Side = '?';
  uint32_t QueryIdx = 0;
};

LastProvenance &lastProv() {
  thread_local LastProvenance P;
  return P;
}

/// Buffers \p R (whose Obligation and Assertions are left empty) as a record
/// of \p Obligation over \p Assertions.
void appendRecord(journal::Record R, const std::string &Obligation,
                  const std::vector<Expr> &Assertions) {
  RecorderState &S = state();
  uint64_t Records = 0, Dropped = 0;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.Buf.size() >= JournalBufCap) {
      ++S.Dropped;
      Dropped = 1;
    } else {
      Buffered B;
      auto [Ob, NewOb] =
          S.ObligationIds.try_emplace(Obligation, S.Obligations.size());
      if (NewOb)
        S.Obligations.push_back(Obligation);
      B.R = std::move(R);
      B.Obligation = Ob->second;
      B.RefsBegin = S.Refs.size();
      for (const Expr &A : Assertions) {
        if (A->Id >= S.TextOfNode.size())
          S.TextOfNode.resize(A->Id + 1);
        std::size_t &Text = S.TextOfNode[A->Id];
        if (Text == 0 || A->Id == 0) {
          std::size_t Begin = S.TextArena.size();
          S.TextArena += journal::exprToJournal(A);
          S.TextSpans.push_back({Begin, S.TextArena.size() - Begin});
          S.TextNodes.push_back(A);
          Text = S.TextSpans.size();
        }
        S.Refs.push_back(Text - 1);
      }
      B.RefsEnd = S.Refs.size();
      S.Buf.push_back(std::move(B));
      Records = 1;
    }
  }
  metrics::Registry::get().noteJournalActivity(Records, Dropped);
}

void applyOptions(const Options &O) {
  RecorderState &S = state();
  uint8_t F = (O.Timing ? 1 : 0) | (O.Journal ? 3 : 0);
  bool WantAtExit = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.JournalFile =
        O.JournalFile.empty() ? std::string()
                              : files::expandPidPlaceholder(O.JournalFile);
    S.Buf.clear();
    S.Obligations.clear();
    S.ObligationIds.clear();
    S.Refs.clear();
    S.TextArena.clear();
    S.TextSpans.clear();
    for (const Expr &E : S.TextNodes)
      S.TextOfNode[E->Id] = 0;
    S.TextNodes.clear();
    S.Dropped = 0;
    if (!S.JournalFile.empty() && !S.AtExitRegistered) {
      S.AtExitRegistered = true;
      WantAtExit = true;
    }
  }
  detail::Flags.store(F, std::memory_order_relaxed);
  if (WantAtExit)
    std::atexit([] { flight::flushJournal(); });
}

Options optionsFromEnv() {
  Options O;
  const char *Journal = std::getenv("GILR_JOURNAL");
  if (Journal && *Journal) {
    O.Journal = O.Timing = true;
    O.JournalFile = Journal;
  }
  const char *Timing = std::getenv("GILR_TIMING");
  if (Timing && *Timing && std::string(Timing) != "0")
    O.Timing = true;
  return O;
}

} // namespace

uint8_t flight::detail::initFromEnvSlow() {
  static std::once_flag Once;
  std::call_once(Once, [] { applyOptions(optionsFromEnv()); });
  return Flags.load(std::memory_order_relaxed);
}

void flight::configure(const Options &O) { applyOptions(O); }

void flight::configureFromEnv() { applyOptions(optionsFromEnv()); }

void flight::reset() { applyOptions(Options()); }

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

ObligationScope::ObligationScope(std::string Name, char Side) {
  ThreadScope &S = threadScope();
  PrevName = std::move(S.Name);
  PrevSide = S.Side;
  PrevNextIdx = S.NextIdx;
  S.Name = std::move(Name);
  S.Side = Side;
  S.NextIdx = 0;
}

ObligationScope::~ObligationScope() {
  ThreadScope &S = threadScope();
  S.Name = std::move(PrevName);
  S.Side = PrevSide;
  S.NextIdx = PrevNextIdx;
}

//===----------------------------------------------------------------------===//
// Decorator layers
//===----------------------------------------------------------------------===//

ChainOutcome TimingSolver::solve(const ChainQuery &Q) {
  ThreadScope &S = threadScope();
  LastProvenance &P = lastProv();
  P.Obligation = S.Name;
  P.Side = S.Side;
  P.QueryIdx = S.NextIdx++;

  uint64_t T0 = trace::nowNs();
  ChainOutcome O = Next.solve(Q);
  O.DurationNs = trace::nowNs() - T0;

  metrics::SolverQuerySample Sample;
  Sample.Obligation = P.Obligation;
  Sample.Side = P.Side;
  Sample.QueryIdx = P.QueryIdx;
  Sample.PcSize = (uint32_t)Q.Work.size();
  uint64_t Fp2Unused;
  Q.stableFingerprint(Sample.Fp, Fp2Unused);
  Sample.Verdict = (uint8_t)O.R;
  Sample.CacheHit = O.CacheHit;
  Sample.DurationNs = O.DurationNs;
  metrics::Registry::get().recordSolverQuery(Sample);
  return O;
}

ChainOutcome QueryJournalSolver::solve(const ChainQuery &Q) {
  ChainOutcome O = Next.solve(Q);
  const LastProvenance &P = lastProv();

  journal::Record R;
  R.RecKind = journal::Record::Kind::Query;
  R.Side = P.Side;
  R.QueryIdx = P.QueryIdx;
  R.PcSize = (uint32_t)Q.Work.size();
  R.CacheHit = O.CacheHit;
  R.Verdict = (uint8_t)O.R;
  R.DurationNs = O.DurationNs;
  R.Branches = O.Branches;
  R.TheoryChecks = O.TheoryChecks;
  R.MaxBranches = Q.MaxBranches;
  Q.stableFingerprint(R.Fp, R.Fp2);
  appendRecord(std::move(R), P.Obligation, Q.Work);
  return O;
}

void flight::noteCachedObligation(const std::string &Name, char Side,
                                  bool Ok) {
  if (!journalEnabled())
    return;
  journal::Record R;
  R.RecKind = journal::Record::Kind::Cached;
  R.Side = Side;
  R.CachedOk = Ok;
  appendRecord(std::move(R), Name, {});
}

//===----------------------------------------------------------------------===//
// Journal rendering / flushing
//===----------------------------------------------------------------------===//

std::string flight::journalText() {
  RecorderState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  // Render order: obligation, side, cached markers first, query index. The
  // sort is stable, so records with equal keys (which a deterministic run
  // never produces) keep their append order.
  auto key = [&](const Buffered &B) {
    return std::make_tuple(std::cref(S.Obligations[B.Obligation]), B.R.Side,
                           B.R.RecKind != journal::Record::Kind::Cached,
                           B.R.QueryIdx);
  };
  std::stable_sort(S.Buf.begin(), S.Buf.end(),
                   [&](const Buffered &A, const Buffered &B) {
                     return key(A) < key(B);
                   });
  // Def numbers follow first use in render order, so they are as
  // deterministic as the records.
  constexpr uint64_t Undefined = ~uint64_t(0);
  std::vector<uint64_t> DefOf(S.TextSpans.size(), Undefined);
  uint64_t NextDef = 0;
  std::vector<uint64_t> Refs;
  std::string Out = journal::journalMagic();
  Out += '\n';
  for (const Buffered &B : S.Buf) {
    Refs.clear();
    for (std::size_t I = B.RefsBegin; I != B.RefsEnd; ++I) {
      std::size_t T = S.Refs[I];
      if (DefOf[T] == Undefined) {
        DefOf[T] = NextDef++;
        auto [Begin, Len] = S.TextSpans[T];
        journal::renderDef(
            DefOf[T], std::string_view(S.TextArena).substr(Begin, Len), Out);
        Out += '\n';
      }
      Refs.push_back(DefOf[T]);
    }
    journal::Record R = B.R;
    R.Obligation = S.Obligations[B.Obligation];
    journal::renderRecord(R, Refs, Out);
    Out += '\n';
  }
  return Out;
}

uint64_t flight::journalRecordCount() {
  RecorderState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Buf.size();
}

uint64_t flight::journalDroppedCount() {
  RecorderState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Dropped;
}

bool flight::flushJournal() {
  std::string Path;
  {
    RecorderState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mu);
    Path = S.JournalFile;
  }
  if (Path.empty())
    return true;
  return files::writeFile(Path, journalText(), "solver query journal");
}
