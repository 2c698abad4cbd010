//===- solver/Replay.cpp ---------------------------------------------------===//

#include "solver/Replay.h"

#include "solver/Flight.h"
#include "solver/Journal.h"
#include "solver/Solver.h"
#include "support/Trace.h"

#include <algorithm>
#include <sstream>

using namespace gilr;
using namespace gilr::replay;

namespace {

const char *verdictName(uint8_t V) {
  switch (V) {
  case 0:
    return "sat";
  case 1:
    return "unsat";
  default:
    return "unknown";
  }
}

} // namespace

ReplayResult replay::replayJournalText(const std::string &Text,
                                       const ReplayOptions &O) {
  ReplayResult Res;
  journal::ParsedJournal J = journal::parseJournal(Text);
  Res.HeaderOk = J.HeaderOk;
  Res.ParseErrors = J.Errors;

  std::vector<const journal::Record *> Queries;
  for (const journal::Record &R : J.Records) {
    if (R.RecKind == journal::Record::Kind::Cached) {
      ++Res.CachedRecords;
      continue;
    }
    ++Res.TotalQueries;
    if (!O.ObligationFilter.empty() && R.Obligation != O.ObligationFilter)
      continue;
    Queries.push_back(&R);
  }

  if (O.SlowestN > 0 && Queries.size() > O.SlowestN) {
    std::stable_sort(Queries.begin(), Queries.end(),
                     [](const journal::Record *A, const journal::Record *B) {
                       return A->DurationNs > B->DurationNs;
                     });
    Queries.resize(O.SlowestN);
  }
  if (O.Limit > 0 && Queries.size() > O.Limit)
    Queries.resize(O.Limit);

  flight::Pause Paused;
  for (const journal::Record *R : Queries) {
    Solver S; // No memo: every verdict is re-solved.
    if (R->MaxBranches > 0)
      S.MaxBranches = R->MaxBranches;
    uint64_t T0 = trace::nowNs();
    SatResult Got = S.checkSat(R->Assertions);
    Res.ReplayNs += trace::nowNs() - T0;
    Res.RecordedNs += R->DurationNs;
    ++Res.Replayed;

    uint64_t Fp = 0, Fp2 = 0;
    stableQueryFingerprint(R->Assertions, S.MaxBranches, Fp, Fp2);
    if (Fp != R->Fp || Fp2 != R->Fp2)
      ++Res.FpMismatches;

    uint8_t GotV = (uint8_t)Got;
    if (GotV == R->Verdict) {
      ++Res.Matches;
    } else if (R->Verdict == 2) {
      // The original run gave up (budget / scheduler job deadline); a
      // definite answer on replay is progress, not drift.
      ++Res.Improved;
    } else {
      Divergence D;
      D.Obligation = R->Obligation;
      D.Side = R->Side;
      D.QueryIdx = R->QueryIdx;
      D.Recorded = R->Verdict;
      D.Replayed = GotV;
      Res.Divergences.push_back(std::move(D));
    }
  }
  return Res;
}

std::string replay::summaryText(const ReplayResult &R) {
  std::ostringstream Out;
  Out << "journal: " << R.TotalQueries << " queries, " << R.CachedRecords
      << " cached obligations";
  if (!R.HeaderOk)
    Out << " [BAD HEADER]";
  Out << "\n";
  for (const std::string &E : R.ParseErrors)
    Out << "  parse error: " << E << "\n";
  Out << "replayed: " << R.Replayed << "  matches: " << R.Matches
      << "  improved: " << R.Improved
      << "  divergences: " << R.Divergences.size() << "\n";
  if (R.FpMismatches)
    Out << "  note: " << R.FpMismatches
        << " fingerprint mismatches (simplifier drift; not gating)\n";
  if (R.Replayed) {
    Out << "recorded time: " << (R.RecordedNs / 1000000.0) << " ms"
        << "  replay time: " << (R.ReplayNs / 1000000.0) << " ms\n";
  }
  for (const Divergence &D : R.Divergences)
    Out << "  DIVERGENCE " << D.Obligation << " side=" << D.Side
        << " idx=" << D.QueryIdx << ": recorded "
        << verdictName(D.Recorded) << ", replayed "
        << verdictName(D.Replayed) << "\n";
  return Out.str();
}
