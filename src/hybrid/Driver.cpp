//===- hybrid/Driver.cpp ----------------------------------------------------------===//

#include "hybrid/Driver.h"

#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>

using namespace gilr;
using namespace gilr::hybrid;

namespace {

std::string fmtSeconds(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3fs", S);
  return Buf;
}

std::string fmtMs(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2fms", Ns / 1e6);
  return Buf;
}

const char *sampleVerdictName(uint8_t V) {
  return V == 0 ? "sat" : V == 1 ? "unsat" : "unknown";
}

/// How many slowest queries summaryText() prints (the full capped list is
/// in the telemetry JSON's solver_queries section).
constexpr std::size_t SummarySlowestN = 5;

std::string solverStatsJson(const SolverStats &S) {
  return "{\"sat_queries\": " + std::to_string(S.SatQueries) +
         ", \"entail_queries\": " + std::to_string(S.EntailQueries) +
         ", \"branches\": " + std::to_string(S.Branches) +
         ", \"theory_checks\": " + std::to_string(S.TheoryChecks) +
         ", \"unknown_results\": " + std::to_string(S.UnknownResults) +
         ", \"entail_repeats\": " + std::to_string(S.EntailRepeats) + "}";
}

std::string errorsJson(const std::vector<std::string> &Errors) {
  std::string Out = "[";
  for (std::size_t I = 0; I != Errors.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + jsonEscape(Errors[I]) + "\"";
  }
  return Out + "]";
}

} // namespace

Outcome<Unit> HybridDriver::encodeAndRegister(const std::string &Func) {
  const creusot::PearliteSpec *PSpec = Contracts.lookup(Func);
  if (!PSpec)
    return Outcome<Unit>::failure("no Pearlite contract for " + Func);
  const rmir::Function *F = Env.Prog.lookup(Func);
  if (!F)
    return Outcome<Unit>::failure("no RMIR definition of " + Func);
  Outcome<gilsonite::Spec> S = encodePearliteSpec(*PSpec, *F, Env.Ownables);
  if (!S.ok())
    return S.forward<Unit>();
  // Replace any previous registration (e.g. a show_safety spec).
  if (Env.Specs.lookup(Func)) {
    gilsonite::SpecTable Fresh;
    for (const auto &[Name, Spec] : Env.Specs.all())
      if (Name != Func)
        Fresh.add(Spec);
    Env.Specs = std::move(Fresh);
  }
  Env.Specs.add(std::move(S.value()));
  return Outcome<Unit>::success(Unit());
}

std::string HybridReport::summaryText() const {
  std::string Out;
  Out += "hybrid verification: " + std::string(ok() ? "OK" : "FAILED") + "\n";
  if (Analysis.Enabled)
    Out += Analysis.renderText();
  for (const engine::VerifyReport &R : UnsafeSide) {
    Out += "  [gillian] " + R.Func + ": " +
           (R.Ok ? (R.Cached ? "ok (cached)" : "ok")
                 : R.LintBlocked ? "REJECTED (pre-verification analysis)"
                 : R.TimedOut   ? "UNKNOWN (budget)"
                                : "FAIL") +
           " (" +
           fmtSeconds(R.Seconds) + ", " + std::to_string(R.PathsCompleted) +
           " paths, " + std::to_string(R.Solver.EntailQueries) +
           " entailments, " + std::to_string(R.Solver.SatQueries) +
           " sat queries)\n";
    if (!R.Phases.empty()) {
      std::string Table = trace::phaseReportText(R.Phases);
      std::size_t Pos = 0;
      while (Pos < Table.size()) {
        std::size_t Nl = Table.find('\n', Pos);
        if (Nl == std::string::npos)
          Nl = Table.size();
        Out += "    " + Table.substr(Pos, Nl - Pos) + "\n";
        Pos = Nl + 1;
      }
    }
  }
  for (const creusot::SafeReport &R : SafeSide) {
    unsigned Proved = 0;
    for (const creusot::SafeObligation &O : R.Obligations)
      Proved += O.Ok;
    Out += "  [creusot] " + R.Func + ": " +
           (R.Ok ? (R.Cached ? "ok (cached)" : "ok")
                 : R.TimedOut ? "UNKNOWN (budget)" : "FAIL") +
           " (" +
           fmtSeconds(R.Seconds) + ", " + std::to_string(Proved) + "/" +
           std::to_string(R.Obligations.size()) + " obligations, " +
           std::to_string(R.Solver.EntailQueries) + " entailments)\n";
  }

  // Proof flight recorder: per-query aggregates and the slowest queries
  // with provenance. Only present when queries were timed (GILR_TRACE /
  // GILR_JOURNAL, see solver/Flight.h).
  metrics::SolverQueriesReport FQ =
      metrics::Registry::get().solverQueriesReport();
  if (FQ.Valid && FQ.Queries) {
    Out += "  [solver-queries] " + std::to_string(FQ.Queries) +
           " queries (" + std::to_string(FQ.CacheHits) + " cache hits, " +
           std::to_string(FQ.Unknowns) + " unknown), total " +
           fmtMs(FQ.TotalNs) + ", max " + fmtMs(FQ.MaxNs);
    if (FQ.JournalRecords)
      Out += ", " + std::to_string(FQ.JournalRecords) + " journaled";
    if (FQ.JournalDropped)
      Out += " (" + std::to_string(FQ.JournalDropped) + " DROPPED)";
    Out += "\n";
    std::size_t N = std::min(FQ.Slowest.size(), SummarySlowestN);
    for (std::size_t I = 0; I != N; ++I) {
      const metrics::SolverQuerySample &S = FQ.Slowest[I];
      Out += "    slowest #" + std::to_string(I + 1) + ": " +
             (S.Obligation.empty() ? "<no obligation>" : S.Obligation) +
             " [" + S.Side + std::string("] query ") +
             std::to_string(S.QueryIdx) + " -> " +
             sampleVerdictName(S.Verdict) + " in " + fmtMs(S.DurationNs) +
             " (" + std::to_string(S.PcSize) + " assertions)\n";
    }
  }

  // Scheduler entailment cache: totals plus the per-shard distribution
  // (uneven shards indicate fingerprint skew).
  metrics::QueryCacheReport QC = metrics::Registry::get().queryCacheReport();
  if (QC.Valid) {
    uint64_t Total = QC.Hits + QC.Misses;
    char Rate[16];
    std::snprintf(Rate, sizeof(Rate), "%.1f%%",
                  Total ? 100.0 * QC.Hits / Total : 0.0);
    Out += "  [query-cache] " + std::to_string(QC.Hits) + " hits / " +
           std::to_string(QC.Misses) + " misses (" + Rate + "), " +
           std::to_string(QC.Insertions) + " insertions, " +
           std::to_string(QC.Evictions) + " evictions\n";
    if (!QC.Shards.empty()) {
      Out += "    shards (hits/misses):";
      for (const metrics::QueryCacheShardStat &S : QC.Shards)
        Out += " " + std::to_string(S.Hits) + "/" + std::to_string(S.Misses);
      Out += "\n";
    }
  }

  // The repeat-entailment telemetry saturates at a fixed fingerprint-set
  // cap; when that happened, say so — the repeat rate is a lower bound.
  if (uint64_t Overflow = metrics::Registry::get().entailSeenOverflow())
    Out += "  [telemetry] entail-seen set saturated: " +
           std::to_string(Overflow) +
           " fingerprints dropped; repeat rate is a lower bound\n";
  return Out;
}

std::string HybridReport::renderJson() const {
  std::string Out = "{\n  \"ok\": " + std::string(ok() ? "true" : "false") +
                    ",\n  \"analysis\": " + Analysis.renderJson() +
                    ",\n  \"unsafe_side\": [";
  for (std::size_t I = 0; I != UnsafeSide.size(); ++I) {
    const engine::VerifyReport &R = UnsafeSide[I];
    Out += I ? "," : "";
    Out += "\n    {\"func\": \"" + jsonEscape(R.Func) + "\"";
    Out += ", \"ok\": " + std::string(R.Ok ? "true" : "false");
    if (R.TimedOut)
      Out += ", \"timed_out\": true";
    if (R.Cached)
      Out += ", \"cached\": true";
    if (R.LintBlocked)
      Out += ", \"lint_blocked\": true";
    if (!R.Diags.empty())
      Out += ", \"diagnostics\": " + analysis::renderDiagnosticsJson(R.Diags);
    Out += ", \"seconds\": " + std::to_string(R.Seconds);
    Out += ", \"paths\": " + std::to_string(R.PathsCompleted);
    Out += ", \"states\": " + std::to_string(R.StatesExplored);
    Out += ", \"ghost_annotations\": " + std::to_string(R.GhostAnnotations);
    Out += ", \"solver\": " + solverStatsJson(R.Solver);
    Out += ", \"errors\": " + errorsJson(R.Errors);
    if (!R.Phases.empty()) {
      Out += ", \"phases\": {";
      for (std::size_t P = 0; P != R.Phases.size(); ++P) {
        Out += P ? ", " : "";
        Out += "\"" + jsonEscape(R.Phases[P].Key) +
               "\": {\"count\": " + std::to_string(R.Phases[P].Count) +
               ", \"nanos\": " + std::to_string(R.Phases[P].Nanos) + "}";
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += UnsafeSide.empty() ? "],\n" : "\n  ],\n";
  Out += "  \"safe_side\": [";
  for (std::size_t I = 0; I != SafeSide.size(); ++I) {
    const creusot::SafeReport &R = SafeSide[I];
    Out += I ? "," : "";
    Out += "\n    {\"func\": \"" + jsonEscape(R.Func) + "\"";
    Out += ", \"ok\": " + std::string(R.Ok ? "true" : "false");
    if (R.TimedOut)
      Out += ", \"timed_out\": true";
    if (R.Cached)
      Out += ", \"cached\": true";
    Out += ", \"seconds\": " + std::to_string(R.Seconds);
    Out += ", \"solver\": " + solverStatsJson(R.Solver);
    Out += ", \"obligations\": [";
    for (std::size_t O = 0; O != R.Obligations.size(); ++O) {
      Out += O ? ", " : "";
      Out += "{\"where\": \"" + jsonEscape(R.Obligations[O].Where) +
             "\", \"what\": \"" + jsonEscape(R.Obligations[O].What) +
             "\", \"ok\": " + (R.Obligations[O].Ok ? "true" : "false") + "}";
    }
    Out += "]";
    Out += ", \"errors\": " + errorsJson(R.Errors);
    Out += "}";
  }
  Out += SafeSide.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return Out;
}
