//===- support/Trace.cpp ----------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Files.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

using namespace gilr;
using namespace gilr::trace;

std::atomic<bool> gilr::trace::detail::EnabledFlag{false};

namespace {

/// One buffered Chrome trace event. Categories and names are string
/// literals at every call site, so only the detail needs owned storage.
struct Event {
  const char *Cat;
  const char *Name;
  std::string Detail;
  uint64_t TsNs;
  uint64_t DurNs; ///< 0 for instants.
  uint32_t Tid;
  char Ph; ///< 'X' complete, 'i' instant.
};

struct Aggregate {
  uint64_t Count = 0;
  uint64_t Nanos = 0;
};

/// Events are capped so a runaway run cannot exhaust memory; the drop count
/// is reported at flush time rather than truncating silently.
constexpr std::size_t MaxEvents = 1u << 20;

struct SinkState {
  std::mutex Mu;
  Options Opts;
  std::vector<Event> Events;
  uint64_t DroppedEvents = 0;
  std::map<std::string, Aggregate> Phases;
  uint32_t NextTid = 1;
};

SinkState &sink() {
  // Deliberately leaked (like the metrics registry): the atexit flush must
  // be able to read the sink after static destruction has begun.
  static SinkState *S = new SinkState;
  return *S;
}

uint64_t originNs() {
  static const uint64_t Origin = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return Origin;
}

uint32_t threadId() {
  thread_local uint32_t Tid = 0;
  if (Tid == 0) {
    std::lock_guard<std::mutex> Lock(sink().Mu);
    Tid = sink().NextTid++;
  }
  return Tid;
}

/// The per-thread stack of open spans (static strings only; maintained only
/// while tracing is enabled).
struct SpanFrame {
  const char *Cat;
  const char *Name;
};
constexpr uint32_t MaxSpanDepth = 256;
constexpr uint32_t OverflowToken = UINT32_MAX;
thread_local SpanFrame SpanStack[MaxSpanDepth];
thread_local uint32_t SpanDepth = 0;

bool sameKey(const SpanFrame &F, const char *Cat, const char *Name) {
  return std::strcmp(F.Cat, Cat) == 0 && std::strcmp(F.Name, Name) == 0;
}

void recordEvent(Event E) {
  SinkState &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Opts.M != Mode::Json)
    return;
  if (S.Events.size() >= MaxEvents) {
    ++S.DroppedEvents;
    return;
  }
  S.Events.push_back(std::move(E));
}

std::string nsToUs(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned long long>(Ns % 1000));
  return Buf;
}

std::string eventJson(const Event &E) {
  std::string J = "{\"name\":\"" + jsonEscape(E.Name) + "\",\"cat\":\"" +
                  jsonEscape(E.Cat) + "\",\"ph\":\"" + E.Ph +
                  "\",\"ts\":" + nsToUs(E.TsNs) + ",\"pid\":1,\"tid\":" +
                  std::to_string(E.Tid);
  if (E.Ph == 'X')
    J += ",\"dur\":" + nsToUs(E.DurNs);
  if (E.Ph == 'i')
    J += ",\"s\":\"t\"";
  if (!E.Detail.empty())
    J += ",\"args\":{\"detail\":\"" + jsonEscape(E.Detail) + "\"}";
  J += "}";
  return J;
}

void flushAtExit() { flush(); }

} // namespace

uint64_t gilr::trace::nowNs() {
  return static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) -
         originNs();
}

Mode gilr::trace::mode() {
  SinkState &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Opts.M;
}

void gilr::trace::configure(const Options &O) {
  SinkState &S = sink();
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Opts = O;
  }
  (void)originNs(); // Pin the time origin before the first span.
  detail::EnabledFlag.store(O.M != Mode::Off, std::memory_order_relaxed);
}

Mode gilr::trace::modeFromEnv() {
  const char *Env = std::getenv("GILR_TRACE");
  std::string V = Env ? Env : "";
  if (V == "text" || V == "on" || V == "1")
    return Mode::Text;
  if (V == "json" || V == "chrome")
    return Mode::Json;
  return Mode::Off;
}

void gilr::trace::configureFromEnv() {
  Options O;
  O.M = modeFromEnv();
  if (const char *F = std::getenv("GILR_TRACE_FILE"))
    O.TraceFile = F;
  if (const char *F = std::getenv("GILR_STATS_FILE"))
    O.StatsFile = F;
  configure(O);
  if (O.M != Mode::Off) {
    static bool Registered = false;
    if (!Registered) {
      Registered = true;
      std::atexit(flushAtExit);
    }
  }
}

void gilr::trace::reset() {
  SinkState &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Events.clear();
  S.DroppedEvents = 0;
  S.Phases.clear();
}

uint32_t gilr::trace::detail::beginSpan(const char *Cat, const char *Name) {
  if (SpanDepth < MaxSpanDepth) {
    SpanStack[SpanDepth] = SpanFrame{Cat, Name};
    return SpanDepth++;
  }
  return OverflowToken;
}

void gilr::trace::detail::endSpan(uint32_t Token, const char *Cat,
                                  const char *Name, uint64_t StartNs,
                                  std::string Detail) {
  uint64_t End = nowNs();
  uint64_t Dur = End > StartNs ? End - StartNs : 0;

  bool NestedSameKey = false;
  if (Token != OverflowToken) {
    for (uint32_t I = 0; I < Token && I < SpanDepth; ++I)
      if (sameKey(SpanStack[I], Cat, Name)) {
        NestedSameKey = true;
        break;
      }
    if (SpanDepth > Token)
      SpanDepth = Token; // Pop this frame (and any leaked deeper frames).
  }

  SinkState &S = sink();
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!NestedSameKey) {
      Aggregate &A = S.Phases[std::string(Cat) + "/" + Name];
      ++A.Count;
      A.Nanos += Dur;
    }
  }
  recordEvent(
      Event{Cat, Name, std::move(Detail), StartNs, Dur, threadId(), 'X'});
}

void gilr::trace::detail::instantImpl(const char *Cat, const char *Name,
                                      std::string Detail) {
  SinkState &S = sink();
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    ++S.Phases[std::string(Cat) + "/" + Name].Count;
  }
  recordEvent(
      Event{Cat, Name, std::move(Detail), nowNs(), 0, threadId(), 'i'});
}

std::string gilr::trace::spanStack() {
  std::string Out;
  for (uint32_t I = 0; I < SpanDepth; ++I) {
    if (!Out.empty())
      Out += " > ";
    Out += SpanStack[I].Cat;
    Out += ":";
    Out += SpanStack[I].Name;
  }
  return Out;
}

std::vector<PhaseStat> gilr::trace::phases() {
  SinkState &S = sink();
  std::vector<PhaseStat> Out;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Out.reserve(S.Phases.size());
    for (const auto &[Key, A] : S.Phases)
      Out.push_back(PhaseStat{Key, A.Count, A.Nanos});
  }
  std::sort(Out.begin(), Out.end(),
            [](const PhaseStat &A, const PhaseStat &B) {
              return A.Nanos > B.Nanos;
            });
  return Out;
}

std::vector<PhaseStat>
gilr::trace::diffPhases(const std::vector<PhaseStat> &Before,
                        const std::vector<PhaseStat> &After) {
  std::map<std::string, PhaseStat> Base;
  for (const PhaseStat &P : Before)
    Base[P.Key] = P;
  std::vector<PhaseStat> Out;
  for (const PhaseStat &P : After) {
    PhaseStat D = P;
    auto It = Base.find(P.Key);
    if (It != Base.end()) {
      D.Count -= It->second.Count;
      D.Nanos -= It->second.Nanos;
    }
    if (D.Count != 0 || D.Nanos != 0)
      Out.push_back(std::move(D));
  }
  std::sort(Out.begin(), Out.end(),
            [](const PhaseStat &A, const PhaseStat &B) {
              return A.Nanos > B.Nanos;
            });
  return Out;
}

std::string gilr::trace::phaseReportText(const std::vector<PhaseStat> &Stats) {
  std::size_t Width = 8;
  for (const PhaseStat &P : Stats)
    Width = std::max(Width, P.Key.size());
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "  %-*s %10s %12s\n",
                static_cast<int>(Width), "phase", "count", "seconds");
  Out += Line;
  for (const PhaseStat &P : Stats) {
    std::snprintf(Line, sizeof(Line), "  %-*s %10llu %12.6f\n",
                  static_cast<int>(Width), P.Key.c_str(),
                  static_cast<unsigned long long>(P.Count),
                  static_cast<double>(P.Nanos) / 1e9);
    Out += Line;
  }
  return Out;
}

std::size_t gilr::trace::eventCount() {
  SinkState &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Events.size();
}

std::string gilr::trace::renderTraceJson() {
  SinkState &S = sink();
  std::vector<Event> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Snapshot = S.Events;
  }
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t I = 0; I != Snapshot.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\n" + eventJson(Snapshot[I]);
  }
  Out += "\n]}\n";
  return Out;
}

std::string
gilr::trace::renderStatsJson(const std::vector<std::string> &CaseStudies) {
  metrics::Registry &R = metrics::Registry::get();
  const SolverStats &SS = R.Solver;

  std::string Out = "{\n  \"schema\": \"gilr-telemetry-v1\",\n";

  Out += "  \"solver\": {";
  Out += "\"sat_queries\": " + std::to_string(SS.SatQueries);
  Out += ", \"entail_queries\": " + std::to_string(SS.EntailQueries);
  Out += ", \"branches\": " + std::to_string(SS.Branches);
  Out += ", \"theory_checks\": " + std::to_string(SS.TheoryChecks);
  Out += ", \"unknown_results\": " + std::to_string(SS.UnknownResults);
  Out += ", \"entail_repeats\": " + std::to_string(SS.EntailRepeats);
  char Rate[32];
  std::snprintf(Rate, sizeof(Rate), "%.4f",
                SS.EntailQueries
                    ? static_cast<double>(SS.EntailRepeats) /
                          static_cast<double>(SS.EntailQueries)
                    : 0.0);
  Out += std::string(", \"entail_repeat_rate\": ") + Rate;
  // The fingerprint set is capped (metrics::EntailSeenCap): once it
  // overflows, the repeat rate is only a lower bound.
  uint64_t Overflow = R.entailSeenOverflow();
  Out += ", \"entail_seen_overflow\": " + std::to_string(Overflow);
  Out += std::string(", \"entail_repeat_rate_approx\": ") +
         (Overflow ? "true" : "false");
  Out += "},\n";

  // The scheduler's entailment-cache snapshot (recorded at the end of the
  // most recent scheduled run); omitted until one has completed.
  metrics::QueryCacheReport QC = R.queryCacheReport();
  if (QC.Valid) {
    auto FmtRate = [](uint64_t Hits, uint64_t Misses) {
      char Buf[32];
      uint64_t Total = Hits + Misses;
      std::snprintf(Buf, sizeof(Buf), "%.4f",
                    Total ? static_cast<double>(Hits) /
                                static_cast<double>(Total)
                          : 0.0);
      return std::string(Buf);
    };
    Out += "  \"query_cache\": {";
    Out += "\"hits\": " + std::to_string(QC.Hits);
    Out += ", \"misses\": " + std::to_string(QC.Misses);
    Out += ", \"insertions\": " + std::to_string(QC.Insertions);
    Out += ", \"evictions\": " + std::to_string(QC.Evictions);
    Out += ", \"hit_rate\": " + FmtRate(QC.Hits, QC.Misses);
    Out += ", \"shards\": [";
    for (std::size_t I = 0; I != QC.Shards.size(); ++I) {
      if (I)
        Out += ", ";
      Out += "{\"hits\": " + std::to_string(QC.Shards[I].Hits) +
             ", \"misses\": " + std::to_string(QC.Shards[I].Misses) +
             ", \"hit_rate\": " +
             FmtRate(QC.Shards[I].Hits, QC.Shards[I].Misses) + "}";
    }
    Out += "]},\n";
  }

  // Summary of the pre-verification static analysis pass (recorded by
  // src/analysis/ at the end of the most recent run); omitted until one has
  // completed. Full diagnostics live in the driver reports, not here.
  metrics::AnalysisReport AR = R.analysisReport();
  if (AR.Valid) {
    char Secs[32];
    std::snprintf(Secs, sizeof(Secs), "%.6f", AR.Seconds);
    Out += "  \"analysis\": {";
    Out += std::string("\"enabled\": ") + (AR.Enabled ? "true" : "false");
    Out += ", \"entities\": " + std::to_string(AR.Entities);
    Out += ", \"cached\": " + std::to_string(AR.Cached);
    Out += ", \"blocked\": " + std::to_string(AR.Blocked);
    Out += ", \"errors\": " + std::to_string(AR.Errors);
    Out += ", \"warnings\": " + std::to_string(AR.Warnings);
    Out += ", \"suppressed\": " + std::to_string(AR.Suppressed);
    Out += std::string(", \"seconds\": ") + Secs;
    Out += "},\n";
  }

  // Summary of the incremental session (recorded by the scheduler's incr
  // entry points at the end of the most recent run); omitted until one has
  // completed. salvaged/implied count verdicts replayed across a dependency
  // edit (also included in cached).
  metrics::IncrReport IR = R.incrReport();
  if (IR.Valid) {
    Out += "  \"incremental\": {";
    Out += "\"cached\": " + std::to_string(IR.Cached);
    Out += ", \"verified\": " + std::to_string(IR.Verified);
    Out += ", \"invalidated\": " + std::to_string(IR.Invalidated);
    Out += ", \"salvaged\": " + std::to_string(IR.Salvaged);
    Out += ", \"implied\": " + std::to_string(IR.Implied);
    Out += ", \"salvage_queries\": " + std::to_string(IR.SalvageQueries);
    Out += ", \"cached_lint\": " + std::to_string(IR.CachedLint);
    Out += ", \"analyzed_lint\": " + std::to_string(IR.AnalyzedLint);
    Out += "},\n";
  }

  // Summary of the interprocedural summary phase (recorded by the scheduler
  // at the end of the most recent run); omitted until a run with the phase
  // enabled has completed.
  metrics::InterprocReport IP = R.interprocReport();
  if (IP.Valid) {
    char IpSecs[32];
    std::snprintf(IpSecs, sizeof(IpSecs), "%.6f", IP.Seconds);
    Out += "  \"interproc\": {";
    Out += "\"fn_summaries\": " + std::to_string(IP.FnSummaries);
    Out += ", \"pred_summaries\": " + std::to_string(IP.PredSummaries);
    Out += std::string(", \"seconds\": ") + IpSecs;
    Out += "},\n";
  }

  // Flight-recorded per-query aggregates (solver/Flight.h); omitted unless
  // queries were timed (GILR_TRACE / GILR_JOURNAL).
  metrics::SolverQueriesReport FQ = R.solverQueriesReport();
  if (FQ.Valid) {
    Out += "  \"solver_queries\": {";
    Out += "\"queries\": " + std::to_string(FQ.Queries);
    Out += ", \"cache_hits\": " + std::to_string(FQ.CacheHits);
    Out += ", \"unknowns\": " + std::to_string(FQ.Unknowns);
    Out += ", \"total_ns\": " + std::to_string(FQ.TotalNs);
    Out += ", \"max_ns\": " + std::to_string(FQ.MaxNs);
    Out += ", \"journal_records\": " + std::to_string(FQ.JournalRecords);
    Out += ", \"journal_dropped\": " + std::to_string(FQ.JournalDropped);
    Out += ",\n    \"latency_log2_ns\": [";
    for (std::size_t I = 0; I != FQ.Histogram.size(); ++I) {
      if (I)
        Out += ", ";
      Out += std::to_string(FQ.Histogram[I]);
    }
    Out += "],\n    \"slowest\": [";
    for (std::size_t I = 0; I != FQ.Slowest.size(); ++I) {
      const metrics::SolverQuerySample &Q = FQ.Slowest[I];
      if (I)
        Out += ",";
      char Fp[32];
      std::snprintf(Fp, sizeof(Fp), "%016llx",
                    static_cast<unsigned long long>(Q.Fp));
      Out += "\n      {\"obligation\": \"" + jsonEscape(Q.Obligation) +
             "\", \"side\": \"" + Q.Side +
             std::string("\", \"query_idx\": ") + std::to_string(Q.QueryIdx) +
             ", \"pc_size\": " + std::to_string(Q.PcSize) +
             ", \"verdict\": \"" +
             (Q.Verdict == 0 ? "sat" : Q.Verdict == 1 ? "unsat" : "unknown") +
             "\", \"cache_hit\": " + (Q.CacheHit ? "true" : "false") +
             ", \"duration_ns\": " + std::to_string(Q.DurationNs) +
             ", \"fp\": \"" + Fp + "\"}";
    }
    Out += FQ.Slowest.empty() ? "]},\n" : "\n    ]},\n";
  }

  Out += "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : R.counters()) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + jsonEscape(Name) + "\": " + std::to_string(Value);
  }
  Out += "},\n";

  Out += "  \"phases\": [";
  First = true;
  for (const PhaseStat &P : phases()) {
    if (!First)
      Out += ",";
    First = false;
    char Sec[32];
    std::snprintf(Sec, sizeof(Sec), "%.6f",
                  static_cast<double>(P.Nanos) / 1e9);
    Out += "\n    {\"phase\": \"" + jsonEscape(P.Key) +
           "\", \"count\": " + std::to_string(P.Count) +
           ", \"seconds\": " + Sec + "}";
  }
  Out += "\n  ],\n";

  Out += "  \"cases\": [";
  First = true;
  for (const std::string &Case : CaseStudies) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n    " + Case;
  }
  Out += "\n  ]\n}\n";
  return Out;
}

bool gilr::trace::flush() {
  SinkState &S = sink();
  Options O;
  uint64_t Dropped;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    O = S.Opts;
    Dropped = S.DroppedEvents;
  }
  if (O.M == Mode::Off)
    return true;
  if (O.M == Mode::Text) {
    std::string Report = phaseReportText(phases());
    std::fprintf(stderr, "=== gilr trace: per-phase breakdown ===\n%s",
                 Report.c_str());
    return true;
  }
  if (Dropped)
    std::fprintf(stderr,
                 "gilr trace: event buffer full, %llu event(s) dropped\n",
                 static_cast<unsigned long long>(Dropped));
  // files::writeFile creates missing parent directories and diagnoses
  // failures (env-configured paths must never drop output silently).
  bool Ok = true;
  if (!O.TraceFile.empty())
    Ok = files::writeFile(O.TraceFile, renderTraceJson(), "trace JSON") && Ok;
  if (!O.StatsFile.empty())
    Ok = files::writeFile(O.StatsFile, renderStatsJson(), "stats JSON") && Ok;
  return Ok;
}
