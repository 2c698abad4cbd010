//===- bench/bench_all.cpp - Bench trend wall aggregator --------------------===//
//
// Merges the per-experiment bench reports (BENCH_telemetry.json,
// BENCH_parallel.json, BENCH_incr.json, BENCH_analysis.json,
// BENCH_interproc.json, BENCH_intern.json, BENCH_frontend.json) into one
// BENCH_all.json trend record, measures the
// proof flight recorder's overhead on a cold verify (writing the journal it
// records to BENCH_journal.jrn for gilr-replay), and compares the result
// against the committed trend record bench/BENCH_all.json.
//
// Usage: bench_all [--update] [--tolerance F] [--committed PATH]
//                  [--out PATH] [--journal PATH] [--bench-dir DIR]
//
// Gating:
//  - deterministic counters and scale-free ratios in the "metrics" section
//    are compared at the tolerance (default 20%); regressions in the bad
//    direction fail the run. Raw wall-clock seconds are recorded in the
//    "timings" section but never gated — they are machine-dependent.
//  - the flight recorder's overhead ratio must stay under 3%.
//  - a missing committed record warns and exits 0 (first run); --update
//    (re)writes the committed record.
//
// Exit status: 0 ok, 1 regression/overhead failure, 2 I/O or input error.
//
//===----------------------------------------------------------------------===//

#include "rustlib/LinkedList.h"
#include "sched/Scheduler.h"
#include "solver/Flight.h"
#include "support/Files.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace gilr;

namespace {

double nowSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string fmtNum(double V) {
  // Integers render without a fraction so counter metrics diff cleanly.
  if (V == (double)(long long)V && std::fabs(V) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", (long long)V);
    return Buf;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

/// FNV-1a over the build-configuration string; recorded so a trend diff
/// across different toolchains is flagged as such.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string configString() {
  std::string C = "std=";
  C += std::to_string(__cplusplus);
#if defined(__VERSION__)
  C += ";compiler=";
  C += __VERSION__;
#endif
#if defined(NDEBUG)
  C += ";ndebug=1";
#else
  C += ";ndebug=0";
#endif
  return C;
}

struct TrendInput {
  /// Gated: deterministic counters and scale-free ratios.
  std::map<std::string, double> Metrics;
  /// Recorded only: machine-dependent wall-clock numbers.
  std::map<std::string, double> Timings;
};

/// Pulls the trend metrics out of one parsed BENCH_*.json. Missing files or
/// members are skipped (the aggregate covers whatever was produced), but
/// the count of merged sources is reported so CI logs show gaps.
void mergeTelemetry(const json::Value &V, TrendInput &T) {
  json::ValuePtr Cases = V.get("cases");
  if (!Cases || !Cases->isArray())
    return;
  for (const json::ValuePtr &C : Cases->Arr) {
    json::ValuePtr NameV = C->get("name");
    if (!NameV || !NameV->isString())
      continue;
    const std::string Base = "stats." + NameV->Str;
    if (json::ValuePtr N = C->at("solver.sat_queries"))
      T.Metrics[Base + ".sat_queries"] = N->numberOr(0);
    if (json::ValuePtr N = C->at("solver.branches"))
      T.Metrics[Base + ".branches"] = N->numberOr(0);
    if (json::ValuePtr N = C->at("solver.theory_checks"))
      T.Metrics[Base + ".theory_checks"] = N->numberOr(0);
    if (json::ValuePtr N = C->get("paths"))
      T.Metrics[Base + ".paths"] = N->numberOr(0);
    if (json::ValuePtr N = C->get("functions"))
      T.Metrics[Base + ".functions"] = N->numberOr(0);
    if (json::ValuePtr N = C->get("seconds"))
      T.Timings[Base + ".seconds"] = N->numberOr(0);
  }
}

void mergeParallel(const json::Value &V, TrendInput &T) {
  json::ValuePtr Suites = V.get("suites");
  if (!Suites || !Suites->isArray())
    return;
  for (const json::ValuePtr &S : Suites->Arr) {
    json::ValuePtr NameV = S->get("name");
    if (!NameV || !NameV->isString())
      continue;
    const std::string Base = "parallel." + NameV->Str;
    if (json::ValuePtr N = S->get("jobs"))
      T.Metrics[Base + ".jobs"] = N->numberOr(0);
    if (json::ValuePtr N = S->at("warm_run.cache_hit_rate"))
      T.Metrics[Base + ".warm_cache_hit_rate"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("speedup_4_threads"))
      T.Timings[Base + ".speedup_4_threads"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("uncached_seconds"))
      T.Timings[Base + ".uncached_seconds"] = N->numberOr(0);
  }
}

void mergeIncr(const json::Value &V, TrendInput &T) {
  json::ValuePtr Suites = V.get("suites");
  if (!Suites || !Suites->isArray())
    return;
  for (const json::ValuePtr &S : Suites->Arr) {
    json::ValuePtr NameV = S->get("name");
    if (!NameV || !NameV->isString())
      continue;
    const std::string Base = "incr." + NameV->Str;
    if (json::ValuePtr N = S->get("obligations"))
      T.Metrics[Base + ".obligations"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("store_bytes"))
      T.Metrics[Base + ".store_bytes"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("warm_speedup"))
      T.Timings[Base + ".warm_speedup"] = N->numberOr(0);
    // Semantic spec-diff salvage: the edit run's salvage counters are
    // deterministic (how many warm verdicts survived the edit and how many
    // implication queries that cost), so they gate; the wall-clock ratio is
    // machine-dependent and only recorded.
    json::ValuePtr Salv = S->at("edit.salvaged");
    json::ValuePtr Impl = S->at("edit.implied");
    if (Salv || Impl)
      T.Metrics[Base + ".edit_salvaged"] =
          (Salv ? Salv->numberOr(0) : 0) + (Impl ? Impl->numberOr(0) : 0);
    if (json::ValuePtr N = S->at("edit.salvage_queries"))
      T.Metrics[Base + ".edit_salvage_queries"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("edit_vs_blanket_speedup"))
      T.Timings[Base + ".edit_vs_blanket_speedup"] = N->numberOr(0);
  }
  if (json::ValuePtr N = V.get("edit_vs_blanket_speedup")) {
    double Speedup = N->numberOr(0);
    T.Timings["incr.edit_vs_blanket_speedup"] = Speedup;
    // Boolean gate for the >=5x edit-to-verdict acceptance bar (mirrors
    // bench_incr's own MinEditSpeedup exit gate): committed as 1, any run
    // below the bar drops it to 0 and trips the trend wall regardless of
    // how fast this machine happens to be.
    T.Metrics["incr.edit_speedup_ok"] = Speedup >= 5.0 ? 1.0 : 0.0;
  }
}

void mergeAnalysis(const json::Value &V, TrendInput &T) {
  json::ValuePtr Suites = V.get("suites");
  if (!Suites || !Suites->isArray())
    return;
  for (const json::ValuePtr &S : Suites->Arr) {
    json::ValuePtr NameV = S->get("name");
    if (!NameV || !NameV->isString())
      continue;
    const std::string Base = "analysis." + NameV->Str;
    if (json::ValuePtr N = S->get("entities"))
      T.Metrics[Base + ".entities"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("errors"))
      T.Metrics[Base + ".errors"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("warnings"))
      T.Metrics[Base + ".warnings"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("blocked"))
      T.Metrics[Base + ".blocked"] = N->numberOr(0);
  }
  if (json::ValuePtr N = V.get("analysis_ratio"))
    T.Timings["analysis.ratio"] = N->numberOr(0);
}

void mergeInterproc(const json::Value &V, TrendInput &T) {
  json::ValuePtr Suites = V.get("suites");
  if (!Suites || !Suites->isArray())
    return;
  for (const json::ValuePtr &S : Suites->Arr) {
    json::ValuePtr NameV = S->get("name");
    if (!NameV || !NameV->isString())
      continue;
    const std::string Base = "interproc." + NameV->Str;
    // Summary counts are deterministic, so they gate; the phase's
    // wall-time share is machine noise and only recorded.
    if (json::ValuePtr N = S->get("fn_summaries"))
      T.Metrics[Base + ".fn_summaries"] = N->numberOr(0);
    if (json::ValuePtr N = S->get("pred_summaries"))
      T.Metrics[Base + ".pred_summaries"] = N->numberOr(0);
  }
  if (json::ValuePtr N = V.get("summary_ratio"))
    T.Timings["interproc.summary_ratio"] = N->numberOr(0);
}

void mergeFrontend(const json::Value &V, TrendInput &T) {
  json::ValuePtr Files = V.get("files");
  if (Files && Files->isArray()) {
    for (const json::ValuePtr &F : Files->Arr) {
      json::ValuePtr NameV = F->get("name");
      if (!NameV || !NameV->isString())
        continue;
      const std::string Base = "frontend." + NameV->Str;
      if (json::ValuePtr N = F->get("functions"))
        T.Metrics[Base + ".functions"] = N->numberOr(0);
      if (json::ValuePtr N = F->get("predicates"))
        T.Metrics[Base + ".predicates"] = N->numberOr(0);
      if (json::ValuePtr N = F->get("parse_seconds"))
        T.Timings[Base + ".parse_seconds"] = N->numberOr(0);
    }
  }
  if (json::ValuePtr N = V.get("total_bytes"))
    T.Metrics["frontend.total_bytes"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("parse_mb_per_s"))
    T.Timings["frontend.parse_mb_per_s"] = N->numberOr(0);
}

void mergeServer(const json::Value &V, TrendInput &T) {
  // Deterministic counters gate; latencies and speedups are recorded as
  // machine-dependent timings.
  if (json::ValuePtr N = V.get("modules"))
    T.Metrics["server.modules"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("resident_warm_verified"))
    T.Metrics["server.resident_warm_verified"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("shared_warm_verified"))
    T.Metrics["server.shared_warm_verified"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("verdicts_identical"))
    T.Metrics["server.verdicts_identical"] =
        N->K == json::Value::Kind::Bool ? (N->B ? 1.0 : 0.0)
                                        : N->numberOr(0);
  if (json::ValuePtr N = V.get("cold_seconds"))
    T.Timings["server.cold_seconds"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("resident_warm_speedup"))
    T.Timings["server.resident_warm_speedup"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("shared_warm_speedup"))
    T.Timings["server.shared_warm_speedup"] = N->numberOr(0);
  if (json::ValuePtr N = V.at("throughput.requests_per_second"))
    T.Timings["server.requests_per_second"] = N->numberOr(0);
}

void mergeIntern(const json::Value &V, TrendInput &T) {
  if (json::ValuePtr N = V.get("intern_hit_rate"))
    T.Metrics["intern.hit_rate"] = N->numberOr(0);
  if (json::ValuePtr N = V.get("simplify_memo_hit_rate"))
    T.Metrics["intern.simplify_memo_hit_rate"] = N->numberOr(0);
}

/// Flight recorder overhead: cold verify of the LinkedList functional suite
/// with the recorder off vs journaling to \p JournalPath, as the median
/// over \c FlightPairs interleaved off/on pairs of the per-pair time ratio;
/// each sample repeats the suite \c FlightReps times. The suite takes about
/// 15 ms. On a shared 4-vCPU host a best-of-5 of single suites read
/// anywhere from -19% to +13% for identical code, and best-of-5 samples of
/// 20 suites read the recorder's overhead anywhere from -9% to +20%; this
/// median reads within about 1% of zero for identical code.
struct OverheadResult {
  double OffSeconds = 0.0; ///< Per suite, median sample.
  double OnSeconds = 0.0;  ///< Per suite, median sample.
  double Ratio = 0.0;
  uint64_t JournalRecords = 0;
  bool Ok = false;
};

constexpr int FlightPairs = 61;
constexpr int FlightReps = 3;

/// Seconds to verify the LinkedList functional suite \p Reps times, or -1
/// if a proof fails. With \p Journal, each repetition records into a fresh
/// journal and renders it, as a run does when it writes its journal; the
/// render is timed with the suite.
double runFunctionalSuite(engine::VerifEnv &Env, int Reps,
                          const flight::Options *Journal) {
  // Serial and memo-free: every repetition journals every query.
  sched::SchedulerConfig NoMemo;
  NoMemo.CacheCapacity = 0;
  flight::reset();
  double Secs = 0.0;
  for (int I = 0; I < Reps; ++I) {
    if (Journal)
      flight::configure(*Journal); // clears the journal buffer
    engine::Verifier V(Env);
    double T0 = nowSeconds();
    for (const engine::VerifyReport &R :
         V.verifyAll(rustlib::functionalFunctions(), NoMemo))
      if (!R.Ok)
        return -1.0;
    if (Journal)
      flight::journalText();
    Secs += nowSeconds() - T0;
  }
  return Secs;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

OverheadResult measureFlightOverhead(const std::string &JournalPath) {
  OverheadResult R;
  auto Lib = rustlib::buildLinkedListLib(rustlib::SpecMode::Functional);
  engine::VerifEnv Env = Lib->env();
  if (runFunctionalSuite(Env, 1, nullptr) < 0) // warm-up (intern, memo)
    return R;

  flight::Options O;
  O.Journal = O.Timing = true;
  O.JournalFile = JournalPath;
  std::vector<double> Offs, Ons, Ratios;
  for (int I = 0; I < FlightPairs; ++I) {
    // Alternate which side runs first, so drift hits both alike.
    double Off = 0.0, On = 0.0;
    if (I % 2 == 0)
      Off = runFunctionalSuite(Env, FlightReps, nullptr);
    On = runFunctionalSuite(Env, FlightReps, &O);
    if (I % 2 != 0)
      Off = runFunctionalSuite(Env, FlightReps, nullptr);
    if (Off <= 0 || On < 0)
      return R;
    Offs.push_back(Off / FlightReps);
    Ons.push_back(On / FlightReps);
    Ratios.push_back(On / Off - 1.0);
  }
  // One suite's journal, for CI to replay.
  if (runFunctionalSuite(Env, 1, &O) < 0)
    return R;
  R.JournalRecords = flight::journalRecordCount();
  if (!flight::flushJournal())
    return R;
  flight::reset();
  R.OffSeconds = median(Offs);
  R.OnSeconds = median(Ons);
  R.Ratio = median(Ratios);
  R.Ok = R.JournalRecords > 0;
  return R;
}

enum class Direction { HigherBetter, LowerBetter, Exact };

Direction metricDirection(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix) {
    std::size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  if (EndsWith("hit_rate") || EndsWith("speedup"))
    return Direction::HigherBetter;
  if (EndsWith("sat_queries") || EndsWith("branches") ||
      EndsWith("theory_checks") || EndsWith("store_bytes") ||
      EndsWith("errors") || EndsWith("overhead_ratio"))
    return Direction::LowerBetter;
  // Structural counts (jobs, obligations, paths, ...): any large drift is
  // suspicious in either direction.
  return Direction::Exact;
}

std::string renderTrendJson(const TrendInput &T, const OverheadResult &Ov,
                            int MergedSources) {
  std::string Out = "{\n  \"schema\": \"gilr-bench-all-v1\",\n";
  Out += "  \"config\": \"" + jsonEscape(configString()) + "\",\n";
  char Fp[32];
  std::snprintf(Fp, sizeof(Fp), "%016llx",
                (unsigned long long)fnv1a(configString()));
  Out += "  \"config_fingerprint\": \"" + std::string(Fp) + "\",\n";
  Out += "  \"merged_sources\": " + std::to_string(MergedSources) + ",\n";
  Out += "  \"flight\": {\"pairs\": " + fmtNum(FlightPairs) +
         ", \"repetitions\": " + fmtNum(FlightReps) +
         ", \"off_seconds\": " + fmtNum(Ov.OffSeconds) +
         ", \"on_seconds\": " + fmtNum(Ov.OnSeconds) +
         ", \"overhead_ratio\": " + fmtNum(Ov.Ratio) +
         ", \"journal_records\": " + fmtNum((double)Ov.JournalRecords) +
         "},\n";
  Out += "  \"metrics\": {\n";
  std::size_t I = 0;
  for (const auto &[Name, V] : T.Metrics) {
    Out += "    \"" + jsonEscape(Name) + "\": " + fmtNum(V);
    Out += ++I != T.Metrics.size() ? ",\n" : "\n";
  }
  Out += "  },\n  \"timings\": {\n";
  I = 0;
  for (const auto &[Name, V] : T.Timings) {
    Out += "    \"" + jsonEscape(Name) + "\": " + fmtNum(V);
    Out += ++I != T.Timings.size() ? ",\n" : "\n";
  }
  Out += "  }\n}\n";
  return Out;
}

/// Compares current metrics against the committed record. Returns the
/// number of gating regressions (prints each).
int compareAgainstCommitted(const json::Value &Committed,
                            const TrendInput &Cur, double Tolerance) {
  int Regressions = 0;
  json::ValuePtr Metrics = Committed.get("metrics");
  if (!Metrics || !Metrics->isObject()) {
    std::fprintf(stderr,
                 "bench-all: committed record has no metrics section\n");
    return 1;
  }
  json::ValuePtr CommittedFp = Committed.get("config_fingerprint");
  char Fp[32];
  std::snprintf(Fp, sizeof(Fp), "%016llx",
                (unsigned long long)fnv1a(configString()));
  if (CommittedFp && CommittedFp->isString() && CommittedFp->Str != Fp)
    std::printf("bench-all: note: config fingerprint differs from the "
                "committed record (%s vs %s); counters are still compared\n",
                Fp, CommittedFp->Str.c_str());

  for (const std::string &Name : Metrics->keys()) {
    double Old = Metrics->get(Name)->numberOr(0);
    auto It = Cur.Metrics.find(Name);
    if (It == Cur.Metrics.end()) {
      std::printf("bench-all: note: committed metric '%s' not produced by "
                  "this run\n",
                  Name.c_str());
      continue;
    }
    double New = It->second;
    double Base = std::fabs(Old) > 1e-9 ? std::fabs(Old) : 1e-9;
    double Rel = (New - Old) / Base;
    bool Bad = false;
    switch (metricDirection(Name)) {
    case Direction::HigherBetter:
      Bad = Rel < -Tolerance;
      break;
    case Direction::LowerBetter:
      Bad = Rel > Tolerance;
      break;
    case Direction::Exact:
      Bad = std::fabs(Rel) > Tolerance;
      break;
    }
    if (Bad) {
      ++Regressions;
      std::printf("bench-all: REGRESSION %s: %s -> %s (%+.1f%%)\n",
                  Name.c_str(), fmtNum(Old).c_str(), fmtNum(New).c_str(),
                  Rel * 100.0);
    }
  }
  for (const auto &[Name, V] : Cur.Metrics) {
    (void)V;
    if (!Metrics->get(Name))
      std::printf("bench-all: note: new metric '%s' (not in the committed "
                  "record yet; run with --update)\n",
                  Name.c_str());
  }
  return Regressions;
}

} // namespace

int main(int argc, char **argv) {
  bool Update = false;
  double Tolerance = 0.20;
  std::string BenchDir = ".";
  std::string Committed;
  std::string OutFile = "BENCH_all.json";
  std::string JournalFile = "BENCH_journal.jrn";

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--update") {
      Update = true;
    } else if (Arg == "--tolerance") {
      const char *V = Next();
      if (!V)
        return 2;
      Tolerance = std::atof(V);
    } else if (Arg == "--committed") {
      const char *V = Next();
      if (!V)
        return 2;
      Committed = V;
    } else if (Arg == "--out") {
      const char *V = Next();
      if (!V)
        return 2;
      OutFile = V;
    } else if (Arg == "--journal") {
      const char *V = Next();
      if (!V)
        return 2;
      JournalFile = V;
    } else if (Arg == "--bench-dir") {
      const char *V = Next();
      if (!V)
        return 2;
      BenchDir = V;
    } else {
      std::fprintf(stderr,
                   "usage: bench_all [--update] [--tolerance F] "
                   "[--committed PATH] [--out PATH] [--journal PATH] "
                   "[--bench-dir DIR]\n");
      return 2;
    }
  }

  TrendInput T;
  int Merged = 0;
  struct Source {
    const char *File;
    void (*Merge)(const json::Value &, TrendInput &);
  };
  const Source Sources[] = {
      {"BENCH_telemetry.json", mergeTelemetry},
      {"BENCH_parallel.json", mergeParallel},
      {"BENCH_incr.json", mergeIncr},
      {"BENCH_analysis.json", mergeAnalysis},
      {"BENCH_interproc.json", mergeInterproc},
      {"BENCH_intern.json", mergeIntern},
      {"BENCH_frontend.json", mergeFrontend},
      {"BENCH_server.json", mergeServer},
  };
  for (const Source &S : Sources) {
    std::string Text;
    std::string Path = BenchDir + "/" + S.File;
    if (!files::readFile(Path, Text, "bench report")) {
      std::printf("bench-all: skipping missing %s\n", Path.c_str());
      continue;
    }
    std::string Err;
    json::ValuePtr V = json::parse(Text, &Err);
    if (!V) {
      std::fprintf(stderr, "bench-all: %s: %s\n", Path.c_str(), Err.c_str());
      return 2;
    }
    S.Merge(*V, T);
    ++Merged;
  }
  if (Merged == 0) {
    std::fprintf(stderr,
                 "bench-all: no BENCH_*.json inputs found in %s — run the "
                 "bench-* targets first\n",
                 BenchDir.c_str());
    return 2;
  }

  std::printf("bench-all: measuring flight recorder overhead...\n");
  OverheadResult Ov = measureFlightOverhead(JournalFile);
  if (!Ov.Ok) {
    std::fprintf(stderr, "bench-all: overhead measurement failed\n");
    return 2;
  }
  // The overhead ratio is wall-clock noise (run-to-run it swings around
  // zero), so it is NOT a trend-gated metric: it lives in the `flight`
  // section and is gated absolutely (< MaxOverhead) below, and recorded
  // as an ungated timing for trend visibility.
  T.Timings["flight.overhead_ratio"] = Ov.Ratio;
  std::printf("bench-all: flight off %.4fs, on %.4fs per suite, median of "
              "%d pairs of %d suites (overhead %.2f%%), %llu journal records "
              "-> %s\n",
              Ov.OffSeconds, Ov.OnSeconds, FlightPairs, FlightReps,
              Ov.Ratio * 100.0,
              (unsigned long long)Ov.JournalRecords, JournalFile.c_str());

  std::string Json = renderTrendJson(T, Ov, Merged);
  if (!files::writeFile(OutFile, Json, "bench trend record"))
    return 2;
  std::printf("bench-all: wrote %s (%d sources, %zu metrics)\n",
              OutFile.c_str(), Merged, T.Metrics.size());

  int Failures = 0;
  if (Ov.Ratio >= 0.03) {
    std::printf("bench-all: FAIL flight recorder overhead %.2f%% exceeds "
                "the 3%% budget\n",
                Ov.Ratio * 100.0);
    ++Failures;
  }

  if (Update) {
    std::string Dest = Committed.empty() ? OutFile : Committed;
    if (!Committed.empty() &&
        !files::writeFile(Committed, Json, "committed bench trend record"))
      return 2;
    std::printf("bench-all: updated committed trend record %s\n",
                Dest.c_str());
  } else if (!Committed.empty()) {
    std::string Text;
    if (!files::readFile(Committed, Text, "committed bench trend record")) {
      std::printf("bench-all: no committed trend record at %s yet; run "
                  "with --update to create it\n",
                  Committed.c_str());
    } else {
      std::string Err;
      json::ValuePtr V = json::parse(Text, &Err);
      if (!V) {
        std::fprintf(stderr, "bench-all: %s: %s\n", Committed.c_str(),
                     Err.c_str());
        return 2;
      }
      Failures += compareAgainstCommitted(*V, T, Tolerance);
    }
  }

  if (Failures) {
    std::printf("bench-all: %d failure(s) at tolerance %.0f%%\n", Failures,
                Tolerance * 100.0);
    return 1;
  }
  std::printf("bench-all: trend ok\n");
  return 0;
}
