//===- bench/bench_stats.cpp - Telemetry stats for the case studies ---------===//
//
// Runs the paper's case studies (LinkedList type safety, LinkedList
// functional, Vec raw-buffer ops) with tracing enabled and writes a
// machine-readable telemetry report: per-case wall time, solver-query
// counts and path counts, plus the process-wide phase breakdown, counters
// and solver latency histogram (see docs/TELEMETRY.md for the schema).
//
// Usage: bench_stats [stats-file [trace-file]]
//   defaults: BENCH_telemetry.json, BENCH_trace.json
//
//===----------------------------------------------------------------------===//

#include "rustlib/LinkedList.h"
#include "rustlib/Vec.h"
#include "sched/Scheduler.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace gilr;
using namespace gilr::rustlib;

namespace {

struct CaseResult {
  std::string Name;
  bool Ok = true;
  double Seconds = 0.0;
  unsigned Functions = 0;
  unsigned Paths = 0;
  SolverStats Solver;
};

CaseResult runCase(const std::string &Name, engine::VerifEnv Env,
                   const std::vector<std::string> &Funcs) {
  CaseResult C;
  C.Name = Name;
  SolverStats Before = metrics::solverStats();
  auto Start = std::chrono::steady_clock::now();
  {
    GILR_TRACE_SCOPE_D("bench", "case", Name);
    // Serial and memo-free: the counters are the case's own solver work,
    // comparable across runs and with the committed record.
    sched::SchedulerConfig NoMemo;
    NoMemo.CacheCapacity = 0;
    engine::Verifier V(Env);
    for (const engine::VerifyReport &R : V.verifyAll(Funcs, NoMemo)) {
      ++C.Functions;
      C.Paths += R.PathsCompleted;
      C.Ok = C.Ok && R.Ok;
    }
  }
  auto End = std::chrono::steady_clock::now();
  C.Seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(End - Start)
          .count();
  C.Solver = metrics::solverStats() - Before;
  return C;
}

std::string renderCase(const CaseResult &C) {
  std::string Out = "{\"name\": \"" + jsonEscape(C.Name) + "\"";
  Out += ", \"ok\": " + std::string(C.Ok ? "true" : "false");
  Out += ", \"seconds\": " + std::to_string(C.Seconds);
  Out += ", \"functions\": " + std::to_string(C.Functions);
  Out += ", \"paths\": " + std::to_string(C.Paths);
  Out += ", \"solver\": {\"sat_queries\": " +
         std::to_string(C.Solver.SatQueries) +
         ", \"entail_queries\": " + std::to_string(C.Solver.EntailQueries) +
         ", \"branches\": " + std::to_string(C.Solver.Branches) +
         ", \"theory_checks\": " + std::to_string(C.Solver.TheoryChecks) +
         ", \"unknown_results\": " + std::to_string(C.Solver.UnknownResults) +
         ", \"entail_repeats\": " + std::to_string(C.Solver.EntailRepeats) +
         "}}";
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  trace::Options O;
  O.M = trace::Mode::Json;
  O.StatsFile = argc > 1 ? argv[1] : "BENCH_telemetry.json";
  O.TraceFile = argc > 2 ? argv[2] : "BENCH_trace.json";
  trace::configure(O);

  std::vector<CaseResult> Cases;
  {
    auto Lib = buildLinkedListLib(SpecMode::TypeSafety);
    Cases.push_back(runCase("linkedlist-type-safety", Lib->env(),
                            typeSafetyFunctions()));
  }
  {
    auto Lib = buildLinkedListLib(SpecMode::Functional);
    Cases.push_back(runCase("linkedlist-functional", Lib->env(),
                            functionalFunctions()));
  }
  {
    auto Lib = buildVecLib();
    Cases.push_back(runCase("vec-raw-buffer", Lib->env(), vecFunctions()));
  }

  bool AllOk = true;
  std::vector<std::string> Rendered;
  for (const CaseResult &C : Cases) {
    AllOk = AllOk && C.Ok;
    Rendered.push_back(renderCase(C));
    std::printf("%-28s %-5s %8.3fs  %3u fn  %4u paths  %6llu entailments\n",
                C.Name.c_str(), C.Ok ? "ok" : "FAIL", C.Seconds, C.Functions,
                C.Paths,
                static_cast<unsigned long long>(C.Solver.EntailQueries));
  }

  std::FILE *F = std::fopen(O.StatsFile.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", O.StatsFile.c_str());
    return 1;
  }
  std::string Json = trace::renderStatsJson(Rendered);
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);

  std::FILE *T = std::fopen(O.TraceFile.c_str(), "w");
  if (T) {
    std::string Trace = trace::renderTraceJson();
    std::fwrite(Trace.data(), 1, Trace.size(), T);
    std::fclose(T);
  }
  std::printf("wrote %s and %s\n", O.StatsFile.c_str(), O.TraceFile.c_str());
  return AllOk ? 0 : 1;
}
