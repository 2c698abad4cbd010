//===- tests/telemetry_schema_test.cpp - Stats JSON schema golden ----------===//
//
// Locks the top-level shape of the telemetry stats JSON
// (trace::renderStatsJson). Downstream consumers — the bench trend
// aggregator (bench/bench_all.cpp), CI dashboards — key into this document
// by name; a renamed or dropped section must fail a test, not silently
// produce empty trend data.
//
// The golden key set is exact: adding a section is also a (deliberate,
// test-updating) schema change, because the aggregator's merge functions
// need to learn about it.
//
//===----------------------------------------------------------------------===//

#include "hybrid/Driver.h"
#include "incr/Session.h"
#include "rustlib/Clients.h"
#include "rustlib/LinkedList.h"
#include "sched/Scheduler.h"
#include "solver/Flight.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace gilr;
using namespace gilr::rustlib;

namespace {

TEST(TelemetrySchema, TopLevelKeysAreExactlyTheDocumentedSet) {
  // A full run with every telemetry source active: a scheduled hybrid run
  // (validates the query-cache snapshot and, via the default-enabled lint
  // pre-pass, the analysis summary) with an incremental store (validates
  // the incremental summary) under the flight recorder's timing decorator
  // (validates solver_queries).
  metrics::Registry::get().reset();
  flight::Options FO;
  FO.Timing = true;
  flight::configure(FO);

  std::unique_ptr<LinkedListLib> Lib =
      buildLinkedListLib(SpecMode::Functional);
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  sched::SchedulerConfig C;
  incr::IncrConfig IC;
  IC.Enabled = true;
  IC.StorePath = ::testing::TempDir() + "gilr_telemetry_schema.prf";
  std::remove(IC.StorePath.c_str());
  ASSERT_TRUE(Driver.run(functionalFunctions(), makeClients(), C, IC).ok());
  flight::reset();
  std::remove(IC.StorePath.c_str());

  std::string Text =
      trace::renderStatsJson({"{\"name\": \"golden-case\", \"ok\": true}"});
  std::string Err;
  json::ValuePtr Doc = json::parse(Text, &Err);
  ASSERT_TRUE(Doc) << Err << "\n" << Text;
  ASSERT_TRUE(Doc->isObject()) << Text;

  const std::vector<std::string> Golden = {
      "analysis",      "cases",
      "counters",      "incremental",
      "interproc",     "phases",
      "query_cache",   "schema",
      "solver",        "solver_latency_log2_ns",
      "solver_queries",
  };
  EXPECT_EQ(Doc->keys(), Golden)
      << "top-level stats-JSON schema changed; update this golden set AND "
         "teach bench/bench_all.cpp about the change\n"
      << Text;

  ASSERT_TRUE(Doc->at("schema"));
  EXPECT_EQ(Doc->at("schema")->Str, "gilr-telemetry-v1");

  // Section members the aggregator keys into.
  for (const char *Path :
       {"solver.sat_queries", "solver.entail_queries", "solver.branches",
        "solver.theory_checks", "query_cache.hits", "query_cache.hit_rate",
        "analysis.entities", "analysis.errors", "analysis.seconds",
        "solver_queries.queries", "solver_queries.cache_hits",
        "solver_queries.total_ns", "solver_queries.max_ns",
        "solver_queries.journal_records", "incremental.cached",
        "incremental.verified", "incremental.salvaged",
        "incremental.implied", "incremental.salvage_queries",
        "incremental.compactions", "interproc.fn_summaries",
        "interproc.pred_summaries", "interproc.triaged_static",
        "interproc.seconds"}) {
    json::ValuePtr V = Doc->at(Path);
    ASSERT_TRUE(V) << Path;
    EXPECT_TRUE(V->isNumber()) << Path;
  }
  for (const char *Path :
       {"query_cache.shards", "solver_queries.latency_log2_ns",
        "solver_queries.slowest", "solver_latency_log2_ns", "phases",
        "cases"}) {
    json::ValuePtr V = Doc->at(Path);
    ASSERT_TRUE(V) << Path;
    EXPECT_TRUE(V->isArray()) << Path;
  }
  ASSERT_EQ(Doc->at("cases")->Arr.size(), 1u);

  // Slowest entries carry full provenance.
  json::ValuePtr Slowest = Doc->at("solver_queries.slowest");
  ASSERT_FALSE(Slowest->Arr.empty());
  const std::vector<std::string> SampleKeys = {
      "cache_hit", "duration_ns", "fp",   "obligation",
      "pc_size",   "query_idx",   "side", "verdict",
  };
  EXPECT_EQ(Slowest->Arr.front()->keys(), SampleKeys);
}

TEST(TelemetrySchema, FlightSectionIsOmittedWhenRecorderNeverRan) {
  metrics::Registry::get().reset();
  flight::reset();
  std::string Text = trace::renderStatsJson();
  std::string Err;
  json::ValuePtr Doc = json::parse(Text, &Err);
  ASSERT_TRUE(Doc) << Err;
  ASSERT_TRUE(Doc->isObject());
  for (const std::string &K : Doc->keys())
    EXPECT_NE(K, "solver_queries");
}

} // namespace
