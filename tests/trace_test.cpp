//===- tests/trace_test.cpp - Telemetry layer unit tests --------------------===//
//
// The tracing sink (support/Trace.h) and metrics registry
// (support/Metrics.h): span nesting and phase aggregation, the
// zero-side-effect guarantee of the disabled mode, and well-formedness of
// the Chrome trace / stats JSON documents (checked with a small
// recursive-descent JSON parser below).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>

using namespace gilr;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON well-formedness checker (values are validated and
// discarded; enough to reject any malformed document we could emit).
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        if (Pos + 1 >= S.size())
          return false;
        char E = S[Pos + 1];
        if (E == 'u') {
          if (Pos + 5 >= S.size())
            return false;
          for (std::size_t I = 2; I != 6; ++I)
            if (!std::isxdigit(static_cast<unsigned char>(S[Pos + I])))
              return false;
          Pos += 6;
          continue;
        }
        if (E != '"' && E != '\\' && E != '/' && E != 'b' && E != 'f' &&
            E != 'n' && E != 'r' && E != 't')
          return false;
        Pos += 2;
        continue;
      }
      if (static_cast<unsigned char>(S[Pos]) < 0x20)
        return false; // Raw control character: invalid JSON.
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing '"'
    return true;
  }

  bool number() {
    std::size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos == Start || (S[Start] == '-' && Pos == Start + 1))
      return false;
    if (peek() == '.') {
      ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    return true;
  }

  bool literal(const char *L) {
    std::size_t Len = std::strlen(L);
    if (S.compare(Pos, Len, L) != 0)
      return false;
    Pos += Len;
    return true;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\n' || S[Pos] == '\t' ||
            S[Pos] == '\r'))
      ++Pos;
  }

  const std::string &S;
  std::size_t Pos = 0;
};

bool jsonValid(const std::string &S) { return JsonChecker(S).valid(); }

//===----------------------------------------------------------------------===//
// Fixture: every test starts from a clean, disabled sink and registry.
//===----------------------------------------------------------------------===//

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override { cleanSlate(); }
  void TearDown() override { cleanSlate(); }

  static void cleanSlate() {
    trace::Options Off;
    trace::configure(Off); // Mode::Off; no files.
    trace::reset();
    metrics::Registry::get().reset();
  }

  static void enable(trace::Mode M) {
    trace::Options O;
    O.M = M;
    O.TraceFile.clear(); // Never write files from unit tests.
    O.StatsFile.clear();
    trace::configure(O);
  }
};

TEST_F(TraceTest, DisabledByDefaultAndZeroSideEffects) {
  EXPECT_FALSE(trace::enabled());
  bool DetailEvaluated = false;
  {
    GILR_TRACE_SCOPE("test", "outer");
    trace::Scope S("test", "inner", [&] {
      DetailEvaluated = true;
      return std::string("should never be built");
    });
    EXPECT_EQ(trace::spanStack(), "");
    trace::instant("test", "point", [&] {
      DetailEvaluated = true;
      return std::string("nor this");
    });
  }
  EXPECT_FALSE(DetailEvaluated); // Lazy details stay unevaluated when off.
  EXPECT_EQ(trace::eventCount(), 0u);
  EXPECT_TRUE(trace::phases().empty());
  EXPECT_TRUE(metrics::Registry::get().counters().empty());
}

TEST_F(TraceTest, SpanNestingAndStackRendering) {
  enable(trace::Mode::Text);
  {
    GILR_TRACE_SCOPE("engine", "run");
    {
      GILR_TRACE_SCOPE_D("consume", "pred", std::string("dllSeg"));
      EXPECT_EQ(trace::spanStack(), "engine:run > consume:pred");
    }
    EXPECT_EQ(trace::spanStack(), "engine:run");
  }
  EXPECT_EQ(trace::spanStack(), "");

  std::vector<trace::PhaseStat> Phases = trace::phases();
  ASSERT_EQ(Phases.size(), 2u);
  for (const trace::PhaseStat &P : Phases) {
    EXPECT_TRUE(P.Key == "engine/run" || P.Key == "consume/pred") << P.Key;
    EXPECT_EQ(P.Count, 1u);
  }
  // Text mode buffers no Chrome events.
  EXPECT_EQ(trace::eventCount(), 0u);
}

TEST_F(TraceTest, RecursiveSpansAreNotDoubleCounted) {
  enable(trace::Mode::Text);
  {
    GILR_TRACE_SCOPE("consume", "pred");
    {
      GILR_TRACE_SCOPE("consume", "pred"); // Recursive re-entry.
      GILR_TRACE_SCOPE("consume", "pred");
    }
  }
  std::vector<trace::PhaseStat> Phases = trace::phases();
  ASSERT_EQ(Phases.size(), 1u);
  // Only the outermost span of the key accumulates (count 1, not 3).
  EXPECT_EQ(Phases[0].Count, 1u);
}

TEST_F(TraceTest, DiffPhasesAttributesDeltas) {
  enable(trace::Mode::Text);
  {
    GILR_TRACE_SCOPE("solver", "entails");
  }
  std::vector<trace::PhaseStat> Before = trace::phases();
  {
    GILR_TRACE_SCOPE("solver", "entails");
    GILR_TRACE_SCOPE("engine", "fresh");
  }
  std::vector<trace::PhaseStat> Delta =
      trace::diffPhases(Before, trace::phases());
  ASSERT_EQ(Delta.size(), 2u);
  for (const trace::PhaseStat &P : Delta)
    EXPECT_EQ(P.Count, 1u) << P.Key;
}

TEST_F(TraceTest, TraceJsonIsWellFormed) {
  enable(trace::Mode::Json);
  {
    GILR_TRACE_SCOPE_D("engine", "run",
                       std::string("detail with \"quotes\", \\ and \n"));
    trace::instant("solver", "unknown");
  }
  EXPECT_EQ(trace::eventCount(), 2u);
  std::string J = trace::renderTraceJson();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos);
}

TEST_F(TraceTest, StatsJsonIsWellFormedAndCarriesCases) {
  enable(trace::Mode::Json);
  metrics::Registry &R = metrics::Registry::get();
  R.Solver.SatQueries = 7;
  R.Solver.EntailQueries = 4;
  R.add("engine.paths", 3);
  metrics::SolverQuerySample Q;
  Q.DurationNs = 1500;
  R.recordSolverQuery(Q);
  (void)R.noteEntailFingerprint(42);
  EXPECT_TRUE(R.noteEntailFingerprint(42)); // Second sighting: a repeat.
  {
    GILR_TRACE_SCOPE("verify", "function");
  }
  std::string J = trace::renderStatsJson(
      {"{\"name\": \"case-a\", \"ok\": true}"});
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"schema\": \"gilr-telemetry-v1\""), std::string::npos);
  EXPECT_NE(J.find("\"sat_queries\": 7"), std::string::npos);
  EXPECT_NE(J.find("\"entail_repeats\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"engine.paths\": 3"), std::string::npos);
  EXPECT_NE(J.find("case-a"), std::string::npos);
  // One latency histogram: the flight recorder's, inside solver_queries.
  EXPECT_NE(J.find("\"latency_log2_ns\""), std::string::npos);
  EXPECT_EQ(J.find("solver_latency_log2_ns"), std::string::npos);
}

TEST_F(TraceTest, SolverStatsDeltaArithmetic) {
  SolverStats A;
  A.SatQueries = 10;
  A.EntailQueries = 20;
  A.Branches = 30;
  A.TheoryChecks = 40;
  A.UnknownResults = 2;
  A.EntailRepeats = 5;
  SolverStats B;
  B.SatQueries = 4;
  B.EntailQueries = 15;
  B.Branches = 30;
  B.TheoryChecks = 10;
  B.UnknownResults = 1;
  B.EntailRepeats = 5;
  SolverStats D = A - B;
  EXPECT_EQ(D.SatQueries, 6u);
  EXPECT_EQ(D.EntailQueries, 5u);
  EXPECT_EQ(D.Branches, 0u);
  EXPECT_EQ(D.TheoryChecks, 30u);
  EXPECT_EQ(D.UnknownResults, 1u);
  EXPECT_EQ(D.EntailRepeats, 0u);
}

TEST_F(TraceTest, RegistryResetClearsEverything) {
  metrics::Registry &R = metrics::Registry::get();
  R.Solver.SatQueries = 3;
  R.add("x", 2);
  metrics::SolverQuerySample Q;
  Q.DurationNs = 100;
  R.recordSolverQuery(Q);
  (void)R.noteEntailFingerprint(7);
  R.reset();
  EXPECT_EQ(R.Solver.SatQueries, 0u);
  EXPECT_TRUE(R.counters().empty());
  metrics::SolverQueriesReport FQ = R.solverQueriesReport();
  EXPECT_FALSE(FQ.Valid);
  for (uint64_t Bucket : FQ.Histogram)
    EXPECT_EQ(Bucket, 0u);
  // A fingerprint seen before reset is fresh again afterwards.
  EXPECT_FALSE(R.noteEntailFingerprint(7));
}

TEST_F(TraceTest, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_TRUE(jsonValid("\"" + jsonEscape("x\n\"\\\x02") + "\""));
}

} // namespace
