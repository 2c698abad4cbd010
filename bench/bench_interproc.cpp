//===- bench/bench_interproc.cpp - Interprocedural summary phase overhead ---===//
//
// Measures the interprocedural summary phase (src/analysis/Summary.h,
// docs/ANALYSIS.md) on two workloads:
//
//   * a generated multi-module program (call chains, straight-line
//     constants, executor-proved arithmetic) with many small summaries;
//   * the LinkedList functional case study.
//
// The headline gate is the aggregate wall-time ratio: the summary phase
// (call graph + bottom-up fixpoint) must stay under 5% of the cold
// scheduled verification it runs inside. Exits non-zero if the ratio is
// blown or any entity fails to verify, so CI can gate on it.
//
// Usage: bench_interproc [out-file]
//   default: BENCH_interproc.json
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "rmir/Builder.h"
#include "rustlib/LinkedList.h"
#include "sched/Scheduler.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace gilr;
using namespace gilr::engine;
using namespace gilr::gilsonite;
using namespace gilr::rmir;

namespace {

constexpr int Repetitions = 3;
constexpr double RatioBudget = 0.05; // Summary phase <= 5% of cold verify.
constexpr unsigned Modules = 6;

/// A generated "module": three emp/emp constants, an identity call
/// chain a -> b -> c (summaries with real depth, verified through call-site
/// spec application), and one arithmetic function the executor must prove.
/// Everything lives in one Program, name-spaced `m<K>::`.
struct GeneratedWorkload {
  rmir::Program Prog;
  PredTable Preds;
  SpecTable Specs;
  OwnableRegistry Ownables{Prog.Types, Preds};
  LemmaTable Lemmas;
  Solver Solv;
  Automation Auto;
  std::vector<std::string> Names;

  GeneratedWorkload() {
    TypeRef U32 = Prog.Types.intTy(IntKind::U32);

    auto addFn = [&](Function F) {
      std::string N = F.Name;
      Prog.Funcs.emplace(std::move(N), std::move(F));
    };
    auto identitySpec = [&](const std::string &Name) {
      Spec S;
      S.Func = Name;
      S.Pre = emp();
      S.Post =
          pure(mkEq(mkVar(retVarName(), Sort::Int), mkVar("x", Sort::Int)));
      Specs.add(std::move(S));
    };
    auto addIdentity = [&](const std::string &Name) {
      FunctionBuilder B(Name, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      BlockId E = B.newBlock();
      B.atBlock(E);
      B.assign(Place(0), Rvalue::use(Operand::copy(Place(X))));
      B.ret();
      addFn(B.finish());
      identitySpec(Name);
    };
    auto addCaller = [&](const std::string &Name, const std::string &Callee) {
      FunctionBuilder B(Name, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      LocalId T = B.addLocal("t", U32);
      BlockId E = B.newBlock();
      BlockId C = B.newBlock();
      B.atBlock(E);
      B.call(Callee, {Operand::copy(Place(X))}, Place(T), C);
      B.atBlock(C);
      B.assign(Place(0), Rvalue::use(Operand::copy(Place(T))));
      B.ret();
      addFn(B.finish());
      identitySpec(Name);
    };
    auto addConstant = [&](const std::string &Name) {
      FunctionBuilder B(Name, Prog.Types);
      B.setReturnType(U32);
      BlockId E = B.newBlock();
      B.atBlock(E);
      B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
      B.ret();
      addFn(B.finish());
      Spec S;
      S.Func = Name;
      S.Pre = emp();
      S.Post = emp();
      Specs.add(std::move(S));
    };
    auto addInc = [&](const std::string &Name) {
      FunctionBuilder B(Name, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      BlockId E = B.newBlock();
      B.atBlock(E);
      B.assign(Place(0), Rvalue::binary(BinOp::Add, Operand::copy(Place(X)),
                                        Operand::constant(mkInt(1), U32)));
      B.ret();
      addFn(B.finish());
      Spec S;
      S.Func = Name;
      S.SpecVars = {{"x", Sort::Int}};
      Expr Xv = mkVar("x", Sort::Int);
      S.Pre = pure(mkLt(Xv, mkInt(100)));
      S.Post = pure(mkEq(mkVar(retVarName(), Sort::Int), mkAdd(Xv, mkInt(1))));
      Specs.add(std::move(S));
    };

    for (unsigned K = 0; K != Modules; ++K) {
      const std::string M = "m" + std::to_string(K) + "::";
      for (int I = 0; I != 3; ++I)
        addConstant(M + "konst" + std::to_string(I));
      addIdentity(M + "c");
      addCaller(M + "b", M + "c");
      addCaller(M + "a", M + "b");
      addInc(M + "f");
      for (const char *N : {"konst0", "konst1", "konst2", "c", "b", "a", "f"})
        Names.push_back(M + N);
    }
  }

  VerifEnv env() {
    return VerifEnv{Prog,   Preds, Specs, Ownables,
                    Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
  }
};

struct SuiteResult {
  std::string Name;
  std::size_t Entities = 0;
  bool VerifyOk = true;
  double TotalSeconds = 0.0;   ///< Whole cold verifyAll wall (best of N).
  double SummarySeconds = 0.0; ///< Summary phase share of that run.
  uint64_t FnSummaries = 0;
  uint64_t PredSummaries = 0;

  double ratio() const {
    return TotalSeconds > 0.0 ? SummarySeconds / TotalSeconds : 0.0;
  }
  /// The per-suite gate: everything verified. The wall-time budget is
  /// checked on the aggregate across suites.
  bool ok() const { return VerifyOk; }
};

double now() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs \p RunOnce (a full cold scheduled verifyAll) \c Repetitions times;
/// keeps the fastest total. The interproc counters are deterministic (the
/// determinism contract), so they come from the last repetition.
SuiteResult measure(const std::string &Name, std::size_t Entities,
                    const std::function<bool()> &RunOnce) {
  SuiteResult S;
  S.Name = Name;
  S.Entities = Entities;
  for (int Rep = 0; Rep != Repetitions; ++Rep) {
    metrics::Registry::get().reset();
    double Start = now();
    bool Ok = RunOnce();
    double Total = now() - Start;
    metrics::InterprocReport IP = metrics::Registry::get().interprocReport();
    S.VerifyOk = S.VerifyOk && Ok && IP.Valid;
    if (Rep == 0 || Total < S.TotalSeconds) {
      S.TotalSeconds = Total;
      S.SummarySeconds = IP.Seconds;
    }
    S.FnSummaries = IP.FnSummaries;
    S.PredSummaries = IP.PredSummaries;
  }
  return S;
}

std::string fmt(double V, const char *Spec = "%.6f") {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), Spec, V);
  return Buf;
}

std::string renderSuite(const SuiteResult &S) {
  std::string Out = "    {\"name\": \"" + jsonEscape(S.Name) + "\"";
  Out += ", \"entities\": " + std::to_string(S.Entities);
  Out += ", \"ok\": " + std::string(S.ok() ? "true" : "false");
  Out += ",\n     \"total_seconds\": " + fmt(S.TotalSeconds);
  Out += ", \"summary_seconds\": " + fmt(S.SummarySeconds);
  Out += ", \"summary_ratio\": " + fmt(S.ratio(), "%.4f");
  Out += ",\n     \"fn_summaries\": " + std::to_string(S.FnSummaries);
  Out += ", \"pred_summaries\": " + std::to_string(S.PredSummaries);
  return Out + "}";
}

void printSuite(const SuiteResult &S) {
  std::printf("%-28s %zu entities  %s\n", S.Name.c_str(), S.Entities,
              S.ok() ? "ok" : "FAIL");
  std::printf(
      "  cold verify %8.3fs, summary phase %6.4fs (%.2f%%, budget %.0f%%)\n",
      S.TotalSeconds, S.SummarySeconds, 1e2 * S.ratio(), 1e2 * RatioBudget);
  std::printf("  summaries: %llu fn, %llu pred\n",
              static_cast<unsigned long long>(S.FnSummaries),
              static_cast<unsigned long long>(S.PredSummaries));
}

} // namespace

int main(int argc, char **argv) {
  trace::configureFromEnv();
  std::string OutFile = argc > 1 ? argv[1] : "BENCH_interproc.json";
  std::vector<SuiteResult> Suites;

  {
    GeneratedWorkload W;
    Suites.push_back(measure("generated-multimodule", W.Names.size(), [&]() {
      VerifEnv Env = W.env();
      Verifier V(Env);
      sched::SchedulerConfig C;
      bool Ok = true;
      for (const VerifyReport &R : V.verifyAll(W.Names, C))
        Ok = Ok && R.Ok;
      return Ok;
    }));
    printSuite(Suites.back());
  }

  {
    auto Lib = rustlib::buildLinkedListLib(rustlib::SpecMode::Functional);
    std::vector<std::string> Funcs = rustlib::functionalFunctions();
    Suites.push_back(measure("linkedlist-functional", Funcs.size(), [&]() {
      VerifEnv Env = Lib->env();
      Verifier V(Env);
      sched::SchedulerConfig C;
      bool Ok = true;
      for (const VerifyReport &R : V.verifyAll(Funcs, C))
        Ok = Ok && R.Ok;
      return Ok;
    }));
    printSuite(Suites.back());
  }

  bool AllOk = true;
  double SumTotal = 0.0, SumSummary = 0.0;
  std::string Json = "{\n  \"bench\": \"interprocedural-summaries\"";
  Json += ",\n  \"ratio_budget\": " + fmt(RatioBudget, "%.2f");
  Json += ",\n  \"suites\": [\n";
  for (std::size_t I = 0; I != Suites.size(); ++I) {
    AllOk = AllOk && Suites[I].ok();
    SumTotal += Suites[I].TotalSeconds;
    SumSummary += Suites[I].SummarySeconds;
    Json += renderSuite(Suites[I]);
    Json += I + 1 != Suites.size() ? ",\n" : "\n";
  }
  const double AggRatio = SumTotal > 0.0 ? SumSummary / SumTotal : 0.0;
  const bool WithinBudget = AggRatio <= RatioBudget;
  AllOk = AllOk && WithinBudget;
  Json += "  ],\n  \"summary_ratio\": " + fmt(AggRatio, "%.4f") +
          ",\n  \"within_budget\": " + (WithinBudget ? "true" : "false") +
          ",\n  \"ok\": " + (AllOk ? "true" : "false") + "\n}\n";

  std::FILE *F = std::fopen(OutFile.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", OutFile.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::printf("wrote %s (aggregate summary ratio %.2f%%, budget %.0f%%)\n",
              OutFile.c_str(), 1e2 * AggRatio, 1e2 * RatioBudget);
  return AllOk ? 0 : 1;
}
