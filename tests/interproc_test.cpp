//===- tests/interproc_test.cpp - Interprocedural summary analysis tests ---===//
//
// Coverage for the interprocedural layer: call-graph/SCC condensation,
// bottom-up function and predicate summaries (recursive and mutual SCCs,
// opaque callees), the summary-powered lints (W008 de-opaqued through
// predicate footprints, W009 unsafe-escape, W010 recursion-without-variant),
// reports byte-stable across worker counts, summaries under incremental
// runs (recomputed, identical to a plain run; a constant body proved once,
// then replayed), and the generic dataflow framework (loops, nested
// back-edges, unreachable-then-rejoined blocks, fixpoint termination,
// deterministic iteration order).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CallGraph.h"
#include "analysis/Dataflow.h"
#include "analysis/Interproc.h"
#include "analysis/Summary.h"
#include "engine/Verifier.h"
#include "incr/Session.h"
#include "rmir/Builder.h"
#include "sched/Scheduler.h"
#include "support/Metrics.h"
#include "sym/ExprBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

using namespace gilr;
using namespace gilr::analysis;
using namespace gilr::engine;
using namespace gilr::rmir;
using namespace gilr::gilsonite;

namespace {

bool hasCode(const std::vector<Diagnostic> &Diags, const char *Code) {
  return std::any_of(Diags.begin(), Diags.end(),
                     [&](const Diagnostic &D) { return D.Code == Code; });
}

unsigned countCode(const std::vector<Diagnostic> &Diags, const char *Code) {
  return static_cast<unsigned>(
      std::count_if(Diags.begin(), Diags.end(),
                    [&](const Diagnostic &D) { return D.Code == Code; }));
}

const Diagnostic *findCode(const std::vector<Diagnostic> &Diags,
                           const char *Code) {
  auto It = std::find_if(Diags.begin(), Diags.end(),
                         [&](const Diagnostic &D) { return D.Code == Code; });
  return It == Diags.end() ? nullptr : &*It;
}

class InterprocTest : public ::testing::Test {
protected:
  InterprocTest() : Ownables(Prog.Types, Preds) {
    U32 = Prog.Types.intTy(IntKind::U32);
    P32 = Prog.Types.rawPtr(U32);
    BoolTy = Prog.Types.boolTy();
  }

  void addFn(Function F) {
    std::string N = F.Name;
    Prog.Funcs.emplace(std::move(N), std::move(F));
  }

  void addSpec(const std::string &Func, AssertionP Pre, AssertionP Post,
               std::vector<Binder> Vars = {}) {
    Spec S;
    S.Func = Func;
    S.SpecVars = std::move(Vars);
    S.Pre = std::move(Pre);
    S.Post = std::move(Post);
    Specs.add(std::move(S));
  }

  AnalysisInput input() {
    AnalysisInput In;
    In.Prog = &Prog;
    In.Preds = &Preds;
    In.Specs = &Specs;
    In.Solv = &Solv;
    return In;
  }

  SummaryTable summarize() { return computeSummaries(Prog, Preds, Specs); }

  /// `ret = x + 1`: a pure leaf.
  Function cleanInc(const std::string &Name) {
    FunctionBuilder B(Name, Prog.Types);
    LocalId X = B.addParam("x", U32);
    B.setReturnType(U32);
    BlockId E = B.newBlock();
    B.atBlock(E);
    B.assign(Place(0), Rvalue::binary(BinOp::Add, Operand::copy(Place(X)),
                                      Operand::constant(mkInt(1), U32)));
    B.ret();
    return B.finish();
  }

  /// `t = callee(x); ret = t`: a single-call wrapper.
  Function callThrough(const std::string &Name, const std::string &Callee) {
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
    return B.finish();
  }

  /// `*p = 1; ret = 0`: an uncontained raw-pointer write.
  Function rawWrite(const std::string &Name) {
    FunctionBuilder B(Name, Prog.Types);
    LocalId P = B.addParam("p", P32);
    B.setReturnType(U32);
    BlockId E = B.newBlock();
    B.atBlock(E);
    B.assign(Place(P).deref(), Rvalue::use(Operand::constant(mkInt(1), U32)));
    B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(0), U32)));
    B.ret();
    return B.finish();
  }

  /// `ret = *p` with a second pointer parameter `q` the body never touches.
  Function derefFirstOfTwo(const std::string &Name) {
    FunctionBuilder B(Name, Prog.Types);
    LocalId P = B.addParam("p", P32);
    B.addParam("q", P32);
    B.setReturnType(U32);
    BlockId E = B.newBlock();
    B.atBlock(E);
    B.assign(Place(0), Rvalue::use(Operand::copy(Place(P).deref())));
    B.ret();
    return B.finish();
  }

  /// `ret = 1` with an emp/emp spec: straight-line, call-free, scalar.
  void addConstant(const std::string &Name) {
    FunctionBuilder B(Name, Prog.Types);
    B.setReturnType(U32);
    BlockId E = B.newBlock();
    B.atBlock(E);
    B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
    B.ret();
    addFn(B.finish());
    addSpec(Name, emp(), emp());
  }

  /// even/odd mutual recursion (no specs unless the test adds them).
  void addMutualRecursion() {
    for (const char *Pair : {"even", "odd"}) {
      const std::string Other = std::string(Pair) == "even" ? "odd" : "even";
      FunctionBuilder B(Pair, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(BoolTy);
      BlockId E = B.newBlock();
      BlockId C = B.newBlock();
      B.atBlock(E);
      B.call(Other, {Operand::copy(Place(X))}, Place(0), C);
      B.atBlock(C);
      B.ret();
      addFn(B.finish());
    }
  }

  rmir::Program Prog;
  PredTable Preds;
  SpecTable Specs;
  OwnableRegistry Ownables;
  LemmaTable Lemmas;
  Solver Solv;
  Automation Auto;
  TypeRef U32, P32, BoolTy;
};

//===----------------------------------------------------------------------===//
// Call graph and SCC condensation
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, CondensationIsBottomUp) {
  addFn(cleanInc("c"));
  addFn(callThrough("b", "c"));
  addFn(callThrough("a", "b"));
  CallGraph G = CallGraph::build(Prog, Preds, Specs);
  std::vector<Scc> Sccs = condenseSccs(G.FnCalls);
  ASSERT_EQ(Sccs.size(), 3u);
  // Callees strictly before callers, no recursion anywhere.
  std::map<std::string, std::size_t> Pos;
  for (std::size_t I = 0; I != Sccs.size(); ++I) {
    ASSERT_EQ(Sccs[I].Members.size(), 1u);
    EXPECT_FALSE(Sccs[I].Recursive);
    Pos[Sccs[I].Members[0]] = I;
  }
  EXPECT_LT(Pos["c"], Pos["b"]);
  EXPECT_LT(Pos["b"], Pos["a"]);
}

TEST_F(InterprocTest, MutualRecursionFormsOneRecursiveScc) {
  addMutualRecursion();
  CallGraph G = CallGraph::build(Prog, Preds, Specs);
  std::vector<Scc> Sccs = condenseSccs(G.FnCalls);
  ASSERT_EQ(Sccs.size(), 1u);
  EXPECT_TRUE(Sccs[0].Recursive);
  EXPECT_EQ(Sccs[0].Members, (std::vector<std::string>{"even", "odd"}));
}

TEST_F(InterprocTest, UnknownCalleeRecordedSeparately) {
  addFn(callThrough("caller", "phantom"));
  CallGraph G = CallGraph::build(Prog, Preds, Specs);
  EXPECT_TRUE(G.FnCalls["caller"].empty());
  EXPECT_EQ(G.FnUnknownCallees["caller"].count("phantom"), 1u);
}

//===----------------------------------------------------------------------===//
// Function summaries
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, PureLeafSummary) {
  addFn(cleanInc("inc"));
  SummaryTable T = summarize();
  const FnSummary *S = T.fn("inc");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->UnsafeOps);
  EXPECT_FALSE(S->UnsafeEscapes);
  EXPECT_EQ(S->DepFns.count("inc"), 1u);
}

TEST_F(InterprocTest, SelfRecursivePureFunctionStaysSafe) {
  addFn(callThrough("selfy", "selfy"));
  SummaryTable T = summarize();
  const FnSummary *S = T.fn("selfy");
  ASSERT_NE(S, nullptr);
  // The optimistic in-SCC seed converges to the least solution: nothing in
  // the body touches a raw pointer, so no unsafe surface escapes the cycle.
  EXPECT_FALSE(S->UnsafeOps);
  EXPECT_FALSE(S->UnsafeEscapes);
  EXPECT_EQ(S->DepFns.count("selfy"), 1u);
}

TEST_F(InterprocTest, MutualSccSummariesSafeWithWholeCycleClosure) {
  addMutualRecursion();
  SummaryTable T = summarize();
  for (const char *Name : {"even", "odd"}) {
    const FnSummary *S = T.fn(Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_FALSE(S->UnsafeEscapes) << Name;
    // Each member's dep closure contains the whole cycle.
    EXPECT_EQ(S->DepFns.count("even"), 1u) << Name;
    EXPECT_EQ(S->DepFns.count("odd"), 1u) << Name;
  }
}

TEST_F(InterprocTest, OpaqueCalleePoisonsCallerSummary) {
  addFn(callThrough("caller", "phantom"));
  SummaryTable T = summarize();
  const FnSummary *S = T.fn("caller");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->UnsafeOps); // The caller's own body is safe...
  EXPECT_TRUE(S->UnsafeEscapes); // ...but the opaque callee may not be.
  EXPECT_EQ(S->DepFns.count("phantom"), 1u);
}

TEST_F(InterprocTest, RawPointerWriteEscapesWithoutSpec) {
  addFn(rawWrite("store"));
  SummaryTable T = summarize();
  const FnSummary *S = T.fn("store");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->UnsafeOps);
  EXPECT_TRUE(S->UnsafeEscapes); // No spec to contain the unsafety.

  // An ownership-bearing spec is a containment boundary.
  Expr Pv = mkVar("p", Sort::Loc), Vv = mkVar("v", Sort::Int);
  addSpec("store", pointsTo(Pv, U32, Vv), pointsTo(Pv, U32, mkInt(1)),
          {{"p", Sort::Loc}, {"v", Sort::Int}});
  SummaryTable T2 = summarize();
  const FnSummary *S2 = T2.fn("store");
  ASSERT_NE(S2, nullptr);
  EXPECT_FALSE(S2->UnsafeEscapes);
  EXPECT_TRUE(S2->UnsafeOps); // The body fact is unchanged.
}

//===----------------------------------------------------------------------===//
// Predicate footprint summaries
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, PredicateFootprintSummaries) {
  Expr Xv = mkVar("x", Sort::Loc), Vv = mkVar("v", Sort::Int);
  {
    PredDecl D;
    D.Name = "own";
    D.Params = {{"x", Sort::Loc, /*In=*/true}};
    D.Clauses.push_back(exists({{"v", Sort::Int}}, pointsTo(Xv, U32, Vv)));
    Preds.declare(std::move(D));
  }
  {
    PredDecl D;
    D.Name = "nothing";
    D.Params = {{"x", Sort::Loc, /*In=*/true}};
    D.Clauses.push_back(pure(mkTrue()));
    Preds.declare(std::move(D));
  }
  {
    PredDecl D;
    D.Name = "wrap";
    D.Params = {{"y", Sort::Loc, /*In=*/true}};
    D.Clauses.push_back(predCall("own", {mkVar("y", Sort::Loc)}));
    Preds.declare(std::move(D));
  }
  {
    PredDecl D;
    D.Name = "inv";
    D.Params = {{"x", Sort::Loc, /*In=*/true}};
    D.Abstract = true;
    Preds.declare(std::move(D));
  }

  SummaryTable T = summarize();
  const PredSummary *Own = T.pred("own");
  ASSERT_NE(Own, nullptr);
  EXPECT_TRUE(Own->Known);
  EXPECT_FALSE(Own->OwnsUnknown);
  ASSERT_EQ(Own->MayOwnParam.size(), 1u);
  EXPECT_TRUE(Own->MayOwnParam[0]);

  const PredSummary *Nothing = T.pred("nothing");
  ASSERT_NE(Nothing, nullptr);
  EXPECT_TRUE(Nothing->Known);
  ASSERT_EQ(Nothing->MayOwnParam.size(), 1u);
  EXPECT_FALSE(Nothing->MayOwnParam[0]);

  // Ownership flows through the reference closure.
  const PredSummary *Wrap = T.pred("wrap");
  ASSERT_NE(Wrap, nullptr);
  EXPECT_TRUE(Wrap->Known);
  ASSERT_EQ(Wrap->MayOwnParam.size(), 1u);
  EXPECT_TRUE(Wrap->MayOwnParam[0]);
  EXPECT_EQ(Wrap->DepPreds.count("own"), 1u);

  const PredSummary *Inv = T.pred("inv");
  ASSERT_NE(Inv, nullptr);
  EXPECT_FALSE(Inv->Known);
  EXPECT_TRUE(Inv->OwnsUnknown);
}

//===----------------------------------------------------------------------===//
// W008 through summaries (and the satellite opaque-culprit note)
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, SummariesDeopaqueW008WhereSyntacticStayedSilent) {
  addFn(derefFirstOfTwo("deref_first"));
  PredDecl D;
  D.Name = "own";
  D.Params = {{"x", Sort::Loc, /*In=*/true}};
  D.Clauses.push_back(exists({{"v", Sort::Int}},
                             pointsTo(mkVar("x", Sort::Loc), U32,
                                      mkVar("v", Sort::Int))));
  Preds.declare(std::move(D));
  Expr Pv = mkVar("p", Sort::Loc), Qv = mkVar("q", Sort::Loc);
  Expr Wv = mkVar("w", Sort::Int);
  // `own(p)` resolves to a p-rooted footprint through the summary; `q` is
  // owned directly and untouched.
  addSpec("deref_first", star({predCall("own", {Pv}), pointsTo(Qv, U32, Wv)}),
          pure(mkTrue()),
          {{"p", Sort::Loc}, {"q", Sort::Loc}, {"w", Sort::Int}});

  // Syntactic mode: the predicate call keeps the footprint opaque.
  EntityVerdict Syntactic = lintEntity(input(), "deref_first");
  EXPECT_FALSE(hasCode(Syntactic.Diags, code::FrameWiderThanFootprint));

  // Summary mode: the same spec now warns about the untouched `q`.
  SummaryTable T = summarize();
  AnalysisInput In = input();
  In.Summaries = &T;
  EntityVerdict V = lintEntity(In, "deref_first");
  EXPECT_EQ(countCode(V.Diags, code::FrameWiderThanFootprint), 1u);
  const Diagnostic *W = findCode(V.Diags, code::FrameWiderThanFootprint);
  ASSERT_NE(W, nullptr);
  EXPECT_NE(W->Message.find("'q'"), std::string::npos);
}

TEST_F(InterprocTest, OpaquePredicateNamedInW008Note) {
  addFn(derefFirstOfTwo("deref_first"));
  PredDecl Abs;
  Abs.Name = "inv";
  Abs.Params = {{"x", Sort::Loc, /*In=*/true}};
  Abs.Abstract = true;
  Preds.declare(std::move(Abs));
  Expr Pv = mkVar("p", Sort::Loc), Qv = mkVar("q", Sort::Loc);
  Expr Wv = mkVar("w", Sort::Int);
  addSpec("deref_first", star({predCall("inv", {Pv}), pointsTo(Qv, U32, Wv)}),
          pure(mkTrue()),
          {{"p", Sort::Loc}, {"q", Sort::Loc}, {"w", Sort::Int}});

  SummaryTable T = summarize();
  AnalysisInput In = input();
  In.Summaries = &T;
  EntityVerdict V = lintEntity(In, "deref_first");
  // `p` is shielded by the opaque call; `q` still fires — with the culprit
  // named in a note.
  const Diagnostic *W = findCode(V.Diags, code::FrameWiderThanFootprint);
  ASSERT_NE(W, nullptr);
  EXPECT_NE(W->Message.find("'q'"), std::string::npos);
  bool Named = std::any_of(W->Notes.begin(), W->Notes.end(),
                           [](const std::string &N) {
                             return N.find("predicate 'inv'") !=
                                        std::string::npos &&
                                    N.find("keeps its footprint opaque") !=
                                        std::string::npos;
                           });
  EXPECT_TRUE(Named);
}

//===----------------------------------------------------------------------===//
// W009: unsafe surface escaping into a spec-free caller
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, UnsafeEscapeWarnedInSpecFreeCaller) {
  addFn(rawWrite("raw_write"));
  addFn(callThrough("wrapper", "raw_write"));
  SummaryTable T = summarize();
  AnalysisInput In = input();
  In.Summaries = &T;
  EntityVerdict V = lintEntity(In, "wrapper");
  ASSERT_TRUE(hasCode(V.Diags, code::UnsafeEscape));
  const Diagnostic *W = findCode(V.Diags, code::UnsafeEscape);
  EXPECT_NE(W->Message.find("raw_write"), std::string::npos);
}

TEST_F(InterprocTest, UnsafeEscapeSilentWhenCallerHasSpec) {
  addFn(rawWrite("raw_write"));
  addFn(callThrough("wrapper", "raw_write"));
  Expr Xv = mkVar("x", Sort::Int);
  addSpec("wrapper", pure(mkLt(Xv, mkInt(100))), pure(mkTrue()),
          {{"x", Sort::Int}});
  SummaryTable T = summarize();
  AnalysisInput In = input();
  In.Summaries = &T;
  EntityVerdict V = lintEntity(In, "wrapper");
  EXPECT_FALSE(hasCode(V.Diags, code::UnsafeEscape));
}

TEST_F(InterprocTest, UnsafeEscapeSilentWhenCalleeSpecContainsIt) {
  addFn(rawWrite("raw_write"));
  addFn(callThrough("wrapper", "raw_write"));
  Expr Pv = mkVar("p", Sort::Loc), Vv = mkVar("v", Sort::Int);
  addSpec("raw_write", pointsTo(Pv, U32, Vv), pointsTo(Pv, U32, mkInt(1)),
          {{"p", Sort::Loc}, {"v", Sort::Int}});
  SummaryTable T = summarize();
  AnalysisInput In = input();
  In.Summaries = &T;
  EntityVerdict V = lintEntity(In, "wrapper");
  EXPECT_FALSE(hasCode(V.Diags, code::UnsafeEscape));
}

//===----------------------------------------------------------------------===//
// W010: recursive cycle without a decreasing argument
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, RecursiveCycleWithoutVariantWarnedOnce) {
  addMutualRecursion();
  AnalysisResult R = analyzeProgram(input(), {"even", "odd"});
  EXPECT_EQ(countCode(R.Diags, code::RecursionNoVariant), 1u);
  const Diagnostic *W = findCode(R.Diags, code::RecursionNoVariant);
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->Entity, "even"); // Least member: deterministic anchor.
  EXPECT_NE(W->Message.find("even, odd"), std::string::npos);
}

TEST_F(InterprocTest, InductivePredicateInSpecCountsAsVariant) {
  addMutualRecursion();
  PredDecl D;
  D.Name = "nat";
  D.Params = {{"x", Sort::Loc, /*In=*/true}};
  D.Abstract = true;
  Preds.declare(std::move(D));
  addSpec("even", predCall("nat", {mkVar("p", Sort::Loc)}), pure(mkTrue()),
          {{"p", Sort::Loc}});
  AnalysisResult R = analyzeProgram(input(), {"even", "odd"});
  EXPECT_FALSE(hasCode(R.Diags, code::RecursionNoVariant));
}

//===----------------------------------------------------------------------===//
// Byte stability across worker counts
//===----------------------------------------------------------------------===//

TEST_F(InterprocTest, ReportsByteStableAcrossWorkerCounts) {
  for (int I = 0; I < 3; ++I)
    addConstant("konst" + std::to_string(I));
  for (int I = 0; I < 3; ++I) {
    std::string Name = "f" + std::to_string(I);
    addFn(cleanInc(Name));
    Expr Xv = mkVar("x", Sort::Int);
    addSpec(Name, pure(mkLt(Xv, mkInt(100))),
            pure(mkEq(mkVar(retVarName(), Sort::Int), mkAdd(Xv, mkInt(1)))),
            {{"x", Sort::Int}});
  }
  const std::vector<std::string> Names = {"f0",     "konst0", "f1",
                                          "konst1", "f2",     "konst2"};

  auto runAt = [&](unsigned Threads) {
    metrics::Registry::get().reset();
    VerifEnv Env{Prog,   Preds, Specs, Ownables,
                 Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
    sched::SchedulerConfig C;
    C.Threads = Threads;
    Verifier V(Env);
    std::vector<VerifyReport> Rs = V.verifyAll(Names, C);
    std::string Digest = V.lastAnalysis().renderJson() + "\n";
    for (const VerifyReport &R : Rs)
      Digest += R.Func + "|" + (R.Ok ? "ok" : "fail") + "|" +
                std::to_string(R.PathsCompleted) + "\n";
    metrics::InterprocReport IP = metrics::Registry::get().interprocReport();
    return std::make_pair(Digest, IP);
  };

  auto Serial = runAt(1);
  auto Parallel = runAt(4);
  EXPECT_EQ(Serial.first, Parallel.first);
  EXPECT_TRUE(Serial.second.Valid);
  EXPECT_TRUE(Parallel.second.Valid);
  EXPECT_EQ(Serial.second.FnSummaries, 6u);
}

//===----------------------------------------------------------------------===//
// Summaries under incremental runs
//===----------------------------------------------------------------------===//

/// Self-contained call-chain env: a -> b -> c plus an unrelated d. \p EditC
/// rewrites c's body (same meaning, different shape), so a rebuild with it
/// set edits exactly c, whose summary a's and b's closures reach.
struct ChainBundle {
  rmir::Program Prog;
  PredTable Preds;
  SpecTable Specs;
  OwnableRegistry Ownables{Prog.Types, Preds};
  LemmaTable Lemmas;
  Solver Solv;
  Automation Auto;

  explicit ChainBundle(bool EditC) {
    TypeRef U32 = Prog.Types.intTy(IntKind::U32);

    // All four share the identity contract `emp / ret == x`, which the
    // executor can both prove directly and apply at call sites.
    auto addSpecFor = [&](const std::string &Name) {
      Spec S;
      S.Func = Name;
      S.Pre = emp();
      S.Post = pure(mkEq(mkVar(retVarName(), Sort::Int),
                         mkVar("x", Sort::Int)));
      Specs.add(std::move(S));
    };
    // `ret = x`, optionally through an intermediate local (the edit knob).
    auto addIdentity = [&](const std::string &Name, bool Indirect) {
      FunctionBuilder B(Name, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      BlockId E = B.newBlock();
      B.atBlock(E);
      if (Indirect) {
        LocalId T = B.addLocal("t2", U32);
        B.assign(Place(T), Rvalue::use(Operand::copy(Place(X))));
        B.assign(Place(0), Rvalue::use(Operand::copy(Place(T))));
      } else {
        B.assign(Place(0), Rvalue::use(Operand::copy(Place(X))));
      }
      B.ret();
      Function F = B.finish();
      std::string N = Name;
      Prog.Funcs.emplace(std::move(N), std::move(F));
      addSpecFor(Name);
    };
    // `t = callee(x); ret = t`.
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
      Function F = B.finish();
      std::string N = Name;
      Prog.Funcs.emplace(std::move(N), std::move(F));
      addSpecFor(Name);
    };

    addIdentity("c", EditC);
    addCaller("b", "c");
    addCaller("a", "b");
    addIdentity("d", false);
  }

  VerifEnv env() {
    return VerifEnv{Prog,   Preds, Specs, Ownables,
                    Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
  }
};

TEST(InterprocIncrTest, WarmAndEditedRunsRecomputeTheSameSummaries) {
  std::string Path = ::testing::TempDir() + "gilr_interproc_summaries_store";
  std::filesystem::remove_all(Path);
  const std::vector<std::string> Names = {"a", "b", "c", "d"};
  sched::SchedulerConfig SC;
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;

  // Cold, warm (identical rebuild), then with c edited: every incremental
  // run recomputes the summary table, so its analysis matches a plain run
  // over the same program.
  for (bool EditC : {false, false, true}) {
    SCOPED_TRACE(EditC ? "edited" : "unedited");
    std::string Plain;
    {
      ChainBundle L(EditC);
      VerifEnv Env = L.env();
      Verifier V(Env);
      (void)V.verifyAll(Names, SC);
      Plain = V.lastAnalysis().renderJson();
    }
    ChainBundle L(EditC);
    VerifEnv Env = L.env();
    Verifier V(Env);
    incr::IncrRunStats St;
    std::vector<VerifyReport> Rs = V.verifyAll(Names, SC, Inc, &St);
    for (const VerifyReport &R : Rs)
      EXPECT_TRUE(R.Ok) << R.Func << (R.Errors.empty() ? "" : ": " + R.Errors.front());
    metrics::InterprocReport IP = metrics::Registry::get().interprocReport();
    EXPECT_TRUE(IP.Valid);
    EXPECT_EQ(IP.FnSummaries, 4u);
    EXPECT_EQ(V.lastAnalysis().renderJson(), Plain);
  }
  std::filesystem::remove_all(Path);
}

TEST(InterprocIncrTest, ConstantBodyProvedThenReplayedFromStore) {
  std::string Path = ::testing::TempDir() + "gilr_interproc_konst_store";
  std::filesystem::remove_all(Path);
  sched::SchedulerConfig SC;
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;

  auto build = [](rmir::Program &Prog, SpecTable &Specs) {
    TypeRef U32 = Prog.Types.intTy(IntKind::U32);
    FunctionBuilder B("konst", Prog.Types);
    B.setReturnType(U32);
    BlockId E = B.newBlock();
    B.atBlock(E);
    B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
    B.ret();
    Function F = B.finish();
    Prog.Funcs.emplace("konst", std::move(F));
    Spec S;
    S.Func = "konst";
    S.Pre = emp();
    S.Post = emp();
    Specs.add(std::move(S));
  };

  // Every verdict comes from the executor or the store: the first run
  // proves the constant body, the second replays that proof.
  for (int Run = 0; Run < 2; ++Run) {
    rmir::Program Prog;
    PredTable Preds;
    SpecTable Specs;
    OwnableRegistry Ownables{Prog.Types, Preds};
    LemmaTable Lemmas;
    Solver Solv;
    Automation Auto;
    build(Prog, Specs);
    VerifEnv Env{Prog,   Preds, Specs, Ownables,
                 Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
    Verifier V(Env);
    incr::IncrRunStats St;
    std::vector<VerifyReport> Rs = V.verifyAll({"konst"}, SC, Inc, &St);
    ASSERT_EQ(Rs.size(), 1u);
    EXPECT_TRUE(Rs[0].Ok);
    EXPECT_EQ(Rs[0].Cached, Run == 1) << "run " << Run;
    EXPECT_EQ(St.VerifiedUnsafe, Run == 0 ? 1u : 0u) << "run " << Run;
    EXPECT_EQ(St.CachedUnsafe, Run == 1 ? 1u : 0u) << "run " << Run;
  }
  std::filesystem::remove_all(Path);
}

//===----------------------------------------------------------------------===//
// Dataflow framework (analysis/Dataflow.h)
//===----------------------------------------------------------------------===//

/// Forward may-analysis: In[b] = union of block ids on some entry path.
struct MayReach {
  using Domain = uint64_t;
  static constexpr Direction Dir = Direction::Forward;
  Domain boundary() { return 0; }
  Domain top() { return 0; }
  bool meetInto(Domain &Into, const Domain &From) {
    Domain Old = Into;
    Into |= From;
    return Into != Old;
  }
  Domain transfer(unsigned Block, Domain In) {
    Order.push_back(Block);
    return In | (1ull << Block);
  }
  std::vector<unsigned> Order; ///< Transfer invocations, in solver order.
};

/// Forward must-analysis (intersection meet): In[b] = block ids on *every*
/// entry path — the shape of definite-initialization.
struct MustReach {
  using Domain = uint64_t;
  static constexpr Direction Dir = Direction::Forward;
  Domain boundary() { return 0; }
  Domain top() { return ~0ull; }
  bool meetInto(Domain &Into, const Domain &From) {
    Domain Old = Into;
    Into &= From;
    return Into != Old;
  }
  Domain transfer(unsigned Block, Domain In) { return In | (1ull << Block); }
};

/// Backward may-analysis: In[b] (the block-exit state) = union of block ids
/// on some path to an exit — the shape of liveness.
struct MayReachExit {
  using Domain = uint64_t;
  static constexpr Direction Dir = Direction::Backward;
  Domain boundary() { return 0; }
  Domain top() { return 0; }
  bool meetInto(Domain &Into, const Domain &From) {
    Domain Old = Into;
    Into |= From;
    return Into != Old;
  }
  Domain transfer(unsigned Block, Domain In) { return In | (1ull << Block); }
};

/// A body of empty blocks with the given terminators (hand-built: the
/// FunctionBuilder would reject the malformed shapes these tests need).
Function cfgFn(rmir::TyCtx &Types, std::vector<Terminator> Terms) {
  Function F;
  F.Name = "cfg";
  F.Locals.push_back({"ret", Types.unitTy()});
  for (Terminator &T : Terms) {
    BasicBlock B;
    B.Term = std::move(T);
    F.Blocks.push_back(std::move(B));
  }
  return F;
}

Terminator switchTo(BlockId Arm0, BlockId Otherwise, rmir::TyCtx &Types) {
  return Terminator::switchInt(
      Operand::constant(mkInt(0), Types.intTy(IntKind::U32)), {{0, Arm0}},
      Otherwise);
}

TEST(DataflowTest, DiamondMustMeetIntersectsBranches) {
  rmir::TyCtx Types;
  // 0 -> {1, 2} -> 3.
  Function F = cfgFn(Types, {switchTo(1, 2, Types), Terminator::gotoBlock(3),
                             Terminator::gotoBlock(3), Terminator::ret()});
  Cfg C = Cfg::build(F);
  EXPECT_FALSE(C.BadEdges);
  MustReach A;
  std::vector<uint64_t> In = solveDataflow(C, A);
  ASSERT_EQ(In.size(), 4u);
  EXPECT_EQ(In[1], 1ull << 0);
  EXPECT_EQ(In[2], 1ull << 0);
  // Only the entry is on every path to the join.
  EXPECT_EQ(In[3], 1ull << 0);
}

TEST(DataflowTest, LoopBackEdgeConvergesToFixpoint) {
  rmir::TyCtx Types;
  // 0 -> 1 (header); 1 -> {2 (body), 3 (exit)}; 2 -> 1.
  Function F = cfgFn(Types, {Terminator::gotoBlock(1), switchTo(2, 3, Types),
                             Terminator::gotoBlock(1), Terminator::ret()});
  Cfg C = Cfg::build(F);
  MustReach Must;
  std::vector<uint64_t> MIn = solveDataflow(C, Must);
  // The body's back-edge cannot make the header dominated by the body.
  EXPECT_EQ(MIn[1], 1ull << 0);
  EXPECT_EQ(MIn[3], (1ull << 0) | (1ull << 1));

  MayReach May;
  std::vector<uint64_t> YIn = solveDataflow(C, May);
  // Some path to the exit does pass through the body.
  EXPECT_EQ(YIn[3], (1ull << 0) | (1ull << 1) | (1ull << 2));
}

TEST(DataflowTest, NestedBackEdgesConverge) {
  rmir::TyCtx Types;
  // 0 -> 1 (outer header); 1 -> {2, 6}; 2 -> 3 (inner header);
  // 3 -> {4, 5}; 4 -> 3 (inner back-edge); 5 -> 1 (outer back-edge).
  Function F = cfgFn(
      Types, {Terminator::gotoBlock(1), switchTo(2, 6, Types),
              Terminator::gotoBlock(3), switchTo(4, 5, Types),
              Terminator::gotoBlock(3), Terminator::gotoBlock(1),
              Terminator::ret()});
  Cfg C = Cfg::build(F);
  MustReach Must;
  std::vector<uint64_t> MIn = solveDataflow(C, Must);
  // The exit is dominated by exactly the entry and the outer header.
  EXPECT_EQ(MIn[6], (1ull << 0) | (1ull << 1));
  // The inner header is dominated by entry, outer header, and block 2.
  EXPECT_EQ(MIn[3], (1ull << 0) | (1ull << 1) | (1ull << 2));

  MayReach May;
  std::vector<uint64_t> YIn = solveDataflow(C, May);
  // Every block except the exit itself lies on some path to the exit.
  EXPECT_EQ(YIn[6],
            (1ull << 0) | (1ull << 1) | (1ull << 2) | (1ull << 3) |
                (1ull << 4) | (1ull << 5));
}

TEST(DataflowTest, UnreachableBlockRejoiningDoesNotPoisonTheMeet) {
  rmir::TyCtx Types;
  // 0 -> 2; 1 (unreachable) -> 2.
  Function F = cfgFn(Types, {Terminator::gotoBlock(2),
                             Terminator::gotoBlock(2), Terminator::ret()});
  Cfg C = Cfg::build(F);
  EXPECT_TRUE(C.Reachable[0]);
  EXPECT_FALSE(C.Reachable[1]);
  EXPECT_TRUE(C.Reachable[2]);

  // Forward solving never visits block 1, so the join sees only the
  // reachable predecessor — in both may and must flavours.
  MayReach May;
  std::vector<uint64_t> YIn = solveDataflow(C, May);
  EXPECT_EQ(YIn[2], 1ull << 0);
  MustReach Must;
  std::vector<uint64_t> MIn = solveDataflow(C, Must);
  EXPECT_EQ(MIn[2], 1ull << 0);
}

TEST(DataflowTest, BackwardAnalysisSeedsEveryExit) {
  rmir::TyCtx Types;
  // 0 -> {1, 2}; 1 -> 3; 2 -> 3; 3 ret.
  Function F = cfgFn(Types, {switchTo(1, 2, Types), Terminator::gotoBlock(3),
                             Terminator::gotoBlock(3), Terminator::ret()});
  Cfg C = Cfg::build(F);
  MayReachExit A;
  std::vector<uint64_t> In = solveDataflow(C, A);
  // Block-exit states: the entry can reach the exit through either branch.
  EXPECT_EQ(In[0], (1ull << 1) | (1ull << 2) | (1ull << 3));
  EXPECT_EQ(In[3], 0ull); // The exit's own out-state is the boundary.
}

TEST(DataflowTest, OutOfRangeTargetDroppedAndFlagged) {
  rmir::TyCtx Types;
  Function F = cfgFn(Types, {Terminator::gotoBlock(9)});
  Cfg C = Cfg::build(F);
  EXPECT_TRUE(C.BadEdges);
  EXPECT_TRUE(C.Succs[0].empty());
  // terminatorTargets still reports the raw target for diagnostics.
  std::vector<unsigned> Targets;
  Cfg::terminatorTargets(F.Blocks[0].Term, Targets);
  EXPECT_EQ(Targets, std::vector<unsigned>{9u});
}

TEST(DataflowTest, IterationOrderIsDeterministic) {
  rmir::TyCtx Types;
  Function F = cfgFn(
      Types, {Terminator::gotoBlock(1), switchTo(2, 6, Types),
              Terminator::gotoBlock(3), switchTo(4, 5, Types),
              Terminator::gotoBlock(3), Terminator::gotoBlock(1),
              Terminator::ret()});
  Cfg C1 = Cfg::build(F);
  Cfg C2 = Cfg::build(F);
  EXPECT_EQ(C1.Succs, C2.Succs);
  EXPECT_EQ(C1.Preds, C2.Preds);
  MayReach A1, A2;
  std::vector<uint64_t> R1 = solveDataflow(C1, A1);
  std::vector<uint64_t> R2 = solveDataflow(C2, A2);
  EXPECT_EQ(R1, R2);
  // The worklist discipline itself is deterministic, not just the fixpoint.
  EXPECT_EQ(A1.Order, A2.Order);
  EXPECT_FALSE(A1.Order.empty());
}

} // namespace
