//===- tests/analysis_test.cpp - Pre-verification analysis tests -----------===//
//
// Positive and negative cases for every lint pass (GILR-E001..E007, E011,
// GILR-W001..W007), suppression (per-entity attribute and global config),
// parser negative inputs (malformed specs become diagnostics, not aborts),
// driver integration (blocked entities never reach the executor), scheduler
// determinism (byte-identical diagnostics at 1 vs 4 workers) and the
// incremental lint-verdict cache (warm replay; editing one function re-lints
// exactly that function).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "engine/Verifier.h"
#include "gilsonite/Parser.h"
#include "incr/Session.h"
#include "rmir/Builder.h"
#include "sched/Scheduler.h"
#include "support/Metrics.h"
#include "support/Trace.h"
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

class AnalysisTest : public ::testing::Test {
protected:
  AnalysisTest() : Ownables(Prog.Types, Preds) {
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

  /// A well-formed `ret = x + 1` body with no findings.
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
// Well-formedness (GILR-E001..E005)
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, CleanFunctionHasNoDiagnostics) {
  addFn(cleanInc("inc"));
  EntityVerdict V = lintEntity(input(), "inc");
  EXPECT_TRUE(V.Diags.empty());
  EXPECT_FALSE(V.Blocked);
}

TEST_F(AnalysisTest, BadTerminatorTargetReported) {
  // Hand-built: the FunctionBuilder validates targets eagerly, which is
  // exactly what a rustc front-end would not guarantee.
  Function F;
  F.Name = "bad_target";
  F.Locals.push_back({"ret", Prog.Types.unitTy()});
  BasicBlock BB;
  BB.Term = Terminator::gotoBlock(7);
  F.Blocks.push_back(std::move(BB));
  addFn(std::move(F));

  EntityVerdict V = lintEntity(input(), "bad_target");
  EXPECT_TRUE(hasCode(V.Diags, code::BadTarget));
  EXPECT_TRUE(V.Blocked);
}

TEST_F(AnalysisTest, EmptyBodyReported) {
  Function F;
  F.Name = "no_blocks";
  F.Locals.push_back({"ret", Prog.Types.unitTy()});
  addFn(std::move(F));
  EntityVerdict V = lintEntity(input(), "no_blocks");
  EXPECT_TRUE(hasCode(V.Diags, code::BadTarget));
}

TEST_F(AnalysisTest, UndeclaredLocalReported) {
  Function F;
  F.Name = "bad_local";
  F.Locals.push_back({"ret", U32});
  BasicBlock BB;
  BB.Stmts.push_back(
      Statement::assign(Place(0), Rvalue::use(Operand::copy(Place(9)))));
  BB.Term = Terminator::ret();
  F.Blocks.push_back(std::move(BB));
  addFn(std::move(F));

  EntityVerdict V = lintEntity(input(), "bad_local");
  EXPECT_TRUE(hasCode(V.Diags, code::BadLocal));
  EXPECT_TRUE(V.Blocked);
}

TEST_F(AnalysisTest, TypeMismatchReported) {
  Function F;
  F.Name = "bad_type";
  F.Locals.push_back({"ret", U32});
  BasicBlock BB;
  BB.Stmts.push_back(Statement::assign(
      Place(0), Rvalue::use(Operand::constant(mkBool(true), BoolTy))));
  BB.Term = Terminator::ret();
  F.Blocks.push_back(std::move(BB));
  addFn(std::move(F));

  EntityVerdict V = lintEntity(input(), "bad_type");
  EXPECT_TRUE(hasCode(V.Diags, code::TypeMismatch));
}

TEST_F(AnalysisTest, UninitUseReported) {
  FunctionBuilder B("uninit_use", Prog.Types);
  B.setReturnType(U32);
  LocalId T = B.addLocal("t", U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(0), Rvalue::use(Operand::copy(Place(T)))); // t never written.
  B.ret();
  addFn(B.finish());

  EntityVerdict V = lintEntity(input(), "uninit_use");
  EXPECT_TRUE(hasCode(V.Diags, code::UninitUse));
  EXPECT_TRUE(V.Blocked);
}

TEST_F(AnalysisTest, MovedUseReported) {
  FunctionBuilder B("moved_use", Prog.Types);
  LocalId X = B.addParam("x", U32);
  B.setReturnType(U32);
  LocalId T = B.addLocal("t", U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(T), Rvalue::use(Operand::move(Place(X))));
  B.assign(Place(0), Rvalue::binary(BinOp::Add, Operand::copy(Place(T)),
                                    Operand::copy(Place(X)))); // x was moved.
  B.ret();
  addFn(B.finish());

  EntityVerdict V = lintEntity(input(), "moved_use");
  EXPECT_TRUE(hasCode(V.Diags, code::MovedUse));
  EXPECT_FALSE(hasCode(V.Diags, code::UninitUse));
}

//===----------------------------------------------------------------------===//
// Dead code (GILR-W001/W002)
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, UnreachableBlockWarned) {
  FunctionBuilder B("unreach", Prog.Types);
  B.setReturnType(U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
  B.ret();
  BlockId Dead = B.newBlock();
  B.atBlock(Dead);
  B.ret();
  addFn(B.finish());

  EntityVerdict V = lintEntity(input(), "unreach");
  EXPECT_TRUE(hasCode(V.Diags, code::UnreachableBlock));
  EXPECT_FALSE(V.Blocked); // Warnings do not gate.
}

TEST_F(AnalysisTest, DeadStoreWarnedAndReadStoreNot) {
  FunctionBuilder B("dead_store", Prog.Types);
  LocalId X = B.addParam("x", U32);
  B.setReturnType(U32);
  LocalId T = B.addLocal("t", U32);
  LocalId U = B.addLocal("u", U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(T), Rvalue::use(Operand::constant(mkInt(7), U32))); // Dead.
  B.assign(Place(U), Rvalue::use(Operand::copy(Place(X))));          // Read.
  B.assign(Place(0), Rvalue::use(Operand::copy(Place(U))));
  B.ret();
  addFn(B.finish());

  EntityVerdict V = lintEntity(input(), "dead_store");
  ASSERT_EQ(countCode(V.Diags, code::DeadStore), 1u);
  const Diagnostic &D = *std::find_if(
      V.Diags.begin(), V.Diags.end(),
      [](const Diagnostic &X2) { return X2.Code == code::DeadStore; });
  EXPECT_NE(D.Message.find("'t'"), std::string::npos);
  (void)T;
}

TEST_F(AnalysisTest, ReturnSlotStoreIsNotDead) {
  addFn(cleanInc("inc"));
  EntityVerdict V = lintEntity(input(), "inc");
  EXPECT_FALSE(hasCode(V.Diags, code::DeadStore));
}

//===----------------------------------------------------------------------===//
// Unsafe surface (GILR-W003)
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, RawPointerOpsWithoutOwnershipSpecWarned) {
  FunctionBuilder B("raw_peek", Prog.Types);
  LocalId X = B.addParam("x", U32);
  B.setReturnType(U32);
  LocalId P = B.addLocal("p", P32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(P), Rvalue::addrOf(Place(X)));
  B.assign(Place(0), Rvalue::use(Operand::copy(Place(P).deref())));
  B.ret();
  addFn(B.finish());
  addSpec("raw_peek", emp(), pure(mkTrue()));

  EntityVerdict V = lintEntity(input(), "raw_peek");
  EXPECT_TRUE(hasCode(V.Diags, code::UnsafeSurface));
}

TEST_F(AnalysisTest, RawPointerOpsWithOwnershipSpecClean) {
  FunctionBuilder B("raw_read", Prog.Types);
  LocalId P = B.addParam("p", P32);
  B.setReturnType(U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(0), Rvalue::use(Operand::copy(Place(P).deref())));
  B.ret();
  addFn(B.finish());

  Expr Pv = mkVar("p", Sort::Loc);
  Expr Vv = mkVar("v", Sort::Int);
  addSpec("raw_read", pointsTo(Pv, U32, Vv), pointsTo(Pv, U32, Vv),
          {{"p", Sort::Loc}, {"v", Sort::Int}});

  EntityVerdict V = lintEntity(input(), "raw_read");
  EXPECT_FALSE(hasCode(V.Diags, code::UnsafeSurface));
}

//===----------------------------------------------------------------------===//
// Frame-rule footprint lint (GILR-W008)
//===----------------------------------------------------------------------===//

namespace {

/// `ret = *p` with a second pointer parameter `q` the body never touches.
Function derefFirstOfTwo(rmir::Program &Prog, TypeRef U32, TypeRef P32) {
  FunctionBuilder B("deref_first", Prog.Types);
  LocalId P = B.addParam("p", P32);
  B.addParam("q", P32);
  B.setReturnType(U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(0), Rvalue::use(Operand::copy(Place(P).deref())));
  B.ret();
  return B.finish();
}

} // namespace

TEST_F(AnalysisTest, UntouchedOwnedParameterWarned) {
  addFn(derefFirstOfTwo(Prog, U32, P32));
  Expr Pv = mkVar("p", Sort::Loc), Qv = mkVar("q", Sort::Loc);
  Expr Vv = mkVar("v", Sort::Int), Wv = mkVar("w", Sort::Int);
  addSpec("deref_first", star({pointsTo(Pv, U32, Vv), pointsTo(Qv, U32, Wv)}),
          pure(mkTrue()),
          {{"p", Sort::Loc}, {"q", Sort::Loc}, {"v", Sort::Int},
           {"w", Sort::Int}});

  EntityVerdict V = lintEntity(input(), "deref_first");
  ASSERT_TRUE(hasCode(V.Diags, code::FrameWiderThanFootprint));
  EXPECT_FALSE(V.Blocked); // A wide frame is a warning, never a gate.
  const Diagnostic &D = *std::find_if(
      V.Diags.begin(), V.Diags.end(), [](const Diagnostic &X2) {
        return X2.Code == code::FrameWiderThanFootprint;
      });
  // The finding names the untouched root, not the used one.
  EXPECT_NE(D.Message.find("q"), std::string::npos);
}

TEST_F(AnalysisTest, TouchedOwnedParameterClean) {
  FunctionBuilder B("deref_both", Prog.Types);
  LocalId P = B.addParam("p", P32);
  LocalId Q = B.addParam("q", P32);
  B.setReturnType(U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(0), Rvalue::binary(BinOp::Add, Operand::copy(Place(P).deref()),
                                    Operand::copy(Place(Q).deref())));
  B.ret();
  addFn(B.finish());
  Expr Pv = mkVar("p", Sort::Loc), Qv = mkVar("q", Sort::Loc);
  Expr Vv = mkVar("v", Sort::Int), Wv = mkVar("w", Sort::Int);
  addSpec("deref_both", star({pointsTo(Pv, U32, Vv), pointsTo(Qv, U32, Wv)}),
          pure(mkTrue()),
          {{"p", Sort::Loc}, {"q", Sort::Loc}, {"v", Sort::Int},
           {"w", Sort::Int}});

  EntityVerdict V = lintEntity(input(), "deref_both");
  EXPECT_FALSE(hasCode(V.Diags, code::FrameWiderThanFootprint));
}

TEST_F(AnalysisTest, AbstractPredicateMakesFootprintOpaque) {
  addFn(derefFirstOfTwo(Prog, U32, P32));
  PredDecl Abs;
  Abs.Name = "inv";
  Abs.Params = {{"x", Sort::Loc, /*In=*/true}};
  Abs.Abstract = true;
  Preds.declare(std::move(Abs));
  Expr Pv = mkVar("p", Sort::Loc), Qv = mkVar("q", Sort::Loc);
  Expr Wv = mkVar("w", Sort::Int);
  // `q` is owned and untouched, but the predicate call hides an unknown
  // footprint, so the lint must stay silent.
  addSpec("deref_first", star({predCall("inv", {Pv}), pointsTo(Qv, U32, Wv)}),
          pure(mkTrue()),
          {{"p", Sort::Loc}, {"q", Sort::Loc}, {"w", Sort::Int}});

  EntityVerdict V = lintEntity(input(), "deref_first");
  EXPECT_FALSE(hasCode(V.Diags, code::FrameWiderThanFootprint));
}

//===----------------------------------------------------------------------===//
// Spec lints (GILR-E006/W004) and parse diagnostics (GILR-E007)
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, VacuousPreconditionReportedWithUnsatCore) {
  Expr X = mkVar("x", Sort::Int);
  addSpec("vac", star({pure(mkLt(X, mkInt(0))), pure(mkGt(X, mkInt(0)))}),
          pure(mkEq(mkVar("r", Sort::Int), mkInt(0))),
          {{"x", Sort::Int}});

  EntityVerdict V = lintEntity(input(), "vac");
  ASSERT_TRUE(hasCode(V.Diags, code::VacuousPre));
  EXPECT_TRUE(V.Blocked);
  const Diagnostic &D = *std::find_if(
      V.Diags.begin(), V.Diags.end(),
      [](const Diagnostic &X2) { return X2.Code == code::VacuousPre; });
  EXPECT_FALSE(D.Notes.empty()); // The minimized unsat core.
}

TEST_F(AnalysisTest, SatisfiablePreconditionClean) {
  Expr X = mkVar("x", Sort::Int);
  addSpec("fine", pure(mkLt(X, mkInt(100))),
          pure(mkEq(mkVar("r", Sort::Int), X)), {{"x", Sort::Int}});
  EntityVerdict V = lintEntity(input(), "fine");
  EXPECT_FALSE(hasCode(V.Diags, code::VacuousPre));
  EXPECT_FALSE(V.Blocked);
}

TEST_F(AnalysisTest, TriviallyTruePostconditionWarned) {
  Expr X = mkVar("x", Sort::Int);
  addSpec("triv", pure(mkLt(X, mkInt(10))),
          star({pure(mkEq(mkInt(1), mkInt(1))), pure(mkGt(X, mkInt(-1)))}),
          {{"x", Sort::Int}});
  EntityVerdict V = lintEntity(input(), "triv");
  EXPECT_TRUE(hasCode(V.Diags, code::TrivialPost));
  EXPECT_FALSE(V.Blocked);
}

TEST_F(AnalysisTest, PostConjunctImpliedByPreAloneWarned) {
  // `x < 20` follows from the pre `x < 10` without looking at the body: a
  // frame-style conjunct that promises nothing. `r == x` is a genuine
  // promise and must stay clean.
  Expr X = mkVar("x", Sort::Int);
  Expr R = mkVar("r", Sort::Int);
  addSpec("framed", pure(mkLt(X, mkInt(10))),
          star({pure(mkLt(X, mkInt(20))), pure(mkEq(R, X))}),
          {{"x", Sort::Int}});
  EntityVerdict V = lintEntity(input(), "framed");
  EXPECT_EQ(countCode(V.Diags, code::PostImpliedByPre), 1u);
  EXPECT_FALSE(hasCode(V.Diags, code::TrivialPost));
  EXPECT_FALSE(V.Blocked); // W-severity: advisory only.
}

TEST_F(AnalysisTest, GenuinePostconditionNotFlaggedAsImplied) {
  Expr X = mkVar("x", Sort::Int);
  addSpec("honest", pure(mkLt(X, mkInt(100))),
          pure(mkEq(mkVar("r", Sort::Int), mkAdd(X, mkInt(1)))),
          {{"x", Sort::Int}});
  EntityVerdict V = lintEntity(input(), "honest");
  EXPECT_FALSE(hasCode(V.Diags, code::PostImpliedByPre));
  EXPECT_FALSE(hasCode(V.Diags, code::PostUnsatGivenPre));
}

TEST_F(AnalysisTest, PostContradictingPreIsError) {
  // Pre admits callers (x > 0) but the post demands x < 0 of the same
  // unmodified spec variable: no implementation can meet the contract.
  Expr X = mkVar("x", Sort::Int);
  addSpec("impossible", pure(mkGt(X, mkInt(0))), pure(mkLt(X, mkInt(0))),
          {{"x", Sort::Int}});
  EntityVerdict V = lintEntity(input(), "impossible");
  ASSERT_TRUE(hasCode(V.Diags, code::PostUnsatGivenPre));
  EXPECT_FALSE(hasCode(V.Diags, code::VacuousPre)); // Pre alone is fine.
  EXPECT_TRUE(V.Blocked);
  const Diagnostic &D = *std::find_if(
      V.Diags.begin(), V.Diags.end(),
      [](const Diagnostic &X2) { return X2.Code == code::PostUnsatGivenPre; });
  EXPECT_FALSE(D.Notes.empty()); // The minimized unsat core.
}

TEST_F(AnalysisTest, VacuousPreSuppressesPostLints) {
  // Everything follows from a contradictory pre; only E006 should fire,
  // not a pile of W007/E011 noise on top.
  Expr X = mkVar("x", Sort::Int);
  addSpec("vac2", star({pure(mkLt(X, mkInt(0))), pure(mkGt(X, mkInt(0)))}),
          pure(mkEq(mkVar("r", Sort::Int), mkInt(0))), {{"x", Sort::Int}});
  EntityVerdict V = lintEntity(input(), "vac2");
  EXPECT_TRUE(hasCode(V.Diags, code::VacuousPre));
  EXPECT_FALSE(hasCode(V.Diags, code::PostImpliedByPre));
  EXPECT_FALSE(hasCode(V.Diags, code::PostUnsatGivenPre));
}

TEST_F(AnalysisTest, ParseFailureBecomesDiagnostic) {
  std::vector<Diagnostic> Diags;
  EXPECT_FALSE(
      parseSpecChecked("(spec f (vars x)", Prog.Types, "f", Diags).has_value());
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Code, code::ParseError);
  EXPECT_EQ(Diags[0].Entity, "f");

  Diags.clear();
  EXPECT_TRUE(parseSpecChecked("(spec f (vars x) (pre emp) (post emp))",
                               Prog.Types, "f", Diags)
                  .has_value());
  EXPECT_TRUE(Diags.empty());
}

TEST_F(AnalysisTest, ParserErrorPathsDoNotAbort) {
  // Regression: "(get-x t)" used to reach std::stoul and terminate. Non-index
  // get- suffixes now fall through to uninterpreted applications.
  EXPECT_TRUE(parseExpr("(get-x t)").ok());
  EXPECT_TRUE(parseExpr("(get- t)").ok());
  EXPECT_TRUE(parseExpr("(get-123456789012345 t)").ok()); // > 9 digits.
  EXPECT_TRUE(parseExpr("(get-1 t)").ok());

  // Malformed inputs stay Outcome failures, never aborts.
  EXPECT_FALSE(parseExpr("(unclosed (list").ok());
  EXPECT_FALSE(parseExpr(")").ok());
  EXPECT_FALSE(parseExpr("").ok());
  EXPECT_FALSE(parseAssertion("(pt x u32)", Prog.Types).ok());
  EXPECT_FALSE(parseAssertion("(exists x)", Prog.Types).ok());
  EXPECT_FALSE(parseSpec("(spec)", Prog.Types).ok());
  EXPECT_FALSE(parseSpec("(spec f (watts) (pre emp) (post emp))",
                         Prog.Types)
                   .ok());
}

//===----------------------------------------------------------------------===//
// Program-level lints (GILR-W005/W006)
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, UnusedPredicateAndLemmaWarned) {
  PredDecl D;
  D.Name = "lonely";
  Preds.declare(std::move(D));
  AnalysisInput In = input();
  In.LemmaNames = {"ghost_lemma"};

  std::vector<Diagnostic> Diags = lintProgramLevel(In);
  EXPECT_TRUE(hasCode(Diags, code::UnusedPred));
  EXPECT_TRUE(hasCode(Diags, code::UnusedLemma));
}

TEST_F(AnalysisTest, ExternallyUsedEntitiesNotWarned) {
  PredDecl D;
  D.Name = "lonely";
  Preds.declare(std::move(D));
  AnalysisInput In = input();
  In.LemmaNames = {"ghost_lemma"};
  In.ExtraUsedPreds = {"lonely"};
  In.ExtraUsedLemmas = {"ghost_lemma"};

  std::vector<Diagnostic> Diags = lintProgramLevel(In);
  EXPECT_FALSE(hasCode(Diags, code::UnusedPred));
  EXPECT_FALSE(hasCode(Diags, code::UnusedLemma));
}

TEST_F(AnalysisTest, SpecReferencedPredicateNotWarned) {
  PredDecl D;
  D.Name = "node";
  Preds.declare(std::move(D));
  addSpec("f", predCall("node", {mkVar("p", Sort::Loc)}), emp(),
          {{"p", Sort::Loc}});
  std::vector<Diagnostic> Diags = lintProgramLevel(input());
  EXPECT_FALSE(hasCode(Diags, code::UnusedPred));
}

//===----------------------------------------------------------------------===//
// Suppression and config
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, PerEntitySuppressionAttributeMutesLint) {
  FunctionBuilder B("allowed", Prog.Types);
  B.setReturnType(U32);
  LocalId T = B.addLocal("t", U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(T), Rvalue::use(Operand::constant(mkInt(7), U32))); // Dead.
  B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
  B.ret();
  B.suppressLint(code::DeadStore);
  addFn(B.finish());

  EntityVerdict V = lintEntity(input(), "allowed");
  EXPECT_FALSE(hasCode(V.Diags, code::DeadStore));
  EXPECT_EQ(V.Suppressed, 1u);
  (void)T;
}

TEST_F(AnalysisTest, SuppressAllMutesEverything) {
  Function F;
  F.Name = "muted";
  F.Locals.push_back({"ret", Prog.Types.unitTy()});
  BasicBlock BB;
  BB.Term = Terminator::gotoBlock(7); // Would be GILR-E001.
  F.Blocks.push_back(std::move(BB));
  F.LintSuppress.push_back("all");
  addFn(std::move(F));

  EntityVerdict V = lintEntity(input(), "muted");
  EXPECT_TRUE(V.Diags.empty());
  EXPECT_FALSE(V.Blocked);
  EXPECT_GE(V.Suppressed, 1u);
}

TEST_F(AnalysisTest, GloballyDisabledCodeNotReported) {
  FunctionBuilder B("g", Prog.Types);
  B.setReturnType(U32);
  LocalId T = B.addLocal("t", U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(T), Rvalue::use(Operand::constant(mkInt(7), U32)));
  B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
  B.ret();
  addFn(B.finish());

  AnalysisInput In = input();
  In.Cfg.DisabledCodes.insert(code::DeadStore);
  EntityVerdict V = lintEntity(In, "g");
  EXPECT_FALSE(hasCode(V.Diags, code::DeadStore));
  EXPECT_EQ(V.Suppressed, 1u);
  (void)T;
}

TEST_F(AnalysisTest, WarningsAsErrorsGates) {
  FunctionBuilder B("w2e", Prog.Types);
  B.setReturnType(U32);
  LocalId T = B.addLocal("t", U32);
  BlockId E = B.newBlock();
  B.atBlock(E);
  B.assign(Place(T), Rvalue::use(Operand::constant(mkInt(7), U32)));
  B.assign(Place(0), Rvalue::use(Operand::constant(mkInt(1), U32)));
  B.ret();
  addFn(B.finish());

  AnalysisInput In = input();
  In.Cfg.WarningsAsErrors = true;
  EntityVerdict V = lintEntity(In, "w2e");
  ASSERT_TRUE(hasCode(V.Diags, code::DeadStore));
  EXPECT_EQ(V.Diags.front().Sev, Severity::Error);
  EXPECT_TRUE(V.Blocked);
  (void)T;
}

TEST_F(AnalysisTest, DisabledAnalysisReportsNothing) {
  Function F;
  F.Name = "bad";
  addFn(std::move(F)); // No locals, no blocks: maximally malformed.
  AnalysisInput In = input();
  In.Cfg.Enabled = false;
  EntityVerdict V = lintEntity(In, "bad");
  EXPECT_TRUE(V.Diags.empty());
  EXPECT_FALSE(V.Blocked);
}

//===----------------------------------------------------------------------===//
// Driver integration: blocked entities never reach the executor
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, BlockedEntitySkipsSymbolicExecution) {
  addFn(cleanInc("vac"));
  Expr X = mkVar("x", Sort::Int);
  addSpec("vac", star({pure(mkLt(X, mkInt(0))), pure(mkGt(X, mkInt(0)))}),
          pure(mkEq(mkVar("r", Sort::Int), mkInt(0))), {{"x", Sort::Int}});
  addFn(cleanInc("inc"));
  addSpec("inc", pure(mkLt(X, mkInt(100))),
          pure(mkEq(mkVar(retVarName(), Sort::Int), mkAdd(X, mkInt(1)))),
          {{"x", Sort::Int}});

  // Enable tracing so the trace-gated engine.executor_runs counter is live,
  // then assert the rejected entity never started an Executor run.
  trace::Options O;
  O.M = trace::Mode::Text;
  trace::configure(O);
  metrics::Registry::get().reset();

  VerifEnv Env{Prog,   Preds, Specs, Ownables,
               Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
  Verifier V(Env);
  std::vector<VerifyReport> Rs = V.verifyAll({"vac"});
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_FALSE(Rs[0].Ok);
  EXPECT_TRUE(Rs[0].LintBlocked);
  EXPECT_TRUE(hasCode(Rs[0].Diags, code::VacuousPre));
  ASSERT_FALSE(Rs[0].Errors.empty());
  EXPECT_NE(Rs[0].Errors.front().find("pre-verification"), std::string::npos);

  std::map<std::string, uint64_t> C = metrics::Registry::get().counters();
  EXPECT_EQ(C.count("engine.executor_runs"), 0u)
      << "executor ran for a lint-blocked entity";
  metrics::AnalysisReport AR = metrics::Registry::get().analysisReport();
  EXPECT_TRUE(AR.Valid);
  EXPECT_EQ(AR.Blocked, 1u);
  EXPECT_GE(AR.Errors, 1u);

  // The clean function still verifies — and does run the executor.
  std::vector<VerifyReport> Ok = V.verifyAll({"inc"});
  ASSERT_EQ(Ok.size(), 1u);
  EXPECT_TRUE(Ok[0].Ok) << (Ok[0].Errors.empty() ? "" : Ok[0].Errors.front());
  EXPECT_FALSE(Ok[0].LintBlocked);
  C = metrics::Registry::get().counters();
  EXPECT_GE(C["engine.executor_runs"], 1u);

  trace::Options Off;
  trace::configure(Off);
  metrics::Registry::get().reset();
}

TEST_F(AnalysisTest, LintDisabledEnvSkipsPrePass) {
  addFn(cleanInc("vac"));
  Expr X = mkVar("x", Sort::Int);
  addSpec("vac", star({pure(mkLt(X, mkInt(0))), pure(mkGt(X, mkInt(0)))}),
          pure(mkEq(mkVar(retVarName(), Sort::Int), mkAdd(X, mkInt(1)))),
          {{"x", Sort::Int}});
  VerifEnv Env{Prog,   Preds, Specs, Ownables,
               Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
  Env.Lint.Enabled = false;
  Verifier V(Env);
  std::vector<VerifyReport> Rs = V.verifyAll({"vac"});
  ASSERT_EQ(Rs.size(), 1u);
  // Vacuous pre: symbolic execution happily "verifies" it. That is the
  // failure mode the pre-pass exists to catch.
  EXPECT_TRUE(Rs[0].Ok);
  EXPECT_FALSE(Rs[0].LintBlocked);
  EXPECT_FALSE(V.lastAnalysis().Enabled);
}

//===----------------------------------------------------------------------===//
// Scheduler determinism: byte-identical diagnostics at any worker count
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, DiagnosticsByteIdenticalAcrossWorkerCounts) {
  Expr X = mkVar("x", Sort::Int);
  for (int I = 0; I < 4; ++I) {
    std::string Name = "f" + std::to_string(I);
    FunctionBuilder B(Name, Prog.Types);
    LocalId P = B.addParam("x", U32);
    B.setReturnType(U32);
    LocalId T = B.addLocal("t", U32);
    BlockId E = B.newBlock();
    B.atBlock(E);
    B.assign(Place(T),
             Rvalue::use(Operand::constant(mkInt(I), U32))); // Dead store.
    B.assign(Place(0), Rvalue::use(Operand::copy(Place(P))));
    B.ret();
    addFn(B.finish());
    addSpec(Name, pure(mkLt(X, mkInt(100))),
            star({pure(mkEq(mkVar(retVarName(), Sort::Int), X)),
                  pure(mkEq(mkInt(1), mkInt(1)))}), // Trivial conjunct.
            {{"x", Sort::Int}});
    (void)T;
  }
  const std::vector<std::string> Names = {"f0", "f1", "f2", "f3"};

  auto runAt = [&](unsigned Threads) {
    VerifEnv Env{Prog,   Preds, Specs, Ownables,
                 Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
    sched::SchedulerConfig C;
    C.Threads = Threads;
    Verifier V(Env);
    std::vector<VerifyReport> Rs = V.verifyAll(Names, C);
    return std::make_pair(V.lastAnalysis().renderJson(),
                          V.lastAnalysis().renderText());
  };

  auto Serial = runAt(1);
  auto Parallel = runAt(4);
  EXPECT_EQ(Serial.first, Parallel.first);
  EXPECT_EQ(Serial.second, Parallel.second);
  EXPECT_NE(Serial.first.find("GILR-W002"), std::string::npos);
  EXPECT_NE(Serial.first.find("GILR-W004"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Incremental lint-verdict cache
//===----------------------------------------------------------------------===//

/// Self-contained env for rebuild-and-rerun incremental tests.
struct IncBundle {
  rmir::Program Prog;
  PredTable Preds;
  SpecTable Specs;
  OwnableRegistry Ownables{Prog.Types, Preds};
  LemmaTable Lemmas;
  Solver Solv;
  Automation Auto;

  /// Three inc-style functions; \p F1Add varies f1's body + spec constant
  /// (so a rebuild with a different value edits exactly one function).
  explicit IncBundle(uint64_t F1Add) {
    TypeRef U32 = Prog.Types.intTy(IntKind::U32);
    for (int I = 0; I < 3; ++I) {
      std::string Name = "f" + std::to_string(I);
      uint64_t Add = I == 1 ? F1Add : 1;
      FunctionBuilder B(Name, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      BlockId E = B.newBlock();
      B.atBlock(E);
      B.assign(Place(0),
               Rvalue::binary(BinOp::Add, Operand::copy(Place(X)),
                              Operand::constant(mkIntU64(Add), U32)));
      B.ret();
      std::string N2 = Name;
      Function F = B.finish();
      Prog.Funcs.emplace(std::move(N2), std::move(F));

      Expr XV = mkVar("x", Sort::Int);
      Spec S;
      S.Func = Name;
      S.SpecVars = {{"x", Sort::Int}};
      S.Pre = pure(mkLt(XV, mkInt(100)));
      S.Post = pure(mkEq(mkVar(retVarName(), Sort::Int),
                         mkAdd(XV, mkIntU64(Add))));
      Specs.add(std::move(S));
    }
  }

  VerifEnv env() {
    return VerifEnv{Prog,   Preds, Specs, Ownables,
                    Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
  }
};

TEST(AnalysisIncrTest, WarmRunReplaysLintVerdictsAndEditRelintsOneFunction) {
  std::string Path = ::testing::TempDir() + "gilr_analysis_lint_cache_store";
  std::filesystem::remove_all(Path);
  const std::vector<std::string> Names = {"f0", "f1", "f2"};
  sched::SchedulerConfig SC;
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;

  std::string ColdJson;
  {
    IncBundle L(1);
    VerifEnv Env = L.env();
    Verifier V(Env);
    incr::IncrRunStats St;
    std::vector<VerifyReport> Rs = V.verifyAll(Names, SC, Inc, &St);
    for (const VerifyReport &R : Rs)
      EXPECT_TRUE(R.Ok) << R.Func;
    EXPECT_EQ(St.AnalyzedLint, 3u);
    EXPECT_EQ(St.CachedLint, 0u);
    ColdJson = V.lastAnalysis().renderJson();
  }
  {
    // Identical rebuild: every lint verdict replays from the store.
    IncBundle L(1);
    VerifEnv Env = L.env();
    Verifier V(Env);
    incr::IncrRunStats St;
    std::vector<VerifyReport> Rs = V.verifyAll(Names, SC, Inc, &St);
    for (const VerifyReport &R : Rs)
      EXPECT_TRUE(R.Ok) << R.Func;
    EXPECT_EQ(St.AnalyzedLint, 0u);
    EXPECT_EQ(St.CachedLint, 3u);
    // The analysis report (diagnostics and all) is byte-identical warm.
    EXPECT_EQ(V.lastAnalysis().renderJson(), ColdJson);
  }
  {
    // Edit f1 (body + spec constant): exactly f1 is re-linted.
    IncBundle L(2);
    VerifEnv Env = L.env();
    Verifier V(Env);
    incr::IncrRunStats St;
    std::vector<VerifyReport> Rs = V.verifyAll(Names, SC, Inc, &St);
    for (const VerifyReport &R : Rs)
      EXPECT_TRUE(R.Ok) << R.Func;
    EXPECT_EQ(St.AnalyzedLint, 1u);
    EXPECT_EQ(St.CachedLint, 2u);
  }
  std::filesystem::remove_all(Path);
}

TEST(AnalysisIncrTest, LintConfigChangeInvalidatesOnlyLintVerdicts) {
  std::string Path = ::testing::TempDir() + "gilr_analysis_lint_cfg_store";
  std::filesystem::remove_all(Path);
  const std::vector<std::string> Names = {"f0", "f1", "f2"};
  sched::SchedulerConfig SC;
  incr::IncrConfig Inc;
  Inc.Enabled = true;
  Inc.StorePath = Path;

  {
    IncBundle L(1);
    VerifEnv Env = L.env();
    Verifier V(Env);
    incr::IncrRunStats St;
    (void)V.verifyAll(Names, SC, Inc, &St);
    EXPECT_EQ(St.AnalyzedLint, 3u);
  }
  {
    // Toggling a lint knob re-lints everything but leaves the proof
    // verdicts valid (separate config fingerprints).
    IncBundle L(1);
    VerifEnv Env = L.env();
    Env.Lint.WarningsAsErrors = true;
    Verifier V(Env);
    incr::IncrRunStats St;
    (void)V.verifyAll(Names, SC, Inc, &St);
    EXPECT_EQ(St.AnalyzedLint, 3u);
    EXPECT_EQ(St.CachedLint, 0u);
    EXPECT_EQ(St.CachedUnsafe, 3u); // Proofs still replay.
  }
  std::filesystem::remove_all(Path);
}

//===----------------------------------------------------------------------===//
// Verdict blob round-trip
//===----------------------------------------------------------------------===//

TEST(AnalysisIncrTest, LintVerdictBlobRoundTrips) {
  EntityVerdict V;
  V.Blocked = true;
  V.Suppressed = 2;
  Diagnostic D;
  D.Code = code::VacuousPre;
  D.Sev = Severity::Error;
  D.Entity = "push_front";
  D.Block = 3;
  D.Stmt = -1;
  D.Message = "precondition is unsatisfiable";
  D.Notes = {"core: (< x 0)", "core: (> x 0)"};
  V.Diags.push_back(D);

  std::string Blob = incr::encodeLintVerdict(V);
  EntityVerdict Out;
  ASSERT_TRUE(incr::decodeLintVerdict(Blob, Out));
  EXPECT_TRUE(Out.Blocked);
  EXPECT_EQ(Out.Suppressed, 2u);
  ASSERT_EQ(Out.Diags.size(), 1u);
  EXPECT_EQ(Out.Diags[0].Code, code::VacuousPre);
  EXPECT_EQ(Out.Diags[0].Sev, Severity::Error);
  EXPECT_EQ(Out.Diags[0].Entity, "push_front");
  EXPECT_EQ(Out.Diags[0].Block, 3);
  EXPECT_EQ(Out.Diags[0].Stmt, -1);
  EXPECT_EQ(Out.Diags[0].Notes.size(), 2u);

  // Truncated blobs are rejected, not mis-decoded.
  EntityVerdict Junk;
  EXPECT_FALSE(incr::decodeLintVerdict(Blob.substr(0, Blob.size() / 2), Junk));
  EXPECT_FALSE(incr::decodeLintVerdict("", Junk));
}

} // namespace
