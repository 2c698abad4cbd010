//===- tests/frontend_test.cpp - Textual RMIR frontend tests ----------------===//
//
// The acceptance tests of the .gilr frontend:
//  * every corpus module parses cleanly;
//  * the round trip print -> parse -> print is a fixpoint and preserves
//    every structural fingerprint (incr/Fingerprint.h) — parsed state is
//    indistinguishable from builder state to the incremental layer;
//  * verifying a parsed module yields verdicts identical to running the
//    builder-API equivalent;
//  * the gilr CLI honours the exit-code contract (0 verified, 1 proof
//    failures, 2 lint errors, 3 parse/type errors) and reads each module
//    once;
//  * diagnostics carry real source locations (file:line:col + caret), both
//    for .gilr syntax errors and for position-tracked Gilsonite spec errors;
//  * every expression a parsed module or a read-back journal holds is
//    interned, the invariant the id-keyed paths of sym/ and solver/ use.
//
//===----------------------------------------------------------------------===//

#include "creusot/Pearlite.h"
#include "frontend/Cli.h"
#include "frontend/Frontend.h"
#include "frontend/Printer.h"
#include "hybrid/Driver.h"
#include "incr/Fingerprint.h"
#include "rustlib/Clients.h"
#include "rustlib/LinkedList.h"
#include "rustlib/Stack.h"
#include "rustlib/Vec.h"
#include "solver/Flight.h"
#include "solver/Journal.h"
#include "support/Files.h"
#include "sym/ExprBuilder.h"
#include "sym/Printer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_set>

using namespace gilr;

namespace {

const char *CorpusFiles[] = {
    "linkedlist_safety", "linkedlist_functional", "linkedlist_buggy",
    "clients_bad",       "stack_safety",          "stack_functional",
    "vec",
};

std::string corpusPath(const std::string &Name) {
  return std::string(GILR_CORPUS_DIR) + "/" + Name + ".gilr";
}

/// Writes \p Text to a unique temp .gilr file and returns the path.
std::string tempModule(const std::string &Tag, const std::string &Text) {
  std::string Path = ::testing::TempDir() + "frontend_test_" + Tag + ".gilr";
  EXPECT_TRUE(files::writeFile(Path, Text, "test module"));
  return Path;
}

/// func -> ok, over both sides of a hybrid report.
std::map<std::string, bool> verdicts(const hybrid::HybridReport &R) {
  std::map<std::string, bool> V;
  for (const engine::VerifyReport &F : R.UnsafeSide)
    V["unsafe:" + F.Func] = F.Ok;
  for (const creusot::SafeReport &F : R.SafeSide)
    V["safe:" + F.Func] = F.Ok;
  return V;
}

hybrid::HybridReport runParsed(frontend::Module &M) {
  EXPECT_TRUE(M.registerLemmas().empty());
  engine::VerifEnv Env = M.env();
  hybrid::HybridDriver D(Env, M.Contracts);
  return D.run(M.verifyFuncs(), M.verifyClients());
}

int cli(std::initializer_list<std::string> Args, std::string *OutText = nullptr,
        std::string *ErrText = nullptr) {
  std::ostringstream Out, Err;
  int Code = frontend::runCli(std::vector<std::string>(Args), Out, Err);
  if (OutText)
    *OutText = Out.str();
  if (ErrText)
    *ErrText = Err.str();
  return Code;
}

// --- Corpus: parse + round trip -----------------------------------------

TEST(Frontend, CorpusParsesClean) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R = frontend::parseFile(corpusPath(Name));
    std::string Msgs;
    for (const analysis::Diagnostic &D : R.Diags)
      Msgs += D.str() + "\n";
    ASSERT_TRUE(R.ok()) << Name << ":\n" << Msgs;
    EXPECT_EQ(R.Mod->Name, Name);
  }
}

TEST(Frontend, RoundTripIsAFixpoint) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R1 = frontend::parseFile(corpusPath(Name));
    ASSERT_TRUE(R1.ok()) << Name;
    std::string P1 = frontend::printModule(*R1.Mod);
    frontend::ParseResult R2 = frontend::parseString(Name, P1);
    std::string Msgs;
    for (const analysis::Diagnostic &D : R2.Diags)
      Msgs += D.str() + "\n";
    ASSERT_TRUE(R2.ok()) << Name << ":\n" << Msgs;
    EXPECT_EQ(P1, frontend::printModule(*R2.Mod)) << Name;
  }
}

TEST(Frontend, RoundTripPreservesFingerprints) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R1 = frontend::parseFile(corpusPath(Name));
    ASSERT_TRUE(R1.ok()) << Name;
    frontend::Module &A = *R1.Mod;
    frontend::ParseResult R2 =
        frontend::parseString(Name, frontend::printModule(A));
    ASSERT_TRUE(R2.ok()) << Name;
    frontend::Module &B = *R2.Mod;

    ASSERT_EQ(A.Prog.Funcs.size(), B.Prog.Funcs.size()) << Name;
    for (const auto &[FN, F] : A.Prog.Funcs) {
      const rmir::Function *G = B.Prog.lookup(FN);
      ASSERT_NE(G, nullptr) << Name << "/" << FN;
      EXPECT_EQ(incr::fpFunction(F), incr::fpFunction(*G))
          << Name << "/" << FN;
    }
    ASSERT_EQ(A.Preds.all().size(), B.Preds.all().size()) << Name;
    for (const auto &[PN, P] : A.Preds.all())
      EXPECT_EQ(incr::fpPred(P), incr::fpPred(B.Preds.all().at(PN)))
          << Name << "/" << PN;
    ASSERT_EQ(A.Specs.all().size(), B.Specs.all().size()) << Name;
    for (const auto &[SN, S] : A.Specs.all())
      EXPECT_EQ(incr::fpSpec(S), incr::fpSpec(B.Specs.all().at(SN)))
          << Name << "/" << SN;
    ASSERT_EQ(A.Contracts.all().size(), B.Contracts.all().size()) << Name;
    for (const auto &[CN, C] : A.Contracts.all())
      EXPECT_EQ(incr::fpContract(C), incr::fpContract(B.Contracts.all().at(CN)))
          << Name << "/" << CN;
    ASSERT_EQ(A.Clients.size(), B.Clients.size()) << Name;
    for (std::size_t I = 0; I < A.Clients.size(); ++I)
      EXPECT_EQ(incr::fpSafeFn(A.Clients[I]), incr::fpSafeFn(B.Clients[I]))
          << Name << "/" << A.Clients[I].Name;
    ASSERT_EQ(A.FreezeDecls.size(), B.FreezeDecls.size()) << Name;
    for (std::size_t I = 0; I < A.FreezeDecls.size(); ++I)
      EXPECT_EQ(incr::fpLemma(A.FreezeDecls[I]),
                incr::fpLemma(B.FreezeDecls[I]))
          << Name << "/" << A.FreezeDecls[I].Name;
    ASSERT_EQ(A.ExtractDecls.size(), B.ExtractDecls.size()) << Name;
    for (std::size_t I = 0; I < A.ExtractDecls.size(); ++I)
      EXPECT_EQ(incr::fpLemma(A.ExtractDecls[I]),
                incr::fpLemma(B.ExtractDecls[I]))
          << Name << "/" << A.ExtractDecls[I].Name;
    EXPECT_EQ(incr::fpAutomation(A.Auto, 64), incr::fpAutomation(B.Auto, 64))
        << Name;
    EXPECT_EQ(A.VerifyList, B.VerifyList) << Name;
  }
}

// --- Verdict identity: parsed text vs builder APIs ----------------------

TEST(Frontend, LinkedListSafetyVerdictsMatchBuilder) {
  auto Lib = rustlib::buildLinkedListLib(rustlib::SpecMode::TypeSafety);
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver D(Env, Lib->Contracts);
  hybrid::HybridReport Want = D.run(rustlib::typeSafetyFunctions(), {});

  frontend::ParseResult R = frontend::parseFile(corpusPath("linkedlist_safety"));
  ASSERT_TRUE(R.ok());
  hybrid::HybridReport Got = runParsed(*R.Mod);

  EXPECT_TRUE(Want.ok());
  EXPECT_TRUE(Got.ok());
  EXPECT_EQ(verdicts(Want), verdicts(Got));
}

TEST(Frontend, LinkedListFunctionalVerdictsMatchBuilder) {
  auto Lib = rustlib::buildLinkedListLib(rustlib::SpecMode::Functional);
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver D(Env, Lib->Contracts);
  hybrid::HybridReport Want =
      D.run(rustlib::functionalFunctions(), rustlib::makeClients());

  frontend::ParseResult R =
      frontend::parseFile(corpusPath("linkedlist_functional"));
  ASSERT_TRUE(R.ok());
  hybrid::HybridReport Got = runParsed(*R.Mod);

  EXPECT_TRUE(Want.ok());
  EXPECT_TRUE(Got.ok());
  EXPECT_EQ(verdicts(Want), verdicts(Got));
}

TEST(Frontend, StackVerdictsMatchBuilder) {
  for (auto Mode : {rustlib::StackSpecMode::TypeSafety,
                    rustlib::StackSpecMode::Functional}) {
    auto Lib = rustlib::buildStackLib(Mode);
    engine::VerifEnv Env = Lib->env();
    hybrid::HybridDriver D(Env, Lib->Contracts);
    hybrid::HybridReport Want = D.run(rustlib::stackFunctions(), {});

    const char *Name = Mode == rustlib::StackSpecMode::TypeSafety
                           ? "stack_safety"
                           : "stack_functional";
    frontend::ParseResult R = frontend::parseFile(corpusPath(Name));
    ASSERT_TRUE(R.ok()) << Name;
    hybrid::HybridReport Got = runParsed(*R.Mod);

    EXPECT_TRUE(Want.ok()) << Name;
    EXPECT_TRUE(Got.ok()) << Name;
    EXPECT_EQ(verdicts(Want), verdicts(Got)) << Name;
  }
}

TEST(Frontend, VecVerdictsMatchBuilder) {
  auto Lib = rustlib::buildVecLib();
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver D(Env, creusot::PearliteSpecTable{});
  hybrid::HybridReport Want = D.run(rustlib::vecFunctions(), {});

  frontend::ParseResult R = frontend::parseFile(corpusPath("vec"));
  ASSERT_TRUE(R.ok());
  hybrid::HybridReport Got = runParsed(*R.Mod);

  EXPECT_TRUE(Want.ok());
  EXPECT_TRUE(Got.ok());
  EXPECT_EQ(verdicts(Want), verdicts(Got));
}

TEST(Frontend, BuggyVariantsFailIdentically) {
  auto Lib = rustlib::buildLinkedListLib(rustlib::SpecMode::TypeSafety);
  std::vector<std::string> Buggy = rustlib::registerBuggyVariants(*Lib);
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver D(Env, Lib->Contracts);
  hybrid::HybridReport Want = D.run(Buggy, {});

  frontend::ParseResult R = frontend::parseFile(corpusPath("linkedlist_buggy"));
  ASSERT_TRUE(R.ok());
  hybrid::HybridReport Got = runParsed(*R.Mod);

  EXPECT_FALSE(Want.ok());
  EXPECT_FALSE(Got.ok());
  EXPECT_EQ(verdicts(Want), verdicts(Got));
}

// --- The CLI exit-code contract -----------------------------------------

TEST(FrontendCli, ExitVerifiedIsZero) {
  EXPECT_EQ(0, cli({"verify", corpusPath("vec")}));
}

TEST(FrontendCli, ExitProofFailureIsOne) {
  EXPECT_EQ(1, cli({"verify", corpusPath("linkedlist_buggy")}));
  EXPECT_EQ(1, cli({"verify", corpusPath("clients_bad")}));
}

TEST(FrontendCli, ExitLintErrorIsTwo) {
  // y = copy x with x never initialized: GILR-E004, error severity, blocks
  // verification -> exit 2 from both lint and verify.
  std::string Path = tempModule("lint",
                                "fn f {\n"
                                "  params 0;\n"
                                "  let x: usize;\n"
                                "  let y: usize;\n"
                                "  bb0: {\n"
                                "    y = copy x;\n"
                                "    return;\n"
                                "  }\n"
                                "}\n");
  EXPECT_EQ(0, cli({"check", Path}));
  EXPECT_EQ(2, cli({"lint", Path}));
  EXPECT_EQ(2, cli({"verify", Path}));
  std::remove(Path.c_str());
}

TEST(FrontendCli, ExitParseErrorIsThree) {
  std::string Path = tempModule("syn", "fn broken {\n  params oops;\n}\n");
  EXPECT_EQ(3, cli({"check", Path}));
  EXPECT_EQ(3, cli({"lint", Path}));
  EXPECT_EQ(3, cli({"verify", Path}));
  std::remove(Path.c_str());
}

TEST(FrontendCli, WorstExitWinsAcrossFiles) {
  std::string Bad = tempModule("multi", "verify nosuch;\n");
  EXPECT_EQ(3, cli({"verify", corpusPath("vec"), Bad}));
  std::remove(Bad.c_str());
}

TEST(FrontendCli, UsageErrorsAreThree) {
  EXPECT_EQ(3, cli({}));
  EXPECT_EQ(3, cli({"frobnicate", corpusPath("vec")}));
  EXPECT_EQ(3, cli({"check"}));
  EXPECT_EQ(3, cli({"check", "--jobs"}));
  EXPECT_EQ(3, cli({"check", "--no-such-flag", corpusPath("vec")}));
}

TEST(FrontendCli, IncrStoreThatIsAFileIsThree) {
  // The store is a directory: a regular file at the path is refused before
  // any run, instead of verifying cold without a store.
  std::string File = tempModule("store_file", "not a store directory\n");
  std::string ErrText;
  EXPECT_EQ(3, cli({"verify", "--incr-store", File, corpusPath("vec")},
                   nullptr, &ErrText));
  EXPECT_NE(ErrText.find("not a directory"), std::string::npos) << ErrText;
  std::remove(File.c_str());
}

TEST(FrontendCli, MissingFileIsThree) {
  std::string ErrText;
  EXPECT_EQ(3, cli({"check", "/nonexistent/nope.gilr"}, nullptr, &ErrText));
  EXPECT_NE(ErrText.find("GILR-E010"), std::string::npos);
}

TEST(FrontendCli, MissingFileIsReadOnce) {
  // Each subcommand reads a module once, so the I/O diagnostic appears
  // once; the E010 diagnostic and exit code 3 follow as usual.
  const std::string Missing = "/nonexistent/nope.gilr";
  const std::string ReadLine =
      "gilr: cannot read .gilr module from " + Missing;
  for (const char *Cmd : {"check", "lint", "verify", "fmt"}) {
    std::string ErrText;
    ::testing::internal::CaptureStderr();
    int Code = cli({Cmd, Missing}, nullptr, &ErrText);
    std::string Stderr = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(3, Code) << Cmd;
    std::size_t Lines = 0;
    for (std::size_t Pos = Stderr.find(ReadLine); Pos != std::string::npos;
         Pos = Stderr.find(ReadLine, Pos + 1))
      ++Lines;
    EXPECT_EQ(1u, Lines) << Cmd << ":\n" << Stderr;
    EXPECT_NE(ErrText.find("GILR-E010"), std::string::npos) << Cmd;
  }
}

// --- Diagnostics: source locations and carets ---------------------------

TEST(FrontendCli, SyntaxErrorHasCaret) {
  std::string Path = tempModule("caret", "fn broken {\n  params oops;\n}\n");
  std::string ErrText;
  EXPECT_EQ(3, cli({"check", Path}, nullptr, &ErrText));
  // file:line:col prefix and the underline line.
  EXPECT_NE(ErrText.find(Path + ":2:10"), std::string::npos) << ErrText;
  EXPECT_NE(ErrText.find("GILR-E008"), std::string::npos) << ErrText;
  EXPECT_NE(ErrText.find("^"), std::string::npos) << ErrText;
  std::remove(Path.c_str());
}

TEST(Frontend, GilsoniteErrorsCarryPositions) {
  // The spec's pre is malformed ('(pure' never closed): the position-tracked
  // Gilsonite bridge must point INTO the S-expression, not at the item.
  std::string Text = "spec s {\n"
                     "  pre (pure (= 1 1);\n"
                     "}\n";
  frontend::ParseResult R = frontend::parseString("pos.gilr", Text);
  ASSERT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  const analysis::Diagnostic &D = R.Diags.front();
  EXPECT_EQ(D.Code, analysis::code::SyntaxError);
  EXPECT_EQ(D.File, "pos.gilr");
  EXPECT_EQ(D.Line, 2u) << D.str();
  EXPECT_GE(D.Col, 7u) << D.str();
}

TEST(Frontend, NameErrorsCarryPositions) {
  std::string Text = "fn f {\n"
                     "  params 0;\n"
                     "  let x: NoSuchType;\n"
                     "  bb0: {\n"
                     "    return;\n"
                     "  }\n"
                     "}\n";
  frontend::ParseResult R = frontend::parseString("names.gilr", Text);
  ASSERT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  const analysis::Diagnostic &D = R.Diags.front();
  EXPECT_EQ(D.Code, analysis::code::NameError);
  EXPECT_EQ(D.Line, 3u) << D.str();
}

TEST(Frontend, MultipleErrorsSurfaceInOneRun) {
  // Two independently broken items: parsing continues across the first.
  std::string Text = "fn f {\n"
                     "  params 0;\n"
                     "  let x: NoSuchType;\n"
                     "  bb0: { return; }\n"
                     "}\n"
                     "fn g {\n"
                     "  params 0;\n"
                     "  let y: AlsoMissing;\n"
                     "  bb0: { return; }\n"
                     "}\n";
  frontend::ParseResult R = frontend::parseString("multi.gilr", Text);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Diags.size(), 2u);
}

// --- JSON output ---------------------------------------------------------

TEST(FrontendCli, JsonSingleFileIsBareObject) {
  std::string OutText;
  EXPECT_EQ(0, cli({"check", "--json", corpusPath("vec")}, &OutText));
  EXPECT_EQ(OutText.front(), '{') << OutText;
  EXPECT_NE(OutText.find("\"command\": \"check\""), std::string::npos);
  EXPECT_NE(OutText.find("\"exit\": 0"), std::string::npos);
}

TEST(FrontendCli, JsonMultiFileIsArray) {
  std::string OutText;
  EXPECT_EQ(0, cli({"check", "--json", corpusPath("vec"),
                    corpusPath("stack_safety")},
                   &OutText));
  EXPECT_EQ(OutText.front(), '[') << OutText;
}

TEST(FrontendCli, JsonVerifyEmbedsReport) {
  std::string OutText;
  EXPECT_EQ(0, cli({"verify", "--json", corpusPath("vec")}, &OutText));
  EXPECT_NE(OutText.find("\"report\": {"), std::string::npos);
  EXPECT_NE(OutText.find("\"ok\": true"), std::string::npos);
}

// --- Interning invariant --------------------------------------------------

/// Walks expressions and their subterms, each node once, and checks what
/// the id-keyed paths of sym/ and solver/ rely on: Id and CanonId are never
/// 0, and NameSym is 0 exactly when Name is empty.
class InternedWalk {
public:
  explicit InternedWalk(std::string Where) : Where(std::move(Where)) {}

  void expr(const Expr &E) {
    if (!E || !Seen.insert(E.get()).second)
      return;
    EXPECT_GE(E->Id, 1u) << Where << ": " << exprToString(E);
    EXPECT_GE(E->CanonId, 1u) << Where << ": " << exprToString(E);
    EXPECT_EQ(E->NameSym != 0, !E->Name.empty())
        << Where << ": " << exprToString(E);
    for (const Expr &Kid : E->Kids)
      expr(Kid);
  }

  void assertion(const gilsonite::AssertionP &A) {
    if (!A)
      return;
    for (const Expr *E : {&A->Formula, &A->Ptr, &A->Val, &A->Count, &A->Seq,
                          &A->Kappa, &A->Frac, &A->PcyVar})
      expr(*E);
    for (const Expr &E : A->Args)
      expr(E);
    for (const gilsonite::AssertionP &P : A->Parts)
      assertion(P);
    assertion(A->Body);
  }

  std::size_t nodes() const { return Seen.size(); }

private:
  std::string Where;
  std::unordered_set<const ExprNode *> Seen;
};

TEST(Frontend, ParsedExpressionsAreInterned) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R = frontend::parseFile(corpusPath(Name));
    ASSERT_TRUE(R.ok()) << Name;
    const frontend::Module &M = *R.Mod;
    InternedWalk W(Name);
    for (const auto &[Fn, S] : M.Specs.all()) {
      W.assertion(S.Pre);
      W.assertion(S.Post);
    }
    for (const auto &[Pred, D] : M.Preds.all())
      for (const gilsonite::AssertionP &C : D.Clauses)
        W.assertion(C);
    for (const engine::ExtractLemma &L : M.ExtractDecls) {
      for (const Expr &E : L.FromArgs)
        W.expr(E);
      for (const Expr &E : L.ToArgs)
        W.expr(E);
      W.expr(L.Persistent);
      W.expr(L.Requires);
    }
    // Contract formulas are Pearlite terms until they are lowered; lower
    // each with its parameters bound the way the safe side binds them (a
    // mutable reference to a (current, final) pair).
    for (const auto &[Fn, C] : M.Contracts.all()) {
      creusot::LowerEnv Env;
      for (const creusot::PearliteParam &P : C.Params) {
        Expr Cur = mkVar("cur$" + P.Name, Sort::Any);
        Env.Values[P.Name] =
            P.IsMutRef ? mkTuple({Cur, mkVar("fin$" + P.Name, Sort::Any)})
                       : Cur;
        Env.IsMutRef[P.Name] = P.IsMutRef;
      }
      Env.ResultVal = mkVar("result", Sort::Any);
      for (const creusot::PTermP &T : {C.Pre, C.Post}) {
        if (!T)
          continue;
        Outcome<Expr> E = creusot::lowerPearlite(T, Env);
        ASSERT_TRUE(E.ok()) << Name << ": " << Fn << ": " << E.error();
        W.expr(E.value());
      }
    }
    EXPECT_GT(W.nodes(), 0u) << Name;
  }
}

/// Turns the flight recorder off when the scope ends.
struct FlightOff {
  ~FlightOff() { flight::reset(); }
};

TEST(Frontend, JournalExpressionsAreInterned) {
  std::string Text;
  {
    FlightOff Off;
    flight::Options O;
    O.Journal = true;
    flight::configure(O);
    for (const char *Name : CorpusFiles) {
      frontend::ParseResult R = frontend::parseFile(corpusPath(Name));
      ASSERT_TRUE(R.ok()) << Name;
      runParsed(*R.Mod);
    }
    Text = flight::journalText();
  }

  journal::ParsedJournal J = journal::parseJournal(Text);
  ASSERT_TRUE(J.HeaderOk);
  EXPECT_TRUE(J.Errors.empty());
  InternedWalk W("journal");
  std::size_t Queries = 0;
  for (const journal::Record &Rec : J.Records) {
    Queries += Rec.RecKind == journal::Record::Kind::Query;
    for (const Expr &E : Rec.Assertions)
      W.expr(E);
  }
  EXPECT_GT(Queries, 0u);
  EXPECT_GT(W.nodes(), 0u);
}

} // namespace
