//===- frontend/Cli.cpp - The gilr command-line driver ----------------------===//

#include "frontend/Cli.h"

#include "analysis/Analysis.h"
#include "frontend/Frontend.h"
#include "frontend/Printer.h"
#include "hybrid/Driver.h"
#include "incr/Session.h"
#include "sched/Scheduler.h"
#include "server/Client.h"
#include "support/Files.h"
#include "support/SourceMgr.h"
#include "support/StringUtils.h"

#include <filesystem>
#include <sstream>

using namespace gilr;
using namespace gilr::frontend;

namespace {

// Exit codes of the contract in Cli.h. Worst-wins aggregation relies on the
// numeric order 3 > 2 > 1 > 0.
constexpr int ExitOk = 0;
constexpr int ExitProofFailure = 1;
constexpr int ExitLintError = 2;
constexpr int ExitParseError = 3;

const char *Usage =
    "usage: gilr <check|lint|verify|fmt|client> [options] file.gilr...\n"
    "\n"
    "subcommands:\n"
    "  check    parse and typecheck the modules\n"
    "  lint     check + the static pre-verification analysis\n"
    "  verify   lint + the full hybrid verification run\n"
    "  fmt      pretty-print modules (stdout; -i in place; --check for CI)\n"
    "  client   submit modules to a running gilrd daemon\n"
    "\n"
    "options:\n"
    "  --json              machine-readable output (one object per file;\n"
    "                      an array when several files are given)\n"
    "  --jobs N            scheduler worker threads for verify (default 1)\n"
    "  --incr-store DIR    persistent proof-store directory for verify\n"
    "                      (shared safely with other runs and gilrd)\n"
    "  --Werror            promote analysis warnings to errors (lint/verify)\n"
    "  --explain CODE      print the registry entry for a diagnostic code\n"
    "                      (e.g. --explain GILR-W008; no files needed)\n"
    "\n"
    "fmt options:\n"
    "  -i, --in-place      rewrite the files instead of printing\n"
    "  --check             exit 1 when any file is not already formatted\n"
    "\n"
    "client options:\n"
    "  --socket PATH       gilrd socket ($GILRD_SOCKET or /tmp/gilrd.sock)\n"
    "  --client ID         multi-tenant client identity\n"
    "  --timeout-ms N      per-job budget for submitted runs\n"
    "  --check-only        submit with method 'check' instead of 'verify'\n"
    "  --ping | --stats | --shutdown\n"
    "                      control requests (no files)\n"
    "\n"
    "exit codes: 0 verified, 1 proof failures, 2 lint errors,\n"
    "            3 parse/type errors (worst code wins across files),\n"
    "            4 daemon unavailable (client mode)\n";

struct CliOptions {
  std::string Command;
  std::vector<std::string> Files;
  bool Json = false;
  unsigned Jobs = 1;
  std::string IncrStore;
  bool Werror = false;
  std::string Explain;
  // fmt
  bool InPlace = false;
  bool FmtCheck = false;
  // client
  std::string Socket;
  std::string ClientId;
  uint64_t TimeoutMs = 0;
  std::string ClientMethod = "verify";
};

/// The byte offset of (1-based) \p Line / \p Col in \p Text, for caret
/// rendering (Diagnostic stores line/col, SourceMgr wants the offset back).
std::size_t offsetOf(const std::string &Text, unsigned Line, unsigned Col) {
  std::size_t Off = 0;
  for (unsigned L = 1; L < Line && Off < Text.size();)
    if (Text[Off++] == '\n')
      ++L;
  return Off + (Col ? Col - 1 : 0);
}

/// Prints \p Diags one per line; when a diagnostic carries a source
/// location into \p SM's buffer, the two-line caret snippet follows.
void printDiagnostics(std::ostream &Err,
                      const std::vector<analysis::Diagnostic> &Diags,
                      const support::SourceMgr *SM) {
  for (const analysis::Diagnostic &D : Diags) {
    Err << D.str() << "\n";
    if (SM && !D.File.empty() && D.File == SM->name() && D.Line > 0)
      Err << SM->caretSnippet(offsetOf(SM->text(), D.Line, D.Col));
    for (const std::string &N : D.Notes)
      Err << "  note: " << N << "\n";
  }
}

/// Per-file result: the exit code and (in --json mode) the rendered object.
struct FileResult {
  int Exit = ExitOk;
  std::string Json;
};

/// The shared wrapper of every per-file JSON object.
std::string jsonHead(const CliOptions &Opt, const std::string &Path) {
  return "{\"file\": \"" + jsonEscape(Path) + "\", \"command\": \"" +
         jsonEscape(Opt.Command) + "\"";
}

/// The entities the lint pass runs over: the verify list when present,
/// otherwise every RMIR function (name order — Funcs is a std::map).
std::vector<std::string> lintEntities(const Module &M) {
  if (!M.VerifyList.empty())
    return M.verifyFuncs();
  std::vector<std::string> Names;
  for (const auto &KV : M.Prog.Funcs)
    Names.push_back(KV.first);
  return Names;
}

/// Builds the analysis input over \p M. Lemma names come from the parsed
/// declarations — lint must not pay for lemma registration (hypothesis
/// proofs), which only `verify` runs.
analysis::AnalysisInput lintInput(Module &M) {
  analysis::AnalysisInput In;
  In.Prog = &M.Prog;
  In.Preds = &M.Preds;
  In.Specs = &M.Specs;
  In.Solv = &M.Solv;
  for (const engine::FreezeLemma &L : M.FreezeDecls)
    In.LemmaNames.push_back(L.Name);
  for (const engine::ExtractLemma &L : M.ExtractDecls)
    In.LemmaNames.push_back(L.Name);
  return In;
}

FileResult runCheck(const CliOptions &Opt, const std::string &Path,
                    std::ostream &Out, std::ostream &Err) {
  FileResult R;
  std::string Text;
  ParseResult P = parseFile(Path, &Text);
  support::SourceMgr SM(Path, Text);
  if (!P.ok()) {
    R.Exit = ExitParseError;
    if (!Opt.Json)
      printDiagnostics(Err, P.Diags, &SM);
  } else if (!Opt.Json) {
    Out << Path << ": ok (" << P.Mod->Prog.Funcs.size() << " functions, "
        << P.Mod->Clients.size() << " clients, " << P.Mod->Preds.all().size()
        << " predicates)\n";
  }
  if (Opt.Json)
    R.Json = jsonHead(Opt, Path) + ", \"exit\": " + std::to_string(R.Exit) +
             ", \"diagnostics\": " +
             analysis::renderDiagnosticsJson(P.Diags) + "}";
  return R;
}

FileResult runLint(const CliOptions &Opt, const std::string &Path,
                   std::ostream &Out, std::ostream &Err) {
  FileResult R;
  std::string Text;
  ParseResult P = parseFile(Path, &Text);
  support::SourceMgr SM(Path, Text);
  if (!P.ok()) {
    R.Exit = ExitParseError;
    if (!Opt.Json)
      printDiagnostics(Err, P.Diags, &SM);
    else
      R.Json = jsonHead(Opt, Path) + ", \"exit\": 3, \"diagnostics\": " +
               analysis::renderDiagnosticsJson(P.Diags) + "}";
    return R;
  }
  Module &M = *P.Mod;
  analysis::AnalysisInput In = lintInput(M);
  In.Cfg.WarningsAsErrors = Opt.Werror;
  analysis::AnalysisResult A = analysis::analyzeProgram(In, lintEntities(M));
  if (!A.ok() || A.EntitiesBlocked > 0)
    R.Exit = ExitLintError;
  if (Opt.Json) {
    R.Json = jsonHead(Opt, Path) + ", \"exit\": " + std::to_string(R.Exit) +
             ", \"diagnostics\": " +
             analysis::renderDiagnosticsJson(P.Diags) +
             ", \"analysis\": " + A.renderJson() + "}";
  } else {
    printDiagnostics(Err, A.Diags, &SM);
    Out << Path << ": " << A.renderText();
  }
  return R;
}

FileResult runVerify(const CliOptions &Opt, const std::string &Path,
                     std::ostream &Out, std::ostream &Err) {
  FileResult R;
  std::string Text;
  ParseResult P = parseFile(Path, &Text);
  support::SourceMgr SM(Path, Text);
  if (!P.ok()) {
    R.Exit = ExitParseError;
    if (!Opt.Json)
      printDiagnostics(Err, P.Diags, &SM);
    else
      R.Json = jsonHead(Opt, Path) + ", \"exit\": 3, \"diagnostics\": " +
               analysis::renderDiagnosticsJson(P.Diags) + "}";
    return R;
  }
  Module &M = *P.Mod;

  // Lemma hypothesis proofs run now; a failed registration is a proof
  // failure (the lemma's soundness obligation did not verify).
  std::vector<std::string> Errors = M.registerLemmas();

  engine::VerifEnv Env = M.env();
  Env.Lint.WarningsAsErrors = Opt.Werror;
  hybrid::HybridDriver Driver(Env, M.Contracts);
  // No `verify` item means "verify everything" (same default as lint).
  std::vector<std::string> UnsafeFuncs = M.verifyFuncs();
  std::vector<creusot::SafeFn> Clients = M.verifyClients();
  if (M.VerifyList.empty()) {
    UnsafeFuncs = lintEntities(M);
    Clients = M.Clients;
  }
  // Functions with a Pearlite contract but no hand-written Gilsonite spec
  // get the systematic encoding of the contract (the hybrid bridge).
  for (const std::string &Fn : UnsafeFuncs)
    if (!M.Specs.lookup(Fn) && M.Contracts.lookup(Fn))
      if (Outcome<Unit> E = Driver.encodeAndRegister(Fn); !E.ok())
        Errors.push_back("encode " + Fn + ": " + E.error());

  sched::SchedulerConfig SC;
  SC.Threads = Opt.Jobs;
  incr::IncrConfig IC;
  IC.Enabled = !Opt.IncrStore.empty();
  IC.StorePath = Opt.IncrStore;
  incr::IncrRunStats Stats;
  hybrid::HybridReport Report =
      Driver.run(UnsafeFuncs, Clients, SC, IC, &Stats);

  if (!Report.Analysis.ok() || Report.Analysis.EntitiesBlocked > 0)
    R.Exit = ExitLintError;
  else if (!Report.ok() || !Errors.empty())
    R.Exit = ExitProofFailure;

  if (Opt.Json) {
    std::string ErrJson = "[";
    for (std::size_t I = 0; I < Errors.size(); ++I)
      ErrJson += std::string(I ? ", " : "") + "\"" + jsonEscape(Errors[I]) +
                 "\"";
    ErrJson += "]";
    std::string IncrJson;
    if (IC.Enabled)
      IncrJson = ", \"incremental\": {\"cached\": " +
                 std::to_string(Stats.cached()) +
                 ", \"verified\": " + std::to_string(Stats.verified()) +
                 ", \"invalidated\": " + std::to_string(Stats.Invalidated) +
                 ", \"salvaged\": " + std::to_string(Stats.Salvaged) +
                 ", \"implied\": " + std::to_string(Stats.Implied) +
                 ", \"salvage_queries\": " +
                 std::to_string(Stats.SalvageQueries) +
                 ", \"shared_hits\": " + std::to_string(Stats.sharedHits()) +
                 ", \"shared_puts\": " + std::to_string(Stats.SharedPuts) +
                 "}";
    R.Json = jsonHead(Opt, Path) + ", \"exit\": " + std::to_string(R.Exit) +
             ", \"errors\": " + ErrJson + IncrJson +
             ", \"report\": " + Report.renderJson() + "}";
  } else {
    printDiagnostics(Err, Report.Analysis.Diags, &SM);
    for (const std::string &E : Errors)
      Err << "error: " << E << "\n";
    Out << Path << ":\n" << Report.summaryText();
    if (IC.Enabled) {
      Out << "incremental: " << Stats.cached() << " cached, "
          << Stats.verified() << " verified, " << Stats.Invalidated
          << " invalidated, " << Stats.Salvaged << " salvaged, "
          << Stats.Implied << " implied, " << Stats.sharedHits()
          << " shared hits, " << Stats.SharedPuts << " shared puts\n";
    }
  }
  return R;
}

/// `gilr fmt`: round-trips \p Path through the parser and printer. The
/// printed form is the canonical format; --check compares without
/// writing (CI gate), -i rewrites only when the bytes differ.
FileResult runFmt(const CliOptions &Opt, const std::string &Path,
                  std::ostream &Out, std::ostream &Err) {
  FileResult R;
  std::string Text;
  ParseResult P = parseFile(Path, &Text);
  support::SourceMgr SM(Path, Text);
  if (!P.ok()) {
    R.Exit = ExitParseError;
    printDiagnostics(Err, P.Diags, &SM);
    return R;
  }
  std::string Pretty = printModule(*P.Mod);
  if (Opt.FmtCheck) {
    if (Pretty != Text) {
      Err << Path << ": not formatted (run `gilr fmt -i`)\n";
      R.Exit = ExitProofFailure;
    }
  } else if (Opt.InPlace) {
    if (Pretty != Text &&
        !files::writeFile(Path, Pretty, "formatted module"))
      R.Exit = ExitParseError;
  } else if (!Opt.Json) {
    Out << Pretty;
  }
  if (Opt.Json)
    R.Json = jsonHead(Opt, Path) + ", \"exit\": " + std::to_string(R.Exit) +
             ", \"formatted\": " + (Pretty == Text ? "true" : "false") + "}";
  return R;
}

/// `gilr client`: delegates to the server-protocol pump.
int runClientCommand(const CliOptions &Opt, std::ostream &Out,
                     std::ostream &Err) {
  server::ClientOptions CO;
  CO.SocketPath = Opt.Socket;
  CO.Method = Opt.ClientMethod;
  CO.Files = Opt.Files;
  CO.ClientId = Opt.ClientId;
  CO.Json = Opt.Json;
  CO.Jobs = Opt.Jobs;
  CO.TimeoutMs = Opt.TimeoutMs;
  return server::runClient(CO, Out, Err);
}

} // namespace

int gilr::frontend::runCli(const std::vector<std::string> &Args,
                           std::ostream &Out, std::ostream &Err) {
  CliOptions Opt;
  for (std::size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    if (A == "--help" || A == "-h") {
      Out << Usage;
      return ExitOk;
    }
    if (A == "--json") {
      Opt.Json = true;
    } else if (A == "--jobs") {
      if (I + 1 >= Args.size()) {
        Err << "gilr: --jobs needs a value\n" << Usage;
        return ExitParseError;
      }
      try {
        Opt.Jobs = static_cast<unsigned>(std::stoul(Args[++I]));
      } catch (...) {
        Err << "gilr: bad --jobs value '" << Args[I] << "'\n";
        return ExitParseError;
      }
      if (Opt.Jobs == 0)
        Opt.Jobs = 1;
    } else if (A == "--incr-store") {
      if (I + 1 >= Args.size()) {
        Err << "gilr: --incr-store needs a value\n" << Usage;
        return ExitParseError;
      }
      Opt.IncrStore = Args[++I];
    } else if (A == "--Werror") {
      Opt.Werror = true;
    } else if (A == "--explain") {
      if (I + 1 >= Args.size()) {
        Err << "gilr: --explain needs a diagnostic code\n" << Usage;
        return ExitParseError;
      }
      Opt.Explain = Args[++I];
    } else if (A == "-i" || A == "--in-place") {
      Opt.InPlace = true;
    } else if (A == "--check") {
      Opt.FmtCheck = true;
    } else if (A == "--socket") {
      if (I + 1 >= Args.size()) {
        Err << "gilr: --socket needs a value\n" << Usage;
        return ExitParseError;
      }
      Opt.Socket = Args[++I];
    } else if (A == "--client") {
      if (I + 1 >= Args.size()) {
        Err << "gilr: --client needs a value\n" << Usage;
        return ExitParseError;
      }
      Opt.ClientId = Args[++I];
    } else if (A == "--timeout-ms") {
      if (I + 1 >= Args.size()) {
        Err << "gilr: --timeout-ms needs a value\n" << Usage;
        return ExitParseError;
      }
      try {
        Opt.TimeoutMs = std::stoull(Args[++I]);
      } catch (...) {
        Err << "gilr: bad --timeout-ms value '" << Args[I] << "'\n";
        return ExitParseError;
      }
    } else if (A == "--check-only") {
      Opt.ClientMethod = "check";
    } else if (A == "--ping") {
      Opt.ClientMethod = "ping";
    } else if (A == "--stats") {
      Opt.ClientMethod = "stats";
    } else if (A == "--shutdown") {
      Opt.ClientMethod = "shutdown";
    } else if (!A.empty() && A[0] == '-') {
      Err << "gilr: unknown option '" << A << "'\n" << Usage;
      return ExitParseError;
    } else if (Opt.Command.empty()) {
      Opt.Command = A;
    } else {
      Opt.Files.push_back(A);
    }
  }
  if (Opt.Command.empty()) {
    Err << Usage;
    return ExitParseError;
  }
  if (Opt.Command != "check" && Opt.Command != "lint" &&
      Opt.Command != "verify" && Opt.Command != "fmt" &&
      Opt.Command != "client") {
    Err << "gilr: unknown subcommand '" << Opt.Command << "'\n" << Usage;
    return ExitParseError;
  }
  // `--explain CODE` answers from the diagnostic registry; it needs no
  // input files and runs no pass.
  if (!Opt.Explain.empty()) {
    const analysis::CodeDoc *Doc = analysis::lookupCodeDoc(Opt.Explain);
    if (!Doc) {
      Err << "gilr: unknown diagnostic code '" << Opt.Explain
          << "' (codes run GILR-E001..E011 and GILR-W001..W010)\n";
      return ExitParseError;
    }
    if (Opt.Json)
      Out << "{\"code\": \"" << jsonEscape(Doc->Code) << "\", \"summary\": \""
          << jsonEscape(Doc->Summary) << "\", \"detail\": \""
          << jsonEscape(Doc->Detail) << "\"}\n";
    else
      Out << Doc->Code << ": " << Doc->Summary << "\n\n"
          << Doc->Detail << "\n";
    return ExitOk;
  }
  // Control requests carry no files; everything else needs at least one.
  bool ControlRequest =
      Opt.Command == "client" && Opt.ClientMethod != "verify" &&
      Opt.ClientMethod != "check";
  if (Opt.Files.empty() && !ControlRequest) {
    Err << "gilr: no input files\n" << Usage;
    return ExitParseError;
  }
  if (Opt.Command == "client")
    return runClientCommand(Opt, Out, Err);
  // The store is a directory. Anything else already at the path is refused:
  // a run over it could neither read nor write a single record.
  std::error_code EC;
  if (Opt.Command == "verify" && !Opt.IncrStore.empty() &&
      std::filesystem::exists(Opt.IncrStore, EC) &&
      !std::filesystem::is_directory(Opt.IncrStore, EC)) {
    Err << "gilr: --incr-store '" << Opt.IncrStore
        << "' exists and is not a directory\n";
    return ExitParseError;
  }

  int Exit = ExitOk;
  std::vector<std::string> JsonParts;
  for (const std::string &Path : Opt.Files) {
    FileResult R;
    if (Opt.Command == "check")
      R = runCheck(Opt, Path, Out, Err);
    else if (Opt.Command == "lint")
      R = runLint(Opt, Path, Out, Err);
    else if (Opt.Command == "fmt")
      R = runFmt(Opt, Path, Out, Err);
    else
      R = runVerify(Opt, Path, Out, Err);
    Exit = std::max(Exit, R.Exit);
    if (Opt.Json)
      JsonParts.push_back(R.Json);
  }
  if (Opt.Json) {
    if (JsonParts.size() == 1) {
      Out << JsonParts[0] << "\n";
    } else {
      Out << "[";
      for (std::size_t I = 0; I < JsonParts.size(); ++I)
        Out << (I ? ",\n " : "") << JsonParts[I];
      Out << "]\n";
    }
  }
  return Exit;
}
