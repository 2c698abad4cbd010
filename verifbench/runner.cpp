//===- verifbench/runner.cpp - Workload runner of the verifier benchmark ---===//
//
// Runs one seeded, closed-loop workload through the verifier's public entry
// points and prints one JSON document of raw samples (the last line of
// stdout); run.py turns it into the named metrics. Diagnostics go to stderr.
//
//   cold-corpus   one client verifies every corpus module from scratch,
//                 through frontend::runCli("verify --json"), pass after pass.
//   edit-loop     one client applies a seeded, verdict-preserving edit to one
//                 module and re-runs runCli("verify --json --incr-store").
//   daemon-mixed  one closed-loop client submits to one in-process
//                 server::Server through server::runClient; every tenth
//                 submission of a module carries a cheap edit.
//
// Every verdict is checked against the golden corpus reports (the set of
// (side, name, ok) triples and the exit code; never counters or seconds).
//
// With --trace 1 it first runs the untraced op sequence for a third of
// the time, then replays the same sequence twice from fresh set-ups: with
// the solver's flight timing on, and untraced again as the overhead
// baseline (the CLI workloads interleave the two replays op by op).
// For the CLI workloads the traced op is the call sequence of `gilr verify`,
// each public call timed from here; for daemon-mixed the per-layer split
// comes from the result events and the `stats` request.
//
// Usage:
//   verifbench --workload NAME --seed N --seconds S --trace 0|1
//              --corpus DIR --expected DIR
//   verifbench --check-edits --corpus DIR --expected DIR
//
// Runs in (and writes only below) its current directory.
//
//===----------------------------------------------------------------------===//

#include "frontend/Cli.h"
#include "frontend/Frontend.h"
#include "frontend/Module.h"
#include "hybrid/Driver.h"
#include "incr/Session.h"
#include "sched/Scheduler.h"
#include "server/Client.h"
#include "server/Server.h"
#include "solver/Flight.h"
#include "support/Files.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/SourceMgr.h"
#include "sym/Intern.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace gilr;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The corpus, in a fixed order (the seeded permutations index into it).
const char *const Stems[] = {
    "clients_bad",      "linkedlist_buggy",  "linkedlist_functional",
    "linkedlist_safety", "stack_functional", "stack_safety",
    "vec",
};
constexpr std::size_t NumModules = sizeof(Stems) / sizeof(Stems[0]);

/// Set-up repetitions per run; run.py reports their median as setup_s.
constexpr unsigned SetupReps = 3;
/// Closed-loop clients of daemon-mixed. One: with 2 or 4 clients each
/// request also waits for the others' runs (they serialise on the engine
/// lock), and that queueing multiplies the host's speed swings, so the
/// latency figures spread more from run to run.
constexpr unsigned DaemonClients = 1;
/// daemon-mixed edits every this-many-th submission of each module.
constexpr unsigned DaemonEditOneIn = 10;

/// splitmix64: portable, so a seed means the same inputs on every platform.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  std::size_t below(std::size_t N) { return static_cast<std::size_t>(next() % N); }
  /// A fresh permutation of the corpus indices.
  std::vector<std::size_t> permutation() {
    std::vector<std::size_t> P(NumModules);
    for (std::size_t I = 0; I < NumModules; ++I)
      P[I] = I;
    for (std::size_t I = NumModules; I > 1; --I)
      std::swap(P[I - 1], P[below(I)]);
    return P;
  }
};

std::string jsonStr(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\', O += C;
    else if (static_cast<unsigned char>(C) < 0x20)
      O += ' ';
    else
      O += C;
  }
  return O + "\"";
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.9g", V);
  return Buf;
}

bool writeText(const std::string &Path, const std::string &Text) {
  return files::writeFile(Path, Text, "benchmark input");
}

/// The process's peak resident memory in KiB. VmHWM, not getrusage:
/// ru_maxrss survives execve, so it would report the launcher's footprint
/// whenever that is larger than the workload's.
long vmHwmKb() {
  std::string Status;
  files::readFile("/proc/self/status", Status, "process status");
  std::size_t P = Status.find("VmHWM:");
  return P == std::string::npos
             ? 0
             : std::strtol(Status.c_str() + P + 6, nullptr, 10);
}

/// Samples the peak resident memory once the measured phase has completed
/// a fixed number of ops (or at the end of the run, when it completes
/// fewer). A fixed amount of work: the daemon retains memory per request
/// served, so a sample at the end of the phase would grow with throughput.
class RssProbe {
public:
  static constexpr std::size_t AfterOps = 1000;
  void opDone() {
    if (Done.fetch_add(1) + 1 == AfterOps)
      Kb.store(vmHwmKb());
  }
  long result() const { return Kb.load() ? Kb.load() : vmHwmKb(); }

private:
  std::atomic<std::size_t> Done{0};
  std::atomic<long> Kb{0};
};
RssProbe Rss;

//===----------------------------------------------------------------------===//
// Verdict oracle
//===----------------------------------------------------------------------===//

/// What the oracle compares: the exit code and the (side, name, ok) set.
struct Verdicts {
  int Exit = -1;
  std::set<std::tuple<std::string, std::string, bool>> Set;
};

/// Collects the obligations of a rendered HybridReport. An Unknown
/// (timed-out) obligation is a failure whatever its verdict.
bool fromReport(const json::ValuePtr &Report, Verdicts &Out,
                std::string &Why) {
  if (!Report || !Report->isObject()) {
    Why = "no report";
    return false;
  }
  for (const char *Side : {"unsafe", "safe"}) {
    json::ValuePtr Arr = Report->get(std::string(Side) + "_side");
    if (!Arr || !Arr->isArray()) {
      Why = std::string("no ") + Side + "_side";
      return false;
    }
    for (const json::ValuePtr &O : Arr->Arr) {
      json::ValuePtr F = O->get("func"), Ok = O->get("ok");
      if (!F || !Ok) {
        Why = "malformed obligation";
        return false;
      }
      if (json::ValuePtr T = O->get("timed_out"); T && T->B) {
        Why = "unknown (timed out): " + F->Str;
        return false;
      }
      Out.Set.emplace(Side, F->Str, Ok->B);
    }
  }
  return true;
}

std::map<std::string, Verdicts> loadExpected(const std::string &Dir) {
  std::map<std::string, Verdicts> M;
  for (const char *Stem : Stems) {
    std::string Text, Why;
    std::string Path = Dir + "/" + Stem + ".json";
    json::ValuePtr V;
    if (files::readFile(Path, Text, "golden report"))
      V = json::parse(Text);
    Verdicts E;
    if (!V || !V->get("exit") || !fromReport(V->get("report"), E, Why)) {
      std::fprintf(stderr, "verifbench: bad golden report %s %s\n",
                   Path.c_str(), Why.c_str());
      std::exit(2);
    }
    E.Exit = static_cast<int>(V->get("exit")->Num);
    M[Stem] = std::move(E);
  }
  return M;
}

/// "" when \p Got matches the golden verdicts \p Want, else the reason.
std::string compare(const Verdicts &Want, const Verdicts &Got) {
  if (Got.Exit != Want.Exit)
    return "exit " + std::to_string(Got.Exit) + " != golden " +
           std::to_string(Want.Exit);
  if (Got.Set != Want.Set)
    return "verdict set differs from golden";
  return "";
}

/// Checks one `gilr verify --json` document.
std::string checkCliOutput(const Verdicts &Want, int Exit,
                           const json::ValuePtr &V) {
  Verdicts Got;
  Got.Exit = Exit;
  std::string Why;
  if (!V)
    return "unparseable output";
  if (!fromReport(V->get("report"), Got, Why))
    return Why;
  return compare(Want, Got);
}

//===----------------------------------------------------------------------===//
// Seeded edit generator
//===----------------------------------------------------------------------===//

/// The edit classes the CI incremental job gates, in increasing cost:
/// doc reword (salvaged for free), equivalent pure-conjunct rewrite
/// (salvaged by implication queries), observation-conjunct rewrite
/// (re-proves the carriers).
enum class EditClass { Doc, Equiv, Obs };
const char *className(EditClass C) {
  switch (C) {
  case EditClass::Doc:
    return "doc";
  case EditClass::Equiv:
    return "equiv";
  case EditClass::Obs:
    return "obs";
  }
  return "?";
}

/// One editable span of a module: [Begin, End) of the pristine text. Sites
/// never overlap. Every edit writes a fresh variant, so no edit repeats a
/// text the verifier has seen before, as a developer's edits do not.
struct Site {
  EditClass C;
  std::size_t Begin = 0, End = 0;
  std::string Original;
  std::string Op, A, B; ///< The comparison `(Op A B)` of equiv/obs sites.

  /// Variant \p J: a revision note on a doc string; for a comparison,
  /// `(Op (+ A J) (+ B J))`, equivalent over the integers.
  std::string variant(unsigned J) const {
    const std::string N = std::to_string(J);
    if (C == EditClass::Doc)
      return Original + " (rev " + N + ")";
    return "(" + Op + " (+ " + A + " " + N + ") (+ " + B + " " + N + "))";
  }
};

/// End (exclusive) of the s-expression term at \p Pos: a balanced list or
/// an atom; |quoted| names may hold spaces. npos when malformed.
std::size_t termEnd(const std::string &T, std::size_t Pos) {
  int Depth = 0;
  for (std::size_t I = Pos; I < T.size(); ++I) {
    char C = T[I];
    if (C == '|') {
      I = T.find('|', I + 1);
      if (I == std::string::npos)
        return I;
    } else if (C == '(') {
      ++Depth;
    } else if (C == ')') {
      if (Depth == 0)
        return I == Pos ? std::string::npos : I;
      if (--Depth == 0)
        return I + 1;
    } else if (std::isspace(static_cast<unsigned char>(C)) && Depth == 0) {
      return I == Pos ? std::string::npos : I;
    }
  }
  return std::string::npos;
}

/// A binary comparison `(OP A B)` starting at \p Pos.
struct Cmp {
  std::string Op, A, B;
  std::size_t End = 0;
};

std::optional<Cmp> parseCmp(const std::string &T, std::size_t Pos) {
  if (T.compare(Pos, 1, "(") != 0)
    return std::nullopt;
  Cmp C;
  std::size_t OpEnd = T.find(' ', Pos);
  if (OpEnd == std::string::npos)
    return std::nullopt;
  C.Op = T.substr(Pos + 1, OpEnd - Pos - 1);
  std::size_t A0 = OpEnd + 1, A1 = termEnd(T, A0);
  if (A1 == std::string::npos || T[A1] != ' ')
    return std::nullopt;
  std::size_t B0 = A1 + 1, B1 = termEnd(T, B0);
  if (B1 == std::string::npos || B1 >= T.size() || T[B1] != ')')
    return std::nullopt;
  C.A = T.substr(A0, A1 - A0);
  C.B = T.substr(B0, B1 - B0);
  C.End = B1 + 1;
  return C;
}

/// Every edit site of \p T, in text order: doc strings; integer
/// comparisons that are pure conjuncts of a spec (salvageable by
/// implication); integer comparisons inside observations (never salvaged,
/// so the carrying specs re-prove).
std::vector<Site> findSites(const std::string &T) {
  std::vector<Site> Sites;
  for (std::size_t P = T.find("doc \""); P != std::string::npos;
       P = T.find("doc \"", P + 1)) {
    std::size_t B = P + 5, E = B;
    while (E < T.size() && T[E] != '"')
      E += T[E] == '\\' ? 2 : 1;
    if (E >= T.size())
      break;
    Sites.push_back({EditClass::Doc, B, E, T.substr(B, E - B), "", "", ""});
  }
  auto addCmp = [&](EditClass C, std::size_t At) {
    std::optional<Cmp> X = parseCmp(T, At);
    if (X && (X->Op == "<" || X->Op == "<="))
      Sites.push_back(
          {C, At, X->End, T.substr(At, X->End - At), X->Op, X->A, X->B});
  };
  for (std::size_t P = T.find("(pure (<"); P != std::string::npos;
       P = T.find("(pure (<", P + 1))
    addCmp(EditClass::Equiv, P + 6);
  for (std::size_t P = T.find("(obs "); P != std::string::npos;
       P = T.find("(obs ", P + 1)) {
    std::size_t E = termEnd(T, P);
    for (std::size_t Q = T.find("(<", P); E != std::string::npos && Q < E;
         Q = T.find("(<", Q + 1))
      addCmp(EditClass::Obs, Q);
  }
  std::sort(Sites.begin(), Sites.end(),
            [](const Site &X, const Site &Y) { return X.Begin < Y.Begin; });
  return Sites;
}

/// One module as a client currently has it: the pristine text with the
/// current text of each site.
struct ModuleText {
  std::string Stem, Pristine;
  std::vector<Site> Sites;
  std::vector<std::string> Cur;
  unsigned Edits = 0; ///< Edits applied since reset; numbers the variants.

  ModuleText(std::string S, std::string Text)
      : Stem(std::move(S)), Pristine(std::move(Text)),
        Sites(findSites(Pristine)) {
    reset();
  }

  void reset() {
    Cur.clear();
    for (const Site &S : Sites)
      Cur.push_back(S.Original);
    Edits = 0;
  }

  std::string render() const {
    std::string Out;
    std::size_t At = 0;
    for (std::size_t I = 0; I < Sites.size(); ++I) {
      Out.append(Pristine, At, Sites[I].Begin - At);
      Out += Cur[I];
      At = Sites[I].End;
    }
    Out.append(Pristine, At, std::string::npos);
    return Out;
  }

  /// The classes this module has sites of, cheapest first.
  std::vector<EditClass> classes(bool CheapOnly) const {
    std::vector<EditClass> Cs;
    for (const Site &S : Sites)
      if ((!CheapOnly || S.C != EditClass::Obs) &&
          std::find(Cs.begin(), Cs.end(), S.C) == Cs.end())
        Cs.push_back(S.C);
    std::sort(Cs.begin(), Cs.end());
    return Cs;
  }

  /// Writes a fresh variant into site \p Pick (modulo their number) of the
  /// sites of class \p C.
  void edit(EditClass C, std::size_t Pick) {
    std::vector<std::size_t> Of;
    for (std::size_t I = 0; I < Sites.size(); ++I)
      if (Sites[I].C == C)
        Of.push_back(I);
    std::size_t I = Of[Pick % Of.size()];
    Cur[I] = Sites[I].variant(++Edits);
  }
};

std::vector<ModuleText> loadCorpus(const std::string &Dir) {
  std::vector<ModuleText> Ms;
  for (const char *Stem : Stems) {
    std::string Text;
    if (!files::readFile(Dir + "/" + Stem + ".gilr", Text, "corpus module")) {
      std::fprintf(stderr, "verifbench: cannot read corpus module %s\n", Stem);
      std::exit(2);
    }
    Ms.emplace_back(Stem, std::move(Text));
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

/// One measured operation: one module through the workload's entry point.
struct Op {
  unsigned Client = 0;
  std::string Stem;
  const char *Class = "none";
  double EditS = 0;    ///< Input file written -> verdict.
  double RequestS = 0; ///< Entry-point call -> verdict.
  double ServerS = -1; ///< daemon: the result event's `seconds`.
  double QueuePos = 0; ///< daemon: other requests in flight at submit.
  std::string Why;     ///< Oracle failure; empty = correct.
  /// The op's `incremental` counters: cached, verified, invalidated,
  /// salvaged, implied, salvage_queries.
  uint64_t Incr[6] = {0, 0, 0, 0, 0, 0};
};

/// Reads the `incremental` counters of a CLI or daemon result document.
void readIncr(const json::ValuePtr &V, Op &O) {
  const char *Keys[] = {"cached",  "verified", "invalidated",
                        "salvaged", "implied", "salvage_queries"};
  json::ValuePtr Inc = V ? V->get("incremental") : nullptr;
  for (int I = 0; I < 6; ++I)
    if (json::ValuePtr F = Inc ? Inc->get(Keys[I]) : nullptr)
      O.Incr[I] = static_cast<uint64_t>(F->numberOr(0));
}

/// Per-layer sums over the traced ops (divided by the op count on output).
using Sums = std::map<std::string, double>;

//===----------------------------------------------------------------------===//
// CLI ops: `gilr verify` in-process, untraced and traced
//===----------------------------------------------------------------------===//

/// One untraced op: exactly what `gilr verify --json [--incr-store S] FILE`
/// does, minus process start-up.
void cliOp(const Verdicts &Want, const std::string &Path,
           const std::string &Store, Op &O) {
  std::vector<std::string> Args = {"verify", "--json", "--jobs", "1"};
  if (!Store.empty()) {
    Args.push_back("--incr-store");
    Args.push_back(Store);
  }
  Args.push_back(Path);
  std::ostringstream Out, Err;
  auto T0 = Clock::now();
  int Exit = frontend::runCli(Args, Out, Err);
  O.RequestS = since(T0);
  json::ValuePtr V = json::parse(Out.str());
  O.Why = checkCliOutput(Want, Exit, V);
  readIncr(V, O);
}

/// Flight-recorder totals at one instant.
struct SolverSnap {
  uint64_t Ns = 0, Queries = 0, Hits = 0, Unknowns = 0;
  static SolverSnap now() {
    metrics::SolverQueriesReport R =
        metrics::Registry::get().solverQueriesReport();
    return {R.TotalNs, R.Queries, R.CacheHits, R.Unknowns};
  }
};

/// Contiguous phase timer: each lap ends one phase and starts the next, so
/// the laps of an op sum to its wall time exactly. Solver time is the
/// flight recorder's delta over the lap.
class Laps {
public:
  Laps() : T(Clock::now()), S(SolverSnap::now()) {}
  struct Lap {
    double Wall, Solver;
    uint64_t Queries;
  };
  Lap lap() {
    auto T1 = Clock::now();
    SolverSnap S1 = SolverSnap::now();
    Lap L{std::chrono::duration<double>(T1 - T).count(),
          (S1.Ns - S.Ns) * 1e-9, S1.Queries - S.Queries};
    T = T1;
    S = S1;
    return L;
  }

private:
  Clock::time_point T;
  SolverSnap S;
};

/// One traced op: the public calls `gilr verify` makes, in the same order
/// (frontend/Cli.cpp runVerify and the incremental HybridDriver::run), each
/// timed from here. Adds the op's layer self times and counters to \p Acc.
void tracedCliOp(const Verdicts &Want, const std::string &Path,
                 const std::string &Store, Op &O, Sums &Acc) {
  const SolverStats Before = metrics::solverStats();
  const SolverSnap Flight0 = SolverSnap::now();
  double SolverS = 0, Wall = 0;
  Laps L;
  auto self = [&](const char *Layer, const Laps::Lap &X) {
    Acc[Layer] += X.Wall - X.Solver;
    SolverS += X.Solver;
    Wall += X.Wall;
  };

  frontend::ParseResult P = frontend::parseFile(Path);
  std::string Text;
  files::readFile(Path, Text, ".gilr module");
  support::SourceMgr SM(Path, Text);
  self("frontend.parse_s", L.lap());
  Acc["frontend.bytes"] += Text.size();
  Verdicts Got;
  if (!P.ok()) {
    O.RequestS = Wall;
    Got.Exit = 3;
    O.Why = compare(Want, Got);
    return;
  }
  frontend::Module &M = *P.Mod;

  std::vector<std::string> Errors = M.registerLemmas();
  Laps::Lap Lemma = L.lap();
  self("engine.lemma_s", Lemma);
  Acc["engine.lemma_queries"] += Lemma.Queries;
  Acc["engine.lemma_solver_s"] += Lemma.Solver;

  engine::VerifEnv Env = M.env();
  hybrid::HybridDriver Driver(Env, M.Contracts);
  std::vector<std::string> UnsafeFuncs = M.verifyFuncs();
  std::vector<creusot::SafeFn> Clients = M.verifyClients();
  if (M.VerifyList.empty()) {
    UnsafeFuncs.clear();
    for (const auto &KV : M.Prog.Funcs)
      UnsafeFuncs.push_back(KV.first);
    Clients = M.Clients;
  }
  for (const std::string &Fn : UnsafeFuncs)
    if (!M.Specs.lookup(Fn) && M.Contracts.lookup(Fn))
      if (Outcome<Unit> E = Driver.encodeAndRegister(Fn); !E.ok())
        Errors.push_back("encode " + Fn + ": " + E.error());
  self("hybrid.encode_s", L.lap());

  sched::SchedulerConfig SC;
  SC.Threads = 1;
  incr::IncrConfig IC;
  IC.Enabled = !Store.empty();
  IC.StorePath = Store;
  SC.StableCacheKeys = IC.Enabled;
  sched::Scheduler S(SC);
  self("sched.preload_s", L.lap());
  std::optional<incr::Session> Sess;
  if (IC.Enabled)
    Sess.emplace(IC, Env, &M.Contracts);
  self("incr.load_s", L.lap());
  if (Sess) {
    std::vector<SavedQueryVerdict> Entries = Sess->solverEntriesToLoad();
    Acc["sched.preloaded"] += Entries.size();
    S.preloadCache(Entries);
  }
  self("sched.preload_s", L.lap());

  hybrid::HybridReport R = S.runHybrid(Env, M.Contracts, UnsafeFuncs, Clients,
                                       Sess ? &*Sess : nullptr);
  Laps::Lap Run = L.lap();
  SolverS += Run.Solver;
  Wall += Run.Wall;

  if (Sess) {
    Sess->saveSolverEntries(S.exportCacheEntries());
    Sess->flush();
  }
  self("incr.flush_s", L.lap());
  std::string Json = R.renderJson();
  self("frontend.render_s", L.lap());
  O.RequestS = Wall;

  // Inside runHybrid: what the program publishes. Cached verdicts carry the
  // seconds of the run that proved them, so only fresh proofs count.
  double Unsafe = 0, Safe = 0;
  for (const engine::VerifyReport &U : R.UnsafeSide) {
    Acc["analysis.triaged_static"] += U.Static;
    if (U.Cached || U.Static || U.LintBlocked)
      continue;
    Unsafe += U.Seconds;
    Acc["engine.obligations"] += 1;
    Acc["engine.paths"] += U.PathsCompleted;
    Acc["engine.states"] += U.StatesExplored;
  }
  for (const creusot::SafeReport &Sf : R.SafeSide) {
    if (Sf.Cached)
      continue;
    Safe += Sf.Seconds;
    Acc["creusot.obligations"] += Sf.Obligations.size();
  }
  double Lint = R.Analysis.Seconds;
  double Summary = metrics::Registry::get().interprocReport().Seconds;
  Acc["engine.unsafe_s"] += Unsafe;
  Acc["creusot.safe_s"] += Safe;
  Acc["analysis.lint_s"] += Lint;
  Acc["analysis.summary_s"] += Summary;
  // All of runHybrid's solver time is charged to the obligation spans; lint
  // and salvage queries run outside them, so engine.self_s is low and
  // sched.self_s high by those (small) query times. The sum stays exact.
  Acc["engine.self_s"] += Unsafe + Safe - Run.Solver;
  Acc["sched.self_s"] += Run.Wall - Lint - Summary - Unsafe - Safe;
  Acc["solver.query_s"] += SolverS;

  sched::CacheStatsSnapshot CS = S.cacheStats();
  Acc["sched.memo_hits"] += CS.Hits;
  Acc["sched.memo_lookups"] += CS.Hits + CS.Misses;
  if (Sess) {
    const incr::IncrRunStats &St = Sess->stats();
    O.Incr[0] = St.cached();
    O.Incr[1] = St.verified();
    O.Incr[2] = St.Invalidated;
    O.Incr[3] = St.Salvaged;
    O.Incr[4] = St.Implied;
    O.Incr[5] = St.SalvageQueries;
    std::error_code EC;
    Acc["incr.store_bytes"] += fs::file_size(Store, EC);
  }
  const SolverStats D = metrics::solverStats() - Before;
  const SolverSnap Flight1 = SolverSnap::now();
  Acc["solver.queries"] += Flight1.Queries - Flight0.Queries;
  Acc["solver.memo_served"] += Flight1.Hits - Flight0.Hits;
  Acc["solver.unknowns"] += Flight1.Unknowns - Flight0.Unknowns;
  Acc["solver.branches"] += D.Branches.get();
  Acc["solver.theory_checks"] += D.TheoryChecks.get();

  // The verdict, as runVerify derives its exit code.
  Got.Exit = 0;
  if (!R.Analysis.ok() || R.Analysis.EntitiesBlocked > 0)
    Got.Exit = 2;
  else if (!R.ok() || !Errors.empty())
    Got.Exit = 1;
  for (const engine::VerifyReport &U : R.UnsafeSide) {
    if (U.TimedOut)
      O.Why = "unknown (timed out): " + U.Func;
    Got.Set.emplace("unsafe", U.Func, U.Ok);
  }
  for (const creusot::SafeReport &Sf : R.SafeSide) {
    if (Sf.TimedOut)
      O.Why = "unknown (timed out): " + Sf.Func;
    Got.Set.emplace("safe", Sf.Func, Sf.Ok);
  }
  if (O.Why.empty())
    O.Why = compare(Want, Got);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload, Corpus, Expected;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool CheckEdits = false;
};

/// Everything one run measures.
struct Run {
  std::vector<double> SetupS;
  std::vector<Op> SetupOps; ///< Oracle-checked set-up verifications.
  std::vector<Op> Ops;      ///< The measured (untraced) ops.
  std::vector<double> PassS; ///< Complete passes: sum of their ops' EditS.
  double PhaseS = 0;         ///< Wall time of the measured phase.
  unsigned Clients = 1;
  // --trace 1: the same op sequence replayed with flight timing on, and
  // again untraced as the overhead baseline.
  std::vector<Op> TracedOps, BaselineOps;
  Sums Layers; ///< Per-layer metrics (per-op means unless noted).
};

/// End of the measured phase: --seconds, or a third of it in a traced run,
/// which also replays the phase twice.
Clock::time_point deadline(Clock::time_point T0, const Args &A) {
  return T0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Trace ? A.Seconds / 3
                                                        : A.Seconds));
}

/// Brackets a traced replay: a fresh metrics registry at the start;
/// afterwards the slowest query and the intern-table figures.
struct TracedPhase {
  InternStats I0;
  TracedPhase() {
    metrics::Registry::get().reset();
    I0 = internStats();
  }
  /// Switches the solver's flight timing layer on or off.
  static void timing(bool On) {
    flight::Options O;
    O.Timing = On;
    flight::configure(O);
  }
  void finish(Sums &L) {
    timing(false);
    L["solver.query_max_s"] =
        metrics::Registry::get().solverQueriesReport().MaxNs * 1e-9;
    InternStats I1 = internStats();
    L["sym.intern_nodes"] = static_cast<double>(I1.Nodes);
    uint64_t Hits = I1.Hits - I0.Hits, Misses = I1.Misses - I0.Misses;
    L["sym.intern_hit_ratio"] =
        Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0.0;
  }
};

/// cold-corpus and edit-loop: one client, one op per module per pass (a
/// seeded permutation of the corpus); edit-loop edits the module before
/// each op.
class CliWorkload {
public:
  CliWorkload(const Args &A, bool Edits)
      : A(A), Edits(Edits), Corpus(loadCorpus(A.Corpus)),
        Want(loadExpected(A.Expected)), Dir(Edits ? "edit" : "cold") {}

  void run(Run &R) {
    for (unsigned I = 0; I < SetupReps; ++I)
      R.SetupS.push_back(setup(R, Dir));
    Rng Rg(A.Seed);
    auto T0 = Clock::now();
    const Clock::time_point End = deadline(T0, A);
    loop(
        Rg, [&] { return Clock::now() >= End; },
        [&](const ModuleText &M, Op O) {
          runOp(M, Dir, nullptr, O);
          R.Ops.push_back(O);
          Rss.opDone();
          return O.EditS;
        },
        &R.PassS);
    R.PhaseS = since(T0);
    if (A.Trace)
      replay(R);
  }

private:
  /// The traced run's replay: the measured op sequence again, each op run
  /// on two identical set-ups — traced (flight timing on, the calls timed
  /// from here) and untraced, the overhead baseline — in alternating order,
  /// so machine drift and process warm-up hit both sides alike.
  void replay(Run &R) {
    const std::string BaseDir = Dir + "-baseline";
    setup(R, Dir);
    setup(R, BaseDir);
    Rng Rg(A.Seed);
    TracedPhase TP;
    // The side that runs second finds the module's expressions interned
    // and simplified already, so each module alternates which side leads.
    std::map<std::string, unsigned> Turn;
    loop(
        Rg, [&] { return R.TracedOps.size() >= R.Ops.size(); },
        [&](const ModuleText &M, Op O) {
          Op B = O;
          auto traced = [&] {
            TracedPhase::timing(true);
            runOp(M, Dir, &R.Layers, O);
            TracedPhase::timing(false);
          };
          if (Turn[M.Stem]++ % 2)
            runOp(M, BaseDir, nullptr, B), traced();
          else
            traced(), runOp(M, BaseDir, nullptr, B);
          R.TracedOps.push_back(O);
          R.BaselineOps.push_back(B);
          return O.EditS;
        },
        nullptr);
    for (auto &KV : R.Layers) // sums -> per-op means
      KV.second /= static_cast<double>(R.TracedOps.size());
    TP.finish(R.Layers);
  }

  /// Writes \p M into work directory \p D and verifies it there, traced
  /// when \p Acc is given.
  void runOp(const ModuleText &M, const std::string &D, Sums *Acc, Op &O) {
    const std::string Path = D + "/" + M.Stem + ".gilr";
    const std::string Store = Edits ? D + "/" + M.Stem + ".prf" : "";
    const std::string Text = M.render();
    auto T0 = Clock::now();
    writeText(Path, Text);
    const double WriteS = since(T0);
    if (Acc)
      tracedCliOp(Want.at(M.Stem), Path, Store, O, *Acc);
    else
      cliOp(Want.at(M.Stem), Path, Store, O);
    O.EditS = WriteS + O.RequestS;
  }

  /// A fresh work directory \p D holding the pristine corpus; edit-loop
  /// also verifies each module once into its own proof store. Cold-corpus's
  /// set-up type-checks each module (`gilr check`).
  double setup(Run &R, const std::string &D) {
    auto T0 = Clock::now();
    fs::remove_all(D);
    fs::create_directories(D);
    for (ModuleText &M : Corpus) {
      M.reset();
      const std::string Path = D + "/" + M.Stem + ".gilr";
      writeText(Path, M.render());
      Op O;
      O.Stem = M.Stem;
      O.Class = "setup";
      if (Edits) {
        cliOp(Want.at(M.Stem), Path, D + "/" + M.Stem + ".prf", O);
      } else {
        std::ostringstream Out, Err;
        if (int Exit = frontend::runCli({"check", "--json", Path}, Out, Err))
          O.Why = "check exit " + std::to_string(Exit);
      }
      R.SetupOps.push_back(std::move(O));
    }
    return since(T0);
  }

  /// Runs whole passes, at least one, until \p Done() holds after a pass.
  /// Each step edits its module (edit-loop) and hands it to \p Step with an
  /// Op naming module and class; \p Step returns the op's time.
  template <typename DoneFn, typename StepFn>
  void loop(Rng &Rg, DoneFn Done, StepFn Step, std::vector<double> *Passes) {
    std::vector<std::size_t> Start(NumModules);
    for (std::size_t &S : Start)
      S = Rg.below(1024);
    for (;;) {
      double PassS = 0;
      for (std::size_t I : Rg.permutation()) {
        ModuleText &M = Corpus[I];
        Op O;
        O.Stem = M.Stem;
        if (Edits) {
          // Each module is edited in its costliest class, round-robin over
          // that class's sites from a seeded start, so every run has the
          // same mix of salvage and re-prove steps (a random mix would put
          // the p90 on a cliff between cheap and re-prove steps).
          EditClass C = M.classes(/*CheapOnly=*/false).back();
          M.edit(C, Start[I] + M.Edits);
          O.Class = className(C);
        }
        PassS += Step(M, O);
      }
      if (Passes)
        Passes->push_back(PassS);
      if (Done())
        return;
    }
  }

  const Args &A;
  bool Edits;
  std::vector<ModuleText> Corpus;
  std::map<std::string, Verdicts> Want;
  std::string Dir;
};

/// daemon-mixed: closed-loop clients against one resident in-process
/// daemon with a shared cache directory.
class DaemonWorkload {
public:
  explicit DaemonWorkload(const Args &A)
      : A(A), Corpus(loadCorpus(A.Corpus)), Want(loadExpected(A.Expected)) {}
  ~DaemonWorkload() { stopDaemon(); }

  void run(Run &R) {
    R.Clients = DaemonClients;
    for (unsigned I = 0; I < SetupReps; ++I)
      R.SetupS.push_back(setup(R));
    auto T0 = Clock::now();
    clients(deadline(T0, A), nullptr, R.Ops, &R.PassS);
    R.PhaseS = since(T0);
    if (A.Trace) {
      std::vector<std::size_t> Counts(DaemonClients, 0);
      for (const Op &O : R.Ops)
        ++Counts[O.Client];
      traced(R, Counts);
      setup(R);
      clients(Clock::time_point::max(), &Counts, R.BaselineOps, nullptr);
    }
    stopDaemon();
  }

private:
  static constexpr const char *Socket = "daemon/d.sock";
  static constexpr const char *CacheDir = "daemon/cache";

  void stopDaemon() {
    if (!Srv)
      return;
    Srv->stop();
    Serving.join();
    Srv.reset();
  }

  /// A fresh daemon over an empty cache directory, warmed with one pass
  /// over the pristine corpus.
  double setup(Run &R) {
    stopDaemon();
    auto T0 = Clock::now();
    fs::remove_all("daemon");
    fs::create_directories("daemon/warm");
    server::ServerConfig Cfg;
    Cfg.SocketPath = Socket;
    Cfg.CacheDir = CacheDir;
    Cfg.Jobs = 1;
    Srv = std::make_unique<server::Server>(Cfg);
    std::string Err;
    if (!Srv->start(Err)) {
      std::fprintf(stderr, "verifbench: daemon start: %s\n", Err.c_str());
      std::exit(2);
    }
    Serving = std::thread([this] { Srv->serve(); });
    for (const ModuleText &M : Corpus) {
      std::string Path = "daemon/warm/" + M.Stem + ".gilr";
      writeText(Path, M.Pristine);
      Op O;
      O.Stem = M.Stem;
      O.Class = "setup";
      submit(Path, "warm", Want.at(M.Stem), O);
      R.SetupOps.push_back(std::move(O));
    }
    return since(T0);
  }

  /// One request through the client library, checked by the oracle.
  void submit(const std::string &Path, const std::string &Client,
              const Verdicts &W, Op &O) {
    server::ClientOptions CO;
    CO.SocketPath = Socket;
    CO.Files = {Path};
    CO.ClientId = Client;
    CO.Json = true;
    CO.Jobs = 1;
    std::ostringstream Out, Err;
    auto T0 = Clock::now();
    int Exit = server::runClient(CO, Out, Err);
    O.RequestS = since(T0);
    if (Exit == server::ServerExitUnavailable) {
      std::string E = Err.str();
      O.Why = "transport or admission: " + E.substr(0, E.find('\n'));
      return;
    }
    json::ValuePtr V = json::parse(Out.str());
    json::ValuePtr Vs = V ? V->get("verdicts") : nullptr;
    if (!Vs || !Vs->isArray()) {
      O.Why = "no result event";
      return;
    }
    Verdicts Got, Unused;
    Got.Exit = Exit;
    for (const json::ValuePtr &X : Vs->Arr) {
      json::ValuePtr N = X->get("name"), S = X->get("side"), Ok = X->get("ok");
      if (!N || !S || !Ok) {
        O.Why = "malformed verdict";
        return;
      }
      Got.Set.emplace(S->Str, N->Str, Ok->B);
    }
    if (json::ValuePtr Sec = V->get("seconds"))
      O.ServerS = Sec->numberOr(-1);
    readIncr(V, O);
    if (!fromReport(V->get("report"), Unused, O.Why))
      return;
    O.Why = compare(W, Got);
  }

  /// Runs the clients; each runs whole passes, at least one, until
  /// \p Deadline or for exactly (*MaxOps)[c] ops. Client c's inputs come
  /// from its own seeded stream, so a replay submits the same sequence.
  void clients(Clock::time_point Deadline,
               const std::vector<std::size_t> *MaxOps, std::vector<Op> &Ops,
               std::vector<double> *Passes) {
    std::mutex Mu;
    std::atomic<int> InFlight{0};
    std::vector<std::thread> Ts;
    for (unsigned C = 0; C < DaemonClients; ++C)
      Ts.emplace_back([&, C] {
        Rng Rg(A.Seed * DaemonClients + C);
        std::vector<ModuleText> Ms = Corpus;
        const std::string Dir = "daemon/c" + std::to_string(C);
        const std::string Id = "client-" + std::to_string(C);
        fs::create_directories(Dir);
        std::vector<Op> Mine;
        std::vector<double> MyPasses;
        const std::size_t Max = MaxOps ? (*MaxOps)[C] : 0;
        // Every tenth submission of each module carries an edit, the cheap
        // classes taking turns: a fixed share of salvage runs per run,
        // whatever the seed. The seeded offsets keep the modules' edits
        // from arriving in bursts.
        std::vector<unsigned> Sent(NumModules);
        for (unsigned &S : Sent)
          S = static_cast<unsigned>(Rg.below(DaemonEditOneIn));
        for (;;) {
          double PassS = 0;
          for (std::size_t I : Rg.permutation()) {
            ModuleText &M = Ms[I];
            Op O;
            O.Client = C;
            O.Stem = M.Stem;
            if (++Sent[I] % DaemonEditOneIn == 0) {
              std::vector<EditClass> Cs = M.classes(/*CheapOnly=*/true);
              EditClass K = Cs[M.Edits % Cs.size()];
              M.edit(K, Rg.next());
              O.Class = className(K);
            }
            const std::string Path = Dir + "/" + M.Stem + ".gilr";
            const std::string Text = M.render();
            auto T0 = Clock::now();
            writeText(Path, Text);
            const double WriteS = since(T0);
            O.QueuePos = InFlight.fetch_add(1);
            submit(Path, Id, Want.at(M.Stem), O);
            InFlight.fetch_sub(1);
            O.EditS = WriteS + O.RequestS;
            PassS += O.EditS;
            Mine.push_back(std::move(O));
            if (Passes) // the measured phase
              Rss.opDone();
          }
          MyPasses.push_back(PassS);
          if (MaxOps ? Mine.size() >= Max : Clock::now() >= Deadline)
            break;
        }
        std::lock_guard<std::mutex> Lock(Mu);
        Ops.insert(Ops.end(), Mine.begin(), Mine.end());
        if (Passes)
          Passes->insert(Passes->end(), MyPasses.begin(), MyPasses.end());
      });
    for (std::thread &T : Ts)
      T.join();
  }

  /// The daemon's `stats` result event.
  json::ValuePtr stats() {
    server::ClientOptions CO;
    CO.SocketPath = Socket;
    CO.Method = "stats";
    CO.Json = true;
    std::ostringstream Out, Err;
    server::runClient(CO, Out, Err);
    json::ValuePtr V = json::parse(Out.str());
    if (!V) {
      std::fprintf(stderr, "verifbench: no stats event\n");
      std::exit(2);
    }
    return V;
  }

  /// Replays each client's untraced op count against a fresh, warmed
  /// daemon with flight timing on; the split of a request comes from its
  /// result event (`seconds`) and the `stats` request.
  void traced(Run &R, const std::vector<std::size_t> &Counts) {
    setup(R);
    Sums &L = R.Layers;
    json::ValuePtr S0 = stats();
    TracedPhase TP;
    TracedPhase::timing(true);
    const SolverStats Before = metrics::solverStats();
    const SolverSnap F0 = SolverSnap::now();
    clients(Clock::time_point::max(), &Counts, R.TracedOps, nullptr);
    const SolverSnap F1 = SolverSnap::now();
    const SolverStats D = metrics::solverStats() - Before;
    json::ValuePtr S1 = stats();

    const double N = static_cast<double>(R.TracedOps.size());
    std::vector<double> Run, Wait;
    double Bytes = 0, QueuePos = 0;
    for (const Op &O : R.TracedOps) {
      Run.push_back(O.ServerS);
      Wait.push_back(O.RequestS - O.ServerS);
      QueuePos += O.QueuePos;
      for (const ModuleText &M : Corpus)
        if (M.Stem == O.Stem)
          Bytes += M.Pristine.size();
    }
    auto pct = [](std::vector<double> V, double P) {
      std::sort(V.begin(), V.end());
      std::size_t K = static_cast<std::size_t>(std::ceil(P * V.size()));
      return V.empty() ? 0.0 : V[std::max<std::size_t>(K, 1) - 1];
    };
    auto mean = [](const std::vector<double> &V) {
      double S = 0;
      for (double X : V)
        S += X;
      return V.empty() ? 0.0 : S / V.size();
    };
    const double SolverS = (F1.Ns - F0.Ns) * 1e-9 / N;
    L["solver.query_s"] = SolverS;
    L["solver.queries"] = (F1.Queries - F0.Queries) / N;
    L["solver.memo_served"] = (F1.Hits - F0.Hits) / N;
    L["solver.unknowns"] = (F1.Unknowns - F0.Unknowns) / N;
    L["solver.branches"] = D.Branches.get() / N;
    L["solver.theory_checks"] = D.TheoryChecks.get() / N;
    L["server.run_s_p50"] = pct(Run, 0.5);
    L["server.run_self_s"] = mean(Run) - SolverS;
    L["server.queue_wait_s"] = mean(Wait);
    L["server.queue_wait_s_p50"] = pct(Wait, 0.5);
    L["server.queue_wait_s_p99"] = pct(Wait, 0.99);
    L["server.queue_pos_mean"] = QueuePos / N;
    L["frontend.bytes"] = Bytes / N;
    auto field = [](const json::ValuePtr &V, const char *Path) {
      json::ValuePtr F = V->at(Path);
      return F ? F->numberOr(0) : 0.0;
    };
    L["server.rejected"] = field(S1, "admission.rejected");
    L["server.resident_entries"] = field(S1, "resident_solver_entries");
    for (const char *K : {"gets", "hits", "puts"})
      L[std::string("incr.backend_") + K] =
          (field(S1, (std::string("cache.") + K).c_str()) -
           field(S0, (std::string("cache.") + K).c_str())) /
          N;
    double DirBytes = 0;
    std::error_code EC;
    for (const auto &E : fs::recursive_directory_iterator(CacheDir, EC))
      if (E.is_regular_file(EC))
        DirBytes += static_cast<double>(E.file_size(EC));
    L["incr.store_bytes"] = DirBytes;
    TP.finish(L);
  }

  const Args &A;
  std::vector<ModuleText> Corpus;
  std::map<std::string, Verdicts> Want;
  std::unique_ptr<server::Server> Srv;
  std::thread Serving;
};

/// Cold-verifies edited modules against the golden verdicts: each
/// equiv/obs site's first variant alone, all doc sites together, and every
/// site of a module at once (variants 1..n). Exit 0 iff all keep the golden
/// verdicts.
int checkEdits(const Args &A) {
  std::vector<ModuleText> Corpus = loadCorpus(A.Corpus);
  std::map<std::string, Verdicts> Want = loadExpected(A.Expected);
  fs::create_directories("check");
  int Bad = 0;
  for (ModuleText &M : Corpus) {
    std::vector<std::pair<std::string, std::vector<std::size_t>>> Cases;
    std::vector<std::size_t> Docs, All;
    for (std::size_t I = 0; I < M.Sites.size(); ++I) {
      All.push_back(I);
      if (M.Sites[I].C == EditClass::Doc)
        Docs.push_back(I);
      else
        Cases.push_back({std::string(className(M.Sites[I].C)) + " " +
                             M.Sites[I].Original,
                         {I}});
    }
    if (!Docs.empty())
      Cases.push_back({"all " + std::to_string(Docs.size()) + " doc sites",
                       Docs});
    Cases.push_back({"all " + std::to_string(All.size()) + " sites", All});
    for (const auto &[Label, Sel] : Cases) {
      M.reset();
      for (std::size_t I : Sel)
        M.Cur[I] = M.Sites[I].variant(++M.Edits);
      const std::string Path = "check/" + M.Stem + ".gilr";
      writeText(Path, M.render());
      Op O;
      cliOp(Want.at(M.Stem), Path, "", O);
      std::fprintf(stderr, "%-22s %-4s %s\n", M.Stem.c_str(),
                   O.Why.empty() ? "ok" : "FAIL",
                   (Label + (O.Why.empty() ? "" : ": " + O.Why)).c_str());
      Bad += !O.Why.empty();
    }
  }
  return Bad ? 1 : 0;
}

std::string opsJson(const std::vector<Op> &Ops) {
  std::string S = "[";
  for (std::size_t I = 0; I < Ops.size(); ++I) {
    const Op &O = Ops[I];
    S += std::string(I ? ",\n" : "") + "{\"m\": " + jsonStr(O.Stem) +
         ", \"k\": " + jsonStr(O.Class) + ", \"e\": " + num(O.EditS) +
         ", \"r\": " + num(O.RequestS) + ", \"i\": [";
    for (int K = 0; K < 6; ++K)
      S += (K ? ", " : "") + std::to_string(O.Incr[K]);
    S += "]";
    if (!O.Why.empty())
      S += ", \"why\": " + jsonStr(O.Why);
    S += "}";
  }
  return S + "]";
}

std::string numsJson(const std::vector<double> &Xs) {
  std::string S = "[";
  for (std::size_t I = 0; I < Xs.size(); ++I)
    S += (I ? ", " : "") + num(Xs[I]);
  return S + "]";
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--check-edits") {
      A.CheckEdits = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    try {
      if (K == "--workload")
        A.Workload = V;
      else if (K == "--seed")
        A.Seed = std::stoull(V);
      else if (K == "--seconds")
        A.Seconds = std::stod(V);
      else if (K == "--trace")
        A.Trace = V == "1";
      else if (K == "--corpus")
        A.Corpus = V;
      else if (K == "--expected")
        A.Expected = V;
      else
        return false;
    } catch (...) {
      return false;
    }
  }
  return !A.Corpus.empty() && !A.Expected.empty() &&
         (A.CheckEdits || A.Workload == "cold-corpus" ||
          A.Workload == "edit-loop" || A.Workload == "daemon-mixed");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: verifbench --workload cold-corpus|edit-loop|"
                 "daemon-mixed --seed N --seconds S --trace 0|1 --corpus DIR "
                 "--expected DIR\n       verifbench --check-edits --corpus "
                 "DIR --expected DIR\n");
    return 2;
  }
  // Explicitly off: no environment variable may switch the recorder on.
  flight::configure(flight::Options());
  if (A.CheckEdits)
    return checkEdits(A);

  Run R;
  if (A.Workload == "daemon-mixed")
    DaemonWorkload(A).run(R);
  else
    CliWorkload(A, A.Workload == "edit-loop").run(R);

  const long PeakKb = Rss.result();
  std::string Layers = "{";
  for (const auto &KV : R.Layers)
    Layers += std::string(Layers.size() > 1 ? ", " : "") + jsonStr(KV.first) +
              ": " + num(KV.second);
  Layers += "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"clients\": %u, "
      "\"build_type\": %s, \"compiler\": %s, \"setup_s\": %s, "
      "\"phase_s\": %s, \"peak_rss_kb\": %ld, "
      "\"passes\": %s, \"layers\": %s,\n\"setup_ops\": %s,\n\"ops\": %s,\n"
      "\"traced_ops\": %s,\n\"baseline_ops\": %s}\n",
      jsonStr(A.Workload).c_str(), (unsigned long long)A.Seed, A.Trace ? 1 : 0,
      R.Clients, jsonStr(VERIFBENCH_BUILD_TYPE).c_str(),
      jsonStr(VERIFBENCH_COMPILER).c_str(), numsJson(R.SetupS).c_str(),
      num(R.PhaseS).c_str(), PeakKb,
      numsJson(R.PassS).c_str(), Layers.c_str(), opsJson(R.SetupOps).c_str(),
      opsJson(R.Ops).c_str(), opsJson(R.TracedOps).c_str(),
      opsJson(R.BaselineOps).c_str());
  return 0;
}

