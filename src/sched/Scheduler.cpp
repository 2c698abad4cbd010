//===- sched/Scheduler.cpp --------------------------------------------------------===//
//
// Also defines the SchedulerConfig-taking overloads declared on
// hybrid::HybridDriver and engine::Verifier: the scheduler is the layer
// between the drivers and the engine, so those entry points live here
// rather than in the lower-level libraries.
//
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "analysis/Interproc.h"
#include "analysis/Summary.h"
#include "incr/Session.h"
#include "sched/WorkerPool.h"
#include "solver/Flight.h"
#include "support/Budget.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <optional>

using namespace gilr;
using namespace gilr::sched;

Scheduler::Scheduler(const SchedulerConfig &C) : Config(C) {
  if (Config.CacheCapacity > 0)
    Cache = std::make_unique<QueryCache>(Config.CacheCapacity,
                                         Config.StableCacheKeys);
}

Scheduler::~Scheduler() = default;

CacheStatsSnapshot Scheduler::cacheStats() const {
  return Cache ? Cache->stats() : CacheStatsSnapshot{};
}

void Scheduler::preloadCache(const std::vector<SavedQueryVerdict> &Entries) {
  if (Cache)
    Cache->preload(Entries);
}

std::vector<SavedQueryVerdict> Scheduler::exportCacheEntries() const {
  return Cache ? Cache->exportEntries() : std::vector<SavedQueryVerdict>{};
}

namespace {

/// Arms the job budget, runs \p Body, and reports whether the budget fired.
template <typename BodyFn>
bool withJobBudget(const SchedulerConfig &C, BodyFn &&Body) {
  budget::JobScope Scope(C.JobTimeoutMs * 1000000ull, C.JobBranchCap);
  Body();
  return budget::wasExceeded();
}

void markBudgetExhausted(std::vector<std::string> &Errors, bool &Ok,
                         bool &TimedOut, const std::string &Name) {
  Ok = false;
  TimedOut = true;
  Errors.push_back("job budget exhausted in " + Name + " (" +
                   budget::describe() + "): result is Unknown");
}

/// Snapshots the dependency set and uninstalls the recorder *before* the
/// session records the result: the session's own fingerprint lookups go
/// through the same instrumented tables and must not mutate the set while
/// it is being read.
std::set<incr::DepKey> finishRecording(std::optional<incr::DepRecorder> &Rec) {
  std::set<incr::DepKey> Deps;
  if (Rec) {
    Deps = Rec->taken();
    Rec.reset();
  }
  return Deps;
}

/// The interprocedural summary phase (analysis/Summary.h): serial,
/// bottom-up over the SCC condensation, recomputed every run.
analysis::SummaryTable summaryPhase(const engine::VerifEnv &Env) {
  GILR_TRACE_SCOPE("sched", "summary-phase");
  return analysis::computeSummaries(Env.Prog, Env.Preds, Env.Specs);
}

/// Publishes the interproc telemetry section at the end of a scheduled run.
void recordInterprocReport(const analysis::SummaryTable &T, uint64_t Triaged,
                           double Seconds) {
  metrics::InterprocReport R;
  R.Valid = true;
  R.FnSummaries = T.Fns.size();
  R.PredSummaries = T.Preds.size();
  R.TriagedStatic = Triaged;
  R.Seconds = Seconds;
  metrics::Registry::get().setInterprocReport(std::move(R));
}

} // namespace

void Scheduler::runJobs(
    const JobGraph &G,
    const std::function<void(const ProofJob &)> &RunOne) {
  // The cache is installed process-wide for the duration of the run; the
  // pool's synchronisation publishes it to the workers.
  ScopedQueryCache Install(Cache.get());

  if (trace::enabled())
    metrics::Registry::get().add("sched.jobs", G.Jobs.size());

  if (Config.Threads <= 1 || G.Jobs.size() <= 1) {
    for (const ProofJob &J : G.Jobs)
      RunOne(J);
    recordCacheReport();
    return;
  }

  unsigned Threads = Config.Threads;
  if (static_cast<std::size_t>(Threads) > G.Jobs.size())
    Threads = static_cast<unsigned>(G.Jobs.size());
  WorkerPool Pool(Threads);
  for (const ProofJob &J : G.Jobs)
    Pool.submit([&RunOne, &J] { RunOne(J); });
  Pool.wait();
  if (trace::enabled())
    metrics::Registry::get().add("sched.steals", Pool.steals());
  recordCacheReport();
}

void Scheduler::recordCacheReport() const {
  if (!Cache)
    return;
  CacheStatsSnapshot Snap = Cache->stats();
  metrics::QueryCacheReport R;
  R.Valid = true;
  R.Hits = Snap.Hits;
  R.Misses = Snap.Misses;
  R.Insertions = Snap.Insertions;
  R.Evictions = Snap.Evictions;
  R.Shards.reserve(Snap.Shards.size());
  for (const ShardStatsSnapshot &S : Snap.Shards)
    R.Shards.push_back({S.Hits, S.Misses});
  metrics::Registry::get().setQueryCacheReport(std::move(R));
}

analysis::AnalysisResult Scheduler::lintPhase(
    engine::VerifEnv &Env, const std::vector<std::string> &Names,
    incr::Session *Incr, const analysis::SummaryTable *Summaries,
    std::vector<std::pair<std::string, analysis::EntityVerdict>> &Verdicts) {
  Verdicts.assign(Names.size(),
                  std::pair<std::string, analysis::EntityVerdict>());
  analysis::AnalysisInput In = engine::lintInput(Env);
  In.Summaries = Summaries;
  auto Start = std::chrono::steady_clock::now();
  // Lint jobs ride the same pool as proof jobs. No job budget: lint
  // verdicts must stay deterministic at any worker count (the budget's
  // wall-clock component is the one nondeterminism source runJobs has).
  JobGraph G = JobGraph::build(Names, {});
  runJobs(G, [&](const ProofJob &J) {
    GILR_TRACE_SCOPE_D("sched", "lint-job", J.Name);
    analysis::EntityVerdict V;
    if (Incr && Incr->lookupLint(J.Name, V)) {
      flight::noteCachedObligation(J.Name, 'L', !V.Blocked);
      Verdicts[J.Slot] = {J.Name, std::move(V)};
      return;
    }
    std::optional<incr::DepRecorder> Rec;
    if (Incr)
      Rec.emplace();
    V = analysis::lintEntity(In, J.Name);
    std::set<incr::DepKey> Deps = finishRecording(Rec);
    if (Incr)
      Incr->recordLint(J.Name, Deps, V);
    Verdicts[J.Slot] = {J.Name, std::move(V)};
  });
  // Program-level lints are whole-table cross-references; they are cheap
  // and depend on everything, so they run serially and are never cached.
  std::vector<analysis::Diagnostic> ProgDiags = analysis::lintProgramLevel(In);
  auto End = std::chrono::steady_clock::now();
  return analysis::finalizeAnalysis(
      In.Cfg, Verdicts, std::move(ProgDiags),
      std::chrono::duration_cast<std::chrono::duration<double>>(End - Start)
          .count());
}

hybrid::HybridReport
Scheduler::runHybrid(engine::VerifEnv &Env,
                     const creusot::PearliteSpecTable &Contracts,
                     const std::vector<std::string> &UnsafeFuncs,
                     const std::vector<creusot::SafeFn> &Clients,
                     incr::Session *Incr) {
  hybrid::HybridReport Report;
  Report.UnsafeSide.resize(UnsafeFuncs.size());
  Report.SafeSide.resize(Clients.size());

  std::vector<std::pair<std::string, analysis::EntityVerdict>> Verdicts;
  std::optional<analysis::SummaryTable> Summaries;
  double SummarySeconds = 0.0;
  std::atomic<uint64_t> Triaged{0};
  if (Env.Lint.Enabled) {
    auto S0 = std::chrono::steady_clock::now();
    Summaries.emplace(summaryPhase(Env));
    SummarySeconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - S0)
                         .count();
    Report.Analysis = lintPhase(Env, UnsafeFuncs, Incr, &*Summaries, Verdicts);
  }

  JobGraph G = JobGraph::build(UnsafeFuncs, Clients);
  runJobs(G, [&](const ProofJob &J) {
    // The per-job root span: everything the worker does for this obligation
    // nests under it, so GILR_TRACE output stays attributable per job.
    GILR_TRACE_SCOPE_D("sched", "job", J.Name);
    if (J.K == ProofJob::UnsafeFn) {
      const analysis::EntityVerdict *V =
          Verdicts.empty() ? nullptr : &Verdicts[J.Slot].second;
      if (V && V->Blocked) {
        Report.UnsafeSide[J.Slot] = engine::lintBlockedReport(J.Name, *V);
        return;
      }
      // Triage tier: an obligation whose summary proves it trivially safe
      // never reaches the executor (or the proof store — the static verdict
      // is cheaper to recompute than to validate). The predicate is a pure
      // function of the program, so the verdict is byte-stable at any
      // worker count.
      if (Summaries) {
        const rmir::Function *F = Env.Prog.lookup(J.Name);
        const gilsonite::Spec *Sp = Env.Specs.lookup(J.Name);
        if (F && Sp && analysis::triviallyStatic(*F, *Sp, *Summaries)) {
          engine::VerifyReport TR = engine::staticTriageReport(J.Name, *F);
          if (V)
            TR.Diags = V->Diags;
          ++Triaged;
          if (Incr)
            Incr->noteTriagedStatic();
          Report.UnsafeSide[J.Slot] = std::move(TR);
          return;
        }
      }
      engine::VerifyReport R;
      if (Incr && Incr->lookupUnsafe(J.Name, R)) {
        flight::noteCachedObligation(J.Name, 'U', R.Ok);
        if (V)
          R.Diags = V->Diags;
        Report.UnsafeSide[J.Slot] = std::move(R);
        return;
      }
      std::optional<incr::DepRecorder> Rec;
      if (Incr)
        Rec.emplace();
      bool Exhausted = withJobBudget(Config, [&] {
        engine::Verifier V2(Env);
        R = V2.verifyFunction(J.Name);
      });
      if (Exhausted)
        markBudgetExhausted(R.Errors, R.Ok, R.TimedOut, J.Name);
      std::set<incr::DepKey> Deps = finishRecording(Rec);
      if (Incr)
        Incr->recordUnsafe(J.Name, Deps, R);
      if (V)
        R.Diags = V->Diags;
      Report.UnsafeSide[J.Slot] = std::move(R);
    } else {
      creusot::SafeReport R;
      if (Incr && Incr->lookupSafe(*J.Client, R)) {
        flight::noteCachedObligation(J.Name, 'S', R.Ok);
        Report.SafeSide[J.Slot] = std::move(R);
        return;
      }
      std::optional<incr::DepRecorder> Rec;
      if (Incr)
        Rec.emplace();
      bool Exhausted = withJobBudget(Config, [&] {
        creusot::SafeVerifier SV(Contracts, Env.Solv);
        R = SV.verify(*J.Client);
      });
      if (Exhausted)
        markBudgetExhausted(R.Errors, R.Ok, R.TimedOut, J.Name);
      std::set<incr::DepKey> Deps = finishRecording(Rec);
      if (Incr)
        Incr->recordSafe(*J.Client, Deps, R);
      Report.SafeSide[J.Slot] = std::move(R);
    }
  });
  if (Summaries)
    recordInterprocReport(*Summaries, Triaged.load(), SummarySeconds);
  return Report;
}

//===----------------------------------------------------------------------===//
// SchedulerConfig entry points of the lower layers
//===----------------------------------------------------------------------===//

namespace {

/// The unsafe side alone (the engine::Verifier::verifyAll overloads): a
/// hybrid run with no contracts and no clients.
std::vector<engine::VerifyReport>
runUnsafeSide(Scheduler &S, engine::VerifEnv &Env,
              const std::vector<std::string> &Names, incr::Session *Incr,
              analysis::AnalysisResult &AnalysisOut) {
  hybrid::HybridReport R =
      S.runHybrid(Env, creusot::PearliteSpecTable(), Names, {}, Incr);
  AnalysisOut = std::move(R.Analysis);
  return std::move(R.UnsafeSide);
}

} // namespace

hybrid::HybridReport
hybrid::HybridDriver::run(const std::vector<std::string> &UnsafeFuncs,
                          const std::vector<creusot::SafeFn> &Clients,
                          const sched::SchedulerConfig &Config) {
  Scheduler S(Config);
  return S.runHybrid(Env, Contracts, UnsafeFuncs, Clients);
}

std::vector<engine::VerifyReport>
engine::Verifier::verifyAll(const std::vector<std::string> &Names,
                            const sched::SchedulerConfig &Config) {
  Scheduler S(Config);
  return runUnsafeSide(S, Env, Names, nullptr, LastAnalysis);
}

//===----------------------------------------------------------------------===//
// Incremental entry points (incr::IncrConfig overloads)
//===----------------------------------------------------------------------===//

namespace {

/// Publishes the session's counters as the registry's `incremental`
/// telemetry section (support/Metrics.h), mirroring how the cache snapshot
/// and the analysis summary reach the support layer.
void recordIncrReport(const gilr::incr::IncrRunStats &St) {
  gilr::metrics::IncrReport R;
  R.Valid = true;
  R.Cached = St.cached();
  R.Verified = St.verified();
  R.Invalidated = St.Invalidated;
  R.Salvaged = St.Salvaged;
  R.Implied = St.Implied;
  R.SalvageQueries = St.SalvageQueries;
  R.Compactions = St.Compactions;
  R.CachedLint = St.CachedLint;
  R.AnalyzedLint = St.AnalyzedLint;
  R.StoreLoaded = St.StoreLoaded;
  gilr::metrics::Registry::get().setIncrReport(std::move(R));
}

} // namespace

hybrid::HybridReport
hybrid::HybridDriver::run(const std::vector<std::string> &UnsafeFuncs,
                          const std::vector<creusot::SafeFn> &Clients,
                          const sched::SchedulerConfig &Config,
                          const incr::IncrConfig &Inc,
                          incr::IncrRunStats *StatsOut) {
  if (!Inc.Enabled) {
    if (StatsOut)
      *StatsOut = incr::IncrRunStats();
    return run(UnsafeFuncs, Clients, Config);
  }
  sched::SchedulerConfig C = Config;
  // Persisted / preloaded cache entries are only meaningful under the
  // process-stable key scheme.
  C.StableCacheKeys = true;
  Scheduler S(C);
  incr::Session Sess(Inc, Env, &Contracts);
  if (Inc.LoadSolverCache)
    S.preloadCache(Sess.solverEntriesToLoad());
  hybrid::HybridReport Report =
      S.runHybrid(Env, Contracts, UnsafeFuncs, Clients, &Sess);
  if (Inc.SaveSolverCache)
    Sess.saveSolverEntries(S.exportCacheEntries());
  Sess.flush();
  recordIncrReport(Sess.stats());
  if (StatsOut)
    *StatsOut = Sess.stats();
  return Report;
}

std::vector<engine::VerifyReport>
engine::Verifier::verifyAll(const std::vector<std::string> &Names,
                            const sched::SchedulerConfig &Config,
                            const incr::IncrConfig &Inc,
                            incr::IncrRunStats *StatsOut) {
  if (!Inc.Enabled) {
    if (StatsOut)
      *StatsOut = incr::IncrRunStats();
    return verifyAll(Names, Config);
  }
  sched::SchedulerConfig C = Config;
  C.StableCacheKeys = true;
  Scheduler S(C);
  incr::Session Sess(Inc, Env, /*Contracts=*/nullptr);
  if (Inc.LoadSolverCache)
    S.preloadCache(Sess.solverEntriesToLoad());
  std::vector<engine::VerifyReport> Reports =
      runUnsafeSide(S, Env, Names, &Sess, LastAnalysis);
  if (Inc.SaveSolverCache)
    Sess.saveSolverEntries(S.exportCacheEntries());
  Sess.flush();
  recordIncrReport(Sess.stats());
  if (StatsOut)
    *StatsOut = Sess.stats();
  return Reports;
}
