//===- sched/Scheduler.cpp --------------------------------------------------------===//
//
// Also defines every run overload of hybrid::HybridDriver and every
// verifyAll overload of engine::Verifier: the scheduler is the layer
// between the drivers and the engine, so those entry points live here
// rather than in the lower-level libraries, and all of them forward to one
// function.
//
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "analysis/Summary.h"
#include "incr/Session.h"
#include "solver/Flight.h"
#include "support/Budget.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

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
void recordInterprocReport(const analysis::SummaryTable &T, double Seconds) {
  metrics::InterprocReport R;
  R.Valid = true;
  R.FnSummaries = T.Fns.size();
  R.PredSummaries = T.Preds.size();
  R.Seconds = Seconds;
  metrics::Registry::get().setInterprocReport(std::move(R));
}

} // namespace

void Scheduler::runJobs(std::size_t N,
                        const std::function<void(std::size_t)> &RunOne) {
  if (trace::enabled())
    metrics::Registry::get().add("sched.jobs", N);

  if (Config.Threads <= 1 || N <= 1) {
    for (std::size_t I = 0; I != N; ++I)
      RunOne(I);
    return;
  }

  // Starting and joining the threads orders their accesses to the run's
  // state with the caller's; each job writes only its own slot. A job that
  // throws stops the handing out of jobs, and the first exception is
  // rethrown once every thread has joined.
  std::atomic<std::size_t> Next{0};
  std::mutex FailureMu;
  std::exception_ptr Failure;
  auto Drain = [&] {
    try {
      for (std::size_t I = Next++; I < N; I = Next++)
        RunOne(I);
    } catch (...) {
      Next = N;
      std::lock_guard<std::mutex> Lock(FailureMu);
      if (!Failure)
        Failure = std::current_exception();
    }
  };
  const std::size_t Threads = std::min<std::size_t>(Config.Threads, N);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  try {
    while (Workers.size() != Threads)
      Workers.emplace_back(Drain);
  } catch (...) {
    Drain(); // A thread failed to start: the caller takes the remaining jobs.
  }
  for (std::thread &W : Workers)
    W.join();
  if (Failure)
    std::rethrow_exception(Failure);
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
  // Lint jobs run like proof jobs. No job budget: lint verdicts must stay
  // deterministic at any worker count (the budget's wall-clock component
  // is the one nondeterminism source runJobs has).
  runJobs(Names.size(), [&](std::size_t I) {
    const std::string &Name = Names[I];
    GILR_TRACE_SCOPE_D("sched", "lint-job", Name);
    analysis::EntityVerdict V;
    if (Incr && Incr->lookupLint(Name, V)) {
      flight::noteCachedObligation(Name, 'L', !V.Blocked);
      Verdicts[I] = {Name, std::move(V)};
      return;
    }
    std::optional<incr::DepRecorder> Rec;
    if (Incr)
      Rec.emplace();
    V = analysis::lintEntity(In, Name);
    std::set<incr::DepKey> Deps = finishRecording(Rec);
    if (Incr)
      Incr->recordLint(Name, Deps, V);
    Verdicts[I] = {Name, std::move(V)};
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
  // Every query of the run goes through Env.Solv, so the run's cache is its
  // memo until the run ends; starting the job threads publishes it to them.
  QueryMemo *CallerMemo = std::exchange(Env.Solv.Memo, Cache.get());

  std::vector<std::pair<std::string, analysis::EntityVerdict>> Verdicts;
  std::optional<analysis::SummaryTable> Summaries;
  double SummarySeconds = 0.0;
  if (Env.Lint.Enabled) {
    auto S0 = std::chrono::steady_clock::now();
    Summaries.emplace(summaryPhase(Env));
    SummarySeconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - S0)
                         .count();
    Report.Analysis = lintPhase(Env, UnsafeFuncs, Incr, &*Summaries, Verdicts);
  }

  // Job I is unsafe function I, then safe client I - |UnsafeFuncs|.
  const std::size_t NUnsafe = UnsafeFuncs.size();
  runJobs(NUnsafe + Clients.size(), [&](std::size_t I) {
    const std::string &Name =
        I < NUnsafe ? UnsafeFuncs[I] : Clients[I - NUnsafe].Name;
    // The per-job root span: everything the worker does for this obligation
    // nests under it, so GILR_TRACE output stays attributable per job.
    GILR_TRACE_SCOPE_D("sched", "job", Name);
    if (I < NUnsafe) {
      const analysis::EntityVerdict *V =
          Verdicts.empty() ? nullptr : &Verdicts[I].second;
      if (V && V->Blocked) {
        Report.UnsafeSide[I] = engine::lintBlockedReport(Name, *V);
        return;
      }
      engine::VerifyReport R;
      if (Incr && Incr->lookupUnsafe(Name, R)) {
        flight::noteCachedObligation(Name, 'U', R.Ok);
        if (V)
          R.Diags = V->Diags;
        Report.UnsafeSide[I] = std::move(R);
        return;
      }
      std::optional<incr::DepRecorder> Rec;
      if (Incr)
        Rec.emplace();
      bool Exhausted = withJobBudget(Config, [&] {
        engine::Verifier V2(Env);
        R = V2.verifyFunction(Name);
      });
      if (Exhausted)
        markBudgetExhausted(R.Errors, R.Ok, R.TimedOut, Name);
      std::set<incr::DepKey> Deps = finishRecording(Rec);
      if (Incr)
        Incr->recordUnsafe(Name, Deps, R);
      if (V)
        R.Diags = V->Diags;
      Report.UnsafeSide[I] = std::move(R);
    } else {
      const creusot::SafeFn &Client = Clients[I - NUnsafe];
      creusot::SafeReport R;
      if (Incr && Incr->lookupSafe(Client, R)) {
        flight::noteCachedObligation(Name, 'S', R.Ok);
        Report.SafeSide[I - NUnsafe] = std::move(R);
        return;
      }
      std::optional<incr::DepRecorder> Rec;
      if (Incr)
        Rec.emplace();
      bool Exhausted = withJobBudget(Config, [&] {
        creusot::SafeVerifier SV(Contracts, Env.Solv);
        R = SV.verify(Client);
      });
      if (Exhausted)
        markBudgetExhausted(R.Errors, R.Ok, R.TimedOut, Name);
      std::set<incr::DepKey> Deps = finishRecording(Rec);
      if (Incr)
        Incr->recordSafe(Client, Deps, R);
      Report.SafeSide[I - NUnsafe] = std::move(R);
    }
  });
  recordCacheReport();
  if (Summaries)
    recordInterprocReport(*Summaries, SummarySeconds);
  Env.Solv.Memo = CallerMemo;
  return Report;
}

//===----------------------------------------------------------------------===//
// The drivers' entry points
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
  R.CachedLint = St.CachedLint;
  R.AnalyzedLint = St.AnalyzedLint;
  gilr::metrics::Registry::get().setIncrReport(std::move(R));
}

/// The one path to a verdict behind every HybridDriver::run and
/// engine::Verifier::verifyAll overload: a fresh scheduler under \p Config
/// runs both sides. With \p Inc enabled the run goes through an
/// incr::Session over the proof store: stable cache keys, the store's
/// solver-entry block preloaded, the run's cache entries handed back and
/// flushed, and the `incremental` telemetry section published. \p StatsOut
/// (if given) receives the session's counters, zeros without a session.
/// \p Contracts is null for an unsafe-only run; its session then validates
/// no contract dependency.
hybrid::HybridReport verifyScheduled(
    engine::VerifEnv &Env, const creusot::PearliteSpecTable *Contracts,
    const std::vector<std::string> &UnsafeFuncs,
    const std::vector<creusot::SafeFn> &Clients, SchedulerConfig Config,
    const incr::IncrConfig *Inc = nullptr,
    incr::IncrRunStats *StatsOut = nullptr) {
  const creusot::PearliteSpecTable NoContracts;
  const creusot::PearliteSpecTable &C = Contracts ? *Contracts : NoContracts;
  if (!Inc || !Inc->Enabled) {
    if (StatsOut)
      *StatsOut = incr::IncrRunStats();
    Scheduler S(Config);
    return S.runHybrid(Env, C, UnsafeFuncs, Clients);
  }
  // Persisted / preloaded cache entries are only meaningful under the
  // process-stable key scheme.
  Config.StableCacheKeys = true;
  Scheduler S(Config);
  incr::Session Sess(*Inc, Env, Contracts);
  S.preloadCache(Sess.solverEntriesToLoad());
  hybrid::HybridReport Report =
      S.runHybrid(Env, C, UnsafeFuncs, Clients, &Sess);
  Sess.saveSolverEntries(S.exportCacheEntries());
  Sess.flush();
  recordIncrReport(Sess.stats());
  if (StatsOut)
    *StatsOut = Sess.stats();
  return Report;
}

/// The unsafe side of \p R, for the verifyAll overloads; its analysis
/// verdict moves to \p Analysis (Verifier::lastAnalysis).
std::vector<engine::VerifyReport>
unsafeSide(hybrid::HybridReport R, analysis::AnalysisResult &Analysis) {
  Analysis = std::move(R.Analysis);
  return std::move(R.UnsafeSide);
}

} // namespace

hybrid::HybridReport
hybrid::HybridDriver::run(const std::vector<std::string> &UnsafeFuncs,
                          const std::vector<creusot::SafeFn> &Clients) {
  return verifyScheduled(Env, &Contracts, UnsafeFuncs, Clients, {});
}

hybrid::HybridReport
hybrid::HybridDriver::run(const std::vector<std::string> &UnsafeFuncs,
                          const std::vector<creusot::SafeFn> &Clients,
                          const sched::SchedulerConfig &Config) {
  return verifyScheduled(Env, &Contracts, UnsafeFuncs, Clients, Config);
}

hybrid::HybridReport
hybrid::HybridDriver::run(const std::vector<std::string> &UnsafeFuncs,
                          const std::vector<creusot::SafeFn> &Clients,
                          const sched::SchedulerConfig &Config,
                          const incr::IncrConfig &Inc,
                          incr::IncrRunStats *StatsOut) {
  return verifyScheduled(Env, &Contracts, UnsafeFuncs, Clients, Config, &Inc,
                         StatsOut);
}

std::vector<engine::VerifyReport>
engine::Verifier::verifyAll(const std::vector<std::string> &Names) {
  return unsafeSide(verifyScheduled(Env, nullptr, Names, {}, {}), LastAnalysis);
}

std::vector<engine::VerifyReport>
engine::Verifier::verifyAll(const std::vector<std::string> &Names,
                            const sched::SchedulerConfig &Config) {
  return unsafeSide(verifyScheduled(Env, nullptr, Names, {}, Config),
                    LastAnalysis);
}

std::vector<engine::VerifyReport>
engine::Verifier::verifyAll(const std::vector<std::string> &Names,
                            const sched::SchedulerConfig &Config,
                            const incr::IncrConfig &Inc,
                            incr::IncrRunStats *StatsOut) {
  return unsafeSide(
      verifyScheduled(Env, nullptr, Names, {}, Config, &Inc, StatsOut),
      LastAnalysis);
}
