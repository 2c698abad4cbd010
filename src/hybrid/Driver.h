//===- hybrid/Driver.h - End-to-end hybrid verification ---------------------===//
///
/// \file
/// Drives the hybrid approach of §2.1: Creusot-side verification of safe
/// client code against the axiomatised Pearlite contracts, and
/// Gillian-Rust-side verification of the unsafe implementations against the
/// *same* contracts after the systematic encoding — the division of labour
/// of Fig. 1. Both sides run as jobs of the proof scheduler
/// (sched/Scheduler.h), which defines every \c HybridDriver::run overload.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_HYBRID_DRIVER_H
#define GILR_HYBRID_DRIVER_H

#include "analysis/Analysis.h"
#include "creusot/SafeVerifier.h"
#include "engine/Verifier.h"
#include "hybrid/Encode.h"

namespace gilr {
namespace sched {
struct SchedulerConfig;
} // namespace sched
namespace incr {
struct IncrConfig;
struct IncrRunStats;
} // namespace incr

namespace hybrid {

/// Combined report of one hybrid run.
struct HybridReport {
  std::vector<engine::VerifyReport> UnsafeSide;
  std::vector<creusot::SafeReport> SafeSide;
  /// The pre-verification analysis verdict (src/analysis/): every finding
  /// of the run, deterministically ordered. Default (disabled) when
  /// Env.Lint.Enabled is off.
  analysis::AnalysisResult Analysis;
  bool ok() const {
    if (!Analysis.ok())
      return false;
    for (const engine::VerifyReport &R : UnsafeSide)
      if (!R.Ok)
        return false;
    for (const creusot::SafeReport &R : SafeSide)
      if (!R.Ok)
        return false;
    return true;
  }

  /// Human-readable summary: one line per function (side, outcome, time,
  /// paths, solver queries), followed by a per-phase wall-time breakdown
  /// for each unsafe function when tracing is enabled.
  std::string summaryText() const;

  /// Machine-readable proof report: every function of both sides with its
  /// outcome, timing, solver-work delta and errors, as a JSON document.
  std::string renderJson() const;
};

/// Orchestrates both verifiers over one program + contract table.
class HybridDriver {
public:
  HybridDriver(engine::VerifEnv &Env,
               const creusot::PearliteSpecTable &Contracts)
      : Env(Env), Contracts(Contracts) {}

  /// Encodes the contract of \p Func into Gilsonite and registers it,
  /// replacing any previously registered spec. Returns the failure if the
  /// encoding is impossible.
  Outcome<Unit> encodeAndRegister(const std::string &Func);

  /// Verifies the listed unsafe implementations (Gillian-Rust side) and
  /// safe clients (Creusot side) through the proof scheduler with its
  /// default configuration (one thread, the entailment memo on). Reports
  /// are emitted in input order. Defined in sched/Scheduler.cpp, as are
  /// the overloads below.
  HybridReport run(const std::vector<std::string> &UnsafeFuncs,
                   const std::vector<creusot::SafeFn> &Clients);

  /// Same, under \p Config: every obligation of both sides is an
  /// independent job, run on Config.Threads threads (inline on the calling
  /// thread when 1) with a shared entailment cache and per-job budgets.
  HybridReport run(const std::vector<std::string> &UnsafeFuncs,
                   const std::vector<creusot::SafeFn> &Clients,
                   const sched::SchedulerConfig &Config);

  /// Same, with incremental verification (incr/Session.h): obligations
  /// whose persisted verdict is still valid are replayed from the proof
  /// store (marked \c cached in the reports), the rest are proved and the
  /// store updated. A plain scheduled run when Inc.Enabled is false.
  /// \p StatsOut, if given, receives the run's cached/verified/invalidated
  /// counters.
  HybridReport run(const std::vector<std::string> &UnsafeFuncs,
                   const std::vector<creusot::SafeFn> &Clients,
                   const sched::SchedulerConfig &Config,
                   const incr::IncrConfig &Inc,
                   incr::IncrRunStats *StatsOut = nullptr);

private:
  engine::VerifEnv &Env;
  const creusot::PearliteSpecTable &Contracts;
};

} // namespace hybrid
} // namespace gilr

#endif // GILR_HYBRID_DRIVER_H
