//===- support/Metrics.cpp --------------------------------------------------------===//

#include "support/Metrics.h"

using namespace gilr;
using namespace gilr::metrics;

Registry &Registry::get() {
  // Deliberately leaked: trace::flush() may run from an atexit handler that
  // was registered before the first metrics call, and a plain static would
  // then be destroyed before that handler reads it.
  static Registry *R = new Registry;
  return *R;
}

SolverStats &gilr::metrics::threadSolverStats() {
  thread_local SolverStats S;
  return S;
}

void Registry::add(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

bool Registry::noteEntailFingerprint(uint64_t Fp) {
  bool Repeat = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = EntailSeen.find(Fp);
    if (It != EntailSeen.end()) {
      Repeat = true;
    } else if (EntailSeen.size() >= EntailSeenCap) {
      // Saturated: stop recording new fingerprints so a long traced run
      // cannot grow the set without bound. The repeat rate becomes a lower
      // bound from here on; the drop count marks it approximate.
      ++EntailSeenDropped;
    } else {
      EntailSeen.insert(Fp);
    }
  }
  if (Repeat) {
    ++Solver.EntailRepeats;
    ++threadSolverStats().EntailRepeats;
  }
  return Repeat;
}

uint64_t Registry::entailSeenOverflow() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return EntailSeenDropped;
}

void Registry::setQueryCacheReport(QueryCacheReport R) {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheReport = std::move(R);
}

QueryCacheReport Registry::queryCacheReport() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CacheReport;
}

void Registry::recordSolverQuery(const SolverQuerySample &Q) {
  std::size_t Bucket = 0;
  while (Bucket + 1 < FlightRep.Histogram.size() &&
         (Q.DurationNs >> (Bucket + 1)) != 0)
    ++Bucket;
  std::lock_guard<std::mutex> Lock(Mu);
  FlightRep.Valid = true;
  ++FlightRep.Queries;
  FlightRep.CacheHits += Q.CacheHit;
  FlightRep.Unknowns += Q.Verdict == 2;
  FlightRep.TotalNs += Q.DurationNs;
  if (Q.DurationNs > FlightRep.MaxNs)
    FlightRep.MaxNs = Q.DurationNs;
  ++FlightRep.Histogram[Bucket];
  // Slowest-N, kept sorted by descending duration. Cache hits are counted
  // above but never compete for a slowest slot — a hit's duration is the
  // memo lookup, not the query's real cost.
  std::vector<SolverQuerySample> &Slow = FlightRep.Slowest;
  if (!Q.CacheHit &&
      (Slow.size() < SlowestQueryCap || Q.DurationNs > Slow.back().DurationNs)) {
    auto It = Slow.begin();
    while (It != Slow.end() && It->DurationNs >= Q.DurationNs)
      ++It;
    Slow.insert(It, Q);
    if (Slow.size() > SlowestQueryCap)
      Slow.pop_back();
  }
}

void Registry::noteJournalActivity(uint64_t Records, uint64_t Dropped) {
  std::lock_guard<std::mutex> Lock(Mu);
  FlightRep.Valid = true;
  FlightRep.JournalRecords += Records;
  FlightRep.JournalDropped += Dropped;
}

SolverQueriesReport Registry::solverQueriesReport() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FlightRep;
}

void Registry::setAnalysisReport(AnalysisReport R) {
  std::lock_guard<std::mutex> Lock(Mu);
  AnalysisRep = std::move(R);
}

AnalysisReport Registry::analysisReport() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return AnalysisRep;
}

void Registry::setIncrReport(IncrReport R) {
  std::lock_guard<std::mutex> Lock(Mu);
  IncrRep = std::move(R);
}

IncrReport Registry::incrReport() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return IncrRep;
}

void Registry::setInterprocReport(InterprocReport R) {
  std::lock_guard<std::mutex> Lock(Mu);
  InterprocRep = std::move(R);
}

InterprocReport Registry::interprocReport() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return InterprocRep;
}

std::map<std::string, uint64_t> Registry::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters.clear();
  EntailSeen.clear();
  EntailSeenDropped = 0;
  Solver = SolverStats();
  CacheReport = QueryCacheReport();
  AnalysisRep = AnalysisReport();
  IncrRep = IncrReport();
  InterprocRep = InterprocReport();
  FlightRep = SolverQueriesReport();
}

namespace {

void addInto(SolverStats &Dst, const SolverStats &Src) {
  Dst.SatQueries += Src.SatQueries;
  Dst.EntailQueries += Src.EntailQueries;
  Dst.Branches += Src.Branches;
  Dst.TheoryChecks += Src.TheoryChecks;
  Dst.UnknownResults += Src.UnknownResults;
  Dst.EntailRepeats += Src.EntailRepeats;
}

} // namespace

ScopedSolverStatsReset::ScopedSolverStatsReset()
    : SavedProcess(Registry::get().Solver), SavedThread(threadSolverStats()) {
  Registry::get().Solver = SolverStats();
  threadSolverStats() = SolverStats();
}

SolverStats ScopedSolverStatsReset::accrued() const {
  return Registry::get().Solver;
}

ScopedSolverStatsReset::~ScopedSolverStatsReset() {
  addInto(Registry::get().Solver, SavedProcess);
  addInto(threadSolverStats(), SavedThread);
}
