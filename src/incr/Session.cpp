//===- incr/Session.cpp -----------------------------------------------------------===//

#include "incr/Session.h"

#include "solver/Flight.h"
#include "support/Trace.h"

using namespace gilr;
using namespace gilr::incr;

namespace {

/// Fingerprint of an entity that does not (currently) exist. A fixed
/// sentinel, so an obligation recorded while an entity was missing stays
/// valid as long as it remains missing and invalidates when it appears.
constexpr uint64_t MissingEntityFp = 0x6d69'7373'696e'67ull; // "missing".

} // namespace

Session::Session(const IncrConfig &Cfg, engine::VerifEnv &Env,
                 const creusot::PearliteSpecTable *Contracts)
    : Cfg(Cfg), Env(Env), Contracts(Contracts), Store(Cfg.StorePath) {
  ConfigFp = fpAutomation(Env.Auto, Env.Solv.MaxBranches);
  LintConfigFp = fpAnalysisConfig(Env.Lint, Env.Solv.MaxBranches);
  if (!Cfg.StorePath.empty()) {
    // Writable sessions compact the append-log on load (superseded records
    // and torn tails dropped); read-only ones must not touch the file.
    Stats.StoreLoaded = Store.load(/*AllowCompaction=*/!Cfg.ReadOnly);
    Stats.StoreTruncated = Store.truncated();
    Stats.Compactions = Store.compactions();
    if (trace::enabled() && Stats.Compactions)
      metrics::Registry::get().add("incr.compactions", Stats.Compactions);
  }
  if (Cfg.Backend) {
    Remote = Cfg.Backend;
  } else if (!Cfg.SharedCacheDir.empty()) {
    SharedDirConfig SC;
    SC.Dir = Cfg.SharedCacheDir;
    SC.SizeBudgetBytes = Cfg.SharedCacheBudgetBytes;
    SC.ReadOnly = Cfg.ReadOnly;
    OwnedRemote = std::make_unique<SharedDirBackend>(std::move(SC));
    Remote = OwnedRemote.get();
  }
}

bool Session::fetchShared(Side S, const std::string &Name, uint64_t SelfFp,
                          uint64_t CfgFp, StoredObligation &Out) {
  if (!Remote)
    return false;
  CacheKey K = obligationCacheKey(S, Name, SelfFp, CfgFp);
  // Pin regardless of the outcome: a concurrent GC must not evict the
  // record between this get and the run's own put of the same key.
  Remote->pin(K);
  std::string Blob;
  if (!Remote->get(K, Blob))
    return false;
  if (!decodeObligationRecord(Blob, Out))
    return false;
  // The key is derived from the record's identity; a blob whose decoded
  // identity disagrees (corrupt share) must not masquerade as a hit.
  return Out.S == S && Out.Name == Name && Out.SelfFp == SelfFp &&
         Out.ConfigFp == CfgFp;
}

void Session::publishShared(const StoredObligation &Ob) {
  if (!Remote || Cfg.ReadOnly)
    return;
  CacheKey K = obligationCacheKey(Ob.S, Ob.Name, Ob.SelfFp, Ob.ConfigFp);
  Remote->pin(K);
  Remote->put(K, encodeObligationRecord(Ob));
  ++Stats.SharedPuts;
  if (trace::enabled())
    metrics::Registry::get().add("incr.shared_puts");
}

uint64_t Session::currentFp(const DepKey &Key) {
  // Callers hold Mu (public callers go through lookup*/record*); the
  // test-facing direct call is single-threaded by contract.
  auto It = FpMemo.find(Key);
  if (It != FpMemo.end())
    return It->second;

  uint64_t Fp = MissingEntityFp;
  switch (Key.K) {
  case deps::Kind::Function:
    if (const rmir::Function *F = Env.Prog.lookup(Key.Name))
      Fp = fpFunction(*F);
    break;
  case deps::Kind::Spec:
    if (const gilsonite::Spec *S = Env.Specs.lookup(Key.Name))
      Fp = fpSpec(*S);
    break;
  case deps::Kind::Pred:
    if (const gilsonite::PredDecl *P = Env.Preds.lookup(Key.Name))
      Fp = fpPred(*P);
    break;
  case deps::Kind::Lemma:
    if (const std::variant<engine::FreezeLemma, engine::ExtractLemma> *L =
            Env.Lemmas.lookup(Key.Name))
      Fp = fpLemma(*L);
    break;
  case deps::Kind::Contract:
    if (Contracts)
      if (const creusot::PearliteSpec *C = Contracts->lookup(Key.Name))
        Fp = fpContract(*C);
    break;
  }
  FpMemo.emplace(Key, Fp);
  return Fp;
}

const EntitySig &Session::currentSig(const DepKey &Key) {
  // Callers hold Mu, like currentFp.
  auto It = SigMemo.find(Key);
  if (It != SigMemo.end())
    return It->second;

  EntitySig Sig;
  switch (Key.K) {
  case deps::Kind::Function:
    break; // RMIR bodies have no clause structure: whole-fp only.
  case deps::Kind::Spec:
    if (const gilsonite::Spec *S = Env.Specs.lookup(Key.Name))
      Sig = sigSpec(*S);
    break;
  case deps::Kind::Pred:
    if (const gilsonite::PredDecl *P = Env.Preds.lookup(Key.Name))
      Sig = sigPred(*P);
    break;
  case deps::Kind::Lemma:
    if (const std::variant<engine::FreezeLemma, engine::ExtractLemma> *L =
            Env.Lemmas.lookup(Key.Name))
      Sig = sigLemma(*L);
    break;
  case deps::Kind::Contract:
    if (Contracts)
      if (const creusot::PearliteSpec *C = Contracts->lookup(Key.Name))
        Sig = sigContract(*C);
    break;
  }
  return SigMemo.emplace(Key, std::move(Sig)).first->second;
}

Session::DepsVerdict Session::checkDeps(const StoredObligation &Ob,
                                        char FlightSide) {
  bool AnySalvage = false;
  std::vector<SalvageObligation> Queries;
  for (const StoredDep &D : Ob.Deps) {
    if (currentFp(DepKey{D.K, D.Name}) == D.Fp)
      continue;
    // Lint verdicts never salvage: their diagnostics quote spec text, so a
    // semantically neutral rewrite would still change the rendered output.
    if (!Cfg.SemanticSalvage || Ob.S == Side::Lint || !D.HasSig)
      return DepsVerdict::Invalid;
    const EntitySig &Cur = currentSig(DepKey{D.K, D.Name});
    // A proof is verified *against* its own spec and may also consume it at
    // recursive call sites; diffForSalvage then requires both directions.
    bool SelfDep = D.K == deps::Kind::Spec && D.Name == Ob.Name;
    SalvageVerdict V = diffForSalvage(D.Sig, Cur, SelfDep, Queries);
    if (V == SalvageVerdict::Invalid)
      return DepsVerdict::Invalid;
    AnySalvage = true;
  }
  if (!AnySalvage)
    return DepsVerdict::Clean;
  if (Queries.empty())
    return DepsVerdict::Salvaged;
  // Discharge the implications through the solver chain, attributed to
  // this obligation in the flight journal. Queries go through the memo
  // layer like any other, so a repeated edit re-salvages from cache.
  flight::ObligationScope Scope(Ob.Name, FlightSide);
  for (const SalvageObligation &Q : Queries) {
    ++Stats.SalvageQueries;
    if (trace::enabled())
      metrics::Registry::get().add("incr.salvage_queries");
    if (!Env.Solv.entails(Q.Ctx, Q.Goal))
      return DepsVerdict::Invalid;
  }
  return DepsVerdict::Implied;
}

std::vector<StoredDep> Session::snapshotDeps(const std::set<DepKey> &Deps) {
  std::vector<StoredDep> Out;
  Out.reserve(Deps.size());
  for (const DepKey &K : Deps) {
    StoredDep D;
    D.K = K.K;
    D.Name = K.Name;
    D.Fp = currentFp(K);
    const EntitySig &Sig = currentSig(K);
    if (Sig.valid()) {
      D.HasSig = true;
      D.Sig = Sig;
    }
    Out.push_back(std::move(D));
  }
  return Out;
}

void Session::refreshRecord(const StoredObligation &Ob, uint64_t SelfFp,
                            const std::set<DepKey> &DepKeys) {
  if (Cfg.ReadOnly)
    return;
  StoredObligation Fresh;
  Fresh.S = Ob.S;
  Fresh.Name = Ob.Name;
  Fresh.SelfFp = SelfFp;
  Fresh.ConfigFp = Ob.ConfigFp;
  Fresh.Deps = snapshotDeps(DepKeys);
  Fresh.Blob = Ob.Blob;
  publishShared(Fresh);
  Store.put(std::move(Fresh)); // Replaces Ob: the caller's pointer dies.
}

namespace {

/// Bumps the salvage counters for a non-Clean replay and reports to the
/// metrics registry.
void noteSalvage(IncrRunStats &Stats, bool ViaImplication) {
  if (ViaImplication) {
    ++Stats.Implied;
    if (trace::enabled())
      metrics::Registry::get().add("incr.implied");
  } else {
    ++Stats.Salvaged;
    if (trace::enabled())
      metrics::Registry::get().add("incr.salvaged");
  }
}

} // namespace

bool Session::lookupUnsafe(const std::string &Func,
                           engine::VerifyReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t SelfFp = currentFp(DepKey{deps::Kind::Function, Func});
  const StoredObligation *Ob = Store.lookup(Side::Unsafe, Func);
  bool LocalInvalid = false;
  if (Ob && (Ob->ConfigFp != ConfigFp || Ob->SelfFp != SelfFp)) {
    LocalInvalid = true;
    Ob = nullptr;
  }
  // Local miss: consult the shared backend under the *current*
  // fingerprints. Its record, if any, was produced for byte-identical
  // inputs; the dependency validation below still applies.
  StoredObligation Shared;
  bool FromShared = false;
  if (!Ob && fetchShared(Side::Unsafe, Func, SelfFp, ConfigFp, Shared)) {
    Ob = &Shared;
    FromShared = true;
  }
  if (!Ob) {
    if (LocalInvalid)
      ++Stats.Invalidated;
    return false;
  }
  DepsVerdict DV = checkDeps(*Ob, 'U');
  if (DV == DepsVerdict::Invalid) {
    ++Stats.Invalidated;
    return false;
  }
  if (!decodeVerifyReport(Ob->Blob, Out))
    return false; // Malformed blob: treat as a miss, re-verify.
  Out.Cached = true;
  ++Stats.CachedUnsafe;
  if (trace::enabled())
    metrics::Registry::get().add("incr.cached");
  if (FromShared) {
    ++Stats.SharedHits;
    if (trace::enabled())
      metrics::Registry::get().add("incr.shared_hits");
  }
  // The stored deps stay current (nothing changed), so the graph keeps
  // answering dependentsOf precisely on warm runs too.
  std::set<DepKey> Deps;
  for (const StoredDep &D : Ob->Deps)
    Deps.insert(DepKey{D.K, D.Name});
  if (DV != DepsVerdict::Clean) {
    noteSalvage(Stats, DV == DepsVerdict::Implied);
    refreshRecord(*Ob, SelfFp, Deps); // Ob dangles from here on.
  } else if (FromShared && !Cfg.ReadOnly) {
    Store.put(StoredObligation(Shared)); // Warm the local store too.
  }
  Graph.record(ObligationId{Side::Unsafe, Func}, std::move(Deps));
  return true;
}

void Session::recordUnsafe(const std::string &Func,
                           const std::set<DepKey> &Deps,
                           const engine::VerifyReport &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.VerifiedUnsafe;
  if (trace::enabled())
    metrics::Registry::get().add("incr.verified");
  Graph.record(ObligationId{Side::Unsafe, Func}, std::set<DepKey>(Deps));
  if (R.TimedOut)
    return; // Budget-degraded results are transient; never cache them.
  StoredObligation Ob;
  Ob.S = Side::Unsafe;
  Ob.Name = Func;
  Ob.SelfFp = currentFp(DepKey{deps::Kind::Function, Func});
  Ob.ConfigFp = ConfigFp;
  Ob.Deps = snapshotDeps(Deps);
  Ob.Blob = encodeVerifyReport(R);
  publishShared(Ob);
  Store.put(std::move(Ob));
}

bool Session::lookupSafe(const creusot::SafeFn &F, creusot::SafeReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t SelfFp = fpSafeFn(F);
  const StoredObligation *Ob = Store.lookup(Side::Safe, F.Name);
  bool LocalInvalid = false;
  if (Ob && (Ob->ConfigFp != ConfigFp || Ob->SelfFp != SelfFp)) {
    LocalInvalid = true;
    Ob = nullptr;
  }
  StoredObligation Shared;
  bool FromShared = false;
  if (!Ob && fetchShared(Side::Safe, F.Name, SelfFp, ConfigFp, Shared)) {
    Ob = &Shared;
    FromShared = true;
  }
  if (!Ob) {
    if (LocalInvalid)
      ++Stats.Invalidated;
    return false;
  }
  DepsVerdict DV = checkDeps(*Ob, 'S');
  if (DV == DepsVerdict::Invalid) {
    ++Stats.Invalidated;
    return false;
  }
  if (!decodeSafeReport(Ob->Blob, Out))
    return false;
  Out.Cached = true;
  ++Stats.CachedSafe;
  if (trace::enabled())
    metrics::Registry::get().add("incr.cached");
  if (FromShared) {
    ++Stats.SharedHits;
    if (trace::enabled())
      metrics::Registry::get().add("incr.shared_hits");
  }
  std::set<DepKey> Deps;
  for (const StoredDep &D : Ob->Deps)
    Deps.insert(DepKey{D.K, D.Name});
  if (DV != DepsVerdict::Clean) {
    noteSalvage(Stats, DV == DepsVerdict::Implied);
    refreshRecord(*Ob, SelfFp, Deps); // Ob dangles from here on.
  } else if (FromShared && !Cfg.ReadOnly) {
    Store.put(StoredObligation(Shared));
  }
  Graph.record(ObligationId{Side::Safe, F.Name}, std::move(Deps));
  return true;
}

void Session::recordSafe(const creusot::SafeFn &F,
                         const std::set<DepKey> &Deps,
                         const creusot::SafeReport &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.VerifiedSafe;
  if (trace::enabled())
    metrics::Registry::get().add("incr.verified");
  Graph.record(ObligationId{Side::Safe, F.Name}, std::set<DepKey>(Deps));
  if (R.TimedOut)
    return;
  StoredObligation Ob;
  Ob.S = Side::Safe;
  Ob.Name = F.Name;
  Ob.SelfFp = fpSafeFn(F);
  Ob.ConfigFp = ConfigFp;
  Ob.Deps = snapshotDeps(Deps);
  Ob.Blob = encodeSafeReport(R);
  publishShared(Ob);
  Store.put(std::move(Ob));
}

bool Session::lookupLint(const std::string &Func,
                         analysis::EntityVerdict &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t SelfFp = currentFp(DepKey{deps::Kind::Function, Func});
  const StoredObligation *Ob = Store.lookup(Side::Lint, Func);
  bool LocalInvalid = false;
  if (Ob && (Ob->ConfigFp != LintConfigFp || Ob->SelfFp != SelfFp)) {
    LocalInvalid = true;
    Ob = nullptr;
  }
  StoredObligation Shared;
  bool FromShared = false;
  if (!Ob && fetchShared(Side::Lint, Func, SelfFp, LintConfigFp, Shared)) {
    Ob = &Shared;
    FromShared = true;
  }
  if (!Ob) {
    if (LocalInvalid)
      ++Stats.Invalidated;
    return false;
  }
  // Lint verdicts never salvage (diagnostics quote spec text), so only a
  // Clean dependency set replays.
  if (checkDeps(*Ob, 'L') != DepsVerdict::Clean) {
    ++Stats.Invalidated;
    return false;
  }
  if (!decodeLintVerdict(Ob->Blob, Out))
    return false; // Malformed blob: treat as a miss, re-lint.
  Out.Cached = true;
  ++Stats.CachedLint;
  if (trace::enabled())
    metrics::Registry::get().add("incr.lint_cached");
  if (FromShared) {
    ++Stats.SharedHits;
    if (trace::enabled())
      metrics::Registry::get().add("incr.shared_hits");
    if (!Cfg.ReadOnly)
      Store.put(StoredObligation(Shared));
  }
  std::set<DepKey> Deps;
  for (const StoredDep &D : Ob->Deps)
    Deps.insert(DepKey{D.K, D.Name});
  Graph.record(ObligationId{Side::Lint, Func}, std::move(Deps));
  return true;
}

void Session::recordLint(const std::string &Func,
                         const std::set<DepKey> &Deps,
                         const analysis::EntityVerdict &V) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.AnalyzedLint;
  if (trace::enabled())
    metrics::Registry::get().add("incr.lint_analyzed");
  Graph.record(ObligationId{Side::Lint, Func}, std::set<DepKey>(Deps));
  StoredObligation Ob;
  Ob.S = Side::Lint;
  Ob.Name = Func;
  Ob.SelfFp = currentFp(DepKey{deps::Kind::Function, Func});
  Ob.ConfigFp = LintConfigFp;
  Ob.Deps = snapshotDeps(Deps);
  Ob.Blob = encodeLintVerdict(V);
  publishShared(Ob);
  Store.put(std::move(Ob));
}

void Session::noteTriagedStatic() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.TriagedStatic;
  if (trace::enabled())
    metrics::Registry::get().add("incr.triaged_static");
}

std::vector<SavedQueryVerdict> Session::solverEntriesToLoad() const {
  if (!Cfg.LoadSolverCache)
    return {};
  return Store.solverEntries();
}

void Session::saveSolverEntries(std::vector<SavedQueryVerdict> Entries) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Cfg.SaveSolverCache)
    return;
  Store.setSolverEntries(std::move(Entries));
}

bool Session::flush() {
  std::lock_guard<std::mutex> Lock(Mu);
  bool Ok = true;
  // Only the session-owned backend is flushed (running its size-budget
  // GC); an externally owned Cfg.Backend is the host's to maintain.
  if (OwnedRemote && !Cfg.ReadOnly)
    Ok = OwnedRemote->flush();
  if (Cfg.ReadOnly || Cfg.StorePath.empty())
    return Ok;
  return Store.flush() && Ok;
}
