//===- incr/Session.cpp -----------------------------------------------------------===//

#include "incr/Session.h"

#include "solver/Flight.h"
#include "solver/Journal.h"
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
    : Cfg(Cfg), Env(Env), Contracts(Contracts) {
  ConfigFp = fpAutomation(Env.Auto, Env.Solv.MaxBranches);
  LintConfigFp = fpAnalysisConfig(Env.Lint, Env.Solv.MaxBranches);
  if (Cfg.Backend) {
    Store = Cfg.Backend;
  } else if (!Cfg.StorePath.empty()) {
    SharedDirConfig SC;
    SC.Dir = Cfg.StorePath;
    OwnedStore = std::make_unique<SharedDirBackend>(std::move(SC));
    Store = OwnedStore.get();
  }
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

void Session::resolveFormulas(EntitySig &Sig) {
  for (ClauseSig &C : Sig.Clauses) {
    if (!C.Pure || C.Formula || C.Text.empty())
      continue;
    auto [It, Fresh] = FormulaMemo.try_emplace(C.Text);
    if (Fresh)
      It->second = journal::exprFromJournal(C.Text);
    C.Formula = It->second;
  }
}

Session::DepsVerdict Session::checkDeps(StoredObligation &Ob,
                                        char FlightSide) {
  bool AnySalvage = false;
  std::vector<SalvageObligation> Queries;
  for (StoredDep &D : Ob.Deps) {
    if (currentFp(DepKey{D.K, D.Name}) == D.Fp)
      continue;
    // Lint verdicts never salvage: their diagnostics quote spec text, so a
    // semantically neutral rewrite would still change the rendered output.
    if (!Cfg.SemanticSalvage || Ob.S == Side::Lint || !D.HasSig)
      return DepsVerdict::Invalid;
    const EntitySig &Cur = currentSig(DepKey{D.K, D.Name});
    resolveFormulas(D.Sig);
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
  // Discharge the implications through the run's solver, attributed to
  // this obligation in the flight journal. Queries consult the memo like
  // any other, so a repeated edit re-salvages from cache.
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

uint64_t Session::lintSelfFp(const std::string &Func) {
  Hasher H;
  H.u64(currentFp(DepKey{deps::Kind::Function, Func}));
  H.u64(currentFp(DepKey{deps::Kind::Spec, Func}));
  return H.result();
}

namespace {

/// Bumps \p Counter and its named metrics-registry twin.
void bump(uint64_t &Counter, const char *Metric) {
  ++Counter;
  if (trace::enabled())
    metrics::Registry::get().add(Metric);
}

} // namespace

bool Session::lookup(Side S, const std::string &Name, uint64_t SelfFp,
                     const std::function<bool(const std::string &)> &Decode) {
  if (!Store)
    return false;
  uint64_t CfgFp = S == Side::Lint ? LintConfigFp : ConfigFp;
  CacheKey K = obligationCacheKey(S, Name, SelfFp, CfgFp);
  std::string Blob;
  StoredObligation Ob;
  // The key is derived from the record's identity; a blob whose decoded
  // identity disagrees (a corrupt record) must not masquerade as a hit.
  if (!Store->get(K, Blob) || !decodeObligationRecord(Blob, Ob) ||
      Ob.S != S || Ob.Name != Name || Ob.SelfFp != SelfFp ||
      Ob.ConfigFp != CfgFp)
    return false;
  // The caller's decoder touches no session state, so it runs before Mu
  // is taken; the callers overwrite its output on a miss.
  if (!Decode(Ob.Blob))
    return false; // Malformed blob: treat as a miss, re-verify.
  const char FlightSide = S == Side::Unsafe ? 'U' : S == Side::Safe ? 'S' : 'L';
  std::optional<PendingPut> Refresh;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    DepsVerdict DV = checkDeps(Ob, FlightSide);
    if (DV == DepsVerdict::Invalid) {
      ++Stats.Invalidated;
      return false;
    }
    if (S == Side::Lint)
      bump(Stats.CachedLint, "incr.lint_cached");
    else
      bump(S == Side::Unsafe ? Stats.CachedUnsafe : Stats.CachedSafe,
           "incr.cached");
    // The stored deps stay current (nothing changed), so the graph holds
    // every obligation's deps on warm runs too.
    std::set<DepKey> Deps;
    for (const StoredDep &D : Ob.Deps)
      Deps.insert(DepKey{D.K, D.Name});
    if (DV != DepsVerdict::Clean) {
      if (DV == DepsVerdict::Implied)
        bump(Stats.Implied, "incr.implied");
      else
        bump(Stats.Salvaged, "incr.salvaged");
      Refresh = encodeRecord(S, Name, SelfFp, Deps, std::move(Ob.Blob));
    }
    Graph.record(ObligationId{S, Name}, std::move(Deps));
  }
  write(Refresh);
  return true;
}

std::optional<Session::PendingPut>
Session::encodeRecord(Side S, const std::string &Name, uint64_t SelfFp,
                      const std::set<DepKey> &Deps, std::string Blob) {
  if (!Store)
    return std::nullopt;
  StoredObligation Ob;
  Ob.S = S;
  Ob.Name = Name;
  Ob.SelfFp = SelfFp;
  Ob.ConfigFp = S == Side::Lint ? LintConfigFp : ConfigFp;
  Ob.Deps = snapshotDeps(Deps);
  Ob.Blob = std::move(Blob);
  bump(Stats.SharedPuts, "incr.shared_puts");
  return PendingPut{obligationCacheKey(S, Name, SelfFp, Ob.ConfigFp),
                    encodeObligationRecord(Ob)};
}

void Session::write(const std::optional<PendingPut> &P) {
  if (!P)
    return;
  Store->put(P->K, P->Record);
}

bool Session::lookupUnsafe(const std::string &Func,
                           engine::VerifyReport &Out) {
  uint64_t SelfFp;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    SelfFp = currentFp(DepKey{deps::Kind::Function, Func});
  }
  if (!lookup(Side::Unsafe, Func, SelfFp, [&](const std::string &Blob) {
        return decodeVerifyReport(Blob, Out);
      }))
    return false;
  Out.Cached = true;
  return true;
}

void Session::recordUnsafe(const std::string &Func,
                           const std::set<DepKey> &Deps,
                           const engine::VerifyReport &R) {
  std::optional<PendingPut> P;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    bump(Stats.VerifiedUnsafe, "incr.verified");
    Graph.record(ObligationId{Side::Unsafe, Func}, std::set<DepKey>(Deps));
    if (R.TimedOut)
      return; // Budget-degraded results are transient; never cache them.
    P = encodeRecord(Side::Unsafe, Func,
                     currentFp(DepKey{deps::Kind::Function, Func}), Deps,
                     encodeVerifyReport(R));
  }
  write(P);
}

bool Session::lookupSafe(const creusot::SafeFn &F, creusot::SafeReport &Out) {
  if (!lookup(Side::Safe, F.Name, fpSafeFn(F), [&](const std::string &Blob) {
        return decodeSafeReport(Blob, Out);
      }))
    return false;
  Out.Cached = true;
  return true;
}

void Session::recordSafe(const creusot::SafeFn &F,
                         const std::set<DepKey> &Deps,
                         const creusot::SafeReport &R) {
  std::optional<PendingPut> P;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    bump(Stats.VerifiedSafe, "incr.verified");
    Graph.record(ObligationId{Side::Safe, F.Name}, std::set<DepKey>(Deps));
    if (R.TimedOut)
      return;
    P = encodeRecord(Side::Safe, F.Name, fpSafeFn(F), Deps,
                     encodeSafeReport(R));
  }
  write(P);
}

bool Session::lookupLint(const std::string &Func,
                         analysis::EntityVerdict &Out) {
  uint64_t SelfFp;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    SelfFp = lintSelfFp(Func);
  }
  if (!lookup(Side::Lint, Func, SelfFp, [&](const std::string &Blob) {
        return decodeLintVerdict(Blob, Out);
      }))
    return false;
  Out.Cached = true;
  return true;
}

void Session::recordLint(const std::string &Func,
                         const std::set<DepKey> &Deps,
                         const analysis::EntityVerdict &V) {
  std::optional<PendingPut> P;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    bump(Stats.AnalyzedLint, "incr.lint_analyzed");
    Graph.record(ObligationId{Side::Lint, Func}, std::set<DepKey>(Deps));
    P = encodeRecord(Side::Lint, Func, lintSelfFp(Func), Deps,
                     encodeLintVerdict(V));
  }
  write(P);
}

std::vector<SavedQueryVerdict> Session::solverEntriesToLoad() const {
  std::vector<SavedQueryVerdict> Entries;
  std::string Blob;
  if (!Store)
    return Entries;
  if (!Store->get(SolverBlockCacheKey, Blob) ||
      !decodeSolverBlock(Blob, Entries))
    Entries.clear(); // A corrupt block is a cold solver cache.
  return Entries;
}

void Session::saveSolverEntries(std::vector<SavedQueryVerdict> Entries) {
  std::lock_guard<std::mutex> Lock(Mu);
  SolverBlock = encodeSolverBlock(std::move(Entries));
}

bool Session::flush() {
  std::optional<std::string> Block;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Block.swap(SolverBlock);
  }
  if (!Store || !Block)
    return true;
  return Store->put(SolverBlockCacheKey, *Block);
}
