//===- solver/Solver.cpp -----------------------------------------------------===//

#include "solver/Solver.h"

#include "solver/Congruence.h"
#include "solver/Flight.h"
#include "solver/LinArith.h"
#include "solver/Simplify.h"
#include "support/Budget.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

using namespace gilr;

namespace {

/// The process-wide counters (shared by every Solver instance).
SolverStats &gstats() { return metrics::solverStats(); }

/// Bumps a counter in both the process-wide and the thread-local stats; the
/// latter attributes the work to the proof job on this worker thread.
void bump(RelaxedCounter SolverStats::*F) {
  ++(gstats().*F);
  ++(metrics::threadSolverStats().*F);
}

/// The process-wide query memo (installed by the scheduler; see
/// sched/QueryCache.h). Relaxed is fine: installation happens-before the
/// worker threads start via the pool's synchronisation.
std::atomic<QueryMemo *> ActiveMemo{nullptr};

/// splitmix64 finaliser: decorrelates the check hash from the primary one.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// The memo identity of one assertion: its intern CanonId (equal formulas
/// share one per run), or its structural hash with the top bit set when the
/// node is foreign (interning disabled for benchmarking).
uint64_t assertionFpId(const Expr &E) {
  if (E->CanonId != 0)
    return E->CanonId;
  return static_cast<uint64_t>(E->hash()) | (uint64_t(1) << 63);
}

/// Order-insensitive structural fingerprint of an entails query. Used to
/// count syntactically-identical repeat queries — the hit rate a syntactic
/// memo would achieve.
uint64_t entailFingerprint(const std::vector<Expr> &Ctx, const Expr &Goal) {
  std::vector<uint64_t> Ids;
  Ids.reserve(Ctx.size());
  for (const Expr &A : Ctx)
    Ids.push_back(assertionFpId(A));
  std::sort(Ids.begin(), Ids.end()); // Context order is irrelevant.
  std::size_t Seed = 0x5eed;
  for (uint64_t Id : Ids)
    hashCombine(Seed, static_cast<std::size_t>(Id));
  hashCombine(Seed, Ctx.size());
  hashCombine(Seed, static_cast<std::size_t>(assertionFpId(Goal)));
  return static_cast<uint64_t>(Seed);
}

} // namespace

void gilr::satFingerprintFromIds(const std::vector<uint64_t> &SortedIds,
                                 unsigned MaxBranches, uint64_t &Fp,
                                 uint64_t &Fp2) {
  std::size_t Seed = 0x5a7f;
  uint64_t Seed2 = 0xa5f0'0d5eull;
  for (uint64_t Id : SortedIds) {
    hashCombine(Seed, static_cast<std::size_t>(Id));
    Seed2 = mix64(Seed2 ^ Id);
  }
  hashCombine(Seed, SortedIds.size());
  hashCombine(Seed, MaxBranches);
  Fp = static_cast<uint64_t>(Seed);
  Fp2 = mix64(Seed2 ^ (static_cast<uint64_t>(SortedIds.size()) << 32) ^
              MaxBranches);
}

void gilr::satQueryFingerprint(const std::vector<Expr> &Work,
                               unsigned MaxBranches, uint64_t &Fp,
                               uint64_t &Fp2) {
  std::vector<uint64_t> Ids;
  Ids.reserve(Work.size());
  for (const Expr &A : Work)
    Ids.push_back(assertionFpId(A));
  std::sort(Ids.begin(), Ids.end()); // Assertion order is irrelevant.
  satFingerprintFromIds(Ids, MaxBranches, Fp, Fp2);
}

void gilr::stableQueryFingerprint(const std::vector<Expr> &Work,
                                  unsigned MaxBranches, uint64_t &Fp,
                                  uint64_t &Fp2) {
  std::vector<uint64_t> Ids;
  Ids.reserve(Work.size());
  for (const Expr &A : Work)
    Ids.push_back(exprStableHash(A));
  std::sort(Ids.begin(), Ids.end()); // Assertion order is irrelevant.
  satFingerprintFromIds(Ids, MaxBranches, Fp, Fp2);
}

QueryMemo *gilr::setQueryMemo(QueryMemo *M) {
  return ActiveMemo.exchange(M);
}

QueryMemo *gilr::queryMemo() {
  return ActiveMemo.load(std::memory_order_relaxed);
}

void ChainQuery::stableFingerprint(uint64_t &Fp, uint64_t &Fp2) const {
  if (!StableFpReady) {
    stableQueryFingerprint(Work, MaxBranches, StableFp, StableFp2);
    StableFpReady = true;
  }
  Fp = StableFp;
  Fp2 = StableFp2;
}

namespace gilr {

/// The innermost chain layer: the DPLL(T) search itself, with the latency
/// histogram sample the pre-chain code recorded (full searches only, while
/// tracing is on).
class CoreSolverLayer final : public SolverLayer {
public:
  explicit CoreSolverLayer(Solver &S) : S(S) {}

  ChainOutcome solve(const ChainQuery &Q) override {
    uint64_t T0 = trace::enabled() ? trace::nowNs() : 0;
    SolverStats TBefore = metrics::threadSolverStats();
    unsigned Budget = Q.MaxBranches;
    std::vector<Expr> Work = Q.Work;
    ChainOutcome O;
    O.R = S.solveRec(std::move(Work), {}, 0, Budget);
    if (O.R == SatResult::Unknown) {
      bump(&SolverStats::UnknownResults);
      trace::instant("solver", "unknown");
    }
    SolverStats Delta = metrics::threadSolverStats() - TBefore;
    O.Branches = Delta.Branches;
    O.TheoryChecks = Delta.TheoryChecks;
    if (T0)
      metrics::Registry::get().recordSolverLatencyNs(trace::nowNs() - T0);
    return O;
  }

private:
  Solver &S;
};

} // namespace gilr

namespace {

/// The memo layer: consults the process-wide QueryMemo (the scheduler's
/// QueryCache) before delegating to the core search. Only Sat/Unsat are
/// ever stored, so a hit returns exactly what the search would compute; the
/// memoised work delta is replayed into the thread-local job stats to keep
/// per-job reports independent of cache state.
class MemoSolverLayer final : public SolverLayer {
public:
  MemoSolverLayer(QueryMemo *Memo, SolverLayer &Next)
      : Memo(Memo), Next(Next) {}

  ChainOutcome solve(const ChainQuery &Q) override {
    if (!Memo)
      return Next.solve(Q);
    uint64_t Fp = 0, Fp2 = 0;
    if (Memo->wantsStableKeys())
      Q.stableFingerprint(Fp, Fp2);
    else
      satQueryFingerprint(Q.Work, Q.MaxBranches, Fp, Fp2);
    QueryVerdict V;
    if (Memo->lookup(Fp, Fp2, V)) {
      SolverStats &TS = metrics::threadSolverStats();
      TS.Branches += V.Branches;
      TS.TheoryChecks += V.TheoryChecks;
      trace::instant("solver", "cache-hit");
      ChainOutcome O;
      O.R = V.R;
      O.CacheHit = true;
      O.Branches = V.Branches;
      O.TheoryChecks = V.TheoryChecks;
      return O;
    }
    ChainOutcome O = Next.solve(Q);
    if (O.R != SatResult::Unknown)
      Memo->insert(Fp, Fp2, QueryVerdict{O.R, O.Branches, O.TheoryChecks});
    return O;
  }

private:
  QueryMemo *Memo;
  SolverLayer &Next;
};

} // namespace

//===----------------------------------------------------------------------===//
// Query entry points
//===----------------------------------------------------------------------===//

SatResult Solver::checkSat(const std::vector<Expr> &Assertions) {
  bump(&SolverStats::SatQueries);
  GILR_TRACE_SCOPE("solver", "checkSat");
  std::vector<Expr> Work;
  Work.reserve(Assertions.size());
  for (const Expr &A : Assertions)
    Work.push_back(simplify(A));

  ChainQuery Q{Work, MaxBranches};
  CoreSolverLayer Core(*this);
  MemoSolverLayer Memo(queryMemo(), Core);
  // The flight recorder stacks its timing/journal decorators above the memo
  // when enabled; otherwise Top is the memo layer and the only extra cost
  // of the chain is one virtual dispatch.
  flight::TimingSolver Timing(Memo);
  flight::QueryJournalSolver Journal(Timing);
  SolverLayer *Top = &Memo;
  if (flight::timingEnabled())
    Top = flight::journalEnabled() ? static_cast<SolverLayer *>(&Journal)
                                   : &Timing;
  return Top->solve(Q).R;
}

bool Solver::entails(const std::vector<Expr> &Ctx, const Expr &Goal) {
  bump(&SolverStats::EntailQueries);
  // Count would-be memo hits (the fingerprint set allocates, so only while
  // telemetry is collecting).
  if (trace::enabled() &&
      metrics::Registry::get().noteEntailFingerprint(
          entailFingerprint(Ctx, Goal)))
    trace::instant("solver", "entails-repeat");
  GILR_TRACE_SCOPE("solver", "entails");
  Expr G = simplify(Goal);
  if (isTrueLit(G))
    return true;
  std::vector<Expr> Assertions = Ctx;
  Assertions.push_back(negate(G));
  return checkSat(Assertions) == SatResult::Unsat;
}

bool Solver::entailsAll(const std::vector<Expr> &Ctx,
                        const std::vector<Expr> &Goals) {
  for (const Expr &G : Goals)
    if (!entails(Ctx, G))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// DPLL-style boolean search
//===----------------------------------------------------------------------===//

static bool isBoolStructural(const Expr &E) {
  switch (E->Kind) {
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
  case ExprKind::Not:
  case ExprKind::BoolLit:
  case ExprKind::Lt:
  case ExprKind::Le:
    return true;
  case ExprKind::Ite:
    // An Ite is a formula only when its branches are formulas; integer
    // Ites (e.g. discriminant reads) are terms.
    return E->NodeSort == Sort::Bool;
  default:
    return false;
  }
}

static bool isBoolSorted(const Expr &E) {
  return E->NodeSort == Sort::Bool || isBoolStructural(E) ||
         E->Kind == ExprKind::IsSome || E->Kind == ExprKind::LftIncl;
}

SatResult Solver::solveRec(std::vector<Expr> Work, std::vector<Literal> Lits,
                           unsigned Depth, unsigned &Budget) {
  if (Budget == 0 || Depth > 256)
    return SatResult::Unknown;
  // The job budget (armed by the scheduler) degrades to Unknown — which
  // fails entailments, the sound direction — instead of stalling a worker.
  if (budget::exceeded())
    return SatResult::Unknown;

  while (!Work.empty()) {
    Expr F = Work.back();
    Work.pop_back();
    switch (F->Kind) {
    case ExprKind::BoolLit:
      if (!F->BoolVal)
        return SatResult::Unsat;
      continue;
    case ExprKind::And:
      for (const Expr &Kid : F->Kids)
        Work.push_back(Kid);
      continue;
    case ExprKind::Or: {
      bool AnyUnknown = false;
      for (const Expr &Kid : F->Kids) {
        if (Budget == 0)
          return SatResult::Unknown;
        --Budget;
        bump(&SolverStats::Branches);
        std::vector<Expr> BranchWork = Work;
        BranchWork.push_back(Kid);
        SatResult R = solveRec(std::move(BranchWork), Lits, Depth + 1, Budget);
        if (R == SatResult::Sat)
          return SatResult::Sat;
        if (R == SatResult::Unknown)
          AnyUnknown = true;
      }
      return AnyUnknown ? SatResult::Unknown : SatResult::Unsat;
    }
    case ExprKind::Not: {
      const Expr &Inner = F->Kids[0];
      if (isBoolStructural(Inner)) {
        Work.push_back(negate(Inner));
        continue;
      }
      // A negated iff splits: not (a <-> b) = (a /\ not b) \/ (not a /\ b).
      if (Inner->Kind == ExprKind::Eq &&
          (isBoolSorted(Inner->Kids[0]) || isBoolSorted(Inner->Kids[1]))) {
        Work.push_back(
            mkOr(mkAnd(Inner->Kids[0], negate(Inner->Kids[1])),
                 mkAnd(negate(Inner->Kids[0]), Inner->Kids[1])));
        continue;
      }
      Lits.push_back({Inner, false});
      continue;
    }
    case ExprKind::Implies:
      Work.push_back(mkOr(negate(F->Kids[0]), F->Kids[1]));
      continue;
    case ExprKind::Ite:
      Work.push_back(mkOr(mkAnd(F->Kids[0], F->Kids[1]),
                          mkAnd(negate(F->Kids[0]), F->Kids[2])));
      continue;
    case ExprKind::Eq: {
      // Iff over boolean operands: split.
      if (isBoolSorted(F->Kids[0]) || isBoolSorted(F->Kids[1])) {
        Work.push_back(mkOr(mkAnd(F->Kids[0], F->Kids[1]),
                            mkAnd(negate(F->Kids[0]), negate(F->Kids[1]))));
        continue;
      }
      Lits.push_back({F, true});
      continue;
    }
    default:
      Lits.push_back({F, true});
      continue;
    }
  }

  // Ite remaining in term positions: split on its condition.
  for (const Literal &Lit : Lits) {
    Expr Cond = findIteCondition(Lit.first);
    if (!Cond)
      continue;
    for (bool Positive : {true, false}) {
      if (Budget == 0)
        return SatResult::Unknown;
      --Budget;
      bump(&SolverStats::Branches);
      std::vector<Expr> BranchWork;
      BranchWork.push_back(Positive ? Cond : negate(Cond));
      std::vector<Literal> BranchLits;
      BranchLits.reserve(Lits.size());
      for (const Literal &L : Lits)
        BranchLits.push_back({resolveIte(L.first, Cond, Positive), L.second});
      SatResult R =
          solveRec(std::move(BranchWork), std::move(BranchLits), Depth + 1,
                   Budget);
      if (R == SatResult::Sat)
        return SatResult::Sat;
      if (R == SatResult::Unknown)
        return SatResult::Unknown;
    }
    return SatResult::Unsat;
  }

  return theoryCheck(Lits, Budget);
}

//===----------------------------------------------------------------------===//
// Theory layer
//===----------------------------------------------------------------------===//

static bool looksArith(const Expr &E) {
  switch (E->Kind) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Neg:
  case ExprKind::SeqLen:
    return true;
  default:
    return E->NodeSort == Sort::Int || E->NodeSort == Sort::Real;
  }
}

SatResult Solver::theoryCheck(const std::vector<Literal> &Lits,
                              unsigned &Budget) {
  // Split arithmetic disequalities into strict inequalities so that the
  // linear backend can refute them.
  for (std::size_t I = 0, E = Lits.size(); I != E; ++I) {
    const auto &[Atom, Positive] = Lits[I];
    if (Positive || Atom->Kind != ExprKind::Eq)
      continue;
    if (!looksArith(Atom->Kids[0]) || !looksArith(Atom->Kids[1]))
      continue;
    bool AnyUnknown = false;
    for (bool Less : {true, false}) {
      if (Budget == 0)
        return SatResult::Unknown;
      --Budget;
      bump(&SolverStats::Branches);
      std::vector<Literal> BranchLits = Lits;
      BranchLits[I] = {Less ? mkLt(Atom->Kids[0], Atom->Kids[1])
                            : mkLt(Atom->Kids[1], Atom->Kids[0]),
                       true};
      SatResult R = theoryCheck(BranchLits, Budget);
      if (R == SatResult::Sat)
        return SatResult::Sat;
      if (R == SatResult::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? SatResult::Unknown : SatResult::Unsat;
  }
  return baseTheoryCheck(Lits);
}

SatResult Solver::baseTheoryCheck(const std::vector<Literal> &LitsIn) {
  bump(&SolverStats::TheoryChecks);

  // 1-2. Option axioms for IsSome literals, then sequence facts.
  std::vector<Literal> Lits;
  Lits.reserve(LitsIn.size());
  {
    GILR_TRACE_SCOPE("solver", "theory-option-seq");
    for (const auto &[Atom, Positive] : LitsIn) {
      if (Atom->Kind == ExprKind::IsSome) {
        Expr EqF = Positive
                       ? mkEq(Atom->Kids[0], mkSome(mkUnwrap(Atom->Kids[0])))
                       : mkEq(Atom->Kids[0], mkNone());
        if (isFalseLit(EqF))
          return SatResult::Unsat;
        if (!isTrueLit(EqF))
          Lits.push_back({EqF, true});
        continue;
      }
      Lits.push_back({Atom, Positive});
    }

    SeqFacts Seq = deriveSeqFacts(Lits);
    if (Seq.Conflict)
      return SatResult::Unsat;
    for (const Literal &D : Seq.Derived)
      Lits.push_back(D);
  }

  // 3. Congruence closure (batched: one saturation for all equalities).
  Congruence Cong;
  {
    GILR_TRACE_SCOPE("solver", "theory-congruence");
    for (const auto &[Atom, Positive] : Lits) {
      if (Atom->Kind == ExprKind::Eq) {
        if (Positive)
          Cong.queueEquality(Atom->Kids[0], Atom->Kids[1]);
        else
          Cong.addDisequality(Atom->Kids[0], Atom->Kids[1]);
        continue;
      }
      Cong.registerTerm(Atom);
    }
    if (!Cong.saturate())
      return SatResult::Unsat;
    if (Cong.hasDisequalityConflict())
      return SatResult::Unsat;
    if (Cong.hasSeqLengthConflict())
      return SatResult::Unsat;
  }

  // 4. Propositional atoms up to congruence, plus lifetime inclusion.
  {
    GILR_TRACE_SCOPE("solver", "theory-prop-lifetime");
    std::map<int, bool> PropPolarity;
    std::set<std::pair<int, int>> LftEdges;
    std::vector<std::pair<int, int>> LftNegated;
    for (const auto &[Atom, Positive] : Lits) {
      if (Atom->Kind == ExprKind::Eq)
        continue;
      if (Atom->Kind == ExprKind::LftIncl) {
        int A = Cong.canonClass(Atom->Kids[0]);
        int B = Cong.canonClass(Atom->Kids[1]);
        if (Positive)
          LftEdges.insert({A, B});
        else
          LftNegated.push_back({A, B});
        continue;
      }
      // A boolean witness derived by the closure decides the literal.
      if (Expr W = Cong.witness(Atom))
        if (W->Kind == ExprKind::BoolLit && W->BoolVal != Positive)
          return SatResult::Unsat;
      int Key = Cong.canonClass(Atom);
      auto [It, Inserted] = PropPolarity.emplace(Key, Positive);
      if (!Inserted && It->second != Positive)
        return SatResult::Unsat;
    }
    if (!LftNegated.empty()) {
      // Reflexive-transitive closure of inclusion edges.
      std::set<std::pair<int, int>> Closure = LftEdges;
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (const auto &[A, B] : Closure)
          for (const auto &[C, D] : Closure)
            if (B == C && !Closure.count({A, D})) {
              Closure.insert({A, D});
              Changed = true;
              break;
            }
      }
      for (const auto &[A, B] : LftNegated) {
        if (A == B)
          return SatResult::Unsat; // not (k <= k) is false.
        if (Closure.count({A, B}))
          return SatResult::Unsat;
      }
    }
  }

  // 5. Linear arithmetic.
  GILR_TRACE_SCOPE("solver", "theory-linarith");
  LinArith Arith(Cong);
  for (const auto &[Atom, Positive] : Lits)
    Arith.addAtom(Atom, Positive);
  bool Definite = true;
  if (!Arith.feasible(Definite))
    return SatResult::Unsat;
  return Definite ? SatResult::Sat : SatResult::Unknown;
}
