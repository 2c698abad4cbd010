//===- solver/Simplify.cpp --------------------------------------------------===//

#include "solver/Simplify.h"

#include "support/Diagnostics.h"
#include "sym/ExprBuilder.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

using namespace gilr;

//===----------------------------------------------------------------------===//
// Identity-keyed simplify memo
//===----------------------------------------------------------------------===//

namespace {

constexpr std::size_t NumMemoShards = 64; // Power of two.

struct MemoShard {
  std::mutex Mu;
  /// Intern id of the input node -> simplified result. Entries never become
  /// stale: simplify is pure and interned nodes are immortal.
  std::unordered_map<uint64_t, Expr> Map;
};

/// Leaked for the same reason as the intern tables (see sym/Intern.cpp):
/// memo entries pin interned nodes and must not be torn down at exit.
MemoShard *memoShards() {
  static MemoShard *S = new MemoShard[NumMemoShards];
  return S;
}

std::size_t memoShardOf(uint64_t Id) { return (Id >> 2) & (NumMemoShards - 1); }

std::atomic<uint64_t> MemoHits{0};
std::atomic<uint64_t> MemoMisses{0};
std::atomic<bool> MemoEnabled{true};

void memoStore(uint64_t Id, const Expr &R) {
  MemoShard &Sh = memoShards()[memoShardOf(Id)];
  std::lock_guard<std::mutex> Lock(Sh.Mu);
  Sh.Map.emplace(Id, R);
}

} // namespace

SimplifyStats gilr::simplifyMemoStats() {
  SimplifyStats S;
  S.Hits = MemoHits.load(std::memory_order_relaxed);
  S.Misses = MemoMisses.load(std::memory_order_relaxed);
  return S;
}

bool gilr::setSimplifyMemoEnabled(bool Enabled) {
  return MemoEnabled.exchange(Enabled, std::memory_order_acq_rel);
}

Expr gilr::simplify(const Expr &E) {
  if (!E || E->Kids.empty())
    return E;
  const bool UseMemo = MemoEnabled.load(std::memory_order_acquire);
  if (UseMemo) {
    MemoShard &Sh = memoShards()[memoShardOf(E->Id)];
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    auto It = Sh.Map.find(E->Id);
    if (It != Sh.Map.end()) {
      MemoHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  std::vector<Expr> Kids;
  Kids.reserve(E->Kids.size());
  for (const Expr &Kid : E->Kids)
    Kids.push_back(simplify(Kid));
  Expr R = rebuildWithKids(E, std::move(Kids));
  if (UseMemo) {
    MemoMisses.fetch_add(1, std::memory_order_relaxed);
    memoStore(E->Id, R);
    // Seed the fixpoint too: simplify(simplify(e)) is e's result by
    // construction, so record R -> R and save the re-walk.
    if (R->Id != E->Id && !R->Kids.empty())
      memoStore(R->Id, R);
  }
  return R;
}

Expr gilr::negate(const Expr &E) {
  switch (E->Kind) {
  case ExprKind::BoolLit:
    return mkBool(!E->BoolVal);
  case ExprKind::Not:
    return E->Kids[0];
  case ExprKind::And: {
    std::vector<Expr> Parts;
    for (const Expr &Kid : E->Kids)
      Parts.push_back(negate(Kid));
    return mkOr(std::move(Parts));
  }
  case ExprKind::Or: {
    std::vector<Expr> Parts;
    for (const Expr &Kid : E->Kids)
      Parts.push_back(negate(Kid));
    return mkAnd(std::move(Parts));
  }
  case ExprKind::Implies:
    return mkAnd(E->Kids[0], negate(E->Kids[1]));
  case ExprKind::Lt:
    return mkLe(E->Kids[1], E->Kids[0]);
  case ExprKind::Le:
    return mkLt(E->Kids[1], E->Kids[0]);
  case ExprKind::Ite:
    return mkIte(E->Kids[0], negate(E->Kids[1]), negate(E->Kids[2]));
  default:
    return mkNot(E);
  }
}

Expr gilr::resolveIte(const Expr &E, const Expr &Cond, bool Positive) {
  if (!E)
    return E;
  if (E->Kind == ExprKind::Ite && exprEquals(E->Kids[0], Cond))
    return resolveIte(Positive ? E->Kids[1] : E->Kids[2], Cond, Positive);
  if (E->Kids.empty())
    return E;
  bool Changed = false;
  std::vector<Expr> Kids;
  Kids.reserve(E->Kids.size());
  for (const Expr &Kid : E->Kids) {
    Expr NewKid = resolveIte(Kid, Cond, Positive);
    Changed |= NewKid.get() != Kid.get();
    Kids.push_back(std::move(NewKid));
  }
  if (!Changed)
    return E;
  return simplify(rebuildWithKids(E, std::move(Kids)));
}

static Expr findIteConditionImpl(const Expr &E, bool InTermPosition) {
  if (!E)
    return nullptr;
  if (E->Kind == ExprKind::Ite && InTermPosition)
    return E->Kids[0];
  bool KidsAreTerms =
      InTermPosition || E->Kind == ExprKind::Eq || E->Kind == ExprKind::Lt ||
      E->Kind == ExprKind::Le || E->Kind == ExprKind::IsSome ||
      E->Kind == ExprKind::App || E->Kind == ExprKind::LftIncl;
  for (const Expr &Kid : E->Kids)
    if (Expr Found = findIteConditionImpl(Kid, KidsAreTerms))
      return Found;
  return nullptr;
}

Expr gilr::findIteCondition(const Expr &E) {
  return findIteConditionImpl(E, false);
}

//===----------------------------------------------------------------------===//
// Fact-directed reduction
//===----------------------------------------------------------------------===//

/// "Constructor-ish" terms are useful rewrite targets: they expose structure
/// (tuples, options, locations) that unblocks pointer decoding.
static bool isConstructorish(const Expr &E) {
  switch (E->Kind) {
  case ExprKind::TupleLit:
  case ExprKind::Some:
  case ExprKind::NoneLit:
  case ExprKind::LocLit:
  case ExprKind::IntLit:
  case ExprKind::SeqUnit:
  case ExprKind::SeqNil:
  case ExprKind::SeqConcat:
    return true;
  default:
    return false;
  }
}

static bool containsSubexprRW(const Expr &Hay, const Expr &Needle) {
  if (exprEquals(Hay, Needle))
    return true;
  for (const Expr &Kid : Hay->Kids)
    if (containsSubexprRW(Kid, Needle))
      return true;
  return false;
}

namespace {
struct ExprKeyHash {
  std::size_t operator()(const Expr &E) const { return E->hash(); }
};
struct ExprKeyEq {
  bool operator()(const Expr &A, const Expr &B) const {
    return exprEquals(A, B);
  }
};
} // namespace

using RewriteMap = std::unordered_map<Expr, Expr, ExprKeyHash, ExprKeyEq>;

static Expr rewriteOnce(const Expr &E, const RewriteMap &RW) {
  auto It = RW.find(E);
  if (It != RW.end())
    return It->second;
  if (E->Kids.empty())
    return E;
  bool Changed = false;
  std::vector<Expr> Kids;
  Kids.reserve(E->Kids.size());
  for (const Expr &Kid : E->Kids) {
    Expr NK = rewriteOnce(Kid, RW);
    Changed |= NK.get() != Kid.get();
    Kids.push_back(std::move(NK));
  }
  if (!Changed)
    return E;
  return simplify(rebuildWithKids(E, std::move(Kids)));
}

Expr gilr::reduceWithFacts(const Expr &E, const std::vector<Expr> &Facts) {
  RewriteMap RW;
  for (const Expr &Fact : Facts) {
    if (!Fact || Fact->Kind != ExprKind::Eq)
      continue;
    for (int Side = 0; Side != 2; ++Side) {
      const Expr &From = Fact->Kids[Side];
      const Expr &To = Fact->Kids[1 - Side];
      if (isConstructorish(From) || !isConstructorish(To))
        continue;
      if (containsSubexprRW(To, From))
        continue; // Avoid trivial rewrite loops.
      RW.emplace(From, To);
    }
  }
  if (RW.empty())
    return E;
  Expr Cur = E;
  for (int I = 0; I != 8; ++I) {
    Expr Next = rewriteOnce(Cur, RW);
    if (exprEquals(Next, Cur))
      break;
    Cur = Next;
  }
  return Cur;
}
