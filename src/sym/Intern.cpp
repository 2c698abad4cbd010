//===- sym/Intern.cpp ------------------------------------------------------===//

#include "sym/Intern.h"

#include "support/StringUtils.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

using namespace gilr;

namespace {

constexpr std::size_t NumShards = 64; // Power of two.

std::size_t shardOf(std::size_t H) { return (H >> 4) & (NumShards - 1); }

/// Exact structural identity, *including* variable sorts (unlike
/// exprEquals): interning must not collapse sort-annotated variants of a
/// variable, because NodeSort feeds solver decisions and first-wins
/// canonicalisation would be racy under parallel runs. Kids are compared
/// by pointer: candidates always carry canonical (interned) kids.
bool exprIdentical(const ExprNode &A, const ExprNode &B) {
  if (A.Kind != B.Kind || A.NodeSort != B.NodeSort ||
      A.Kids.size() != B.Kids.size())
    return false;
  if (A.Name != B.Name || A.IntVal != B.IntVal || !(A.RatVal == B.RatVal) ||
      A.BoolVal != B.BoolVal || A.LocId != B.LocId || A.Index != B.Index)
    return false;
  for (std::size_t I = 0, E = A.Kids.size(); I != E; ++I)
    if (A.Kids[I].get() != B.Kids[I].get())
      return false;
  return true;
}

struct TableShard {
  std::mutex Mu;
  /// Structural hash -> nodes with that hash (collisions are rare).
  std::unordered_map<std::size_t, std::vector<Expr>> Buckets;
};

struct VecHash {
  std::size_t operator()(const std::vector<uint64_t> &V) const {
    std::size_t Seed = 0x1e7e;
    for (uint64_t X : V)
      hashCombine(Seed, static_cast<std::size_t>(X));
    return Seed;
  }
};

struct CanonShard {
  std::mutex Mu;
  std::unordered_map<std::vector<uint64_t>, uint64_t, VecHash> Map;
};

struct NameShard {
  std::mutex Mu;
  std::unordered_map<std::string, uint64_t> Map;
};

/// All tables are intentionally leaked: interned nodes live for the whole
/// process, and skipping static destruction avoids both destruction-order
/// hazards and deep shared_ptr chain unwinding at exit.
TableShard *tableShards() {
  static TableShard *S = new TableShard[NumShards];
  return S;
}
CanonShard *canonShards() {
  static CanonShard *S = new CanonShard[NumShards];
  return S;
}
NameShard *nameShards() {
  static NameShard *S = new NameShard[NumShards];
  return S;
}

std::atomic<uint64_t> NextId{1};
std::atomic<uint64_t> NextCanonId{1};
std::atomic<uint64_t> NextNameId{1};
std::atomic<uint64_t> StatNodes{0};
std::atomic<uint64_t> StatHits{0};
std::atomic<uint64_t> StatMisses{0};

/// The exprEquals-equivalence key of an interned-node candidate: variables
/// by name alone; everything else by kind, sort, payload and kid CanonIds.
std::vector<uint64_t> canonKeyOf(const ExprNode &N) {
  std::vector<uint64_t> Key;
  if (N.Kind == ExprKind::Var) {
    Key = {static_cast<uint64_t>(N.Kind), N.NameSym};
    return Key;
  }
  Key.reserve(10 + N.Kids.size());
  Key.push_back(static_cast<uint64_t>(N.Kind));
  Key.push_back(static_cast<uint64_t>(N.NodeSort));
  Key.push_back(N.NameSym);
  Key.push_back(static_cast<uint64_t>(N.IntVal));
  Key.push_back(static_cast<uint64_t>(N.IntVal >> 64));
  Key.push_back(static_cast<uint64_t>(N.RatVal.Num));
  Key.push_back(static_cast<uint64_t>(N.RatVal.Den));
  Key.push_back(N.BoolVal ? 1 : 0);
  Key.push_back(N.LocId);
  Key.push_back(N.Index);
  for (const Expr &Kid : N.Kids)
    Key.push_back(Kid->CanonId);
  return Key;
}

uint64_t canonIdFor(const ExprNode &N) {
  std::vector<uint64_t> Key = canonKeyOf(N);
  std::size_t H = VecHash()(Key);
  CanonShard &Sh = canonShards()[shardOf(H)];
  std::lock_guard<std::mutex> Lock(Sh.Mu);
  auto [It, Inserted] = Sh.Map.emplace(std::move(Key), 0);
  if (Inserted)
    It->second = NextCanonId.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

} // namespace

uint64_t gilr::internName(const std::string &Name) {
  std::size_t H = std::hash<std::string>()(Name);
  NameShard &Sh = nameShards()[shardOf(H)];
  std::lock_guard<std::mutex> Lock(Sh.Mu);
  auto [It, Inserted] = Sh.Map.emplace(Name, 0);
  if (Inserted)
    It->second = NextNameId.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

InternStats gilr::internStats() {
  InternStats S;
  S.Nodes = StatNodes.load(std::memory_order_relaxed);
  S.Hits = StatHits.load(std::memory_order_relaxed);
  S.Misses = StatMisses.load(std::memory_order_relaxed);
  return S;
}

Expr gilr::detail::internNewNode(std::shared_ptr<ExprNode> N) {
  // The kids came out of the same factories, so they are interned already.
  if (!N->Name.empty())
    N->NameSym = internName(N->Name);

  std::size_t H = N->hash();
  TableShard &Sh = tableShards()[shardOf(H)];
  std::lock_guard<std::mutex> Lock(Sh.Mu);
  std::vector<Expr> &Bucket = Sh.Buckets[H];
  for (const Expr &Existing : Bucket)
    if (exprIdentical(*Existing, *N)) {
      StatHits.fetch_add(1, std::memory_order_relaxed);
      return Existing;
    }
  N->Id = NextId.fetch_add(1, std::memory_order_relaxed);
  N->CanonId = canonIdFor(*N);
  Bucket.push_back(N);
  StatMisses.fetch_add(1, std::memory_order_relaxed);
  StatNodes.fetch_add(1, std::memory_order_relaxed);
  return Bucket.back();
}
