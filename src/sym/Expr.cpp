//===- sym/Expr.cpp -------------------------------------------------------===//

#include "sym/Expr.h"

#include "support/Diagnostics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace gilr;

const char *gilr::sortName(Sort S) {
  switch (S) {
  case Sort::Unit:
    return "Unit";
  case Sort::Bool:
    return "Bool";
  case Sort::Int:
    return "Int";
  case Sort::Real:
    return "Real";
  case Sort::Loc:
    return "Loc";
  case Sort::Lft:
    return "Lft";
  case Sort::Seq:
    return "Seq";
  case Sort::Opt:
    return "Opt";
  case Sort::Tuple:
    return "Tuple";
  case Sort::Any:
    return "Any";
  }
  GILR_UNREACHABLE("unknown sort");
}

const char *gilr::kindName(ExprKind K) {
  switch (K) {
  case ExprKind::Var:
    return "Var";
  case ExprKind::IntLit:
    return "IntLit";
  case ExprKind::RealLit:
    return "RealLit";
  case ExprKind::BoolLit:
    return "BoolLit";
  case ExprKind::UnitLit:
    return "UnitLit";
  case ExprKind::LocLit:
    return "LocLit";
  case ExprKind::NoneLit:
    return "NoneLit";
  case ExprKind::Not:
    return "Not";
  case ExprKind::And:
    return "And";
  case ExprKind::Or:
    return "Or";
  case ExprKind::Implies:
    return "Implies";
  case ExprKind::Ite:
    return "Ite";
  case ExprKind::Eq:
    return "Eq";
  case ExprKind::Lt:
    return "Lt";
  case ExprKind::Le:
    return "Le";
  case ExprKind::Add:
    return "Add";
  case ExprKind::Sub:
    return "Sub";
  case ExprKind::Mul:
    return "Mul";
  case ExprKind::Neg:
    return "Neg";
  case ExprKind::Some:
    return "Some";
  case ExprKind::IsSome:
    return "IsSome";
  case ExprKind::Unwrap:
    return "Unwrap";
  case ExprKind::SeqNil:
    return "SeqNil";
  case ExprKind::SeqUnit:
    return "SeqUnit";
  case ExprKind::SeqConcat:
    return "SeqConcat";
  case ExprKind::SeqLen:
    return "SeqLen";
  case ExprKind::SeqNth:
    return "SeqNth";
  case ExprKind::SeqSub:
    return "SeqSub";
  case ExprKind::TupleLit:
    return "TupleLit";
  case ExprKind::TupleGet:
    return "TupleGet";
  case ExprKind::LftIncl:
    return "LftIncl";
  case ExprKind::App:
    return "App";
  }
  GILR_UNREACHABLE("unknown expr kind");
}

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

std::string gilr::int128ToString(__int128 V) {
  if (V == 0)
    return "0";
  bool Negative = V < 0;
  unsigned __int128 U = Negative ? -static_cast<unsigned __int128>(V)
                                 : static_cast<unsigned __int128>(V);
  std::string Digits;
  while (U != 0) {
    Digits.push_back(static_cast<char>('0' + static_cast<int>(U % 10)));
    U /= 10;
  }
  if (Negative)
    Digits.push_back('-');
  return std::string(Digits.rbegin(), Digits.rend());
}

static __int128 gcd128(__int128 A, __int128 B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

Rational::Rational(__int128 N, __int128 D) {
  assert(D != 0 && "rational with zero denominator");
  if (D < 0) {
    N = -N;
    D = -D;
  }
  __int128 G = gcd128(N, D);
  if (G == 0)
    G = 1;
  Num = N / G;
  Den = D / G;
}

Rational Rational::operator+(const Rational &O) const {
  return Rational(Num * O.Den + O.Num * Den, Den * O.Den);
}

Rational Rational::operator-(const Rational &O) const {
  return Rational(Num * O.Den - O.Num * Den, Den * O.Den);
}

Rational Rational::operator*(const Rational &O) const {
  return Rational(Num * O.Num, Den * O.Den);
}

bool Rational::operator<(const Rational &O) const {
  return Num * O.Den < O.Num * Den;
}

std::string Rational::str() const {
  if (Den == 1)
    return int128ToString(Num);
  return int128ToString(Num) + "/" + int128ToString(Den);
}

//===----------------------------------------------------------------------===//
// ExprNode
//===----------------------------------------------------------------------===//

ExprNode::ExprNode(ExprKind K, Sort S, std::vector<Expr> KidsIn)
    : Kind(K), NodeSort(S), Kids(std::move(KidsIn)) {
  finalizeHash();
}

ExprNode::~ExprNode() {
  delete VarsCache.load(std::memory_order_relaxed);
}

void ExprNode::finalizeHash() {
  HasProph = Kind == ExprKind::Var ? isProphecyVarName(Name) : false;
  for (const Expr &Kid : Kids)
    HasProph = HasProph || Kid->HasProph;
  // Variables are identified by name alone: the sort is an annotation and
  // the same name may be written with different sort knowledge (specs use
  // Any, the executor knows the precise sort).
  std::size_t H = static_cast<std::size_t>(Kind) * 131;
  if (Kind != ExprKind::Var)
    H += static_cast<std::size_t>(NodeSort);
  for (const Expr &Kid : Kids)
    hashCombine(H, Kid->hash());
  hashCombine(H, std::hash<std::string>()(Name));
  hashCombine(H, static_cast<std::size_t>(static_cast<uint64_t>(IntVal)));
  hashCombine(H, static_cast<std::size_t>(
                     static_cast<uint64_t>(IntVal >> 64)));
  hashCombine(H, static_cast<std::size_t>(static_cast<uint64_t>(RatVal.Num)));
  hashCombine(H, static_cast<std::size_t>(static_cast<uint64_t>(RatVal.Den)));
  hashCombine(H, BoolVal ? 0x5u : 0x9u);
  hashCombine(H, std::hash<uint64_t>()(LocId));
  hashCombine(H, Index);
  Hash = H;
}

bool gilr::exprEquals(const Expr &A, const Expr &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B)
    return false;
  // Hash-consing gives every exprEquals class exactly one CanonId.
  return A->CanonId == B->CanonId;
}

bool gilr::exprLess(const Expr &A, const Expr &B) {
  if (A.get() == B.get())
    return false;
  if (!A)
    return static_cast<bool>(B);
  if (!B)
    return false;
  // Equal classes are never less-than; this is the only use of ids here —
  // *ordering* stays structural so it cannot depend on the (racy) interning
  // order under the parallel scheduler.
  if (A->CanonId == B->CanonId)
    return false;
  if (A->Kind != B->Kind)
    return A->Kind < B->Kind;
  if (A->Name != B->Name)
    return A->Name < B->Name;
  if (A->IntVal != B->IntVal)
    return A->IntVal < B->IntVal;
  if (!(A->RatVal == B->RatVal))
    return A->RatVal < B->RatVal;
  if (A->BoolVal != B->BoolVal)
    return B->BoolVal;
  if (A->LocId != B->LocId)
    return A->LocId < B->LocId;
  if (A->Index != B->Index)
    return A->Index < B->Index;
  if (A->Kids.size() != B->Kids.size())
    return A->Kids.size() < B->Kids.size();
  for (std::size_t I = 0, E = A->Kids.size(); I != E; ++I) {
    if (exprLess(A->Kids[I], B->Kids[I]))
      return true;
    if (exprLess(B->Kids[I], A->Kids[I]))
      return false;
  }
  return false;
}

const std::vector<std::string> &gilr::exprFreeVars(const Expr &E) {
  static const std::vector<std::string> Empty;
  if (!E)
    return Empty;
  if (const auto *Cached = E->VarsCache.load(std::memory_order_acquire))
    return *Cached;
  auto *Computed = new std::vector<std::string>();
  if (E->Kind == ExprKind::Var) {
    Computed->push_back(E->Name);
  } else {
    for (const Expr &Kid : E->Kids) {
      const std::vector<std::string> &KidVars = exprFreeVars(Kid);
      Computed->insert(Computed->end(), KidVars.begin(), KidVars.end());
    }
    std::sort(Computed->begin(), Computed->end());
    Computed->erase(std::unique(Computed->begin(), Computed->end()),
                    Computed->end());
  }
  const std::vector<std::string> *Expected = nullptr;
  if (E->VarsCache.compare_exchange_strong(Expected, Computed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
    return *Computed;
  // Another thread installed its (identical) summary first.
  delete Computed;
  return *Expected;
}

void gilr::collectVars(const Expr &E, std::set<std::string> &Out) {
  if (!E)
    return;
  const std::vector<std::string> &Vars = exprFreeVars(E);
  Out.insert(Vars.begin(), Vars.end());
}

bool gilr::containsVar(const Expr &E, const std::string &Name) {
  if (!E)
    return false;
  const std::vector<std::string> &Vars = exprFreeVars(E);
  return std::binary_search(Vars.begin(), Vars.end(), Name);
}

bool gilr::isProphecyVarName(const std::string &Name) {
  return startsWith(Name, prophecyVarPrefix());
}

bool gilr::mentionsProphecy(const Expr &E) {
  return E && E->HasProph;
}

//===----------------------------------------------------------------------===//
// Process-stable structural hashing
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64 finaliser; fixed constants, so the value stream is identical
/// in every process.
uint64_t stableMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// FNV-1a over a byte string (names).
uint64_t stableHashString(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Whether operands of \p K are canonicalised order-insensitively by the
/// builders (mkAnd/mkOr/mkAdd/mkMul/mkEq sort or orient their operands with
/// exprLess); the stable hash combines their kid hashes as a multiset so
/// that any operand permutation of the same node agrees.
bool isCommutativeKind(ExprKind K) {
  switch (K) {
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Add:
  case ExprKind::Mul:
  case ExprKind::Eq:
    return true;
  default:
    return false;
  }
}

} // namespace

uint64_t gilr::exprStableHash(const Expr &E) {
  if (!E)
    return 0x9e3779b97f4a7c15ull; // Distinct marker for "no expression".
  uint64_t Cached = E->StableHashCache.load(std::memory_order_relaxed);
  if (Cached)
    return Cached;

  uint64_t H = 0xcbf29ce484222325ull;
  auto feed = [&H](uint64_t V) { H = stableMix(H ^ V); };

  feed(static_cast<uint64_t>(E->Kind));
  feed(static_cast<uint64_t>(E->NodeSort));
  switch (E->Kind) {
  case ExprKind::Var:
  case ExprKind::App:
    feed(stableHashString(E->Name));
    break;
  case ExprKind::IntLit:
    feed(static_cast<uint64_t>(E->IntVal));
    feed(static_cast<uint64_t>(E->IntVal >> 64));
    break;
  case ExprKind::RealLit:
    feed(static_cast<uint64_t>(E->RatVal.Num));
    feed(static_cast<uint64_t>(E->RatVal.Num >> 64));
    feed(static_cast<uint64_t>(E->RatVal.Den));
    feed(static_cast<uint64_t>(E->RatVal.Den >> 64));
    break;
  case ExprKind::BoolLit:
    feed(E->BoolVal ? 1 : 2);
    break;
  case ExprKind::LocLit:
    feed(E->LocId);
    break;
  case ExprKind::TupleGet:
    feed(E->Index);
    break;
  default:
    break;
  }

  feed(E->Kids.size());
  if (isCommutativeKind(E->Kind) && E->Kids.size() > 1) {
    std::vector<uint64_t> KidHs;
    KidHs.reserve(E->Kids.size());
    for (const Expr &K : E->Kids)
      KidHs.push_back(exprStableHash(K));
    std::sort(KidHs.begin(), KidHs.end());
    for (uint64_t KH : KidHs)
      feed(KH);
  } else {
    for (const Expr &K : E->Kids)
      feed(exprStableHash(K));
  }

  if (H == 0)
    H = 1; // 0 is reserved for "not yet computed".
  E->StableHashCache.store(H, std::memory_order_relaxed);
  return H;
}
