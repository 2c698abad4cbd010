//===- solver/Congruence.cpp ------------------------------------------------===//

#include "solver/Congruence.h"

#include "support/Diagnostics.h"
#include "sym/ExprBuilder.h"
#include "solver/SeqTheory.h"
#include "support/Trace.h"

#include <cassert>
#include <map>
#include <vector>

using namespace gilr;

static bool isSeqShape(const Expr &E) {
  return E->Kind == ExprKind::SeqConcat || E->Kind == ExprKind::SeqUnit ||
         E->Kind == ExprKind::SeqNil;
}

int Congruence::registerTerm(const Expr &E) {
  assert(E && "registering null term");
  int Known = TermIds.find(E);
  if (Known != -1)
    return Known;
  // Register children first so that ids exist for the signature pass.
  for (const Expr &Kid : E->Kids)
    registerTerm(Kid);
  int Id = static_cast<int>(Nodes.size());
  Nodes.push_back({E, Id, 1, KidIds.size()});
  for (const Expr &Kid : E->Kids)
    KidIds.push_back(TermIds.find(Kid));
  TermIds.insert(E, Id);
  Witness.push_back(isConstructorLike(E) ? Id : -1);
  SeqShape.push_back(isSeqShape(E) ? Id : -1);
  return Id;
}

bool Congruence::isConstructorLike(const Expr &E) const {
  switch (E->Kind) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
  case ExprKind::BoolLit:
  case ExprKind::LocLit:
  case ExprKind::UnitLit:
  case ExprKind::NoneLit:
  case ExprKind::Some:
  case ExprKind::SeqNil:
  case ExprKind::SeqUnit:
  case ExprKind::TupleLit:
    return true;
  case ExprKind::SeqConcat: {
    __int128 Len;
    return getStaticSeqLen(E, Len);
  }
  default:
    return false;
  }
}

int Congruence::constructorCompat(const Expr &A, const Expr &B) const {
  if (A->Kind == B->Kind) {
    switch (A->Kind) {
    case ExprKind::IntLit:
      return A->IntVal == B->IntVal ? 1 : -1;
    case ExprKind::RealLit:
      return A->RatVal == B->RatVal ? 1 : -1;
    case ExprKind::BoolLit:
      return A->BoolVal == B->BoolVal ? 1 : -1;
    case ExprKind::LocLit:
      return A->LocId == B->LocId ? 1 : -1;
    case ExprKind::UnitLit:
    case ExprKind::NoneLit:
    case ExprKind::SeqNil:
      return 1;
    case ExprKind::Some:
    case ExprKind::SeqUnit:
      return 0; // Decompose kids.
    case ExprKind::TupleLit:
      return A->Kids.size() == B->Kids.size() ? 0 : -1;
    case ExprKind::SeqConcat:
      return 2; // Unknown relationship beyond lengths.
    default:
      return 2;
    }
  }
  // Different kinds. Option constructors clash; sequence constructors clash
  // when static lengths differ.
  auto isOpt = [](ExprKind K) {
    return K == ExprKind::NoneLit || K == ExprKind::Some;
  };
  if (isOpt(A->Kind) && isOpt(B->Kind))
    return -1;
  auto isSeq = [](ExprKind K) {
    return K == ExprKind::SeqNil || K == ExprKind::SeqUnit ||
           K == ExprKind::SeqConcat;
  };
  if (isSeq(A->Kind) && isSeq(B->Kind)) {
    __int128 LA, LB;
    if (getStaticSeqLen(A, LA) && getStaticSeqLen(B, LB) && LA != LB)
      return -1;
    return 2;
  }
  // Literals of incomparable kinds: sorts would have to differ; treat as
  // unknown rather than claiming a clash.
  return 2;
}

uint64_t Congruence::nameSymbol(const ExprNode &N) {
  if (N.Name.empty())
    return 0;
  if (N.NameSym != 0)
    return N.NameSym;
  auto [It, Inserted] =
      LocalNameIds.emplace(N.Name, 0);
  if (Inserted)
    It->second = (uint64_t(1) << 63) | LocalNameIds.size();
  return It->second;
}

int Congruence::find(int I) {
  while (Nodes[I].Parent != I) {
    Nodes[I].Parent = Nodes[Nodes[I].Parent].Parent;
    I = Nodes[I].Parent;
  }
  return I;
}

bool Congruence::merge(int A, int B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return true;
  int WitA = Witness[A];
  int WitB = Witness[B];
  if (WitA != -1 && WitB != -1) {
    const Expr &TA = Nodes[WitA].Term;
    const Expr &TB = Nodes[WitB].Term;
    int Compat = constructorCompat(TA, TB);
    if (Compat == -1) {
      Conflict = true;
      return false;
    }
    if (Compat == 0) {
      assert(TA->Kids.size() == TB->Kids.size() && "decomposition arity");
      for (std::size_t I = 0, E = TA->Kids.size(); I != E; ++I)
        Pending.push_back({kid(WitA, I), kid(WitB, I)});
    }
  }
  if (Nodes[A].Size < Nodes[B].Size) {
    std::swap(A, B);
    std::swap(WitA, WitB);
  }
  Nodes[B].Parent = A;
  Nodes[A].Size += Nodes[B].Size;
  // The root carries the class's witness: prefer a literal, otherwise keep
  // whichever exists (the root's own on a tie).
  if (WitB != -1 &&
      (WitA == -1 ||
       (Nodes[WitB].Term->Kids.empty() && !Nodes[WitA].Term->Kids.empty())))
    Witness[A] = WitB;
  // ... and its lowest sequence-constructor member.
  if (SeqShape[B] != -1 && (SeqShape[A] == -1 || SeqShape[B] < SeqShape[A]))
    SeqShape[A] = SeqShape[B];
  return true;
}

bool Congruence::sameSignature(int A, int B) {
  const ExprNode &TA = *Nodes[A].Term;
  const ExprNode &TB = *Nodes[B].Term;
  if (TA.Kind != TB.Kind || TA.Index != TB.Index ||
      TA.Kids.size() != TB.Kids.size() || nameSymbol(TA) != nameSymbol(TB))
    return false;
  for (std::size_t K = 0, E = TA.Kids.size(); K != E; ++K)
    if (find(kid(A, K)) != find(kid(B, K)))
      return false;
  return true;
}

bool Congruence::addEquality(const Expr &A, const Expr &B) {
  queueEquality(A, B);
  return saturate();
}

void Congruence::queueEquality(const Expr &A, const Expr &B) {
  int IA = registerTerm(A);
  int IB = registerTerm(B);
  Pending.push_back({IA, IB});
}

void Congruence::addDisequality(const Expr &A, const Expr &B) {
  Disequalities.push_back({registerTerm(A), registerTerm(B)});
}

bool Congruence::saturate() {
  if (Conflict)
    return false;
  // Closed (nothing queued, no term registered since the fixpoint), or
  // given up at the round cap.
  if (Capped || (Pending.empty() && ClosedNodes == Nodes.size()))
    return true;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    ++Rounds;
    // 1. Drain pending merges.
    while (!Pending.empty()) {
      auto [A, B] = Pending.back();
      Pending.pop_back();
      if (find(A) != find(B) && !merge(A, B))
        return false;
    }

    // 2. Congruence pass: identical signatures over representatives merge.
    // A signature is (kind, payload, name symbol, kid representatives),
    // compared exactly: the hash only picks the slot of an open-addressing
    // table (a collision would merge unequal terms and be unsound). Each
    // signature's slot holds its first node, which every later node with
    // that signature merges into. Names use the global interned symbol id
    // (sym/Intern.h); symbol *values* are racy across runs but only ever
    // compared for equality here, so the merge outcome stays deterministic.
    std::size_t NumNodes = Nodes.size();
    std::size_t Slots = 16;
    while (Slots < 2 * NumNodes)
      Slots *= 2;
    Signatures.assign(Slots, -1);
    for (std::size_t I = 0; I != NumNodes; ++I) {
      const ExprNode &T = *Nodes[I].Term;
      if (T.Kids.empty())
        continue;
      int Node = static_cast<int>(I);
      auto mix = [](uint64_t H, uint64_t V) {
        return (H ^ V) * 0x9E3779B97F4A7C15ull;
      };
      uint64_t H = mix(mix(mix(0, static_cast<uint64_t>(T.Kind)), T.Index),
                       nameSymbol(T));
      for (std::size_t K = 0, E = T.Kids.size(); K != E; ++K)
        H = mix(H, static_cast<uint64_t>(find(kid(Node, K))));
      for (std::size_t Slot = (H >> 32) & (Slots - 1);;
           Slot = (Slot + 1) & (Slots - 1)) {
        int First = Signatures[Slot];
        if (First == -1) {
          Signatures[Slot] = Node;
          break;
        }
        if (sameSignature(First, Node)) {
          if (find(First) != find(Node))
            Pending.push_back({First, Node});
          break;
        }
      }
    }

    // 3. Projection pass: evaluate selectors against class witnesses. Only
    // equalities that do not already hold are queued, so a round that
    // derives nothing new leaves Pending empty and ends the closure.
    std::vector<std::pair<int, Expr>> NewEqs;
    auto derive = [&](std::size_t I, Expr V) {
      int Known = TermIds.find(V);
      if (Known == -1 || find(Known) != find(static_cast<int>(I)))
        NewEqs.push_back({static_cast<int>(I), std::move(V)});
    };
    for (std::size_t I = 0; I != NumNodes; ++I) {
      const Expr &T = Nodes[I].Term;
      switch (T->Kind) {
      case ExprKind::Unwrap: {
        Expr W = witness(T->Kids[0]);
        if (W && W->Kind == ExprKind::Some)
          derive(I, W->Kids[0]);
        break;
      }
      case ExprKind::IsSome: {
        Expr W = witness(T->Kids[0]);
        if (W && W->Kind == ExprKind::Some)
          derive(I, mkTrue());
        else if (W && W->Kind == ExprKind::NoneLit)
          derive(I, mkFalse());
        break;
      }
      case ExprKind::TupleGet: {
        Expr W = witness(T->Kids[0]);
        if (W && W->Kind == ExprKind::TupleLit && T->Index < W->Kids.size())
          derive(I, W->Kids[T->Index]);
        break;
      }
      case ExprKind::SeqLen: {
        Expr W = witness(T->Kids[0]);
        __int128 Len;
        if (W && getStaticSeqLen(W, Len))
          derive(I, mkInt(Len));
        break;
      }
      case ExprKind::SeqConcat: {
        // Associativity up to congruence: replace kids by sequence-shaped
        // class members and let the builder re-flatten; merging the term
        // with the flattened form lets concat(a, b) meet concat(a, c, d)
        // when b ~ concat(c, d).
        bool Changed = false;
        std::vector<Expr> NewKids;
        NewKids.reserve(T->Kids.size());
        for (const Expr &Kid : T->Kids) {
          Expr W = seqShapeWitness(Kid);
          if (W && !exprEquals(W, Kid)) {
            NewKids.push_back(W);
            Changed = true;
          } else {
            NewKids.push_back(Kid);
          }
        }
        if (Changed)
          derive(I, mkSeqConcat(std::move(NewKids)));
        break;
      }
      case ExprKind::SeqNth: {
        Expr W = witness(T->Kids[0]);
        __int128 Idx;
        if (W && getIntLit(T->Kids[1], Idx)) {
          Expr Folded = mkSeqNth(W, T->Kids[1]);
          if (Folded->Kind != ExprKind::SeqNth)
            derive(I, std::move(Folded));
        }
        break;
      }
      default:
        break;
      }
    }
    // Registered only now: registration may grow Nodes under the loop above.
    for (auto &[I, V] : NewEqs)
      Pending.push_back({I, registerTerm(V)});

    if (Pending.empty()) {
      ClosedNodes = Nodes.size();
      return true;
    }
  }
  // Inputs that never converge (a cyclic concatenation re-flattens into
  // ever longer terms) stop here for good: every class found so far is
  // sound, and resuming on each later lookup would only grow the terms.
  Capped = true;
  trace::instant("solver", "congruence-capped");
  return true;
}

bool Congruence::hasSeqLengthConflict() {
  // A class with a statically-sized sequence witness cannot contain a
  // member whose static minimum length exceeds it (e.g. [] vs x :: s).
  std::map<int, __int128> StaticLen;
  for (std::size_t I = 0, N = Nodes.size(); I != N; ++I) {
    const Expr &T = Nodes[I].Term;
    __int128 Len;
    if ((T->Kind == ExprKind::SeqNil || T->Kind == ExprKind::SeqUnit ||
         T->Kind == ExprKind::SeqConcat) &&
        getStaticSeqLen(T, Len)) {
      int Rep = find(static_cast<int>(I));
      auto [It, Inserted] = StaticLen.emplace(Rep, Len);
      if (!Inserted && It->second != Len)
        return true; // Two different static lengths in one class.
    }
  }
  for (std::size_t I = 0, N = Nodes.size(); I != N; ++I) {
    const Expr &T = Nodes[I].Term;
    if (T->Kind != ExprKind::SeqConcat && T->Kind != ExprKind::SeqUnit)
      continue;
    auto It = StaticLen.find(find(static_cast<int>(I)));
    if (It != StaticLen.end() && minStaticSeqLen(T) > It->second)
      return true;
  }
  return false;
}

bool Congruence::hasDisequalityConflict() {
  for (auto &[A, B] : Disequalities)
    if (find(A) == find(B))
      return true;
  // A disequality between two classes with clashing constructor witnesses is
  // fine; what we must also catch is a disequality whose two sides have the
  // *same* literal witness value even if classes were not merged: covered by
  // the congruence/witness merge above, since equal literals share a node.
  return false;
}

bool Congruence::provedEqual(const Expr &A, const Expr &B) {
  int IA = registerTerm(A);
  int IB = registerTerm(B);
  saturate();
  return find(IA) == find(IB);
}

Expr Congruence::seqShapeWitness(const Expr &E) {
  int Id = TermIds.find(E);
  if (Id == -1)
    return nullptr;
  int Shape = SeqShape[find(Id)];
  return Shape != -1 ? Nodes[Shape].Term : nullptr;
}

Expr Congruence::witness(const Expr &E) {
  int Id = TermIds.find(E);
  if (Id == -1)
    return nullptr;
  int Wit = Witness[find(Id)];
  return Wit != -1 ? Nodes[Wit].Term : nullptr;
}

int Congruence::canonClass(const Expr &E) {
  int Id = registerTerm(E);
  saturate(); // A lookup once the closure is closed.
  // No separate key space for literal witnesses: an interned literal is a
  // single registered term, so the class holding it is already unique.
  return find(Id);
}
