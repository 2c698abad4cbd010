//===- analysis/Summary.cpp - Bottom-up summary computation ----------------===//

#include "analysis/Summary.h"

#include "analysis/Passes.h"

#include <algorithm>

using namespace gilr;
using namespace gilr::analysis;

bool FnSummary::operator==(const FnSummary &O) const {
  return Known == O.Known && Recursive == O.Recursive && Leaf == O.Leaf &&
         Pure == O.Pure && HeapReads == O.HeapReads &&
         HeapWrites == O.HeapWrites && UnsafeOps == O.UnsafeOps &&
         UnsafeEscapes == O.UnsafeEscapes && HasGhost == O.HasGhost &&
         HasCheckedArith == O.HasCheckedArith &&
         HasUnreachable == O.HasUnreachable &&
         HasLemmaApply == O.HasLemmaApply && WritesReturn == O.WritesReturn &&
         Params == O.Params && MayAliasParams == O.MayAliasParams &&
         DepFns == O.DepFns && DepPreds == O.DepPreds;
}

FnSummary FnSummary::top(unsigned NumParams) {
  FnSummary S;
  S.Known = false;
  S.Pure = false;
  S.HeapReads = S.HeapWrites = S.UnsafeOps = S.UnsafeEscapes = true;
  S.HasGhost = S.HasCheckedArith = S.HasUnreachable = true;
  S.WritesReturn = true;
  S.Params.assign(NumParams, ParamEffect{true, true, true});
  for (unsigned I = 0; I < NumParams; ++I)
    for (unsigned J = I + 1; J < NumParams; ++J)
      S.MayAliasParams.emplace_back(I, J);
  return S;
}

PredSummary PredSummary::top(std::size_t NumParams) {
  PredSummary S;
  S.Known = false;
  S.OwnsUnknown = true;
  S.MayOwnParam.assign(NumParams, true);
  return S;
}

namespace {

/// Walks a place's projection through the declared local types: does any
/// Deref step go through a raw pointer? (The W003 unsafe-surface class.)
/// Gentle: an unresolvable step answers "no" — the well-formedness pass
/// owns diagnosing ill-typed places.
bool derefsRawPointer(const rmir::Function &F, const rmir::Place &P) {
  if (P.Local >= F.Locals.size())
    return false;
  rmir::TypeRef Ty = F.Locals[P.Local].Ty;
  const std::vector<rmir::FieldDef> *VariantFields = nullptr;
  for (const rmir::PlaceElem &E : P.Elems) {
    switch (E.Kind) {
    case rmir::PlaceElem::Deref:
      if (Ty && Ty->Kind == rmir::TypeKind::RawPtr)
        return true;
      Ty = Ty && Ty->isPointerLike() ? Ty->Pointee : nullptr;
      VariantFields = nullptr;
      break;
    case rmir::PlaceElem::Field:
      if (VariantFields) {
        Ty = E.Index < VariantFields->size() ? (*VariantFields)[E.Index].Ty
                                             : nullptr;
        VariantFields = nullptr;
      } else if (Ty && Ty->Kind == rmir::TypeKind::Struct) {
        Ty = E.Index < Ty->Fields.size() ? Ty->Fields[E.Index].Ty : nullptr;
      } else {
        Ty = nullptr;
      }
      break;
    case rmir::PlaceElem::Downcast:
      if (Ty && Ty->Kind == rmir::TypeKind::Enum &&
          E.Index < Ty->Variants.size()) {
        VariantFields = &Ty->Variants[E.Index].Fields;
      } else {
        Ty = nullptr;
        VariantFields = nullptr;
      }
      break;
    }
  }
  return false;
}

bool placeHasDeref(const rmir::Place &P) {
  for (const rmir::PlaceElem &E : P.Elems)
    if (E.Kind == rmir::PlaceElem::Deref)
      return true;
  return false;
}

/// The intraprocedural effect walk of one body: the alias-propagation idiom
/// of FrameLint's TouchAnalysis, widened from a single "touched" bit to
/// read/write/escape effects per parameter root, heap/unsafe facts, and
/// callee summary application.
class EffectAnalysis {
public:
  EffectAnalysis(const rmir::Function &F, const SummaryTable &T,
                 const Scc &Group)
      : F(F), Table(T), Group(Group) {
    Aliases.resize(F.Locals.size());
    for (unsigned I = 0; I != F.NumParams && 1 + I < F.Locals.size(); ++I) {
      Aliases[1 + I].insert(1 + I);
      ParamByName[F.Locals[1 + I].Name] = 1 + I;
    }
    Effects.resize(F.Locals.size());
  }

  void run(FnSummary &Out) {
    // Alias sets and effect bits only grow, bounded by the local count, so
    // |Locals|+2 passes reach the fixpoint (the TouchAnalysis bound).
    for (std::size_t Pass = 0; Pass != F.Locals.size() + 2; ++Pass) {
      Changed = false;
      for (const rmir::BasicBlock &B : F.Blocks) {
        for (const rmir::Statement &S : B.Stmts)
          visitStatement(S);
        visitTerminator(B.Term);
      }
      if (!Changed)
        break;
    }
    finish(Out);
  }

private:
  static const std::set<rmir::LocalId> &emptySet() {
    static const std::set<rmir::LocalId> Empty;
    return Empty;
  }

  const std::set<rmir::LocalId> &rootsOf(rmir::LocalId L) const {
    return L < Aliases.size() ? Aliases[L] : emptySet();
  }

  void effect(rmir::LocalId Via, bool Read, bool Write, bool Escape) {
    for (rmir::LocalId R : rootsOf(Via)) {
      ParamEffect &E = Effects[R];
      if (Read && !E.Read)
        Changed = E.Read = true;
      if (Write && !E.Written)
        Changed = E.Written = true;
      if (Escape && !E.Escaped)
        Changed = E.Escaped = true;
    }
  }

  void propagate(rmir::LocalId Dest, rmir::LocalId Src) {
    if (Dest >= Aliases.size())
      return;
    for (rmir::LocalId R : rootsOf(Src))
      Changed |= Aliases[Dest].insert(R).second;
  }

  /// A place read as a value: a deref reads through the base local.
  void readPlace(const rmir::Place &P) {
    if (placeHasDeref(P)) {
      HeapReads = true;
      effect(P.Local, /*Read=*/true, false, false);
      if (derefsRawPointer(F, P))
        UnsafeOps = true;
    }
  }

  void readOperand(const rmir::Operand &Op) {
    if (Op.Kind != rmir::Operand::Const)
      readPlace(Op.P);
  }

  /// Source roots of an operand escape (stored to heap, returned, passed
  /// on).
  void escapeOperand(const rmir::Operand &Op) {
    if (Op.Kind != rmir::Operand::Const)
      effect(Op.P.Local, false, false, /*Escape=*/true);
  }

  /// The callee summary visible at a call site: computed SCCs answer from
  /// the table; a not-yet-computed member of the *current* SCC seeds
  /// optimistically (bottom for may-facts, pure for the must-fact) so the
  /// enclosing fixpoint converges to the least solution; anything else is
  /// top.
  FnSummary calleeSummary(const std::string &Name,
                          std::size_t NumArgs) const {
    if (const FnSummary *S = Table.fn(Name))
      return *S;
    if (std::binary_search(Group.Members.begin(), Group.Members.end(),
                           Name)) {
      FnSummary Seed;
      Seed.Known = true;
      Seed.Pure = true;
      Seed.Leaf = true;
      Seed.Params.resize(NumArgs);
      return Seed;
    }
    return FnSummary::top(static_cast<unsigned>(NumArgs));
  }

  void visitStatement(const rmir::Statement &S) {
    switch (S.Kind) {
    case rmir::Statement::Assign: {
      // Destination: a projected write goes through the base local.
      if (placeHasDeref(S.Dest)) {
        HeapWrites = true;
        effect(S.Dest.Local, false, /*Write=*/true, false);
        if (derefsRawPointer(F, S.Dest))
          UnsafeOps = true;
        // Values stored through the heap escape the frame.
        for (const rmir::Operand &Op : S.RV.Ops)
          escapeOperand(Op);
        if (S.RV.Kind == rmir::Rvalue::RefOf ||
            S.RV.Kind == rmir::Rvalue::AddrOf)
          effect(S.RV.P.Local, false, false, /*Escape=*/true);
      }
      for (const rmir::Operand &Op : S.RV.Ops)
        readOperand(Op);
      switch (S.RV.Kind) {
      case rmir::Rvalue::BinaryOp:
        if (S.RV.BOp == rmir::BinOp::Add || S.RV.BOp == rmir::BinOp::Sub ||
            S.RV.BOp == rmir::BinOp::Mul)
          HasCheckedArith = true;
        break;
      case rmir::Rvalue::UnaryOp:
        if (S.RV.UOp == rmir::UnOp::Neg)
          HasCheckedArith = true;
        break;
      case rmir::Rvalue::Discriminant:
      case rmir::Rvalue::RefOf:
        readPlace(S.RV.P);
        break;
      case rmir::Rvalue::AddrOf:
        readPlace(S.RV.P);
        UnsafeOps = true;
        break;
      case rmir::Rvalue::PtrOffset:
        UnsafeOps = true;
        break;
      default:
        break;
      }
      if (S.Dest.Elems.empty()) {
        for (const rmir::Operand &Op : S.RV.Ops)
          if (Op.Kind != rmir::Operand::Const)
            propagate(S.Dest.Local, Op.P.Local);
        switch (S.RV.Kind) {
        case rmir::Rvalue::Discriminant:
        case rmir::Rvalue::RefOf:
        case rmir::Rvalue::AddrOf:
          propagate(S.Dest.Local, S.RV.P.Local);
          break;
        default:
          break;
        }
        if (S.Dest.Local == 0) {
          WritesReturn = true;
          for (const rmir::Operand &Op : S.RV.Ops)
            escapeOperand(Op);
          switch (S.RV.Kind) {
          case rmir::Rvalue::Discriminant:
          case rmir::Rvalue::RefOf:
          case rmir::Rvalue::AddrOf:
            effect(S.RV.P.Local, false, false, /*Escape=*/true);
            break;
          default:
            break;
          }
        }
      }
      break;
    }
    case rmir::Statement::Alloc:
      UnsafeOps = true;
      HeapWrites = true;
      if (placeHasDeref(S.Dest)) {
        effect(S.Dest.Local, false, /*Write=*/true, false);
        if (derefsRawPointer(F, S.Dest))
          UnsafeOps = true;
      }
      break;
    case rmir::Statement::Free:
      UnsafeOps = true;
      HeapWrites = true;
      if (S.FreeArg.Kind != rmir::Operand::Const)
        effect(S.FreeArg.P.Local, false, /*Write=*/true, /*Escape=*/true);
      break;
    case rmir::Statement::GhostStmt: {
      HasGhost = true;
      if (S.G.Kind == rmir::GhostKind::ApplyLemma)
        HasLemmaApply = true;
      // A proof step about a parameter's memory consults it.
      for (const rmir::Operand &Op : S.G.Args)
        if (Op.Kind != rmir::Operand::Const)
          effect(Op.P.Local, /*Read=*/true, false, false);
      std::set<std::string> Vars;
      collectVars(S.G.PureArg, Vars);
      for (const std::string &V : Vars) {
        auto It = ParamByName.find(V);
        if (It != ParamByName.end())
          effect(It->second, /*Read=*/true, false, false);
      }
      break;
    }
    case rmir::Statement::Nop:
      break;
    }
  }

  void visitTerminator(const rmir::Terminator &T) {
    switch (T.Kind) {
    case rmir::Terminator::SwitchInt:
      readOperand(T.Discr);
      break;
    case rmir::Terminator::Call: {
      SawCall = true;
      for (const rmir::Operand &Op : T.Args)
        readOperand(Op);
      // An unknown callee resolves to FnSummary::top inside calleeSummary,
      // which makes every merge below conservative.
      FnSummary CS = calleeSummary(T.Callee, T.Args.size());
      HeapReads |= CS.HeapReads;
      HeapWrites |= CS.HeapWrites;
      if (!CS.Pure)
        CalleeImpure = true;
      if (CS.UnsafeEscapes)
        CalleeUnsafeEscapes = true;
      for (std::size_t I = 0; I != T.Args.size(); ++I) {
        const rmir::Operand &Op = T.Args[I];
        if (Op.Kind == rmir::Operand::Const)
          continue;
        ParamEffect E = I < CS.Params.size() ? CS.Params[I]
                                             : ParamEffect{true, true, true};
        if (!CS.Known)
          E = ParamEffect{true, true, true};
        effect(Op.P.Local, E.Read, E.Written, E.Escaped);
        // An escaping argument may flow out through the return value.
        if (E.Escaped && T.Dest.Elems.empty())
          propagate(T.Dest.Local, Op.P.Local);
      }
      for (const auto &[I, J] : CS.MayAliasParams) {
        if (I >= T.Args.size() || J >= T.Args.size())
          continue;
        const rmir::Operand &A = T.Args[I], &B = T.Args[J];
        if (A.Kind == rmir::Operand::Const || B.Kind == rmir::Operand::Const)
          continue;
        for (rmir::LocalId RA : rootsOf(A.P.Local))
          for (rmir::LocalId RB : rootsOf(B.P.Local))
            if (RA != RB)
              Changed |= AliasPairs
                             .emplace(std::min(RA, RB), std::max(RA, RB))
                             .second;
      }
      if (placeHasDeref(T.Dest)) {
        HeapWrites = true;
        effect(T.Dest.Local, false, /*Write=*/true, false);
        if (derefsRawPointer(F, T.Dest))
          UnsafeOps = true;
      } else if (T.Dest.Local == 0)
        WritesReturn = true;
      break;
    }
    case rmir::Terminator::Return:
      effect(0, false, false, /*Escape=*/true);
      break;
    case rmir::Terminator::Unreachable:
      HasUnreachable = true;
      break;
    case rmir::Terminator::Goto:
      break;
    }
  }

  void finish(FnSummary &Out) {
    Out.Known = true;
    Out.Leaf = !SawCall;
    Out.HeapReads = HeapReads;
    Out.HeapWrites = HeapWrites;
    Out.UnsafeOps = UnsafeOps;
    Out.Pure = !HeapWrites && !UnsafeOps && !CalleeImpure;
    Out.HasGhost = HasGhost;
    Out.HasCheckedArith = HasCheckedArith;
    Out.HasUnreachable = HasUnreachable;
    Out.HasLemmaApply = HasLemmaApply;
    Out.WritesReturn = WritesReturn;
    Out.Params.assign(F.NumParams, ParamEffect{});
    for (unsigned I = 0; I != F.NumParams && 1 + I < F.Locals.size(); ++I)
      Out.Params[I] = Effects[1 + I];
    // May-alias: parameter roots that flowed into the same local, plus the
    // pairs callee summaries merged.
    std::set<std::pair<rmir::LocalId, rmir::LocalId>> Pairs = AliasPairs;
    for (const std::set<rmir::LocalId> &Set : Aliases)
      for (auto It = Set.begin(); It != Set.end(); ++It)
        for (auto Jt = std::next(It); Jt != Set.end(); ++Jt)
          Pairs.emplace(*It, *Jt);
    Out.MayAliasParams.clear();
    for (const auto &[A, B] : Pairs)
      if (A >= 1 && B >= 1 && A <= F.NumParams && B <= F.NumParams)
        Out.MayAliasParams.emplace_back(A - 1, B - 1);
    // The caller fills Recursive/UnsafeEscapes/DepFns/DepPreds: they need
    // the SCC structure, the spec table and the predicate closures.
    bool Unsafe = UnsafeOps || CalleeUnsafeEscapes;
    Out.UnsafeEscapes = Unsafe; // Spec containment applied by the caller.
  }

  const rmir::Function &F;
  const SummaryTable &Table;
  const Scc &Group;
  std::vector<std::set<rmir::LocalId>> Aliases;
  std::vector<ParamEffect> Effects;
  std::set<std::pair<rmir::LocalId, rmir::LocalId>> AliasPairs;
  std::map<std::string, rmir::LocalId> ParamByName;
  bool Changed = false;
  bool SawCall = false;
  bool HeapReads = false, HeapWrites = false, UnsafeOps = false;
  bool HasGhost = false, HasCheckedArith = false, HasUnreachable = false;
  bool HasLemmaApply = false, WritesReturn = false;
  bool CalleeImpure = false, CalleeUnsafeEscapes = false;
};

/// Whether \p Name's spec contains a containment boundary for its unsafe
/// surface: any spatial/ownership assertion in pre or post.
bool specContainsUnsafety(const gilsonite::SpecTable &Specs,
                          const std::string &Name) {
  const gilsonite::Spec *S = Specs.lookup(Name);
  return S && (hasOwnershipAssertion(S->Pre) ||
               hasOwnershipAssertion(S->Post));
}

/// Closes \p Direct over the predicate reference closure recorded in the
/// already-computed predicate summaries.
void closePreds(const SummaryTable &T, const std::set<std::string> &Direct,
                std::set<std::string> &Out) {
  for (const std::string &P : Direct) {
    Out.insert(P);
    if (const PredSummary *PS = T.pred(P))
      Out.insert(PS->DepPreds.begin(), PS->DepPreds.end());
  }
}

FnSummary analyzeOne(const rmir::Program &Prog,
                     const gilsonite::SpecTable &Specs, const CallGraph &G,
                     const Scc &Group, const std::string &Name,
                     SummaryTable &T) {
  const rmir::Function *F = Prog.lookup(Name);
  if (!F || F->Blocks.empty()) {
    FnSummary S = FnSummary::top(F ? F->NumParams : 0);
    S.Recursive = Group.Recursive;
    S.DepFns.insert(Name);
    return S;
  }
  FnSummary S;
  EffectAnalysis EA(*F, T, Group);
  EA.run(S);
  S.Recursive = Group.Recursive;
  if (S.UnsafeEscapes && specContainsUnsafety(Specs, Name))
    S.UnsafeEscapes = false;

  S.DepFns.insert(Name);
  auto Calls = G.FnCalls.find(Name);
  if (Calls != G.FnCalls.end())
    for (const std::string &Callee : Calls->second) {
      S.DepFns.insert(Callee);
      if (const FnSummary *CS = T.fn(Callee)) {
        S.DepFns.insert(CS->DepFns.begin(), CS->DepFns.end());
        S.DepPreds.insert(CS->DepPreds.begin(), CS->DepPreds.end());
      }
    }
  auto Unknown = G.FnUnknownCallees.find(Name);
  if (Unknown != G.FnUnknownCallees.end())
    S.DepFns.insert(Unknown->second.begin(), Unknown->second.end());
  auto Mentions = G.FnPreds.find(Name);
  if (Mentions != G.FnPreds.end())
    closePreds(T, Mentions->second, S.DepPreds);
  return S;
}

/// Formal-parameter mentions of \p E outside \p Bound.
void formalsIn(const Expr &E, const std::map<std::string, std::size_t> &Formals,
               const std::set<std::string> &Bound,
               std::set<std::size_t> &Out) {
  std::set<std::string> Vars;
  collectVars(E, Vars);
  for (const std::string &V : Vars) {
    if (Bound.count(V))
      continue;
    auto It = Formals.find(V);
    if (It != Formals.end())
      Out.insert(It->second);
  }
}

void scanPredClause(const gilsonite::AssertionP &A,
                    const std::map<std::string, std::size_t> &Formals,
                    std::set<std::string> Bound, const SummaryTable &T,
                    std::vector<bool> &MayOwn) {
  if (!A)
    return;
  switch (A->Kind) {
  case gilsonite::AsrtKind::Star:
    for (const gilsonite::AssertionP &P : A->Parts)
      scanPredClause(P, Formals, Bound, T, MayOwn);
    return;
  case gilsonite::AsrtKind::Exists: {
    for (const gilsonite::Binder &B : A->Binders)
      Bound.insert(B.Name);
    scanPredClause(A->Body, Formals, std::move(Bound), T, MayOwn);
    return;
  }
  case gilsonite::AsrtKind::PointsTo:
  case gilsonite::AsrtKind::UninitPT:
  case gilsonite::AsrtKind::MaybeUninit:
  case gilsonite::AsrtKind::ArrayPT:
  case gilsonite::AsrtKind::ArrayUninit: {
    std::set<std::size_t> Hit;
    formalsIn(A->Ptr, Formals, Bound, Hit);
    for (std::size_t I : Hit)
      if (I < MayOwn.size())
        MayOwn[I] = true;
    return;
  }
  case gilsonite::AsrtKind::PredCall:
  case gilsonite::AsrtKind::GuardedCall: {
    const PredSummary *QS = T.pred(A->Name);
    for (std::size_t I = 0; I != A->Args.size(); ++I) {
      bool Owns = !QS || QS->OwnsUnknown ||
                  (I < QS->MayOwnParam.size() && QS->MayOwnParam[I]);
      if (!Owns)
        continue;
      std::set<std::size_t> Hit;
      formalsIn(A->Args[I], Formals, Bound, Hit);
      for (std::size_t J : Hit)
        if (J < MayOwn.size())
          MayOwn[J] = true;
    }
    return;
  }
  default:
    return;
  }
}

/// Predicate counterpart of \c summarizeFnScc.
void summarizePredScc(const gilsonite::PredTable &Preds, const CallGraph &G,
                      const Scc &S, SummaryTable &T) {
  // Seed: tops for abstract/undeclared members, bottoms otherwise, so
  // in-SCC references resolve to the current iterate.
  for (const std::string &Name : S.Members) {
    const gilsonite::PredDecl *D = Preds.lookup(Name);
    if (!D || D->Abstract || D->Clauses.empty()) {
      PredSummary PS = PredSummary::top(D ? D->Params.size() : 0);
      PS.DepPreds.insert(Name);
      T.Preds[Name] = std::move(PS);
      continue;
    }
    PredSummary PS;
    PS.Known = true;
    PS.MayOwnParam.assign(D->Params.size(), false);
    PS.DepPreds.insert(Name);
    T.Preds[Name] = std::move(PS);
  }

  bool AnyChanged = true;
  // MayOwn bits only rise; |members| * |params| iterations bound the loop,
  // with a generous safety cap.
  for (unsigned Iter = 0; AnyChanged && Iter < 10000; ++Iter) {
    AnyChanged = false;
    for (const std::string &Name : S.Members) {
      const gilsonite::PredDecl *D = Preds.lookup(Name);
      PredSummary &Cur = T.Preds[Name];
      if (!D || !Cur.Known)
        continue;
      PredSummary Next;
      Next.Known = true;
      Next.MayOwnParam.assign(D->Params.size(), false);
      Next.DepPreds.insert(Name);
      std::map<std::string, std::size_t> Formals;
      for (std::size_t I = 0; I != D->Params.size(); ++I)
        Formals[D->Params[I].Name] = I;
      for (const gilsonite::AssertionP &Clause : D->Clauses)
        scanPredClause(Clause, Formals, {}, T, Next.MayOwnParam);
      auto Refs = G.PredRefs.find(Name);
      if (Refs != G.PredRefs.end())
        closePreds(T, Refs->second, Next.DepPreds);
      if (Next != Cur) {
        Cur = std::move(Next);
        AnyChanged = true;
      }
    }
    if (!S.Recursive)
      break;
  }
}

/// Computes the summaries of every member of \p S (a call-graph SCC) into
/// \p T, reading callee summaries of earlier SCCs from \p T. Iterates to a
/// fixpoint when the SCC is recursive. Bottom-up order is the caller's
/// responsibility (walk \c condenseSccs output left to right).
void summarizeFnScc(const rmir::Program &Prog,
                    const gilsonite::SpecTable &Specs, const CallGraph &G,
                    const Scc &S, SummaryTable &T) {
  bool AnyChanged = true;
  // Effect bits are monotone per the seed policy in calleeSummary, so each
  // flips at most once; the cap is a safety net, not a budget.
  for (unsigned Iter = 0; AnyChanged && Iter < 10000; ++Iter) {
    AnyChanged = false;
    for (const std::string &Name : S.Members) {
      FnSummary Next = analyzeOne(Prog, Specs, G, S, Name, T);
      auto It = T.Fns.find(Name);
      if (It == T.Fns.end() || It->second != Next) {
        T.Fns[Name] = std::move(Next);
        AnyChanged = true;
      }
    }
    if (!S.Recursive)
      break;
  }
}

} // namespace

SummaryTable
gilr::analysis::computeSummaries(const rmir::Program &Prog,
                                 const gilsonite::PredTable &Preds,
                                 const gilsonite::SpecTable &Specs) {
  SummaryTable T;
  CallGraph G = CallGraph::build(Prog, Preds, Specs);
  T.PredSccs = condenseSccs(G.PredRefs);
  for (const Scc &S : T.PredSccs)
    summarizePredScc(Preds, G, S, T);
  T.FnSccs = condenseSccs(G.FnCalls);
  for (const Scc &S : T.FnSccs)
    summarizeFnScc(Prog, Specs, G, S, T);
  return T;
}
