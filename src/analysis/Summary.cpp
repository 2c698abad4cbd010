//===- analysis/Summary.cpp - Bottom-up summary computation ----------------===//

#include "analysis/Summary.h"

#include "analysis/Passes.h"

#include <algorithm>

using namespace gilr;
using namespace gilr::analysis;

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

/// An operand read through a raw pointer.
bool derefsRawPointer(const rmir::Function &F, const rmir::Operand &Op) {
  return Op.Kind != rmir::Operand::Const && derefsRawPointer(F, Op.P);
}

/// Any of \p Ops read through a raw pointer.
bool anyDerefsRawPointer(const rmir::Function &F,
                         const std::vector<rmir::Operand> &Ops) {
  return std::any_of(Ops.begin(), Ops.end(), [&](const rmir::Operand &Op) {
    return derefsRawPointer(F, Op);
  });
}

/// Whether the callee \p Name's unsafe surface escapes into its callers:
/// computed SCCs answer from the table; a not-yet-computed member of the
/// *current* SCC seeds optimistically (no escape) so the enclosing
/// fixpoint converges to the least solution; a function the program does
/// not contain escapes.
bool calleeEscapes(const std::string &Name, const SummaryTable &T,
                   const Scc &Group) {
  if (const FnSummary *S = T.fn(Name))
    return S->UnsafeEscapes;
  return !std::binary_search(Group.Members.begin(), Group.Members.end(),
                             Name);
}

/// The body facts of \p F in one flow-insensitive pass: its own raw-pointer
/// operations, its lemma applications, and the unsafe surface its callees
/// let escape into it. The caller applies spec containment.
void scanBody(const rmir::Function &F, const SummaryTable &T,
              const Scc &Group, FnSummary &Out) {
  bool CalleeUnsafe = false;
  for (const rmir::BasicBlock &B : F.Blocks) {
    for (const rmir::Statement &S : B.Stmts) {
      switch (S.Kind) {
      case rmir::Statement::Assign:
        if (derefsRawPointer(F, S.Dest) || anyDerefsRawPointer(F, S.RV.Ops))
          Out.UnsafeOps = true;
        switch (S.RV.Kind) {
        case rmir::Rvalue::Discriminant:
        case rmir::Rvalue::RefOf:
          if (derefsRawPointer(F, S.RV.P))
            Out.UnsafeOps = true;
          break;
        case rmir::Rvalue::AddrOf:
        case rmir::Rvalue::PtrOffset:
          Out.UnsafeOps = true;
          break;
        default:
          break;
        }
        break;
      case rmir::Statement::Alloc:
      case rmir::Statement::Free:
        Out.UnsafeOps = true;
        break;
      case rmir::Statement::GhostStmt:
        if (S.G.Kind == rmir::GhostKind::ApplyLemma)
          Out.HasLemmaApply = true;
        break;
      case rmir::Statement::Nop:
        break;
      }
    }
    const rmir::Terminator &Term = B.Term;
    switch (Term.Kind) {
    case rmir::Terminator::SwitchInt:
      if (derefsRawPointer(F, Term.Discr))
        Out.UnsafeOps = true;
      break;
    case rmir::Terminator::Call:
      if (derefsRawPointer(F, Term.Dest) || anyDerefsRawPointer(F, Term.Args))
        Out.UnsafeOps = true;
      if (calleeEscapes(Term.Callee, T, Group))
        CalleeUnsafe = true;
      break;
    default:
      break;
    }
  }
  Out.UnsafeEscapes = Out.UnsafeOps || CalleeUnsafe;
}

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
  FnSummary S;
  S.DepFns.insert(Name);
  const rmir::Function *F = Prog.lookup(Name);
  if (!F || F->Blocks.empty()) {
    // An opaque body: nothing bounds its unsafe surface.
    S.UnsafeOps = S.UnsafeEscapes = true;
    return S;
  }
  scanBody(*F, T, Group, S);
  if (S.UnsafeEscapes && specContainsUnsafety(Specs, Name))
    S.UnsafeEscapes = false;

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
  // Escape bits are monotone per the seed policy in calleeEscapes, so each
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
