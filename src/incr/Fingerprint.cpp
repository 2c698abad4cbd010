//===- incr/Fingerprint.cpp -------------------------------------------------------===//

#include "incr/Fingerprint.h"

#include <set>

using namespace gilr;
using namespace gilr::incr;

//===----------------------------------------------------------------------===//
// Hasher
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64 finaliser — fixed constants, identical across processes.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

void Hasher::word(uint64_t V) { H = mix(H ^ V); }

void Hasher::str(const std::string &S) {
  word(S.size());
  word(fnv1a(S));
}

void Hasher::expr(const Expr &E) { word(exprStableHash(E)); }

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

namespace {

/// Recursive type hash with a visited set: recursive nominal types (e.g.
/// Node<T> holding *mut Node<T>) are cut at the back-edge by hashing kind
/// and name only. Sound because a nominal type's identity in TyCtx *is* its
/// name — redefinition under the same name is rejected — so the name pins
/// the cycle's content, which the first (non-back-edge) visit hashes fully.
void hashType(Hasher &HS, rmir::TypeRef Ty, std::set<rmir::TypeRef> &Open) {
  if (!Ty) {
    HS.u8(0xff); // "no type" marker, distinct from every TypeKind.
    return;
  }
  HS.u8(static_cast<uint8_t>(Ty->Kind));
  if (Open.count(Ty)) {
    HS.u8(1); // Back-edge marker.
    HS.str(Ty->Name);
    return;
  }
  Open.insert(Ty);
  HS.u8(2); // Expanded marker.
  HS.u8(static_cast<uint8_t>(Ty->IntK));
  HS.str(Ty->Name);
  HS.boolean(Ty->IsOptionLike);
  HS.u64(Ty->ArrayLen);
  HS.size(Ty->Fields.size());
  for (const rmir::FieldDef &F : Ty->Fields) {
    HS.str(F.Name);
    hashType(HS, F.Ty, Open);
  }
  HS.size(Ty->Variants.size());
  for (const rmir::VariantDef &V : Ty->Variants) {
    HS.str(V.Name);
    HS.size(V.Fields.size());
    for (const rmir::FieldDef &F : V.Fields) {
      HS.str(F.Name);
      hashType(HS, F.Ty, Open);
    }
  }
  hashType(HS, Ty->Pointee, Open);
  Open.erase(Ty);
}

void hashTypeTop(Hasher &HS, rmir::TypeRef Ty) {
  std::set<rmir::TypeRef> Open;
  hashType(HS, Ty, Open);
}

} // namespace

uint64_t gilr::incr::fpType(rmir::TypeRef Ty) {
  Hasher HS;
  hashTypeTop(HS, Ty);
  return HS.result();
}

//===----------------------------------------------------------------------===//
// RMIR bodies
//===----------------------------------------------------------------------===//

namespace {

void hashPlace(Hasher &HS, const rmir::Place &P) {
  HS.u32(P.Local);
  HS.size(P.Elems.size());
  for (const rmir::PlaceElem &E : P.Elems) {
    HS.u8(static_cast<uint8_t>(E.Kind));
    HS.u32(E.Index);
  }
}

void hashOperand(Hasher &HS, const rmir::Operand &O) {
  HS.u8(static_cast<uint8_t>(O.Kind));
  hashPlace(HS, O.P);
  HS.expr(O.ConstVal);
  hashTypeTop(HS, O.ConstTy);
}

void hashRvalue(Hasher &HS, const rmir::Rvalue &R) {
  HS.u8(static_cast<uint8_t>(R.Kind));
  HS.u8(static_cast<uint8_t>(R.BOp));
  HS.u8(static_cast<uint8_t>(R.UOp));
  HS.size(R.Ops.size());
  for (const rmir::Operand &O : R.Ops)
    hashOperand(HS, O);
  hashPlace(HS, R.P);
  hashTypeTop(HS, R.AggTy);
  HS.u32(R.Variant);
}

void hashGhost(Hasher &HS, const rmir::Ghost &G) {
  HS.u8(static_cast<uint8_t>(G.Kind));
  HS.str(G.Name);
  HS.size(G.Args.size());
  for (const rmir::Operand &O : G.Args)
    hashOperand(HS, O);
  HS.expr(G.PureArg);
}

void hashStatement(Hasher &HS, const rmir::Statement &S) {
  HS.u8(static_cast<uint8_t>(S.Kind));
  hashPlace(HS, S.Dest);
  hashRvalue(HS, S.RV);
  hashTypeTop(HS, S.AllocTy);
  hashOperand(HS, S.FreeArg);
  hashGhost(HS, S.G);
}

void hashTerminator(Hasher &HS, const rmir::Terminator &T) {
  HS.u8(static_cast<uint8_t>(T.Kind));
  HS.u32(T.Target);
  hashOperand(HS, T.Discr);
  HS.size(T.Arms.size());
  for (const auto &[Val, Block] : T.Arms) {
    HS.i128(Val);
    HS.u32(Block);
  }
  HS.u32(T.Otherwise);
  HS.str(T.Callee);
  HS.size(T.Args.size());
  for (const rmir::Operand &O : T.Args)
    hashOperand(HS, O);
  hashPlace(HS, T.Dest);
  HS.size(T.TypeArgs.size());
  for (rmir::TypeRef Ty : T.TypeArgs)
    hashTypeTop(HS, Ty);
}

} // namespace

uint64_t gilr::incr::fpFunction(const rmir::Function &F) {
  Hasher HS;
  HS.str(F.Name);
  HS.u32(F.NumParams);
  HS.size(F.TypeParams.size());
  for (const std::string &P : F.TypeParams)
    HS.str(P);
  HS.size(F.Lifetimes.size());
  for (const std::string &L : F.Lifetimes)
    HS.str(L);
  HS.size(F.Locals.size());
  for (const rmir::Local &L : F.Locals) {
    HS.str(L.Name);
    hashTypeTop(HS, L.Ty);
  }
  HS.size(F.Blocks.size());
  for (const rmir::BasicBlock &B : F.Blocks) {
    HS.size(B.Stmts.size());
    for (const rmir::Statement &S : B.Stmts)
      hashStatement(HS, S);
    hashTerminator(HS, B.Term);
  }
  // Lint suppressions are part of the body identity: toggling one must
  // invalidate the cached lint verdict (it changes which diagnostics the
  // pre-verification pass reports).
  HS.size(F.LintSuppress.size());
  for (const std::string &Code : F.LintSuppress)
    HS.str(Code);
  return HS.result();
}

//===----------------------------------------------------------------------===//
// Gilsonite assertions, specs, predicates
//===----------------------------------------------------------------------===//

namespace {

void hashAssertion(Hasher &HS, const gilsonite::AssertionP &A) {
  if (!A) {
    HS.u8(0xff);
    return;
  }
  HS.u8(static_cast<uint8_t>(A->Kind));
  HS.size(A->Parts.size());
  for (const gilsonite::AssertionP &P : A->Parts)
    hashAssertion(HS, P);
  HS.size(A->Binders.size());
  for (const gilsonite::Binder &B : A->Binders) {
    HS.str(B.Name);
    HS.u8(static_cast<uint8_t>(B.S));
  }
  hashAssertion(HS, A->Body);
  HS.expr(A->Formula);
  HS.expr(A->Ptr);
  hashTypeTop(HS, A->Ty);
  HS.expr(A->Val);
  HS.expr(A->Count);
  HS.expr(A->Seq);
  HS.str(A->Name);
  HS.size(A->Args.size());
  for (const Expr &E : A->Args)
    HS.expr(E);
  HS.expr(A->Kappa);
  HS.expr(A->Frac);
  HS.expr(A->PcyVar);
}

} // namespace

uint64_t gilr::incr::fpAssertion(const gilsonite::AssertionP &A) {
  Hasher HS;
  hashAssertion(HS, A);
  return HS.result();
}

uint64_t gilr::incr::fpSpec(const gilsonite::Spec &S) {
  Hasher HS;
  HS.str(S.Func);
  HS.size(S.SpecVars.size());
  for (const gilsonite::Binder &B : S.SpecVars) {
    HS.str(B.Name);
    HS.u8(static_cast<uint8_t>(B.S));
  }
  hashAssertion(HS, S.Pre);
  hashAssertion(HS, S.Post);
  HS.boolean(S.Trusted);
  HS.str(S.Doc);
  return HS.result();
}

uint64_t gilr::incr::fpPred(const gilsonite::PredDecl &P) {
  Hasher HS;
  HS.str(P.Name);
  HS.size(P.Params.size());
  for (const gilsonite::PredParam &PP : P.Params) {
    HS.str(PP.Name);
    HS.u8(static_cast<uint8_t>(PP.S));
    HS.boolean(PP.In);
  }
  HS.size(P.Clauses.size());
  for (const gilsonite::AssertionP &C : P.Clauses)
    hashAssertion(HS, C);
  HS.boolean(P.Abstract);
  HS.boolean(P.Guardable);
  return HS.result();
}

//===----------------------------------------------------------------------===//
// Lemmas
//===----------------------------------------------------------------------===//

uint64_t gilr::incr::fpLemma(const engine::FreezeLemma &L) {
  Hasher HS;
  HS.u8(1); // Discriminates the lemma kinds.
  HS.str(L.Name);
  HS.str(L.FromPred);
  HS.str(L.ToPred);
  return HS.result();
}

uint64_t gilr::incr::fpLemma(const engine::ExtractLemma &L) {
  Hasher HS;
  HS.u8(2);
  HS.str(L.Name);
  HS.size(L.Params.size());
  for (const std::string &P : L.Params)
    HS.str(P);
  HS.size(L.GivenParams);
  HS.size(L.MutRefParams.size());
  for (const std::string &P : L.MutRefParams) // std::set: sorted order.
    HS.str(P);
  HS.str(L.FromPred);
  HS.size(L.FromArgs.size());
  for (const Expr &E : L.FromArgs)
    HS.expr(E);
  HS.expr(L.Persistent);
  HS.expr(L.Requires);
  HS.str(L.ToPred);
  HS.size(L.ToArgs.size());
  for (const Expr &E : L.ToArgs)
    HS.expr(E);
  HS.str(L.NewProphecyHole);
  return HS.result();
}

uint64_t gilr::incr::fpLemma(
    const std::variant<engine::FreezeLemma, engine::ExtractLemma> &L) {
  if (const engine::FreezeLemma *F = std::get_if<engine::FreezeLemma>(&L))
    return fpLemma(*F);
  return fpLemma(std::get<engine::ExtractLemma>(L));
}

//===----------------------------------------------------------------------===//
// Pearlite contracts and safe clients
//===----------------------------------------------------------------------===//

namespace {

void hashPTerm(Hasher &HS, const creusot::PTermP &T) {
  if (!T) {
    HS.u8(0xff);
    return;
  }
  HS.u8(static_cast<uint8_t>(T->Kind));
  HS.str(T->Name);
  HS.i128(T->IntVal);
  HS.boolean(T->BoolVal);
  HS.size(T->Kids.size());
  for (const creusot::PTermP &K : T->Kids)
    hashPTerm(HS, K);
}

} // namespace

uint64_t gilr::incr::fpPTerm(const creusot::PTermP &T) {
  Hasher HS;
  hashPTerm(HS, T);
  return HS.result();
}

uint64_t gilr::incr::fpContract(const creusot::PearliteSpec &S) {
  Hasher HS;
  HS.str(S.Func);
  HS.size(S.Params.size());
  for (const creusot::PearliteParam &P : S.Params) {
    HS.str(P.Name);
    HS.boolean(P.IsMutRef);
  }
  hashPTerm(HS, S.Pre);
  hashPTerm(HS, S.Post);
  HS.boolean(S.HasResult);
  HS.str(S.Doc);
  return HS.result();
}

uint64_t gilr::incr::fpSafeFn(const creusot::SafeFn &F) {
  Hasher HS;
  HS.str(F.Name);
  HS.size(F.Params.size());
  for (const std::string &P : F.Params)
    HS.str(P);
  HS.size(F.Body.size());
  for (const creusot::SafeStmt &S : F.Body) {
    HS.u8(static_cast<uint8_t>(S.Kind));
    HS.str(S.Dest);
    hashPTerm(HS, S.Term);
    HS.str(S.Callee);
    HS.size(S.Args.size());
    for (const std::string &A : S.Args)
      HS.str(A);
    HS.size(S.ByMutRef.size());
    for (bool B : S.ByMutRef)
      HS.boolean(B);
  }
  return HS.result();
}

//===----------------------------------------------------------------------===//
// Configuration
//===----------------------------------------------------------------------===//

uint64_t gilr::incr::fpAutomation(const engine::Automation &A,
                                  unsigned MaxBranches) {
  Hasher HS;
  HS.boolean(A.AutoUnfold);
  HS.boolean(A.AutoBorrow);
  HS.boolean(A.AutoCloseAtReturn);
  HS.boolean(A.ObsExtraction);
  HS.boolean(A.PanicsAllowed);
  HS.u32(A.HeuristicFuel);
  HS.u32(MaxBranches);
  return HS.result();
}

uint64_t gilr::incr::fpAnalysisConfig(const analysis::AnalysisConfig &C,
                                      unsigned MaxBranches) {
  Hasher HS;
  HS.boolean(C.Enabled);
  HS.boolean(C.FailOnError);
  HS.boolean(C.WarningsAsErrors);
  HS.boolean(C.FunctionLints);
  HS.boolean(C.SpecLints);
  HS.size(C.DisabledCodes.size());
  for (const std::string &Code : C.DisabledCodes)
    HS.str(Code);
  HS.u32(MaxBranches);
  return HS.result();
}
