//===- solver/Congruence.h - Congruence closure with constructors ---------===//
///
/// \file
/// A congruence-closure engine over the expression DAG with built-in
/// constructor reasoning: merging Some(a) with Some(b) merges a with b,
/// merging None with Some(_) (or two distinct literals) is a conflict, and
/// projection terms (Unwrap, TupleGet, SeqLen over static sequences) are
/// evaluated against constructor witnesses discovered in their argument's
/// class. This is the equality core of the SMT-lite solver standing in for
/// Z3 (see DESIGN.md, Substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_CONGRUENCE_H
#define GILR_SOLVER_CONGRUENCE_H

#include "sym/Expr.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace gilr {

/// Congruence closure over registered terms.
class Congruence {
public:
  Congruence() = default;

  /// Registers \p E and all its subterms; returns its node id.
  int registerTerm(const Expr &E);

  /// Asserts a = b. Returns false on conflict.
  bool addEquality(const Expr &A, const Expr &B);

  /// Queues a = b without saturating; call saturate() once after a batch.
  void queueEquality(const Expr &A, const Expr &B);

  /// Records a disequality to be checked by \c hasDisequalityConflict.
  void addDisequality(const Expr &A, const Expr &B);

  /// Runs closure to fixpoint. Returns false on conflict. A closed closure
  /// (nothing queued, no term registered since its fixpoint) returns at
  /// once. An input that does not converge within \c MaxRounds rounds emits
  /// a `solver/congruence-capped` trace instant, and the closure then stays
  /// as it is: its classes are sound but incomplete, and later calls do not
  /// resume it.
  bool saturate();

  /// Round cap for inputs that never converge.
  static constexpr unsigned MaxRounds = 200;

  /// Closure rounds run by this instance so far.
  unsigned rounds() const { return Rounds; }

  /// True if some asserted disequality collapsed into an equality.
  bool hasDisequalityConflict();

  /// True if a class contains sequences of incompatible static lengths.
  bool hasSeqLengthConflict();

  bool inConflict() const { return Conflict; }

  /// True if the closure proves a = b (both terms are registered on demand).
  bool provedEqual(const Expr &A, const Expr &B);

  /// Returns the canonical class id of \p E (its union-find representative
  /// after saturation, which is a lookup on a closed closure): a dense
  /// per-instance int, deterministic in registration order. Terms equal up
  /// to congruence share an id. Used by the linear-arithmetic backend and
  /// the solver's propositional/lifetime maps to identify opaque terms up to
  /// equality. (Interning already dedupes equal literals to one term id, so
  /// a literal witness needs no separate key space.)
  int canonClass(const Expr &E);

  /// Returns the constructor/literal witness of the class of \p E if one is
  /// known (IntLit, BoolLit, RealLit, LocLit, NoneLit, Some, TupleLit,
  /// SeqNil/SeqUnit/static SeqConcat), else nullptr.
  Expr witness(const Expr &E);

  /// Enumerates one representative term per class (for theory export).
  std::vector<Expr> classReps();

  /// A sequence-constructor member (concat/unit/nil) of E's class, if any;
  /// used for associativity reasoning over concatenations.
  Expr seqShapeWitness(const Expr &E);

private:
  struct Node {
    Expr Term;
    int Parent;
    int Size;
  };

  int find(int I);
  bool merge(int A, int B);
  /// Symbol id of \p N's Name for the signature pass: 0 for unnamed nodes,
  /// the global interned NameSym when present, else a high-bit-tagged local
  /// id (foreign nodes only) so foreign names can never collide with
  /// interned ones.
  uint64_t nameSymbol(const ExprNode &N);
  bool isConstructorLike(const Expr &E) const;
  /// Returns 0 if two constructor-like terms are compatible roots (same
  /// shape), 1 if identical-by-payload, -1 if definitely clashing.
  int constructorCompat(const Expr &A, const Expr &B) const;

  struct ExprPtrHash {
    std::size_t operator()(const Expr &E) const { return E->hash(); }
  };
  struct ExprPtrEq {
    bool operator()(const Expr &A, const Expr &B) const {
      return exprEquals(A, B);
    }
  };

  std::vector<Node> Nodes;
  std::unordered_map<Expr, int, ExprPtrHash, ExprPtrEq> TermIds;
  /// Fallback symbol ids for foreign (un-interned) names in the signature
  /// pass; global NameSym ids are used when available.
  std::unordered_map<std::string, uint64_t> LocalNameIds;
  std::vector<std::pair<int, int>> Pending;
  std::vector<std::pair<int, int>> Disequalities;
  /// Class representative -> witness node id (a constructor or literal
  /// member, literals preferred); present iff the class has such a member.
  std::unordered_map<int, int> Witness;
  /// Node count at the last fixpoint.
  std::size_t ClosedNodes = 0;
  unsigned Rounds = 0;
  bool Capped = false;
  bool Conflict = false;
};

} // namespace gilr

#endif // GILR_SOLVER_CONGRUENCE_H
