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

#include "solver/TermIndex.h"
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

  /// The sequence-constructor member (concat/unit/nil) of E's class with
  /// the lowest node id, if any; used for associativity reasoning over
  /// concatenations. A lookup: each class root keeps it.
  Expr seqShapeWitness(const Expr &E);

  /// The registered terms: node ids are 0 .. numTerms() - 1, in
  /// registration order.
  std::size_t numTerms() const { return Nodes.size(); }
  const Expr &term(int Id) const {
    return Nodes[static_cast<std::size_t>(Id)].Term;
  }

private:
  struct Node {
    Expr Term;
    int Parent;
    int Size;
    /// Index of the first of the term's kid ids in KidIds.
    std::size_t FirstKid;
  };

  int find(int I);
  bool merge(int A, int B);
  /// Node id of the \p K-th kid of node \p I.
  int kid(int I, std::size_t K) const {
    return KidIds[Nodes[static_cast<std::size_t>(I)].FirstKid + K];
  }
  /// True if nodes \p A and \p B have the same kind, index, name, arity and
  /// kid classes: the congruence pass's signature.
  bool sameSignature(int A, int B);
  /// Symbol id of \p N's Name for the signature pass: 0 for unnamed nodes,
  /// the global interned NameSym when present, else a high-bit-tagged local
  /// id (foreign nodes only) so foreign names can never collide with
  /// interned ones.
  uint64_t nameSymbol(const ExprNode &N);
  bool isConstructorLike(const Expr &E) const;
  /// Returns 0 if two constructor-like terms are compatible roots (same
  /// shape), 1 if identical-by-payload, -1 if definitely clashing.
  int constructorCompat(const Expr &A, const Expr &B) const;

  std::vector<Node> Nodes;
  /// The kid ids of every node, node after node.
  std::vector<int> KidIds;
  TermIndex TermIds;
  /// Fallback symbol ids for foreign (un-interned) names in the signature
  /// pass; global NameSym ids are used when available.
  std::unordered_map<std::string, uint64_t> LocalNameIds;
  std::vector<std::pair<int, int>> Pending;
  std::vector<std::pair<int, int>> Disequalities;
  /// Per class root: the witness node id (a constructor or literal member,
  /// literals preferred), or -1 if the class has no such member.
  std::vector<int> Witness;
  /// Per class root: the lowest node id of a sequence-constructor member,
  /// or -1.
  std::vector<int> SeqShape;
  /// Open-addressing table of the congruence pass, reused across rounds.
  std::vector<int> Signatures;
  /// Node count at the last fixpoint.
  std::size_t ClosedNodes = 0;
  unsigned Rounds = 0;
  bool Capped = false;
  bool Conflict = false;
};

} // namespace gilr

#endif // GILR_SOLVER_CONGRUENCE_H
