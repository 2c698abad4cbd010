//===- sym/Expr.h - Symbolic expression DAG ------------------------------===//
//
// Part of the Gillian-Rust C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic value and formula language shared by every state component of
/// the verifier (heap, path condition, observations, prophecies). Expressions
/// form an immutable DAG of reference-counted nodes; smart constructors in
/// ExprBuilder.h perform local simplification so that downstream code mostly
/// sees normal forms.
///
/// The sorts mirror the value universe used by Gillian-Rust: mathematical
/// integers (machine-width constraints are path-condition facts, as in §3.2 of
/// the paper), booleans, rationals (lifetime-token fractions q in (0,1]),
/// locations, lifetimes, options, finite sequences and tuples. Rust pointer
/// values are encoded as tuples (location, projection sequence), see
/// heap/Projection.h.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SYM_EXPR_H
#define GILR_SYM_EXPR_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace gilr {

/// Renders a 128-bit integer in decimal.
std::string int128ToString(__int128 V);

/// The sort (logical type) of a symbolic expression.
enum class Sort : uint8_t {
  Unit,  ///< The single-value unit sort.
  Bool,  ///< Booleans / formulas.
  Int,   ///< Unbounded mathematical integers.
  Real,  ///< Rationals; used for lifetime token fractions.
  Loc,   ///< Abstract heap locations (allocation identities).
  Lft,   ///< Lifetimes (opaque, §4.1).
  Seq,   ///< Finite sequences of values.
  Opt,   ///< Option values (None / Some v).
  Tuple, ///< Fixed-arity tuples.
  Any,   ///< Unknown sort (untyped variables, uninterpreted apps).
};

/// Returns a printable name for \p S.
const char *sortName(Sort S);

/// Node kinds of the expression DAG.
enum class ExprKind : uint8_t {
  // Leaves.
  Var,     ///< Symbolic variable (payload: name + sort).
  IntLit,  ///< Integer literal (payload: 128-bit signed value).
  RealLit, ///< Rational literal (payload: num/den).
  BoolLit, ///< true / false.
  UnitLit, ///< The unit value.
  LocLit,  ///< Concrete location id; distinct LocLits are distinct locations.
  NoneLit, ///< Option None.

  // Boolean connectives.
  Not,
  And,
  Or,
  Implies,
  Ite, ///< Ite(cond, thenV, elseV); sort of the branches.

  // Comparisons (Bool-sorted). Gt/Ge/Ne are normalised away by builders.
  Eq,
  Lt,
  Le,

  // Integer/rational arithmetic.
  Add,
  Sub,
  Mul,
  Neg,

  // Option values.
  Some,   ///< Some(v).
  IsSome, ///< IsSome(o) : Bool.
  Unwrap, ///< Unwrap(o); unconstrained if o is None.

  // Sequences.
  SeqNil,    ///< Empty sequence.
  SeqUnit,   ///< Singleton [v].
  SeqConcat, ///< Concatenation of >= 2 sequences.
  SeqLen,    ///< Length : Int.
  SeqNth,    ///< SeqNth(s, i); unconstrained out of range.
  SeqSub,    ///< SeqSub(s, from, len): subsequence.

  // Tuples.
  TupleLit,
  TupleGet, ///< TupleGet(t); payload: constant index.

  // Lifetimes.
  LftIncl, ///< LftIncl(k, k'): k is included in (outlived by) k'.

  // Escape hatch: uninterpreted function application (payload: name).
  App,
};

/// Returns a printable name for \p K.
const char *kindName(ExprKind K);

/// Exact rational number with 128-bit numerator/denominator, always stored in
/// lowest terms with a positive denominator. 128 bits comfortably cover the
/// machine-integer bounds (u128::MAX appears in validity invariants).
struct Rational {
  __int128 Num = 0;
  __int128 Den = 1;

  Rational() = default;
  Rational(__int128 N, __int128 D);

  static Rational fromInt(__int128 N) { return Rational(N, 1); }

  Rational operator+(const Rational &O) const;
  Rational operator-(const Rational &O) const;
  Rational operator*(const Rational &O) const;
  Rational operator-() const { return Rational(-Num, Den); }
  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator<(const Rational &O) const;
  bool operator<=(const Rational &O) const { return *this < O || *this == O; }
  bool isZero() const { return Num == 0; }
  bool isNegative() const { return Num < 0; }
  std::string str() const;
};

class ExprNode;

/// Shared immutable handle to an expression node. Copying is cheap; nodes are
/// never mutated after construction.
using Expr = std::shared_ptr<const ExprNode>;

/// A single node in the expression DAG. Construct through the factory
/// functions in ExprBuilder.h, which enforce sort invariants, simplify, and
/// hash-cons the result (see sym/Intern.h): structurally identical
/// constructions return the *same* node, so equality is a pointer/id
/// comparison.
class ExprNode {
public:
  ExprKind Kind;
  Sort NodeSort;
  std::vector<Expr> Kids;

  // Payloads (only the field relevant to Kind is meaningful).
  std::string Name;       ///< Var / App.
  __int128 IntVal = 0;    ///< IntLit.
  Rational RatVal;        ///< RealLit.
  bool BoolVal = false;   ///< BoolLit.
  uint64_t LocId = 0;     ///< LocLit.
  unsigned Index = 0;     ///< TupleGet.

  /// Unique dense id assigned at interning time, never 0: every node is
  /// interned. Identical ids imply pointer identity.
  uint64_t Id = 0;

  /// Id of the node's *structural equivalence class* under \c exprEquals
  /// semantics: variables are identified by name alone (sort annotations do
  /// not split identity), everything else by kind, sort, payload and kid
  /// classes. Two nodes are exprEquals-equal iff their CanonIds match.
  /// Never 0.
  uint64_t CanonId = 0;

  /// Dense global symbol id of \c Name, 0 only when Name is empty. Lets the
  /// congruence signature pass key App/Var names without hashing strings.
  uint64_t NameSym = 0;

  /// True if the subtree mentions a prophecy variable; computed bottom-up at
  /// construction (kids are always built first).
  bool HasProph = false;

  ExprNode(ExprKind K, Sort S, std::vector<Expr> Kids);
  ~ExprNode();

  ExprNode(const ExprNode &) = delete;
  ExprNode &operator=(const ExprNode &) = delete;

  /// Structural hash, computed once at construction.
  std::size_t hash() const { return Hash; }

  /// Recomputes the hash (and the derived HasProph flag) after payload
  /// fields have been set; called by the builder helpers in ExprBuilder.cpp.
  void finalizeHash();

  /// Lazily computed sorted vector of free-variable names, shared by every
  /// holder of the node. Thread-safe: first caller installs via CAS.
  mutable std::atomic<const std::vector<std::string> *> VarsCache{nullptr};

  /// Memo for \c exprStableHash (0 = not yet computed; the hash itself is
  /// never 0). Thread-safe: the hash is a pure function of the structure,
  /// so racing writers store the same value.
  mutable std::atomic<uint64_t> StableHashCache{0};

private:
  std::size_t Hash = 0;
};

/// Structural equality: an O(1) CanonId compare.
bool exprEquals(const Expr &A, const Expr &B);

/// Deterministic structural ordering, used for canonicalising commutative
/// operands and for ordered containers. Ids are used only as equality fast
/// paths, never for ordering: the order must not depend on interning order,
/// which is racy under the parallel scheduler (the determinism suite
/// requires byte-identical reports at any worker count).
bool exprLess(const Expr &A, const Expr &B);

/// A *process-stable* structural hash of \p E: a pure function of kind,
/// sort, payload and kid hashes, never of the interning-order-dependent
/// Id / CanonId / NameSym fields — so the value is reproducible across
/// processes and may be persisted (the incremental proof store keys solver
/// verdicts by it). Operands of the commutative kinds (And, Or, Add, Mul,
/// Eq) are combined order-insensitively, matching the canonical operand
/// ordering the builders apply, so builder-normalised and hand-permuted
/// forms agree. Memoised per node; never returns 0.
uint64_t exprStableHash(const Expr &E);

/// The sorted, deduplicated free-variable names of \p E. Memoised per node
/// (computed once per process for shared subterms); the reference stays
/// valid for the node's lifetime.
const std::vector<std::string> &exprFreeVars(const Expr &E);

/// Collects the names of all free variables of \p E into \p Out.
void collectVars(const Expr &E, std::set<std::string> &Out);

/// Returns true if variable \p Name occurs in \p E.
bool containsVar(const Expr &E, const std::string &Name);

/// Prophecy variables are ordinary symbolic variables with a reserved name
/// prefix; observations (§5.2) distinguish them from plain symbolic
/// variables.
inline const char *prophecyVarPrefix() { return "pcy$"; }
bool isProphecyVarName(const std::string &Name);

/// Returns true if \p E mentions at least one prophecy variable.
bool mentionsProphecy(const Expr &E);

/// Comparator object for ordered containers keyed by Expr.
struct ExprOrder {
  bool operator()(const Expr &A, const Expr &B) const {
    return exprLess(A, B);
  }
};

} // namespace gilr

#endif // GILR_SYM_EXPR_H
