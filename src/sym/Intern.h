//===- sym/Intern.h - Hash-consed expression interning --------------------===//
///
/// \file
/// The intern layer beneath the ExprBuilder factories: every node built
/// through the smart constructors is deduplicated against a process-wide,
/// sharded intern table so that structurally identical constructions return
/// the *same* reference-counted node. The factories are the only way to
/// build a node, so every node is interned. On top of that identity the
/// layer assigns two dense ids (>= 1) per node (see sym/Expr.h):
///
///  - \c Id: unique per node (pointer identity).
///  - \c CanonId: unique per \c exprEquals equivalence class — variables are
///    identified by name alone, so the same variable written with different
///    sort annotations (specs use Any, the executor knows the precise sort)
///    shares a CanonId while keeping distinct, deterministic nodes.
///
/// Thread safety: the tables are sharded with a mutex per shard, so workers
/// of the proof scheduler (sched/) interning in parallel rarely contend and
/// never race. Id *values* depend on interning order and are therefore racy
/// across runs; they are only ever used for equality and hashing, never for
/// ordering (see exprLess), which keeps parallel runs report-deterministic.
///
/// Lifetime: the intern tables hold strong references, so interned nodes
/// live for the whole process (a deliberate arena trade-off, as in Z3's
/// hash-consed ASTs). See docs/INTERNING.md.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SYM_INTERN_H
#define GILR_SYM_INTERN_H

#include "sym/Expr.h"

namespace gilr {

/// Snapshot of intern-table activity.
struct InternStats {
  uint64_t Nodes = 0;  ///< Unique interned nodes resident.
  uint64_t Hits = 0;   ///< Factory calls answered by an existing node.
  uint64_t Misses = 0; ///< Factory calls that interned a new node.

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

InternStats internStats();

/// Dense (>= 1) global symbol id for \p Name; equal strings map to equal
/// ids. Used for the NameSym field and the congruence signature pass.
uint64_t internName(const std::string &Name);

namespace detail {
/// Interns a freshly built node whose payload fields are final and whose
/// hash has been finalized. Returns the canonical node (which is \p N itself
/// if no structurally identical node existed). Called by the ExprBuilder
/// factories; not for general use.
Expr internNewNode(std::shared_ptr<ExprNode> N);
} // namespace detail

} // namespace gilr

#endif // GILR_SYM_INTERN_H
