//===- solver/Journal.h - Solver query journal format ----------------------===//
///
/// \file
/// The on-disk format of the proof flight recorder's query journal and its
/// parser. A journal is a line-oriented append log:
///
///   GILRJRN2
///   (def 0 (= (v |x| Int) 1))
///   (query :ob |list::push| :side U :idx 0 :pc 12 :cached f :verdict unsat
///          :ns 183204 :branches 14 :theory 9 :budget 50000
///          :fp a3f... :fp2 90c... (assert @0) ...)
///   (cached :ob |list::pop| :side S :verdict ok)
///
/// One s-expression per line. \c query records carry the full simplified
/// assertion set, so an offline tool can reconstruct the exact query and
/// re-run it (solver/Replay.h). Assertions are written in a stable
/// SMT-LIB-flavoured text grammar (exprToJournal), each distinct one once,
/// as a \c def line before its first use; records refer to it as \c @N.
/// (Queries of one run share most of their assertions: on the LinkedList
/// functional suite this is 2.6x smaller than GILRJRN1, which wrote each
/// inline.) \c cached
/// records mark obligations whose verdicts the incremental proof store
/// replayed without issuing any solver queries — they are part of the
/// proof's history even though no query ran.
///
/// The grammar is bijective on simplified expressions: parse(render(E)) is
/// exprEquals-equal to E. Symbol names are |…|-quoted, with backslash
/// escapes for '|' and the backslash itself, so arbitrary names round-trip.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SOLVER_JOURNAL_H
#define GILR_SOLVER_JOURNAL_H

#include "sym/Expr.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gilr {
namespace journal {

/// Magic first line of every journal file; bump on format change.
inline const char *journalMagic() { return "GILRJRN2"; }

/// One journal record. \c Kind selects which fields are meaningful.
struct Record {
  enum class Kind : uint8_t {
    Query,  ///< A checkSat query, memo-served or searched.
    Cached, ///< An obligation replayed wholesale by the incremental store.
  };

  Kind RecKind = Kind::Query;

  // Provenance (both kinds).
  std::string Obligation; ///< Enclosing obligation name ("" if none).
  char Side = '?';        ///< 'U' unsafe/Gillian, 'S' safe/Creusot, 'L' lint.

  // Query records.
  uint32_t QueryIdx = 0;  ///< Ordinal of the query within its obligation.
  uint32_t PcSize = 0;    ///< Assertion count (path-condition size).
  bool CacheHit = false;  ///< Served by the query memo, not searched.
  uint8_t Verdict = 2;    ///< 0 Sat, 1 Unsat, 2 Unknown.
  uint64_t DurationNs = 0;
  uint64_t Branches = 0;
  uint64_t TheoryChecks = 0;
  uint32_t MaxBranches = 0; ///< DPLL budget the query ran under.
  uint64_t Fp = 0;  ///< Process-stable query fingerprint.
  uint64_t Fp2 = 0; ///< Independent check hash of the same query.
  std::vector<Expr> Assertions;

  // Cached records.
  bool CachedOk = false; ///< The replayed verdict (proof held / failed).
};

/// Renders \p E in the journal expression grammar.
std::string exprToJournal(const Expr &E);

/// Parses one expression in the journal grammar. Returns nullptr and sets
/// \p Err on malformed input.
Expr exprFromJournal(const std::string &Text, std::string *Err = nullptr);

/// Appends \p R to \p Out as a single journal line (no trailing newline),
/// its assertions written as references `@Refs[i]` to def lines
/// (R.Assertions is ignored).
void renderRecord(const Record &R, const std::vector<uint64_t> &Refs,
                  std::string &Out);

/// Appends the line `(def N E)` defining assertion `@N`, where \p ExprText
/// is E rendered by exprToJournal.
void renderDef(uint64_t N, std::string_view ExprText, std::string &Out);

/// A parsed journal: records in file order plus any per-line errors.
/// Malformed lines are skipped, not fatal — a journal from a crashed run
/// may end mid-line.
struct ParsedJournal {
  bool HeaderOk = false;
  std::string HeaderError;
  std::vector<Record> Records;
  std::vector<std::string> Errors; ///< "line N: why" diagnostics.
};

/// Parses a full journal file's text.
ParsedJournal parseJournal(const std::string &Text);

/// Parses a (possibly negative) decimal literal into a 128-bit integer.
bool parseInt128(const std::string &S, __int128 &Out);

} // namespace journal
} // namespace gilr

#endif // GILR_SOLVER_JOURNAL_H
