//===- analysis/Diagnostic.h - Structured pre-verification diagnostics -----===//
///
/// \file
/// The diagnostic vocabulary of the static pre-verification pass
/// (src/analysis/): structured, deterministically ordered findings with
/// stable GILR-Exxx / GILR-Wxxx codes, an entity path (the function, spec,
/// predicate or lemma the finding is about), an optional block/statement
/// location inside an RMIR body, and free-form notes (e.g. the unsat core of
/// a vacuous precondition).
///
/// Diagnostics are collected by a thread-safe \c DiagnosticEngine — lint
/// jobs run on the proof scheduler's threads — and always emitted in a
/// deterministic order (sorted, not arrival order), so the rendered output
/// is byte-identical at any worker count (the determinism contract of
/// docs/SCHEDULER.md extends to the pre-pass).
///
/// See docs/ANALYSIS.md for the pass catalog and the full code registry.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_ANALYSIS_DIAGNOSTIC_H
#define GILR_ANALYSIS_DIAGNOSTIC_H

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace gilr {
namespace analysis {

/// Diagnostic severities. \c Error findings block verification of the
/// affected entity (when \c AnalysisConfig::FailOnError is set); warnings
/// are reported but do not gate.
enum class Severity : uint8_t { Error = 0, Warning = 1 };

/// Printable name ("error" / "warning").
const char *severityName(Severity S);

// Stable diagnostic codes. Append only, never renumber: codes appear in
// persisted lint verdicts (incr/ProofStore.h), suppression attributes and
// user-facing documentation.
namespace code {
inline constexpr const char *BadTarget = "GILR-E001";      ///< Terminator target out of range.
inline constexpr const char *BadLocal = "GILR-E002";       ///< Reference to an undeclared local.
inline constexpr const char *TypeMismatch = "GILR-E003";   ///< Place/operand type disagreement.
inline constexpr const char *UninitUse = "GILR-E004";      ///< Use of a possibly-uninitialized local.
inline constexpr const char *MovedUse = "GILR-E005";       ///< Use of a moved local.
inline constexpr const char *VacuousPre = "GILR-E006";     ///< UNSAT precondition.
inline constexpr const char *ParseError = "GILR-E007";     ///< Malformed Gilsonite spec/assertion.
inline constexpr const char *SyntaxError = "GILR-E008";    ///< .gilr syntax error (frontend).
inline constexpr const char *NameError = "GILR-E009";      ///< Unresolved name in a .gilr module.
inline constexpr const char *FrontendError = "GILR-E010";  ///< Other .gilr lowering/typecheck error.
inline constexpr const char *UnreachableBlock = "GILR-W001"; ///< Block unreachable from entry.
inline constexpr const char *DeadStore = "GILR-W002";      ///< Store whose value is never read.
inline constexpr const char *UnsafeSurface = "GILR-W003";  ///< Raw-pointer ops outside ownership predicates.
inline constexpr const char *TrivialPost = "GILR-W004";    ///< Trivially-true postcondition conjunct.
inline constexpr const char *UnusedPred = "GILR-W005";     ///< Predicate never referenced.
inline constexpr const char *UnusedLemma = "GILR-W006";    ///< Lemma never applied.
inline constexpr const char *PostImpliedByPre = "GILR-W007"; ///< Post conjunct already follows from the pre.
inline constexpr const char *PostUnsatGivenPre = "GILR-E011"; ///< Post contradicts the pre.
inline constexpr const char *FrameWiderThanFootprint = "GILR-W008"; ///< Spec owns memory the body never touches.
inline constexpr const char *UnsafeEscape = "GILR-W009";   ///< Callee's unsafe surface escapes into a spec-free caller.
inline constexpr const char *RecursionNoVariant = "GILR-W010"; ///< Recursive cycle with no decreasing lemma/variant.
} // namespace code

/// One entry of the diagnostic-code registry: the stable code plus the
/// documentation `gilr lint --explain GILR-<code>` prints.
struct CodeDoc {
  const char *Code;
  const char *Summary; ///< One line.
  const char *Detail;  ///< Longer explanation, possibly multi-sentence.
};

/// The full registry, in code order (E001.., then W001..). Stable: append
/// only.
const std::vector<CodeDoc> &codeRegistry();

/// Looks up \p Code (e.g. "GILR-W008") in the registry; nullptr when
/// unknown.
const CodeDoc *lookupCodeDoc(const std::string &Code);

/// The severity a code carries by default ("GILR-E..." are errors,
/// "GILR-W..." warnings).
Severity codeSeverity(const std::string &Code);

/// One structured finding.
struct Diagnostic {
  std::string Code;    ///< Stable code, e.g. "GILR-E006".
  Severity Sev = Severity::Warning;
  std::string Entity;  ///< Entity path, e.g. "push_front" or "pred:dllSeg".
  /// Location inside the entity's RMIR body; -1 when not applicable
  /// (spec-level and program-level findings).
  int Block = -1;
  int Stmt = -1;
  std::string Message;
  /// Supporting details, e.g. the unsat-core assertion spans of a vacuous
  /// precondition.
  std::vector<std::string> Notes;
  /// Source location for findings that point into a textual .gilr module
  /// (frontend syntax/name/type errors, position-tracked spec bridge
  /// failures). \c File empty means "no source location" — the historical
  /// builder-API rendering is unchanged.
  std::string File;
  unsigned Line = 0; ///< 1-based; meaningful only when File is non-empty.
  unsigned Col = 0;  ///< 1-based; meaningful only when File is non-empty.

  /// One-line rendering: "error[GILR-E006] push_front: message (bb1, st 2)";
  /// with a source location, "file.gilr:3:7: error[GILR-E008] ...".
  std::string str() const;
};

/// Deterministic ordering: (Entity, Block, Stmt, Code, Message, Notes,
/// File, Line, Col).
bool diagnosticLess(const Diagnostic &A, const Diagnostic &B);

/// Knobs of the pre-verification pass. A default-constructed config is the
/// production configuration: all passes on, errors gate verification,
/// warnings reported but not gating.
struct AnalysisConfig {
  /// Master switch; when false the drivers skip the pre-pass entirely.
  bool Enabled = true;
  /// Entities with error-severity findings are rejected before symbolic
  /// execution (their reports fail with the diagnostics attached).
  bool FailOnError = true;
  /// Promote warnings to errors (CI hardening).
  bool WarningsAsErrors = false;
  /// CFG/dataflow lints over RMIR bodies (well-formedness, dead code,
  /// unsafe surface).
  bool FunctionLints = true;
  /// Solver-backed spec lints (vacuity, trivial postconditions) and the
  /// unused-predicate/lemma cross-reference.
  bool SpecLints = true;
  /// Globally disabled codes (per-entity suppression is the RMIR
  /// \c LintSuppress attribute, see rmir::Function).
  std::set<std::string> DisabledCodes;
};

/// Thread-safe diagnostic collector. Lint jobs report concurrently; reads
/// happen after the lint phase completes. Suppression (global config codes
/// and per-entity attributes) is applied at report time and counted.
class DiagnosticEngine {
public:
  explicit DiagnosticEngine(const AnalysisConfig &Cfg) : Cfg(Cfg) {}

  /// Registers \p Code as suppressed for \p Entity (from the entity's RMIR
  /// \c LintSuppress attribute; the pseudo-code "all" mutes every lint).
  void suppress(const std::string &Entity, const std::string &Code);

  /// Files \p D (applying severity promotion and suppression). Returns true
  /// iff the diagnostic was kept.
  bool report(Diagnostic D);

  /// All kept diagnostics in deterministic order.
  std::vector<Diagnostic> sorted() const;

  uint64_t errorCount() const;
  uint64_t warningCount() const;
  uint64_t suppressedCount() const;

  const AnalysisConfig &config() const { return Cfg; }

private:
  AnalysisConfig Cfg;
  mutable std::mutex Mu;
  std::vector<Diagnostic> Diags;
  std::set<std::pair<std::string, std::string>> Suppressions;
  uint64_t Suppressed = 0;
};

/// Renders \p Diags as human-readable text, one finding per line with
/// indented notes.
std::string renderDiagnosticsText(const std::vector<Diagnostic> &Diags);

/// Renders \p Diags as a JSON array (element shape documented in
/// docs/ANALYSIS.md).
std::string renderDiagnosticsJson(const std::vector<Diagnostic> &Diags);

} // namespace analysis
} // namespace gilr

#endif // GILR_ANALYSIS_DIAGNOSTIC_H
