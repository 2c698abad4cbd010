//===- frontend/Frontend.h - Parsing .gilr text into a Module --------------===//
///
/// \file
/// Entry points of the textual RMIR frontend. A .gilr file declares one
/// module: types, predicates, lemmas, RMIR functions, Gilsonite specs,
/// Pearlite contracts, safe clients, automation switches and the verify
/// list (grammar: docs/FRONTEND.md). Parsing lowers directly into the
/// existing in-memory representations — rmir::Program, the Gilsonite and
/// Pearlite tables — so everything downstream of the builder APIs (static
/// analysis, the hybrid driver, the scheduler, the incremental store) runs
/// on a parsed module unchanged.
///
/// Failures are analysis::Diagnostic values with real source locations
/// (GILR-E008 syntax, GILR-E009 unresolved name, GILR-E010 other lowering
/// errors), rendered by the CLI as file:line:col caret diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_FRONTEND_FRONTEND_H
#define GILR_FRONTEND_FRONTEND_H

#include "analysis/Diagnostic.h"
#include "frontend/Module.h"

#include <memory>

namespace gilr {
namespace frontend {

/// Result of parsing one module: the module on success, diagnostics on
/// failure (never both — a module with errors is not returned half-built).
struct ParseResult {
  std::unique_ptr<Module> Mod;
  std::vector<analysis::Diagnostic> Diags;

  bool ok() const { return Mod != nullptr; }
};

/// Parses .gilr \p Text. \p FileName is used for diagnostics and (stripped
/// of directory and extension) as the module name.
ParseResult parseString(const std::string &FileName, const std::string &Text);

/// Reads and parses the file at \p Path. I/O failures become a GILR-E010
/// diagnostic. \p Text, if given, receives the bytes read (empty when the
/// file could not be read), so a caller can render diagnostics without
/// reading the file again.
ParseResult parseFile(const std::string &Path, std::string *Text = nullptr);

/// The module name \p Path implies: basename without the .gilr extension.
std::string moduleNameFromPath(const std::string &Path);

} // namespace frontend
} // namespace gilr

#endif // GILR_FRONTEND_FRONTEND_H
