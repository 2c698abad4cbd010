//===- tools/gilr.cpp - The gilr command-line tool --------------------------===//
///
/// \file
/// Thin main over frontend::runCli. See src/frontend/Cli.h for the
/// subcommands, flags and exit-code contract, docs/FRONTEND.md for the
/// .gilr grammar. Honours GILR_TRACE / GILR_TRACE_FILE / GILR_STATS_FILE
/// (docs/TELEMETRY.md).
///
//===----------------------------------------------------------------------===//

#include "frontend/Cli.h"
#include "support/Trace.h"

#include <iostream>

int main(int argc, char **argv) {
  gilr::trace::configureFromEnv();
  std::vector<std::string> Args(argv + 1, argv + argc);
  return gilr::frontend::runCli(Args, std::cout, std::cerr);
}
