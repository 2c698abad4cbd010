//===- tools/gilrd.cpp - The gilr verification daemon -----------------------===//
///
/// \file
/// Long-lived verification-as-a-service daemon: listens on a Unix-domain
/// socket for gilr-server-v1 requests (`gilr client ...`), keeping the
/// interned expression tables, solver query cache and shared
/// content-addressed proof cache warm across submissions. See
/// docs/SERVER.md for the protocol and cache layout. Honours GILR_TRACE /
/// GILR_TRACE_FILE / GILR_STATS_FILE (docs/TELEMETRY.md); the outputs are
/// written when the daemon exits.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"
#include "support/Trace.h"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

using namespace gilr;

namespace {

const char *Usage =
    "usage: gilrd [options]\n"
    "\n"
    "options:\n"
    "  --socket PATH        listen socket (default $GILRD_SOCKET or\n"
    "                       /tmp/gilrd.sock)\n"
    "  --cache-dir DIR      shared content-addressed proof cache directory\n"
    "                       (empty = per-process memory only)\n"
    "  --cache-budget N     cache size budget in bytes (0 = unbounded)\n"
    "  --jobs N             default scheduler threads per request\n"
    "  --timeout-ms N       default per-job budget for requests\n"
    "  --max-queued N       global admission queue depth (default 64)\n"
    "  --client-queued N    per-client admission budget (default 8)\n"
    "\n"
    "The daemon serves one verify run at a time (parallelism lives inside\n"
    "a run via --jobs); shut it down with `gilr client --shutdown` or\n"
    "SIGINT/SIGTERM.\n";

server::Server *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStopAsync();
}

bool parseU64(const std::string &S, uint64_t &Out) {
  try {
    Out = std::stoull(S);
    return true;
  } catch (...) {
    return false;
  }
}

} // namespace

int main(int argc, char **argv) {
  trace::configureFromEnv();
  std::vector<std::string> Args(argv + 1, argv + argc);
  server::ServerConfig Cfg;
  Cfg.SocketPath = server::defaultSocketPath();
  for (std::size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    auto Value = [&](const char *Flag) -> const std::string * {
      if (I + 1 >= Args.size()) {
        std::cerr << "gilrd: " << Flag << " needs a value\n" << Usage;
        return nullptr;
      }
      return &Args[++I];
    };
    uint64_t N = 0;
    if (A == "--help" || A == "-h") {
      std::cout << Usage;
      return 0;
    } else if (A == "--socket") {
      const std::string *V = Value("--socket");
      if (!V)
        return 2;
      Cfg.SocketPath = *V;
    } else if (A == "--cache-dir") {
      const std::string *V = Value("--cache-dir");
      if (!V)
        return 2;
      Cfg.CacheDir = *V;
    } else if (A == "--cache-budget") {
      const std::string *V = Value("--cache-budget");
      if (!V || !parseU64(*V, Cfg.CacheBudgetBytes))
        return 2;
    } else if (A == "--jobs") {
      const std::string *V = Value("--jobs");
      if (!V || !parseU64(*V, N))
        return 2;
      Cfg.Jobs = N ? static_cast<unsigned>(N) : 1;
    } else if (A == "--timeout-ms") {
      const std::string *V = Value("--timeout-ms");
      if (!V || !parseU64(*V, Cfg.RequestTimeoutMs))
        return 2;
    } else if (A == "--max-queued") {
      const std::string *V = Value("--max-queued");
      if (!V || !parseU64(*V, N))
        return 2;
      Cfg.Admission.MaxQueued = static_cast<unsigned>(N);
    } else if (A == "--client-queued") {
      const std::string *V = Value("--client-queued");
      if (!V || !parseU64(*V, N))
        return 2;
      Cfg.Admission.PerClientMaxQueued = static_cast<unsigned>(N);
    } else {
      std::cerr << "gilrd: unknown option '" << A << "'\n" << Usage;
      return 2;
    }
  }

  server::Server Daemon(Cfg);
  std::string Err;
  if (!Daemon.start(Err)) {
    std::cerr << "gilrd: " << Err << "\n";
    return 1;
  }
  ActiveServer = &Daemon;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::cerr << "gilrd: listening on " << Cfg.SocketPath
            << (Cfg.CacheDir.empty() ? ""
                                     : " (cache " + Cfg.CacheDir + ")")
            << "\n";
  Daemon.serve();
  std::cerr << "gilrd: served " << Daemon.requestsServed()
            << " requests, shutting down\n";
  ActiveServer = nullptr;
  return 0;
}
