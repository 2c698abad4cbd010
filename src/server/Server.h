//===- server/Server.h - The gilrd verification daemon ---------------------===//
///
/// \file
/// A long-lived verification server: accepts gilr-server-v1 requests
/// (server/Protocol.h) over a Unix-domain socket and runs them against
/// state that stays resident across requests —
///
///  * the process-global interned expression tables (warm by construction),
///  * the solver query-cache entries of every previous run, preloaded into
///    each new run's scheduler cache and re-exported after it,
///  * a shared content-addressed proof-cache backend
///    (incr::SharedDirBackend) handed to every run's incr::Session, so an
///    unchanged module replays its verdicts without any solver work — and
///    so a *different* daemon (or CI job) pointed at the same directory
///    starts warm too.
///
/// Concurrency model: connections are handled on one thread each, but
/// verification runs are serialized through the admission queue
/// (server/Admission.h) — a result's solver counters are a delta of the
/// process-wide ones, and the cache GC must not run under a live run, so
/// only one run may be active; requests admitted behind it queue fairly per
/// client. Parallelism *within* a run is the scheduler's (the request's
/// `jobs` field). A handler thread ends when its connection closes, and the
/// accept loop joins finished handlers on each pass (at least every
/// 200 ms), so the daemon holds threads only for open connections, however
/// many requests it has served.
///
/// Shutdown is graceful: a `shutdown` request (or \c stop()) stops the
/// accept loop, wakes queued requests with an error, drains the in-flight
/// run, runs the cache backend's size-budget GC and removes the socket
/// file.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SERVER_SERVER_H
#define GILR_SERVER_SERVER_H

#include "incr/CacheBackend.h"
#include "server/Admission.h"
#include "server/Protocol.h"
#include "solver/Solver.h"

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gilr {
namespace server {

/// Knobs of one daemon instance.
struct ServerConfig {
  /// The Unix-domain socket path to listen on.
  std::string SocketPath = "/tmp/gilrd.sock";
  /// Shared content-addressed proof-cache directory
  /// (incr::SharedDirConfig::Dir). Empty = no proof cache; only the
  /// resident solver entries carry warmth between requests.
  std::string CacheDir;
  /// Size budget of the cache directory, enforced by LRU GC after every
  /// verify run (before its result is sent) and at shutdown (0 =
  /// unlimited: no GC runs between requests).
  uint64_t CacheBudgetBytes = 0;
  /// Default scheduler threads per request (a request's `jobs` overrides).
  unsigned Jobs = 1;
  /// Default per-job budget in ms (a request's `timeout_ms` overrides;
  /// 0 = unlimited).
  uint64_t RequestTimeoutMs = 0;
  AdmissionConfig Admission;
};

/// Exit codes mirrored from the CLI contract (frontend/Cli.h), plus the
/// server-specific ones.
inline constexpr int ServerExitOk = 0;
inline constexpr int ServerExitProofFailure = 1;
inline constexpr int ServerExitLintError = 2;
inline constexpr int ServerExitParseError = 3;
inline constexpr int ServerExitUnavailable = 4; ///< Busy / rejected / transport.

class Server {
public:
  explicit Server(ServerConfig Cfg);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on the configured socket (replacing a stale socket
  /// file). False + \p Err on failure.
  bool start(std::string &Err);

  /// Accepts and serves connections until \c stop() (or a shutdown
  /// request). Runs the graceful-shutdown epilogue before returning:
  /// drains handlers, runs the cache backend's GC, unlinks the socket.
  void serve();

  /// Requests shutdown; safe from any thread and from signal context is
  /// NOT guaranteed (it locks) — signal handlers should use
  /// \c requestStopAsync.
  void stop();

  /// Async-signal-safe stop request (sets a flag the accept loop polls).
  void requestStopAsync() { Stop.store(true, std::memory_order_relaxed); }

  const ServerConfig &config() const { return Cfg; }
  /// The resident cache backend (nullptr when CacheDir is empty).
  incr::SharedDirBackend *backend() { return Backend.get(); }
  uint64_t requestsServed() const {
    return Requests.load(std::memory_order_relaxed);
  }

private:
  void handleConnection(int Fd);
  /// Joins and drops the handlers whose connection has closed.
  void reapHandlers();
  /// Dispatches one parsed request, writing events through \p Send.
  /// Returns false when the connection should close (shutdown).
  bool dispatch(const Request &R,
                const std::function<void(const std::string &)> &Send);
  void runModule(const Request &R, bool CheckOnly,
                 const std::function<void(const std::string &)> &Send);
  std::string renderStats(const Request &R) const;

  ServerConfig Cfg;
  std::unique_ptr<incr::SharedDirBackend> Backend;
  AdmissionQueue Admission;
  /// Serializes verification runs (belt to the admission queue's braces:
  /// the intern tables and run-scoped caches are process state).
  std::mutex EngineMu;
  /// Query-cache entries accumulated across runs, preloaded into each new
  /// run's scheduler cache. Guarded by EngineMu.
  std::vector<SavedQueryVerdict> ResidentSolver;
  /// EngineMu-free mirror of ResidentSolver.size() for the stats endpoint.
  std::atomic<std::size_t> ResidentSolverEntries{0};
  int ListenFd = -1;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Requests{0};
  /// One connection's handler thread; it sets Done as its last action.
  struct Handler {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  /// A list, so a running thread's Handler never moves.
  std::list<Handler> Handlers;
  std::mutex HandlersMu;
};

} // namespace server
} // namespace gilr

#endif // GILR_SERVER_SERVER_H
