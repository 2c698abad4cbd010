//===- server/Server.cpp - The gilrd verification daemon -------------------===//

#include "server/Server.h"

#include "frontend/Frontend.h"
#include "frontend/Module.h"
#include "hybrid/Driver.h"
#include "incr/Session.h"
#include "sched/Scheduler.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gilr;
using namespace gilr::server;

namespace {

/// Writes all of \p Line plus a newline. MSG_NOSIGNAL: a client that hung
/// up must not SIGPIPE the daemon — the failed send just ends the
/// connection.
bool sendLine(int Fd, const std::string &Line) {
  std::string Out = Line;
  // NDJSON framing: the payload must be exactly one line. Raw newlines in
  // the rendered JSON are inter-token whitespace (strings are escaped), so
  // collapsing them preserves the value.
  for (char &C : Out)
    if (C == '\n')
      C = ' ';
  Out += "\n";
  std::size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<std::size_t>(N);
  }
  return true;
}

std::string jsonStringArray(const std::vector<std::string> &Xs) {
  std::string S = "[";
  for (std::size_t I = 0; I < Xs.size(); ++I)
    S += std::string(I ? ", " : "") + "\"" + jsonEscape(Xs[I]) + "\"";
  return S + "]";
}

} // namespace

Server::Server(ServerConfig C) : Cfg(std::move(C)), Admission(Cfg.Admission) {
  if (!Cfg.CacheDir.empty()) {
    incr::SharedDirConfig SC;
    SC.Dir = Cfg.CacheDir;
    SC.SizeBudgetBytes = Cfg.CacheBudgetBytes;
    Backend = std::make_unique<incr::SharedDirBackend>(std::move(SC));
  }
}

Server::~Server() {
  Stop.store(true, std::memory_order_relaxed);
  Admission.shutdown();
  {
    std::lock_guard<std::mutex> Lock(HandlersMu);
    for (Handler &H : Handlers)
      if (H.Thread.joinable())
        H.Thread.join();
    Handlers.clear();
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Cfg.SocketPath.c_str());
  }
}

bool Server::start(std::string &Err) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Cfg.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Cfg.SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, Cfg.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A stale socket file from a crashed daemon would make bind fail;
  // replacing it is the conventional fix (a *live* daemon still holds the
  // listening socket, so its clients are unaffected — but they can no
  // longer reach it by this path).
  ::unlink(Cfg.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) <
      0) {
    Err = "bind " + Cfg.SocketPath + ": " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 16) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Cfg.SocketPath.c_str());
    return false;
  }
  return true;
}

void Server::serve() {
  while (!Stop.load(std::memory_order_relaxed)) {
    reapHandlers();
    pollfd P{};
    P.fd = ListenFd;
    P.events = POLLIN;
    int R = ::poll(&P, 1, /*ms=*/200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0 || !(P.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    std::lock_guard<std::mutex> Lock(HandlersMu);
    Handler &H = Handlers.emplace_back();
    H.Thread = std::thread([this, Fd, &H] {
      handleConnection(Fd);
      H.Done.store(true, std::memory_order_release);
    });
  }

  // Graceful shutdown: no new connections, wake queued requests (they
  // report "shutting down"), drain in-flight handlers, then persist.
  Admission.shutdown();
  ::close(ListenFd);
  ListenFd = -1;
  {
    std::lock_guard<std::mutex> Lock(HandlersMu);
    for (Handler &H : Handlers)
      if (H.Thread.joinable())
        H.Thread.join();
    Handlers.clear();
  }
  if (Backend)
    Backend->flush();
  ::unlink(Cfg.SocketPath.c_str());
}

void Server::reapHandlers() {
  std::lock_guard<std::mutex> Lock(HandlersMu);
  for (auto It = Handlers.begin(); It != Handlers.end();) {
    if (!It->Done.load(std::memory_order_acquire)) {
      ++It;
      continue;
    }
    It->Thread.join();
    It = Handlers.erase(It);
  }
}

void Server::stop() {
  Stop.store(true, std::memory_order_relaxed);
  Admission.shutdown();
}

void Server::handleConnection(int Fd) {
  auto Send = [Fd](const std::string &Line) { (void)sendLine(Fd, Line); };
  std::string Buf;
  char Tmp[4096];
  bool KeepOpen = true;
  while (KeepOpen && !Stop.load(std::memory_order_relaxed)) {
    pollfd P{};
    P.fd = Fd;
    P.events = POLLIN;
    int R = ::poll(&P, 1, /*ms=*/200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0)
      continue;
    if (P.revents & (POLLERR | POLLNVAL))
      break;
    ssize_t N = ::read(Fd, Tmp, sizeof Tmp);
    if (N <= 0)
      break;
    Buf.append(Tmp, static_cast<std::size_t>(N));
    std::size_t Nl;
    while (KeepOpen && (Nl = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      if (Line.empty())
        continue;
      Request Req;
      std::string Err;
      if (!parseRequest(Line, Req, Err)) {
        Send(renderError(Req.Id, Err, ServerExitParseError));
        continue;
      }
      Requests.fetch_add(1, std::memory_order_relaxed);
      KeepOpen = dispatch(Req, Send);
    }
  }
  ::close(Fd);
}

bool Server::dispatch(const Request &R,
                      const std::function<void(const std::string &)> &Send) {
  if (R.Method == "ping") {
    Send(eventHead("result", R.Id) +
         ", \"method\": \"ping\", \"ok\": true, \"pid\": " +
         std::to_string(::getpid()) + "}");
    return true;
  }
  if (R.Method == "stats") {
    Send(renderStats(R));
    return true;
  }
  if (R.Method == "shutdown") {
    Send(eventHead("result", R.Id) + ", \"method\": \"shutdown\", \"ok\": true}");
    stop();
    return false;
  }

  // verify / check: through admission.
  std::size_t Pos = 0;
  uint64_t Ticket = Admission.enqueue(R.Client, Pos);
  if (!Ticket) {
    Send(renderError(R.Id, "admission rejected: job budget exhausted",
                     ServerExitUnavailable));
    return true;
  }
  Send(renderAccepted(R.Id, Pos));
  if (!Admission.waitTurn(Ticket)) {
    Send(renderError(R.Id, "server shutting down", ServerExitUnavailable));
    return true;
  }
  runModule(R, R.Method == "check", Send);
  Admission.done(Ticket);
  return true;
}

void Server::runModule(
    const Request &R, bool CheckOnly,
    const std::function<void(const std::string &)> &Send) {
  std::lock_guard<std::mutex> Lock(EngineMu);
  const auto T0 = std::chrono::steady_clock::now();
  const SolverStats Before = metrics::solverStats();

  const std::string FileName =
      (R.Name.empty() ? std::string("module") : R.Name) + ".gilr";
  frontend::ParseResult P = frontend::parseString(FileName, R.Module);
  if (!P.ok()) {
    for (const analysis::Diagnostic &D : P.Diags)
      Send(renderDiagnostic(R.Id, D.str()));
    Send(eventHead("result", R.Id) + ", \"method\": \"" +
         jsonEscape(R.Method) +
         "\", \"exit\": " + std::to_string(ServerExitParseError) +
         ", \"diagnostics\": " + analysis::renderDiagnosticsJson(P.Diags) +
         "}");
    return;
  }
  frontend::Module &M = *P.Mod;

  if (CheckOnly) {
    Send(eventHead("result", R.Id) + ", \"method\": \"check\", \"exit\": 0" +
         ", \"functions\": " + std::to_string(M.Prog.Funcs.size()) +
         ", \"clients\": " + std::to_string(M.Clients.size()) +
         ", \"predicates\": " + std::to_string(M.Preds.all().size()) + "}");
    return;
  }

  // Mirrors the CLI verify path (frontend/Cli.cpp), with the run wired
  // directly through the scheduler so the daemon's resident state — the
  // shared cache backend and the accumulated solver entries — plugs in.
  sched::SchedulerConfig SC;
  SC.Threads = R.Jobs ? R.Jobs : Cfg.Jobs;
  SC.JobTimeoutMs = R.TimeoutMs ? R.TimeoutMs : Cfg.RequestTimeoutMs;
  SC.StableCacheKeys = true;

  sched::Scheduler S(SC);
  S.preloadCache(ResidentSolver);

  engine::VerifEnv Env = M.env();
  hybrid::HybridDriver Driver(Env, M.Contracts);
  std::vector<std::string> UnsafeFuncs = M.verifyFuncs();
  std::vector<creusot::SafeFn> Clients = M.verifyClients();
  if (M.VerifyList.empty()) {
    UnsafeFuncs.clear();
    for (const auto &KV : M.Prog.Funcs)
      UnsafeFuncs.push_back(KV.first);
    Clients = M.Clients;
  }
  std::vector<std::string> Errors;
  {
    // Lemma qualification and contract encoding run solver queries before
    // runHybrid installs the scheduler's memo; install it here too so a
    // warm request replays them from the resident entries.
    sched::ScopedQueryCache Warm(S.cache());
    Errors = M.registerLemmas();
    for (const std::string &Fn : UnsafeFuncs)
      if (!M.Specs.lookup(Fn) && M.Contracts.lookup(Fn))
        if (Outcome<Unit> E = Driver.encodeAndRegister(Fn); !E.ok())
          Errors.push_back("encode " + Fn + ": " + E.error());
  }

  incr::IncrConfig IC;
  IC.Enabled = true;
  IC.Backend = Backend.get();
  // The daemon manages solver-entry residency itself (below); there is no
  // local store file to load them from or save them to.
  IC.LoadSolverCache = false;
  IC.SaveSolverCache = false;
  incr::Session Sess(IC, Env, &M.Contracts);
  hybrid::HybridReport Report =
      S.runHybrid(Env, M.Contracts, UnsafeFuncs, Clients, &Sess);
  ResidentSolver = S.exportCacheEntries();
  ResidentSolverEntries.store(ResidentSolver.size(),
                              std::memory_order_relaxed);
  Sess.flush();

  int Exit = ServerExitOk;
  if (!Report.Analysis.ok() || Report.Analysis.EntitiesBlocked > 0)
    Exit = ServerExitLintError;
  else if (!Report.ok() || !Errors.empty())
    Exit = ServerExitProofFailure;

  for (const analysis::Diagnostic &D : Report.Analysis.Diags)
    Send(renderDiagnostic(R.Id, D.str()));

  std::vector<Verdict> Vs;
  for (const engine::VerifyReport &VR : Report.UnsafeSide)
    Vs.push_back({VR.Func, /*Safe=*/false, VR.Ok});
  for (const creusot::SafeReport &SR : Report.SafeSide)
    Vs.push_back({SR.Func, /*Safe=*/true, SR.Ok});

  const incr::IncrRunStats &St = Sess.stats();
  const SolverStats Delta = metrics::solverStats() - Before;
  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();

  std::ostringstream OS;
  OS << eventHead("result", R.Id) << ", \"method\": \"verify\", \"exit\": "
     << Exit << ", \"verdicts\": " << renderVerdicts(Vs)
     << ", \"errors\": " << jsonStringArray(Errors)
     << ", \"incremental\": {\"cached\": " << St.cached()
     << ", \"verified\": " << St.verified()
     << ", \"invalidated\": " << St.Invalidated
     << ", \"salvaged\": " << St.Salvaged << ", \"implied\": " << St.Implied
     << ", \"salvage_queries\": " << St.SalvageQueries
     << ", \"shared_hits\": " << St.SharedHits
     << ", \"shared_puts\": " << St.SharedPuts << "}"
     << ", \"interproc\": {\"triaged_static\": " << St.TriagedStatic << "}"
     << ", \"solver\": {\"sat_queries\": " << Delta.SatQueries.get()
     << ", \"entail_queries\": " << Delta.EntailQueries.get()
     << ", \"branches\": " << Delta.Branches.get()
     << ", \"theory_checks\": " << Delta.TheoryChecks.get() << "}"
     << ", \"seconds\": " << Seconds
     << ", \"report\": " << Report.renderJson() << "}";
  Send(OS.str());
}

std::string Server::renderStats(const Request &R) const {
  std::ostringstream OS;
  OS << eventHead("result", R.Id) << ", \"method\": \"stats\""
     << ", \"requests\": " << Requests.load(std::memory_order_relaxed)
     << ", \"resident_solver_entries\": "
     << ResidentSolverEntries.load(std::memory_order_relaxed);
  if (Backend) {
    incr::CacheBackendStats B = Backend->stats();
    OS << ", \"cache\": {\"kind\": \"" << Backend->kind()
       << "\", \"gets\": " << B.Gets << ", \"hits\": " << B.Hits
       << ", \"puts\": " << B.Puts << ", \"puts_skipped\": " << B.PutsSkipped
       << ", \"evictions\": " << B.Evictions << ", \"gc_runs\": " << B.GcRuns
       << ", \"bytes\": " << B.Bytes << ", \"entries\": " << B.Entries
       << "}";
  }
  AdmissionStats A = Admission.stats();
  OS << ", \"admission\": {\"admitted\": " << A.Admitted
     << ", \"rejected\": " << A.Rejected << ", \"completed\": " << A.Completed
     << ", \"queued\": " << A.Queued << ", \"clients\": " << A.Clients
     << "}}";
  return OS.str();
}
