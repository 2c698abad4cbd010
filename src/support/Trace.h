//===- support/Trace.h - Verification telemetry: spans and events ----------===//
///
/// \file
/// A process-wide, zero-cost-when-disabled tracing sink for the verification
/// pipeline. Every layer (engine, solver, creusot, hybrid) opens scoped RAII
/// spans around its phases; the sink aggregates per-phase wall time and, in
/// `json` mode, buffers Chrome trace-event records that can be opened in
/// chrome://tracing or Perfetto.
///
/// Cost model: when tracing is off (the default), a span is a single relaxed
/// atomic load and a branch — no clock reads, no allocation, no locking.
/// Call sites with dynamic span details pass a callable so the detail string
/// is only materialised when tracing is on.
///
/// Configuration: programmatic via \c configure(), or from the environment
/// via \c configureFromEnv() (honoured by the examples and bench binaries):
///
///   GILR_TRACE=off|text|json   off (default): disabled.
///                              text (or on, 1): aggregate per-phase
///                                    stats only.
///                              json (or chrome): also buffer Chrome trace
///                                    events and write trace + stats files
///                                    at exit.
///                              Any mode but off also has the proof flight
///                              recorder time solver queries
///                              (solver/Flight.h).
///   GILR_TRACE_FILE=<path>     Chrome trace-event output (default
///                              gilr_trace.json).
///   GILR_STATS_FILE=<path>     Stats JSON output (default gilr_stats.json).
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SUPPORT_TRACE_H
#define GILR_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gilr {
namespace trace {

enum class Mode : uint8_t {
  Off,  ///< Disabled: spans are a flag check.
  Text, ///< Aggregate per-phase counters/timers only.
  Json, ///< Aggregates plus a Chrome trace-event buffer.
};

struct Options {
  Mode M = Mode::Off;
  std::string TraceFile = "gilr_trace.json";
  std::string StatsFile = "gilr_stats.json";
};

namespace detail {
extern std::atomic<bool> EnabledFlag;
} // namespace detail

/// The single hot-path check: true iff tracing is on in any mode.
inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// Current mode.
Mode mode();

/// (Re)configures the sink. Does not clear already-recorded data; call
/// \c reset() for that.
void configure(const Options &O);

/// The mode GILR_TRACE selects; unset or unrecognised values are Off.
Mode modeFromEnv();

/// Reads GILR_TRACE / GILR_TRACE_FILE / GILR_STATS_FILE and configures the
/// sink accordingly. When tracing is enabled this registers an atexit hook
/// that flushes the configured output files, so binaries only need to call
/// this once at startup.
void configureFromEnv();

/// Clears all recorded events and aggregates (mode is kept).
void reset();

/// Writes the configured outputs: in Json mode the Chrome trace file and
/// the stats JSON; in Text mode a per-phase breakdown to stderr. Missing
/// parent directories are created; returns false (after printing a
/// diagnostic) if any output could not be written.
bool flush();

/// Monotonic nanoseconds since an arbitrary process-local origin.
uint64_t nowNs();

namespace detail {
/// Out-of-line slow path of span begin/end; only called when enabled.
uint32_t beginSpan(const char *Cat, const char *Name);
void endSpan(uint32_t Token, const char *Cat, const char *Name,
             uint64_t StartNs, std::string Detail);
void instantImpl(const char *Cat, const char *Name, std::string Detail);
} // namespace detail

/// A scoped span. Opens on construction, closes (and records) on
/// destruction. Nesting is tracked per thread; \c spanStack() renders the
/// currently open spans.
class Scope {
public:
  Scope(const char *Cat, const char *Name) : Cat(Cat), Name(Name) {
    if (enabled())
      open(std::string());
  }

  /// \p DetailFn is only invoked when tracing is enabled, so building an
  /// expensive detail string costs nothing when tracing is off.
  template <typename DetailFn>
  Scope(const char *Cat, const char *Name, DetailFn &&F)
      : Cat(Cat), Name(Name) {
    if (enabled())
      open(std::forward<DetailFn>(F)());
  }

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  ~Scope() {
    if (Active)
      detail::endSpan(Token, Cat, Name, StartNs, std::move(Detail));
  }

private:
  void open(std::string D) {
    Detail = std::move(D);
    StartNs = nowNs();
    Token = detail::beginSpan(Cat, Name);
    Active = true;
  }

  const char *Cat;
  const char *Name;
  std::string Detail;
  uint64_t StartNs = 0;
  uint32_t Token = 0;
  bool Active = false;
};

/// Records a point event (Chrome "instant").
inline void instant(const char *Cat, const char *Name) {
  if (enabled())
    detail::instantImpl(Cat, Name, std::string());
}

template <typename DetailFn>
inline void instant(const char *Cat, const char *Name, DetailFn &&F) {
  if (enabled())
    detail::instantImpl(Cat, Name, std::forward<DetailFn>(F)());
}

/// Renders the currently open spans of this thread, outermost first, e.g.
/// "verify:push_front > engine:consume-post > solver:entails". Empty when
/// tracing is off or no span is open.
std::string spanStack();

/// Aggregated wall time of one (category, name) phase. Recursive re-entries
/// of the same phase are not double-counted: only the outermost span of a
/// given key accumulates time.
struct PhaseStat {
  std::string Key; ///< "category/name".
  uint64_t Count = 0;
  uint64_t Nanos = 0;
};

/// Snapshot of all phase aggregates, sorted by descending total time.
std::vector<PhaseStat> phases();

/// Phase-wise difference After - Before (by key); entries with zero count
/// are dropped. Used for per-function breakdowns.
std::vector<PhaseStat> diffPhases(const std::vector<PhaseStat> &Before,
                                  const std::vector<PhaseStat> &After);

/// Renders \p Stats as an aligned human-readable table.
std::string phaseReportText(const std::vector<PhaseStat> &Stats);

/// Number of buffered Chrome trace events (Json mode only; for tests).
std::size_t eventCount();

/// Renders the buffered events as a Chrome trace-event JSON document.
std::string renderTraceJson();

/// Renders the stats JSON: named counters, solver statistics (including the
/// repeat-entailment rate), the flight recorder's query aggregates, and the
/// phase aggregates. \p CaseStudies is optional extra per-case JSON (already
/// rendered objects) spliced into a "cases" array.
std::string renderStatsJson(const std::vector<std::string> &CaseStudies = {});

} // namespace trace
} // namespace gilr

/// Opens a scope with static category/name strings.
#define GILR_TRACE_CONCAT_IMPL(A, B) A##B
#define GILR_TRACE_CONCAT(A, B) GILR_TRACE_CONCAT_IMPL(A, B)
#define GILR_TRACE_SCOPE(CAT, NAME)                                          \
  ::gilr::trace::Scope GILR_TRACE_CONCAT(GilrTraceScope_, __LINE__)(CAT, NAME)
/// Opens a scope whose detail expression is evaluated lazily (only when
/// tracing is enabled).
#define GILR_TRACE_SCOPE_D(CAT, NAME, DETAIL)                                \
  ::gilr::trace::Scope GILR_TRACE_CONCAT(GilrTraceScope_, __LINE__)(         \
      CAT, NAME, [&]() -> std::string { return (DETAIL); })

#endif // GILR_SUPPORT_TRACE_H
