#pragma once
// Scoped tracing spans on per-track buffers, exported as Chrome
// `trace_event` JSON (load in chrome://tracing or https://ui.perfetto.dev)
// plus an ASCII top-N summary table. This is the "where did the time go"
// half of pdc::obs; metrics.hpp is the "where did the bytes go" half.
//
// Emission is pay-for-what-you-use: tracing starts disabled, and a
// disabled PDC_TRACE_SCOPE costs one relaxed atomic load. When enabled, a
// span is two steady_clock reads plus one push, under the track's mutex
// (only its own thread and the collectors take it), onto the calling
// thread's current track; a full track drops new events and counts them.
//
// Span names must be string literals (or otherwise outlive the export).
// A thread names the track its spans go to with a scoped ThreadLabel
// ("mp/3", "core.team/1"), so a pool worker's spans follow the job it
// runs; the exporter names Chrome tracks after the labels and orders
// tracks by label, so the same workload produces the same timeline
// layout run after run.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pdc::obs {

namespace detail {
struct TrackBuf;  // one track's span buffer (trace.cpp)
extern std::atomic<bool> g_tracing_enabled;
/// Nanoseconds since the process trace origin (first use).
[[nodiscard]] std::int64_t trace_now_ns() noexcept;
void emit_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
               std::uint32_t depth) noexcept;
[[nodiscard]] std::uint32_t enter_depth() noexcept;
void exit_depth() noexcept;
}  // namespace detail

/// Master runtime switch. Spans opened while disabled record nothing even
/// if tracing is enabled before they close.
void set_tracing_enabled(bool on) noexcept;
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Names the calling thread's trace track while it lives (e.g. "mp/2"):
/// the thread's spans go to a track of that name and nest from depth 0.
/// When it ends, the thread's previous track and depth come back, so a
/// pool worker that runs rank 2 for one job is back on its own
/// "core.team/k" track for the next. Each label gets its own track at
/// its first span, so a label costs nothing more while tracing is off,
/// and a rank's track holds one run of that rank. Labels nest; end them
/// on the thread that made them, innermost first.
class ThreadLabel {
 public:
  explicit ThreadLabel(std::string label);
  ~ThreadLabel();
  ThreadLabel(const ThreadLabel&) = delete;
  ThreadLabel& operator=(const ThreadLabel&) = delete;

 private:
  friend void detail::emit_span(const char* name, std::int64_t start_ns,
                                std::int64_t end_ns,
                                std::uint32_t depth) noexcept;
  std::string label_;
  std::shared_ptr<detail::TrackBuf> track_;  // made by the first span
  ThreadLabel* prev_;
  std::uint32_t prev_depth_;
};

/// One completed span on one thread. Timestamps are ns since the process
/// trace origin; depth is the nesting level at emission (0 = outermost).
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t depth = 0;
};

/// Everything one track recorded, snapshot at collection time. Every
/// event of a track came from one thread.
struct ThreadTrace {
  std::string label;
  std::uint64_t dropped = 0;  ///< events lost to the buffer cap
  std::vector<TraceEvent> events;  ///< in completion order
};

/// RAII span: records [construction, destruction) on the calling thread's
/// current track. Prefer the PDC_TRACE_SCOPE macro, which names the scope
/// for you.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept {
    if (!tracing_enabled()) return;
    name_ = name;
    depth_ = detail::enter_depth();
    start_ns_ = detail::trace_now_ns();
  }
  ~TraceScope() {
    if (name_ == nullptr) return;
    detail::emit_span(name_, start_ns_, detail::trace_now_ns(), depth_);
    detail::exit_depth();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

/// Snapshot of every track's recorded spans, ordered by (label, track
/// creation order); tracks that recorded nothing are omitted.
[[nodiscard]] std::vector<ThreadTrace> trace_threads();

/// Total completed spans currently buffered across all tracks.
[[nodiscard]] std::size_t trace_span_count();

/// Discard all buffered spans (the tracks of live threads stay).
void clear_trace();

/// Per-track event cap (default 1 << 15). Applies to future emissions.
void set_trace_capacity(std::size_t events_per_thread);

/// Render everything buffered as Chrome trace_event JSON.
[[nodiscard]] std::string export_chrome_trace();

/// export_chrome_trace() to a file. Throws std::runtime_error on I/O
/// failure.
void write_chrome_trace(const std::string& path);

/// ASCII table of the top-N span names by total time (count, total ms,
/// mean/max us) — the printf-timer replacement for bench output.
[[nodiscard]] std::string trace_summary(std::size_t top_n = 10);

}  // namespace pdc::obs
