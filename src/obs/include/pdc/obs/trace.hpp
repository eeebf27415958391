#pragma once
// Scoped tracing spans on per-thread buffers, exported as Chrome
// `trace_event` JSON (load in chrome://tracing or https://ui.perfetto.dev)
// plus an ASCII top-N summary table. This is the "where did the time go"
// half of pdc::obs; metrics.hpp is the "where did the bytes go" half.
//
// Emission is pay-for-what-you-use: tracing starts disabled, and a
// disabled PDC_TRACE_SCOPE costs one relaxed atomic load. When enabled, a
// span is two steady_clock reads plus one push onto the calling thread's
// own buffer (bounded; overflow drops new events and counts them).
//
// Span names must be string literals (or otherwise outlive the export).
// Threads announce themselves with set_thread_label ("mp/3",
// "core.team/1"); the exporter names Chrome tracks after the labels and
// orders tracks by label, so the same workload produces the same timeline
// layout run after run.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pdc::obs {

namespace detail {
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

/// Label the calling thread's trace track (e.g. "mp/2"). Also the rank
/// label mechanism: ranks are threads here, so a rank label is a thread
/// label by construction.
void set_thread_label(std::string label);

/// One completed span on one thread. Timestamps are ns since the process
/// trace origin; depth is the nesting level at emission (0 = outermost).
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t depth = 0;
};

/// Everything one thread recorded, snapshot at collection time.
struct ThreadTrace {
  std::string label;
  std::uint64_t dropped = 0;  ///< events lost to the buffer cap
  std::vector<TraceEvent> events;  ///< in completion order
};

/// RAII span: records [construction, destruction) on the calling thread's
/// buffer. Prefer the PDC_TRACE_SCOPE macro, which names the scope for you.
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

/// Snapshot of every thread's recorded spans, ordered by (label, thread
/// registration order); threads that recorded nothing are omitted.
[[nodiscard]] std::vector<ThreadTrace> trace_threads();

/// Total completed spans currently buffered across all threads.
[[nodiscard]] std::size_t trace_span_count();

/// Discard all buffered spans (buffers and labels of live threads stay).
void clear_trace();

/// Per-thread event cap (default 1 << 15). Applies to future emissions.
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
