#include "pdc/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "pdc/perf/table.hpp"

namespace pdc::obs {

namespace detail {

std::atomic<bool> g_tracing_enabled{false};

std::int64_t trace_now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              origin)
      .count();
}

/// One track's span buffer. The thread holding it emits under `m`;
/// collectors read under `m`. The sink keeps a shared_ptr so events
/// outlive the label or thread that made them, and that owner keeps one
/// so emission never races clear_trace's pruning.
struct TrackBuf {
  explicit TrackBuf(std::string_view l) : label(l) {}
  const std::string label;
  std::mutex m;
  std::uint64_t seq = 0;  ///< creation order (sort tiebreak)
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

namespace {

std::atomic<std::size_t> g_capacity{std::size_t{1} << 15};

struct Sink {
  std::mutex m;
  std::uint64_t next_seq = 0;
  std::vector<std::shared_ptr<TrackBuf>> bufs;

  static Sink& instance() {
    static Sink s;
    return s;
  }
};

/// The calling thread's innermost live label, if any. Trivially
/// destructible like tl_depth, so a ThreadLabel may end at static
/// destruction.
thread_local ThreadLabel* tl_label = nullptr;
/// The thread's track while it holds no label, made by its first span.
thread_local std::shared_ptr<TrackBuf> tl_unlabelled;
thread_local std::uint32_t tl_depth = 0;

std::shared_ptr<TrackBuf> new_track(std::string_view label) {
  auto b = std::make_shared<TrackBuf>(label);
  Sink& sink = Sink::instance();
  std::lock_guard lk(sink.m);
  b->seq = sink.next_seq++;
  sink.bufs.push_back(b);
  return b;
}

/// Collect a consistent copy of every non-empty track, sorted by
/// (label, creation order).
std::vector<ThreadTrace> collect() {
  std::vector<std::shared_ptr<TrackBuf>> bufs;
  {
    Sink& sink = Sink::instance();
    std::lock_guard lk(sink.m);
    bufs = sink.bufs;
  }
  struct Keyed {
    std::uint64_t seq;
    ThreadTrace t;
  };
  std::vector<Keyed> out;
  for (const auto& b : bufs) {
    std::lock_guard lk(b->m);
    if (b->events.empty() && b->dropped == 0) continue;
    out.push_back({b->seq, {b->label, b->dropped, b->events}});
  }
  std::sort(out.begin(), out.end(), [](const Keyed& a, const Keyed& b) {
    return a.t.label != b.t.label ? a.t.label < b.t.label : a.seq < b.seq;
  });
  std::vector<ThreadTrace> result;
  result.reserve(out.size());
  for (auto& k : out) result.push_back(std::move(k.t));
  return result;
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", c);
      out += hex;
    } else {
      out += c;
    }
  }
}

}  // namespace

void emit_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
               std::uint32_t depth) noexcept {
  ThreadLabel* const label = tl_label;
  std::shared_ptr<TrackBuf>& track =
      label != nullptr ? label->track_ : tl_unlabelled;
  if (!track) track = new_track(label != nullptr ? label->label_ : "thread");
  TrackBuf& buf = *track;
  std::lock_guard lk(buf.m);
  if (buf.events.size() >= g_capacity.load(std::memory_order_relaxed)) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back({name, start_ns, end_ns - start_ns, depth});
}

std::uint32_t enter_depth() noexcept { return tl_depth++; }
void exit_depth() noexcept { --tl_depth; }

}  // namespace detail

void set_tracing_enabled(bool on) noexcept {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

ThreadLabel::ThreadLabel(std::string label)
    : label_(std::move(label)),
      prev_(std::exchange(detail::tl_label, this)),
      prev_depth_(std::exchange(detail::tl_depth, 0)) {}

ThreadLabel::~ThreadLabel() {
  detail::tl_label = prev_;
  detail::tl_depth = prev_depth_;
}

std::vector<ThreadTrace> trace_threads() { return detail::collect(); }

std::size_t trace_span_count() {
  std::size_t n = 0;
  for (const auto& t : detail::collect()) n += t.events.size();
  return n;
}

void clear_trace() {
  detail::Sink& sink = detail::Sink::instance();
  std::lock_guard lk(sink.m);
  for (const auto& b : sink.bufs) {
    std::lock_guard blk(b->m);
    b->events.clear();
    b->dropped = 0;
  }
  // Tracks whose label has ended or whose thread has exited (the sink
  // holds the only reference) have nothing left to record; drop them so
  // tracks don't pile up run over run.
  std::erase_if(sink.bufs,
                [](const std::shared_ptr<detail::TrackBuf>& b) {
                  return b.use_count() == 1;
                });
}

void set_trace_capacity(std::size_t events_per_thread) {
  detail::g_capacity.store(events_per_thread, std::memory_order_relaxed);
}

std::string export_chrome_trace() {
  const auto threads = detail::collect();
  std::string out;
  out.reserve(256 + 96 * [&] {
    std::size_t n = 0;
    for (const auto& t : threads) n += t.events.size();
    return n;
  }());
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  int tid = 0;
  for (const auto& t : threads) {
    ++tid;
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    detail::json_escape_into(out, t.label.c_str());
    out += "\"}}";
    for (const auto& e : t.events) {
      // Category = span-name prefix before the first '.', i.e. the layer.
      const char* dot = e.name;
      while (*dot != '\0' && *dot != '.') ++dot;
      out += ",{\"ph\":\"X\",\"pid\":1,\"tid\":";
      out += std::to_string(tid);
      out += ",\"name\":\"";
      detail::json_escape_into(out, e.name);
      out += "\",\"cat\":\"";
      out.append(e.name, static_cast<std::size_t>(dot - e.name));
      std::snprintf(buf, sizeof buf, "\",\"ts\":%.3f,\"dur\":%.3f}",
                    static_cast<double>(e.start_ns) / 1000.0,
                    static_cast<double>(e.dur_ns) / 1000.0);
      out += buf;
    }
  }
  out += "]}";
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  f << export_chrome_trace();
  if (!f) throw std::runtime_error("failed writing trace file: " + path);
}

std::string trace_summary(std::size_t top_n) {
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  std::uint64_t dropped = 0;
  for (const auto& t : detail::collect()) {
    dropped += t.dropped;
    for (const auto& e : t.events) {
      Agg& a = by_name[e.name];
      ++a.count;
      a.total_ns += e.dur_ns;
      a.max_ns = std::max(a.max_ns, e.dur_ns);
    }
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  perf::Table table({"span", "count", "total ms", "mean us", "max us"});
  for (const auto& [name, a] : rows) {
    const double total_ms = static_cast<double>(a.total_ns) / 1e6;
    const double mean_us =
        static_cast<double>(a.total_ns) / static_cast<double>(a.count) / 1e3;
    table.add_row({name, std::to_string(a.count), perf::fmt(total_ms, 3),
                   perf::fmt(mean_us, 2),
                   perf::fmt(static_cast<double>(a.max_ns) / 1e3, 2)});
  }
  std::string out = "== obs: top spans by total time ==\n" + table.str();
  if (dropped != 0)
    out += "(" + std::to_string(dropped) +
           " spans dropped at the per-track buffer cap)\n";
  return out;
}

}  // namespace pdc::obs
