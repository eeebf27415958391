#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  for (auto& m : metrics)
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  metrics.push_back({name, value, unit, samples});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (++failed_checks <= 10) notes.push_back("CHECK FAILED: " + what);
}

void Report::distribution(const std::string& what,
                          const std::vector<double>& v) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: n=%zu p10=%.6g p25=%.6g p50=%.6g mean=%.6g p75=%.6g "
                "p90=%.6g",
                what.c_str(), v.size(), quantile(v, 0.10), quantile(v, 0.25),
                quantile(v, 0.50), mean(v), quantile(v, 0.75),
                quantile(v, 0.90));
  notes.push_back(buf);
}

TraceDigest digest_trace(const std::vector<pdc::obs::ThreadTrace>& threads,
                         const char* step_span, const char* tile_span) {
  struct Step {
    double start, end, busy;
  };
  TraceDigest d;
  std::vector<std::vector<Step>> steps;
  for (const auto& t : threads) {
    d.dropped += t.dropped;
    // Events arrive in completion order, so a span's children (depth + 1,
    // same thread) all complete before it: keep a running sum of child
    // durations per depth and consume it when the parent closes.
    std::vector<double> child(2, 0.0);
    std::vector<Step> mine;
    double tile_busy = 0;
    for (const auto& e : t.events) {
      const auto dur = static_cast<double>(e.dur_ns);
      if (child.size() < e.depth + 2) child.resize(e.depth + 2, 0.0);
      const double self = dur - child[e.depth + 1];
      child[e.depth + 1] = 0;
      child[e.depth] += dur;
      auto& s = d.spans[e.name];
      ++s.count;
      s.total_ns += dur;
      s.self_ns += self;
      if (tile_span != nullptr && std::strcmp(e.name, tile_span) == 0) {
        tile_busy += dur;
      } else if (step_span != nullptr && std::strcmp(e.name, step_span) == 0) {
        mine.push_back({static_cast<double>(e.start_ns),
                        static_cast<double>(e.start_ns + e.dur_ns),
                        tile_busy});
        tile_busy = 0;
      }
    }
    if (!mine.empty()) steps.push_back(std::move(mine));
  }
  if (steps.empty()) return d;

  // Step k of every team thread is that thread's k-th step span. The
  // serial section is the gap from the last thread leaving step k to the
  // first thread entering step k + 1.
  std::size_t k_steps = steps[0].size();
  for (const auto& s : steps) k_steps = std::min(k_steps, s.size());
  auto& st = d.steps;
  st.steps = k_steps;
  for (std::size_t k = 0; k < k_steps; ++k) {
    double smin = steps[0][k].start, emax = steps[0][k].end;
    double busy_max = 0, busy_sum = 0;
    for (const auto& s : steps) {
      smin = std::min(smin, s[k].start);
      emax = std::max(emax, s[k].end);
      busy_max = std::max(busy_max, s[k].busy);
      busy_sum += s[k].busy;
    }
    st.compute_ns += emax - smin;
    double wait = 0;
    for (const auto& s : steps) wait += emax - s[k].end;
    st.barrier_wait_ns += wait / static_cast<double>(steps.size());
    if (busy_sum > 0)
      st.imbalance_sum +=
          busy_max / (busy_sum / static_cast<double>(steps.size()));
    if (k + 1 < k_steps) {
      double next = steps[0][k + 1].start;
      for (const auto& s : steps) next = std::min(next, s[k + 1].start);
      st.serial_ns += std::max(0.0, next - emax);
      ++st.gaps;
    }
  }
  return d;
}

void accumulate(TraceDigest& into, const TraceDigest& d) {
  for (const auto& [name, s] : d.spans) {
    auto& t = into.spans[name];
    t.count += s.count;
    t.total_ns += s.total_ns;
    t.self_ns += s.self_ns;
  }
  into.dropped += d.dropped;
  into.steps.steps += d.steps.steps;
  into.steps.gaps += d.steps.gaps;
  into.steps.serial_ns += d.steps.serial_ns;
  into.steps.compute_ns += d.steps.compute_ns;
  into.steps.barrier_wait_ns += d.steps.barrier_wait_ns;
  into.steps.imbalance_sum += d.steps.imbalance_sum;
}

void note_spans(Report& r, const TraceDigest& d) {
  for (const auto& [name, s] : d.spans) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "span %-24s count %10llu total %12.3f ms self %12.3f ms",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ns / 1e6, s.self_ns / 1e6);
    r.note(buf);
  }
}

double nested_ns(const std::vector<pdc::obs::ThreadTrace>& threads,
                 const char* name, const char* inside, const char* outside) {
  using Span = std::pair<std::int64_t, std::int64_t>;  // [start, end]
  const auto spans_of = [](const pdc::obs::ThreadTrace& t, const char* n) {
    std::vector<Span> v;
    for (const auto& e : t.events)
      if (std::strcmp(e.name, n) == 0)
        v.push_back({e.start_ns, e.start_ns + e.dur_ns});
    std::sort(v.begin(), v.end());
    return v;
  };
  // Spans of one name on one thread do not overlap unless nested, so the
  // last one starting at or before `s` is the only candidate cover.
  const auto covered = [](const std::vector<Span>& v, const Span& s) {
    constexpr auto kLast = std::numeric_limits<std::int64_t>::max();
    const auto it = std::upper_bound(v.begin(), v.end(), Span{s.first, kLast});
    return it != v.begin() && std::prev(it)->second >= s.second;
  };
  double total = 0;
  for (const auto& t : threads) {
    const auto in = spans_of(t, inside);
    const auto out = spans_of(t, outside);
    for (const auto& s : spans_of(t, name))
      if (covered(in, s) && !covered(out, s))
        total += static_cast<double>(s.second - s.first);
  }
  return total;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"life.kernel_cells_per_ns", "cells/ns"},
      {"life.ghost_sync_us_per_step", "us"},
      {"life.convert_ms", "ms"},
      {"stencil.serial_us_per_step", "us"},
      {"stencil.compute_us_per_step", "us"},
      {"stencil.imbalance", "ratio"},
      {"stencil.steal_success", "ratio"},
      {"stencil.steps", "count"},
      {"stencil.tiles_computed", "count"},
      {"stencil.tiles_skipped", "count"},
      {"stencil.useful_tile_ratio", "ratio"},
      {"stencil.heat_kernel_ns_per_cell", "ns"},
      {"stencil.subnormal_frac", "ratio"},
      {"core.barrier_wait_us_per_step", "us"},
      {"core.regions_per_solve", "count"},
      {"mp.world_launch_us", "us"},
      {"mp.messages_per_step", "count"},
      {"mp.halo_words_per_step", "words"},
      {"mp.recv_wait_us_per_step", "us"},
      {"mp.allreduce_us_per_step", "us"},
      {"mp.rank_imbalance", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"obs.spans_dropped", "count"},
  };
  return names;
}

void fill_absent(Report& r,
                 const std::vector<std::pair<const char*, const char*>>& names) {
  const auto have = [&](const std::string& name) {
    return std::any_of(r.metrics.begin(), r.metrics.end(),
                       [&](const Report::Metric& m) { return m.name == name; });
  };
  for (const auto& name : r.applicable)
    if (!have(name))
      throw std::logic_error("the workload did not report its metric " + name);
  for (const auto& [name, unit] : names)
    if (!have(name)) r.metric(name, 0.0, unit, 0);
}

}  // namespace perfbench
