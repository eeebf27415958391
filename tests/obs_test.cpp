// pdc::obs — metrics registry and tracing spans. The trace tests validate
// the Chrome trace_event export the way a consumer would: parse the JSON,
// check span nesting per thread, and check that identical runs produce
// identical track labels. The registry tests pin the dual-write contract:
// the process-global "mp.*" counters move in lockstep with a
// communicator's TrafficStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pdc/core/team.hpp"
#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"

namespace obs = pdc::obs;

namespace {

// ------------------------------------------------------------- metrics ---

TEST(Metrics, CounterAddsAndResets) {
  obs::Counter& c = obs::counter("test.counter.basic");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, SameNameSameCounter) {
  obs::Counter& a = obs::counter("test.counter.alias");
  obs::Counter& b = obs::counter("test.counter.alias");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &obs::counter("test.counter.other"));
}

TEST(Metrics, ConcurrentAddsAreExact) {
  obs::Counter& c = obs::counter("test.counter.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  {
    std::vector<std::jthread> ts;
    for (int t = 0; t < kThreads; ++t)
      ts.emplace_back([&] {
        for (int i = 0; i < kAddsPerThread; ++i) c.add();
      });
  }
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Metrics, GaugeIsLastWriterWins) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, HistogramLog2Buckets) {
  obs::Histogram& h = obs::histogram("test.hist");
  h.reset();
  h.record(0);
  h.record(1);   // bucket 0
  h.record(2);   // bucket 1
  h.record(3);   // bucket 1
  h.record(64);  // bucket 6
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(6), 1u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(Metrics, HistogramQuantilesInterpolateWithinBuckets) {
  obs::Histogram& h = obs::histogram("test.hist.quantile");
  h.reset();
  // 2 samples in bucket 0 ([0,2)), 4 in bucket 2 ([4,8)), 4 in bucket 4
  // ([16,32)). N = 10; rank = q*N; mass spread uniformly per bucket.
  h.record(0);
  h.record(0);
  for (int i = 0; i < 4; ++i) h.record(4);
  for (int i = 0; i < 4; ++i) h.record(16);
  // rank 5 lands 3/4 into bucket 2: 4 + 0.75*(8-4) = 7.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  // rank 9 lands 3/4 into bucket 4: 16 + 0.75*(32-16) = 28.
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 28.0);
  // rank 1 lands halfway into bucket 0: 0 + 0.5*(2-0) = 1.
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 1.0);
  // Edge conventions: q<=0 -> lower edge of first non-empty bucket,
  // q>=1 -> upper edge of last non-empty bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 32.0);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 32.0);
  const auto ps = h.percentiles({0.5, 0.9, 1.0});
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_DOUBLE_EQ(ps[0], 7.0);
  EXPECT_DOUBLE_EQ(ps[1], 28.0);
  EXPECT_DOUBLE_EQ(ps[2], 32.0);
}

TEST(Metrics, QuantileEdgeCasesAndRawBucketVectors) {
  // Empty histogram -> 0 everywhere.
  obs::Histogram& h = obs::histogram("test.hist.quantile.empty");
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  // Raw bucket vectors (the MetricsSnapshot::histograms representation)
  // go through the same free function.
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets({}, 0.5), 0.0);
  std::vector<std::uint64_t> buckets(obs::Histogram::kBuckets, 0);
  buckets[3] = 10;  // all mass in [8,16)
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(buckets, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(buckets, 0.5), 12.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(buckets, 1.0), 16.0);
  // Snapshot deltas feed the same path: a phase's p50 from `after-before`.
  const auto before = obs::metrics_snapshot();
  obs::Histogram& d = obs::histogram("test.hist.quantile.delta");
  d.reset();
  for (int i = 0; i < 8; ++i) d.record(100);  // bucket 6: [64,128)
  const auto delta = obs::metrics_snapshot() - before;
  const auto it = delta.histograms.find("test.hist.quantile.delta");
  ASSERT_NE(it, delta.histograms.end());
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(it->second, 0.5), 96.0);
}

TEST(Metrics, SnapshotDeltaPricesOnePhase) {
  obs::Counter& c = obs::counter("test.snapshot.delta");
  c.add(5);
  const auto before = obs::metrics_snapshot();
  c.add(37);
  const auto delta = obs::metrics_snapshot() - before;
  EXPECT_EQ(delta.counter("test.snapshot.delta"), 37u);
  // A name absent from the baseline counts as zero there.
  obs::counter("test.snapshot.fresh").add(3);
  const auto delta2 = obs::metrics_snapshot() - before;
  EXPECT_EQ(delta2.counter("test.snapshot.fresh"), 3u);
  EXPECT_EQ(delta2.counter("test.snapshot.no_such_metric"), 0u);
}

// The acceptance pin: registry deltas for one mp collective equal the
// communicator's own TrafficStats exactly.
TEST(Metrics, MpCollectiveCountersMatchTrafficStats) {
  const auto before = obs::metrics_snapshot();
  pdc::mp::Communicator comm(4);
  comm.run([](pdc::mp::RankContext& ctx) {
    (void)ctx.allreduce(ctx.rank(), pdc::mp::ReduceOp::kSum);
  });
  const auto delta = obs::metrics_snapshot() - before;
  const auto tr = comm.traffic();
  EXPECT_EQ(delta.counter("mp.messages"), tr.messages);
  EXPECT_EQ(delta.counter("mp.payload_words"), tr.payload_words);
  EXPECT_EQ(delta.counter("mp.acks"), tr.acks);
  EXPECT_EQ(delta.counter("mp.retries"), tr.retries);
  EXPECT_EQ(delta.counter("mp.dropped"), tr.dropped);
  EXPECT_EQ(delta.counter("mp.duplicates"), tr.duplicates);
  EXPECT_EQ(delta.counter("mp.delayed"), tr.delayed);
  EXPECT_GT(tr.messages, 0u);
}

TEST(Metrics, TrafficStatsArithmetic) {
  pdc::mp::TrafficStats a;
  a.messages = 10;
  a.payload_words = 100;
  a.acks = 4;
  pdc::mp::TrafficStats b;
  b.messages = 3;
  b.payload_words = 40;
  b.retries = 2;

  const auto sum = a + b;
  EXPECT_EQ(sum.messages, 13u);
  EXPECT_EQ(sum.payload_words, 140u);
  EXPECT_EQ(sum.acks, 4u);
  EXPECT_EQ(sum.retries, 2u);

  const auto diff = sum - b;
  EXPECT_EQ(diff, a);

  pdc::mp::TrafficStats acc;
  acc += a;
  acc += b;
  EXPECT_EQ(acc, sum);
  acc -= b;
  EXPECT_EQ(acc, a);
}

// ------------------------------------------------------ minimal JSON ---

// Tiny recursive-descent JSON parser — enough to verify the exporter
// emits well-formed JSON and to walk the trace_event structure. Throws
// std::runtime_error on malformed input.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return obj.contains(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.str = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // decoded value not needed for these tests
            out += '?';
            break;
          default: throw std::runtime_error("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.b = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  Json null() {
    if (s_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("bad literal");
    pos_ += 4;
    return {};
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- tracing ---

/// Test fixture: every trace test starts from a clean, disabled tracer.
class Trace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace();
  }
};

TEST_F(Trace, DisabledRecordsNothing) {
  {
    PDC_TRACE_SCOPE("test.should_not_appear");
    obs::TraceScope inner("test.also_not");
  }
  EXPECT_EQ(obs::trace_span_count(), 0u);
  for (const auto& t : obs::trace_threads())
    for (const auto& e : t.events)
      EXPECT_STRNE(e.name, "test.should_not_appear");
}

TEST_F(Trace, SpanRecordsNameAndDuration) {
  obs::set_tracing_enabled(true);
  {
    PDC_TRACE_SCOPE("test.outer");
    PDC_TRACE_SCOPE("test.inner");
  }
  obs::set_tracing_enabled(false);
  ASSERT_EQ(obs::trace_span_count(), 2u);
  const auto threads = obs::trace_threads();
  ASSERT_EQ(threads.size(), 1u);
  // Completion order: inner closes first.
  const auto& evts = threads[0].events;
  EXPECT_STREQ(evts[0].name, "test.inner");
  EXPECT_STREQ(evts[1].name, "test.outer");
  EXPECT_EQ(evts[0].depth, 1u);
  EXPECT_EQ(evts[1].depth, 0u);
  // Inner nests inside outer.
  EXPECT_GE(evts[0].start_ns, evts[1].start_ns);
  EXPECT_LE(evts[0].start_ns + evts[0].dur_ns,
            evts[1].start_ns + evts[1].dur_ns);
}

TEST_F(Trace, ExportIsValidChromeTraceJson) {
  obs::set_tracing_enabled(true);
  {
    PDC_TRACE_SCOPE("test.json \"quoted\\name\"");
    PDC_TRACE_SCOPE("test.json.inner");
  }
  obs::set_tracing_enabled(false);

  const Json root = JsonParser(obs::export_chrome_trace()).parse();
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const auto& events = root.at("traceEvents").arr;
  std::size_t complete = 0, meta = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").str;
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e.has("name"));
      EXPECT_TRUE(e.has("cat"));
      EXPECT_TRUE(e.has("ts"));
      EXPECT_TRUE(e.has("dur"));
      EXPECT_TRUE(e.has("pid"));
      EXPECT_TRUE(e.has("tid"));
      EXPECT_GE(e.at("dur").num, 0.0);
    } else {
      EXPECT_EQ(ph, "M");
      ++meta;
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_GE(meta, 1u);  // thread_name metadata for the emitting thread
}

TEST_F(Trace, SpansNestUnderConcurrentEmitters) {
  obs::set_tracing_enabled(true);
  {
    std::vector<std::jthread> ts;
    for (int t = 0; t < 4; ++t)
      ts.emplace_back([t] {
        const obs::ThreadLabel label("test.nest/" + std::to_string(t));
        for (int i = 0; i < 50; ++i) {
          PDC_TRACE_SCOPE("test.nest.outer");
          PDC_TRACE_SCOPE("test.nest.mid");
          PDC_TRACE_SCOPE("test.nest.leaf");
        }
      });
  }
  obs::set_tracing_enabled(false);

  // Per thread: any two spans either nest or are disjoint — never a
  // partial overlap (the invariant Perfetto's flame view needs).
  const auto threads = obs::trace_threads();
  std::size_t emitters = 0;
  for (const auto& th : threads) {
    if (th.label.rfind("test.nest/", 0) != 0) continue;
    ++emitters;
    EXPECT_EQ(th.events.size(), 150u) << th.label;
    EXPECT_EQ(th.dropped, 0u);
    for (std::size_t i = 0; i < th.events.size(); ++i) {
      for (std::size_t j = i + 1; j < th.events.size(); ++j) {
        const auto& a = th.events[i];
        const auto& b = th.events[j];
        const auto a_end = a.start_ns + a.dur_ns;
        const auto b_end = b.start_ns + b.dur_ns;
        const bool disjoint = a_end <= b.start_ns || b_end <= a.start_ns;
        const bool a_in_b = a.start_ns >= b.start_ns && a_end <= b_end;
        const bool b_in_a = b.start_ns >= a.start_ns && b_end <= a_end;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << th.label << ": spans " << i << " and " << j
            << " partially overlap";
      }
    }
  }
  EXPECT_EQ(emitters, 4u);
}

// The exporter orders tracks by (label, registration order), so the same
// workload traced twice produces the same rank labels in the same order.
TEST_F(Trace, RankLabelsAreStableAcrossRuns) {
  const auto mp_labels = [] {
    obs::clear_trace();
    obs::set_tracing_enabled(true);
    pdc::mp::Communicator comm(4);
    comm.run([](pdc::mp::RankContext& ctx) {
      (void)ctx.allreduce(1, pdc::mp::ReduceOp::kSum);
    });
    obs::set_tracing_enabled(false);
    std::vector<std::string> labels;
    for (const auto& th : obs::trace_threads())
      if (th.label.rfind("mp/", 0) == 0) labels.push_back(th.label);
    return labels;
  };

  const auto first = mp_labels();
  const auto second = mp_labels();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, (std::vector<std::string>{"mp/0", "mp/1", "mp/2",
                                             "mp/3"}));
}

// Tracks follow the job, not the thread. From a thread labelled "main",
// a traced P=3 world puts each rank's spans on "mp/r" from depth 0, rank
// 0's too, though it runs on the caller inside the world's core.region
// span; the pool workers that ran ranks 1 and 2 are back on their own
// "core.team/k" tracks for the pooled region that follows, and the
// caller's next span is back on "main".
TEST_F(Trace, TracksFollowTheJobOnPooledThreads) {
  const obs::ThreadLabel main_label("main");
  obs::set_tracing_enabled(true);
  pdc::mp::Communicator comm(3);
  comm.run([](pdc::mp::RankContext& ctx) {
    PDC_TRACE_SCOPE("test.rank");
    (void)ctx.allreduce(1, pdc::mp::ReduceOp::kSum);
  });
  pdc::core::Team::run(3, [](pdc::core::TeamContext&) {
    PDC_TRACE_SCOPE("test.team");
  });
  { PDC_TRACE_SCOPE("test.after"); }
  obs::set_tracing_enabled(false);

  std::set<std::string> rank_tracks, team_tracks;
  std::size_t regions = 0, after = 0;
  for (const auto& th : obs::trace_threads()) {
    const bool rank_track = th.label.rfind("mp/", 0) == 0;
    for (const auto& e : th.events) {
      const std::string_view name(e.name);
      // A rank track holds its rank body's outermost span at depth 0 and
      // the mp spans nested in it, nothing else.
      if (rank_track) {
        EXPECT_EQ(e.depth == 0, name == "test.rank")
            << th.label << " " << name;
      }
      if (name == "test.rank") rank_tracks.insert(th.label);
      if (name == "test.team") team_tracks.insert(th.label);
      if (name == "core.region") {
        ++regions;
        EXPECT_EQ(th.label, "main");
        EXPECT_EQ(e.depth, 0u);
      }
      if (name == "test.after") {
        ++after;
        EXPECT_EQ(th.label, "main");
        EXPECT_EQ(e.depth, 0u);
      }
    }
  }
  EXPECT_EQ(rank_tracks, (std::set<std::string>{"mp/0", "mp/1", "mp/2"}));
  EXPECT_EQ(team_tracks.size(), 3u);  // the caller and two workers
  for (const auto& label : team_tracks) {
    EXPECT_TRUE(label == "main" || label.rfind("core.team/", 0) == 0)
        << label;
  }
  EXPECT_TRUE(team_tracks.contains("main"));
  EXPECT_EQ(regions, 2u);  // the world's region and the team's
  EXPECT_EQ(after, 1u);
}

// One smoke workload crosses three layers; all three span families land
// in a single trace (the PR's multi-layer acceptance shape).
TEST_F(Trace, CapturesSpansFromThreeLayers) {
  obs::set_tracing_enabled(true);
  auto board = pdc::life::random_grid(64, 64, 0.3, 11);
  pdc::life::run_plan(board, 4, {.threads_per_rank = 2});
  pdc::life::run_message_passing(board, 4, 2);
  obs::set_tracing_enabled(false);

  std::set<std::string> names;
  for (const auto& th : obs::trace_threads())
    for (const auto& e : th.events) names.insert(e.name);
  EXPECT_TRUE(names.contains("life.gen"));
  EXPECT_TRUE(names.contains("core.region"));
  EXPECT_TRUE(names.contains("mp.send"));
  EXPECT_TRUE(names.contains("mp.recv"));
}

// life::run_plan spans every Grid<->PackedGrid conversion on the thread
// that runs it: each team member's block in and out on {1,2}, each
// strip's load and store on {2,1}. One generation: 4 spans, 2 a thread.
TEST_F(Trace, LifeRunPlanSpansEveryConversionOnItsThread) {
  for (const pdc::stencil::ExecPlan plan :
       {pdc::stencil::ExecPlan{.ranks = 1, .threads_per_rank = 2},
        pdc::stencil::ExecPlan{.ranks = 2, .threads_per_rank = 1}}) {
    SCOPED_TRACE("plan {" + std::to_string(plan.ranks) + "," +
                 std::to_string(plan.threads_per_rank) + "}");
    auto board = pdc::life::random_grid(64, 64, 0.3, 11);
    obs::clear_trace();
    obs::set_tracing_enabled(true);
    pdc::life::run_plan(board, 1, plan);
    obs::set_tracing_enabled(false);
    std::vector<int> per_thread;
    for (const auto& th : obs::trace_threads()) {
      const auto n = std::count_if(
          th.events.begin(), th.events.end(), [](const obs::TraceEvent& e) {
            return std::string_view(e.name) == "life.convert";
          });
      if (n > 0) per_thread.push_back(static_cast<int>(n));
    }
    EXPECT_EQ(per_thread, (std::vector<int>{2, 2}));
  }
}

TEST_F(Trace, CapacityCapDropsAndCounts) {
  obs::set_trace_capacity(16);
  obs::set_tracing_enabled(true);
  for (int i = 0; i < 100; ++i) {
    PDC_TRACE_SCOPE("test.cap");
  }
  obs::set_tracing_enabled(false);
  std::uint64_t dropped = 0;
  std::size_t kept = 0;
  for (const auto& th : obs::trace_threads()) {
    for (const auto& e : th.events)
      if (std::string_view(e.name) == "test.cap") ++kept;
    dropped += th.dropped;
  }
  EXPECT_EQ(kept, 16u);
  EXPECT_EQ(dropped, 84u);
  obs::set_trace_capacity(1 << 15);
  // clear_trace resets the drop accounting too.
  obs::clear_trace();
  for (const auto& th : obs::trace_threads()) EXPECT_EQ(th.dropped, 0u);
}

// TSan-facing: concurrent emitters racing the exporter and the runtime
// switch must be clean.
TEST_F(Trace, ConcurrentEmissionAndExportIsClean) {
  obs::set_tracing_enabled(true);
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> emitters;
    for (int t = 0; t < 4; ++t)
      emitters.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          PDC_TRACE_SCOPE("test.race");
        }
      });
    for (int i = 0; i < 20; ++i) {
      (void)obs::export_chrome_trace();
      (void)obs::trace_summary();
      (void)obs::trace_span_count();
    }
    stop.store(true, std::memory_order_relaxed);
  }
  obs::set_tracing_enabled(false);
  // The export during emission parses, too.
  EXPECT_NO_THROW(JsonParser(obs::export_chrome_trace()).parse());
}

TEST_F(Trace, SummaryListsTopSpans) {
  obs::set_tracing_enabled(true);
  {
    PDC_TRACE_SCOPE("test.summary.hot");
  }
  obs::set_tracing_enabled(false);
  const std::string summary = obs::trace_summary();
  EXPECT_NE(summary.find("test.summary.hot"), std::string::npos);
  EXPECT_NE(summary.find("count"), std::string::npos);
}

}  // namespace
