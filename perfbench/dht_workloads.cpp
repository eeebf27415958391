// The two DHT workloads: dht-zipf-read and dht-lossy-write. Both drive
// mp::DhtClient with its default options from 4 in-process ranks in a
// closed loop: each rank submits its op stream back to back, and the
// client's per-shard window blocks it once that many ops are
// outstanding. A run is a series of segments, each a fresh world
// (prefill, fence, measured ops, drain, fence, checks, shutdown).
//
// The end-to-end metrics a DHT defines are setup_s, ops_per_s and
// op_p50_us. Neither DHT workload is gated (see below), so their result
// line carries the gated names of the stencil workloads: solve_s is the
// time of one block of DhtCfg::block ops per rank and serial_s repeats
// it; ops_per_s, op_p50_us and op_p99_us are in the diagnostic table. So
// are the per-layer metrics of the DhtClient and the reliable channel
// (mp.client_*, mp.*_per_op, mp.useful_frame_ratio): no gated workload
// runs those layers, so BENCHMARK.json does not list them.

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <map>
#include <string>

#include "bench.hpp"
#include "pdc/mp/client.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/fault.hpp"
#include "pdc/obs/obs.hpp"

namespace perfbench {

namespace mp = pdc::mp;
namespace obs = pdc::obs;

namespace {

// dht-zipf-read — why: hot keys (Zipf 0.99 over 64 Ki keys, 90% gets)
// make get dedup, put coalescing and batching do the work on the plain
// channel. No stencil and no reliable channel run. It runs by name but
// is not in BENCHMARK.json: over two sets of 10 runs of 25 s, read at
// the 75th-percentile segment, its block time spread 0.36/0.46, its
// throughput 0.27/0.43 and its set-up median moved by 0.67 — a closed
// loop of 4 ranks at full speed is what host contention episodes hit
// hardest. It was not measured again with the best-segment reading.
//
// dht-lossy-write — why: the same client the other way round, on the
// reliable channel with a seeded FaultPlan dropping 5% of deliveries.
// Uniform keys, 90% puts, and every rank writes only its own keys, so
// almost nothing coalesces or dedups and every remote op is on the wire. The
// stop-and-wait ack/retransmit path sets throughput and tail; this is
// the only workload that runs the reliable channel. It runs by name but
// is not in BENCHMARK.json: over two interleaved sets of 10 runs of 35 s
// its throughput spread 0.23/0.41 and its block time 0.18/0.44. Its speed
// follows hypervisor steal: 0.55-0.60 Mops/s in runs with under 4%
// steal, 0.30-0.44 Mops/s in runs with 19-26%, and such episodes last
// whole runs, so reading the least-disturbed segment does not remove them.

struct DhtCfg {
  int ranks;
  std::int64_t keys;
  std::size_t block;       ///< ops per rank per timed block
  std::size_t stream_len;  ///< ops generated per rank, replayed cyclically
  double segment_s;        ///< measured seconds per 4-rank world
  double traced_segment_s;
};

DhtCfg dht_cfg(const Args& a) {
  return a.smoke ? DhtCfg{4, 4096, 256, 1 << 14, 0.25, 0.2}
                 : DhtCfg{4, 65536, 1024, 1 << 18, 1.5, 1.0};
}

constexpr std::size_t kSampleEvery = 64;  ///< latency sample stride

struct Op {
  std::int64_t key;
  bool is_get;
};

/// Zipf(theta) over {0..n-1}, key 0 hottest (Gray et al.'s generator).
class Zipf {
 public:
  Zipf(std::int64_t n, double theta) : n_(static_cast<double>(n)), theta_(theta) {
    double zetan = 0;
    for (std::int64_t i = 1; i <= n; ++i)
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n_, 1.0 - theta)) / (1.0 - zeta2 / zetan);
  }
  std::int64_t sample(Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto k = static_cast<std::int64_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min<std::int64_t>(k, static_cast<std::int64_t>(n_) - 1);
  }

 private:
  double n_, theta_, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/// The value a key holds in dht-zipf-read (every put writes it again).
std::int64_t zipf_value(std::int64_t key) {
  return static_cast<std::int64_t>(mix(static_cast<std::uint64_t>(key), 0x5eed) >> 1);
}

/// dht-lossy-write values: version in the high half, a key tag in the low
/// half, so a read proves both which key and which write it saw.
std::uint32_t key_tag(std::int64_t key) {
  return static_cast<std::uint32_t>(mix(static_cast<std::uint64_t>(key), 0x7a6));
}
std::int64_t versioned(std::int64_t key, std::uint32_t version) {
  return static_cast<std::int64_t>((std::uint64_t{version} << 32) | key_tag(key));
}

/// Rank r's op stream in a P-rank world. In dht-lossy-write rank r writes
/// and reads only keys k with k % P == r.
std::vector<Op> make_stream(const Args& a, const DhtCfg& c, bool lossy,
                            int ranks, int r, const Zipf& zipf) {
  Rng rng(mix(mix(a.seed, static_cast<std::uint64_t>(ranks)),
              static_cast<std::uint64_t>(r)));
  std::vector<Op> ops(c.stream_len);
  const std::int64_t own = c.keys / ranks;
  for (auto& op : ops) {
    if (lossy) {
      op.key = r + ranks * static_cast<std::int64_t>(
                               rng.next() % static_cast<std::uint64_t>(own));
      op.is_get = rng.unit() < 0.10;
    } else {
      op.key = zipf.sample(rng);
      op.is_get = rng.unit() < 0.90;
    }
  }
  return ops;
}

struct RankOut {
  std::uint64_t ops = 0, attempted = 0, failed = 0;
  double measured_s = 0;
  std::vector<double> block_s;
  std::vector<double> lat_us;
  std::vector<std::string> errors;
};

struct SegmentOut {
  std::vector<RankOut> ranks;
  double setup_s = 0;
  obs::MetricsSnapshot mid, end;  ///< counters around the measured ops
};

/// One world: prefill, fence, closed-loop ops until `measure_s` has
/// passed, drain, fence, checks, shutdown.
SegmentOut run_segment(const DhtCfg& c, bool lossy, int ranks,
                       const std::vector<std::vector<Op>>& streams,
                       std::vector<std::size_t>& cursor, double measure_s,
                       std::uint64_t fault_seed) {
  SegmentOut out;
  out.ranks.resize(static_cast<std::size_t>(ranks));
  const auto t_setup = Clock::now();
  mp::FaultPlan plan;
  if (lossy) {
    plan.drop = 0.05;
    plan.seed = fault_seed;
  }
  mp::Communicator comm(ranks, plan);
  mp::DhtClient::Options copts;
  copts.reliable = lossy;
  comm.run([&](mp::RankContext& ctx) {
    const int r = ctx.rank();
    const auto ur = static_cast<std::size_t>(r);
    RankOut& me = out.ranks[ur];
    const std::int64_t own = c.keys / ranks;
    std::vector<std::uint32_t> version(static_cast<std::size_t>(own), 0);
    mp::DhtClient client(ctx, copts);
    const auto fail = [&](const std::string& what) {
      ++me.failed;
      if (me.errors.size() < 4) me.errors.push_back(what);
    };

    for (std::int64_t k = r; k < c.keys; k += ranks)
      (void)client.put(k, lossy ? versioned(k, 0) : zipf_value(k));
    client.fence();
    if (r == 0) {
      out.setup_s = seconds_since(t_setup);
      out.mid = obs::metrics_snapshot();
    }
    client.fence();

    struct Pending {
      mp::DhtFuture f;
      std::int64_t key;
      std::uint32_t min_version;
    };
    struct Sample {
      mp::DhtFuture f;
      Clock::time_point t;
    };
    std::deque<Pending> gets;
    std::vector<Sample> samples;
    const auto verify = [&](Pending& p) {
      if (p.f.status() == mp::DhtOpStatus::kShed) {
        fail("get shed");
        return;
      }
      const auto got = p.f.wait();
      if (!lossy) {
        if (!got.found || got.value != zipf_value(p.key))
          fail("get of key " + std::to_string(p.key) + " returned a wrong value");
        return;
      }
      const auto v = static_cast<std::uint64_t>(got.value);
      const auto ver = static_cast<std::uint32_t>(v >> 32);
      const auto now_ver =
          version[static_cast<std::size_t>(p.key / ranks)];
      if (!got.found || static_cast<std::uint32_t>(v) != key_tag(p.key) ||
          ver < p.min_version || ver > now_ver)
        fail("get of key " + std::to_string(p.key) +
             " saw a lost or foreign write");
    };
    const auto harvest_samples = [&] {
      bool any = false;
      for (const auto& s : samples) any = any || s.f.done();
      if (!any) return;
      const auto now = Clock::now();
      std::erase_if(samples, [&](const Sample& s) {
        if (!s.f.done()) return false;
        me.lat_us.push_back(
            std::chrono::duration<double, std::micro>(now - s.t).count());
        if (s.f.status() == mp::DhtOpStatus::kShed) fail("op shed");
        return true;
      });
    };

    const auto& stream = streams[ur];
    std::size_t& pos = cursor[ur];
    const auto t0 = Clock::now();
    const auto stop = t0 + std::chrono::duration<double>(measure_s);
    auto block_t0 = t0;
    std::size_t in_block = 0;
    for (std::uint64_t i = 0;; ++i) {
      const Op& op = stream[pos];
      pos = (pos + 1) % stream.size();
      const bool sampled = i % kSampleEvery == 0;
      Clock::time_point ts{};
      if (sampled) {
        ts = Clock::now();
        if (ts >= stop) break;
      }
      mp::DhtFuture f;
      {
        PDC_TRACE_SCOPE("bench.dht.submit");
        if (op.is_get) {
          f = client.get(op.key);
        } else if (lossy) {
          auto& v = version[static_cast<std::size_t>(op.key / ranks)];
          f = client.put(op.key, versioned(op.key, ++v));
        } else {
          f = client.put(op.key, zipf_value(op.key));
        }
      }
      ++me.ops;
      if (sampled) samples.push_back({f, ts});
      if (op.is_get) {
        gets.push_back({std::move(f), op.key,
                        lossy ? version[static_cast<std::size_t>(op.key / ranks)]
                              : 0});
      }
      while (!gets.empty() && gets.front().f.done()) {
        verify(gets.front());
        gets.pop_front();
      }
      harvest_samples();
      if (++in_block == c.block) {
        const auto now = Clock::now();
        me.block_s.push_back(std::chrono::duration<double>(now - block_t0).count());
        block_t0 = now;
        in_block = 0;
      }
    }
    client.drain();
    me.measured_s = seconds_since(t0);
    harvest_samples();
    for (auto& p : gets) verify(p);
    gets.clear();
    me.attempted += me.ops;
    client.fence();
    if (r == 0) out.end = obs::metrics_snapshot();

    if (lossy) {
      // Read the whole keyspace back (each rank its own keys): every
      // write must have landed exactly once, in order.
      std::vector<std::pair<std::int64_t, mp::DhtFuture>> back;
      back.reserve(static_cast<std::size_t>(own));
      for (std::int64_t k = r; k < c.keys; k += ranks)
        back.emplace_back(k, client.get(k));
      client.drain();
      for (auto& [k, f] : back) {
        ++me.attempted;
        const auto got = f.wait();
        if (!got.found ||
            got.value != versioned(k, version[static_cast<std::size_t>(k / ranks)]))
          fail("read-back of key " + std::to_string(k) +
               " does not hold its last write");
      }
    }
    client.fence();
    client.shutdown();
  });
  return out;
}

struct World {
  const DhtCfg& c;
  bool lossy;
  int ranks;
  std::vector<std::vector<Op>> streams;
  std::vector<std::size_t> cursor;

  World(const Args& a, const DhtCfg& cfg, bool l, int p, const Zipf& zipf)
      : c(cfg), lossy(l), ranks(p), cursor(static_cast<std::size_t>(p), 0) {
    for (int r = 0; r < p; ++r)
      streams.push_back(make_stream(a, cfg, l, p, r, zipf));
  }

  /// Runs one segment, folding op accounting and failures into `rep`;
  /// a RankFailedError or any other escape counts as a failed op.
  std::optional<SegmentOut> run(Report& rep, double measure_s,
                                std::uint64_t fault_seed) {
    try {
      auto seg = run_segment(c, lossy, ranks, streams, cursor, measure_s,
                             fault_seed);
      for (const auto& ro : seg.ranks) {
        rep.attempted += ro.attempted;
        rep.failed += ro.failed;
        for (const auto& e : ro.errors) rep.check(false, e);
      }
      return seg;
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.check(false, std::string("world failed: ") + e.what());
      return std::nullopt;
    }
  }
};

double counter_delta(const SegmentOut& s, const char* name) {
  return static_cast<double>(s.end.counter(name) - s.mid.counter(name));
}

}  // namespace

double setup_dht(const Args& a, bool lossy) {
  const auto c = dht_cfg(a);
  const Zipf zipf(c.keys, 0.99);
  World w(a, c, lossy, c.ranks, zipf);
  Report scratch;
  const auto seg = w.run(scratch, 0.0, mix(a.seed, 0xd409));
  return seg ? seg->setup_s : 0.0;
}

void run_dht(const Args& a, Report& r, bool lossy) {
  const auto c = dht_cfg(a);
  const Zipf zipf(c.keys, 0.99);
  World world(a, c, lossy, c.ranks, zipf);
  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  std::uint64_t worlds = 0;
  const auto fault_seed = [&] { return mix(a.seed, 0xd409 + worlds++); };

  if (!a.trace) {
    // Segments are the time windows: each metric is read per segment and
    // the least-disturbed segment is reported. The closed loop is bound by
    // cross-thread wake-ups (each reliable send waits for its ack), so
    // hypervisor steal sets its speed: segment rates inside one 35 s run
    // ranged 215k-580k ops/s, in bursts of seconds. Steal only ever slows
    // a segment, and a change to the program moves every segment. Over 7
    // runs of 35 s the spread (IQR/median) of the per-run best segment
    // was 0.12 for ops_per_s, 0.09 for solve_s and 0.11 for op_p50_us;
    // of the per-run 75th percentile 0.47, 0.44 and 0.34.
    std::vector<double> block_s, lat_us, setups = a.setup_samples;
    std::vector<double> seg_block, seg_rate, seg_p50, seg_p99;
    double ops = 0;
    // A segment's world set-up, drain and checks count against the run's
    // seconds too: start one only while its measured part still fits.
    const auto segment = std::chrono::duration<double>(c.segment_s);
    for (int s = 0; s == 0 || Clock::now() + segment < deadline; ++s) {
      const auto seg = world.run(r, c.segment_s, fault_seed());
      if (!seg) break;
      if (s == 0) setups.push_back(seg->setup_s);
      double longest = 0, seg_ops = 0;
      std::vector<double> blocks, lats;
      for (const auto& ro : seg->ranks) {
        seg_ops += static_cast<double>(ro.ops);
        longest = std::max(longest, ro.measured_s);
        blocks.insert(blocks.end(), ro.block_s.begin(), ro.block_s.end());
        lats.insert(lats.end(), ro.lat_us.begin(), ro.lat_us.end());
      }
      if (blocks.empty() || lats.empty()) continue;
      ops += seg_ops;
      seg_block.push_back(median(blocks));
      seg_rate.push_back(seg_ops / longest);
      seg_p50.push_back(quantile(lats, 0.50));
      seg_p99.push_back(quantile(lats, 0.99));
      block_s.insert(block_s.end(), blocks.begin(), blocks.end());
      lat_us.insert(lat_us.end(), lats.begin(), lats.end());
    }
    r.check(!seg_block.empty(), "dht run too short to time a block");
    // quantile(v, 0) is the fastest segment's time, quantile(v, 1) the
    // highest segment rate.
    const double block = quantile(seg_block, 0.0);
    r.metric("setup_s", median(setups), "s", setups.size());
    r.metric("solve_s", block, "s", block_s.size());
    r.metric("serial_s", block, "s", block_s.size());
    r.metric("ops_per_s", quantile(seg_rate, 1.0), "1/s",
             static_cast<std::size_t>(ops));
    r.metric("op_p50_us", quantile(seg_p50, 0.0), "us", lat_us.size());
    r.metric("op_p99_us", quantile(seg_p99, 0.0), "us", lat_us.size());
    r.distribution("block s", block_s);
    r.distribution("op latency us", lat_us);
    return;
  }

  // Traced run: untraced and traced worlds alternate; per-layer numbers
  // come from the traced ones only.
  obs::set_trace_capacity(std::size_t{1} << 20);
  TraceDigest total;
  double ops = 0, untraced_ops = 0, traced_secs = 0, untraced_secs = 0;
  std::map<std::string, double> d;
  std::vector<double> launch_us;
  const char* names[] = {"mp.messages", "mp.payload_words", "mp.acks",
                         "mp.retries", "mp.dropped", "mp.duplicates",
                         "dht.client.puts", "dht.client.gets",
                         "dht.client.local_ops", "dht.client.batches",
                         "dht.client.deduped_gets",
                         "dht.client.coalesced_puts"};
  const auto fold = [](const SegmentOut& seg, double& o, double& s) {
    double longest = 0;
    for (const auto& ro : seg.ranks) {
      o += static_cast<double>(ro.ops);
      longest = std::max(longest, ro.measured_s);
    }
    s += longest;
  };
  std::size_t traced_segments = 0;
  for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
    const auto plain = world.run(r, c.traced_segment_s, fault_seed());
    if (!plain) break;
    fold(*plain, untraced_ops, untraced_secs);
    {
      const auto t0 = Clock::now();
      mp::Communicator w(c.ranks);
      w.run([](mp::RankContext&) {});
      launch_us.push_back(seconds_since(t0) * 1e6);
    }
    obs::clear_trace();
    obs::set_tracing_enabled(true);
    const auto seg = world.run(r, c.traced_segment_s, fault_seed());
    obs::set_tracing_enabled(false);
    if (!seg) break;
    ++traced_segments;
    fold(*seg, ops, traced_secs);
    for (const char* n : names) d[n] += counter_delta(*seg, n);
    accumulate(total, digest_trace(obs::trace_threads(), nullptr, nullptr));
  }
  const auto n = traced_segments;
  const auto per = [&](double v, double by) { return by > 0 ? v / by : 0.0; };
  const auto span_mean = [&](const char* name, double scale) {
    const auto it = total.spans.find(name);
    return it == total.spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count) /
                     scale;
  };
  const double all = d["dht.client.puts"] + d["dht.client.gets"];
  r.applicable = {"mp.world_launch_us",       "mp.client_ops_per_batch",
                  "mp.client_local_ratio",    "mp.client_submit_ns",
                  "mp.client_serve_us_per_batch", "mp.client_fence_ms",
                  "mp.messages_per_op",       "mp.payload_words_per_op",
                  "obs.trace_overhead"};
  // Hot keys dedup and coalesce; only the lossy run has a reliable
  // channel. Uniform own keys may coalesce or dedup now and then, so
  // those ratios are not required of dht-lossy-write.
  if (lossy)
    r.applicable.insert(r.applicable.end(),
                        {"mp.acks_per_op", "mp.retries_per_op",
                         "mp.dropped_per_op", "mp.duplicates_per_op",
                         "mp.useful_frame_ratio"});
  else
    r.applicable.insert(r.applicable.end(),
                        {"mp.client_dedup_ratio", "mp.client_coalesce_ratio"});
  r.metric("mp.world_launch_us", median(launch_us), "us", launch_us.size());
  r.metric("mp.client_ops_per_batch",
           per(all - d["dht.client.local_ops"], d["dht.client.batches"]), "ops",
           n);
  r.metric("mp.client_dedup_ratio",
           per(d["dht.client.deduped_gets"], d["dht.client.gets"]), "ratio", n);
  r.metric("mp.client_coalesce_ratio",
           per(d["dht.client.coalesced_puts"], d["dht.client.puts"]), "ratio",
           n);
  r.metric("mp.client_local_ratio", per(d["dht.client.local_ops"], all),
           "ratio", n);
  r.metric("mp.client_submit_ns", span_mean("bench.dht.submit", 1.0), "ns", n);
  r.metric("mp.client_serve_us_per_batch", span_mean("dht.serve_batch", 1e3),
           "us", n);
  r.metric("mp.client_fence_ms", span_mean("dht.fence", 1e6), "ms", n);
  r.metric("mp.messages_per_op", per(d["mp.messages"], ops), "count", n);
  r.metric("mp.payload_words_per_op", per(d["mp.payload_words"], ops), "words",
           n);
  r.metric("mp.acks_per_op", per(d["mp.acks"], ops), "count", n);
  r.metric("mp.retries_per_op", per(d["mp.retries"], ops), "count", n);
  r.metric("mp.dropped_per_op", per(d["mp.dropped"], ops), "count", n);
  r.metric("mp.duplicates_per_op", per(d["mp.duplicates"], ops), "count", n);
  r.metric("mp.useful_frame_ratio",
           per(d["mp.messages"], d["mp.messages"] + d["mp.dropped"] +
                                     d["mp.duplicates"] + d["mp.acks"]),
           "ratio", n);
  r.metric("obs.trace_overhead",
           per(per(untraced_ops, untraced_secs), per(ops, traced_secs)),
           "ratio", n);
  r.metric("obs.spans_dropped", static_cast<double>(total.dropped), "count", n);
  note_spans(r, total);
  if (!a.trace_file.empty()) {
    // A full traced world records millions of spans; export a short one.
    obs::clear_trace();
    obs::set_tracing_enabled(true);
    (void)world.run(r, c.traced_segment_s / 20, fault_seed());
    obs::set_tracing_enabled(false);
    obs::write_chrome_trace(a.trace_file);
    r.note("chrome trace of a short traced world: " + a.trace_file);
  }
}

}  // namespace perfbench
