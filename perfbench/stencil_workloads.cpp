// The two stencil workloads: life-dense and heat-converge. Each run
// alternates a solve on the workload's plan with the same solve on plan
// {1,1}, so both see the same host phases; a traced run alternates an
// untraced solve with a traced one driven through stencil::run by a
// forwarding adapter that records the benchmark's own spans.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "pdc/life/engine.hpp"
#include "pdc/life/packed_grid.hpp"
#include "pdc/life/stencil_workload.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/stencil/engine.hpp"
#include "pdc/stencil/heat.hpp"

namespace perfbench {

namespace life = pdc::life;
namespace mp = pdc::mp;
namespace obs = pdc::obs;
namespace stencil = pdc::stencil;

namespace {

constexpr stencil::ExecPlan kSerialPlan{};

/// Forwards every workload hook to `inner` and records a span around each
/// step_tile and finish_step call, plus the tallies spans cannot give.
template <class W>
struct Traced {
  W inner;
  const char* tile_span;
  const char* finish_span;
  std::atomic<std::uint64_t>* useful;  ///< tiles whose output changed
  std::atomic<std::uint64_t>* units;   ///< workload units computed
  std::atomic<std::int64_t>* busy_ns;  ///< this rank's tile time

  using Field = typename W::Field;
  [[nodiscard]] std::size_t height(const Field& f) const {
    return inner.height(f);
  }
  [[nodiscard]] std::size_t width(const Field& f) const {
    return inner.width(f);
  }
  [[nodiscard]] bool wrap_rows(const Field& f) const {
    return inner.wrap_rows(f);
  }
  [[nodiscard]] bool wrap_cols(const Field& f) const {
    return inner.wrap_cols(f);
  }
  void init(Field& f) const { inner.init(f); }
  double step_tile(const Field& src, Field& dst,
                   const stencil::TileBounds& b) const {
    obs::TraceScope span(tile_span);
    const auto t0 = Clock::now();
    const double d = inner.step_tile(src, dst, b);
    busy_ns->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - t0)
                           .count(),
                       std::memory_order_relaxed);
    if (d > 0.0) useful->fetch_add(1, std::memory_order_relaxed);
    units->fetch_add(b.rows() * b.cols(), std::memory_order_relaxed);
    return d;
  }
  void finish_step(Field& dst, const stencil::TileMap& tm,
                   const std::vector<std::uint8_t>& computed) const {
    obs::TraceScope span(finish_span);
    inner.finish_step(dst, tm, computed);
  }
  [[nodiscard]] std::size_t halo_words(const Field& f) const {
    return inner.halo_words(f);
  }
  void pack_row(const Field& f, bool top, std::int64_t* out) const {
    inner.pack_row(f, top, out);
  }
  void unpack_halo(Field& f, bool above, const std::int64_t* in) const {
    inner.unpack_halo(f, above, in);
  }
  void finish_halo(Field& f) const { inner.finish_halo(f); }
};

struct Tally {
  std::atomic<std::uint64_t> useful{0};
  std::atomic<std::uint64_t> units{0};
  std::vector<std::atomic<std::int64_t>> rank_busy_ns;
  explicit Tally(int ranks) : rank_busy_ns(static_cast<std::size_t>(ranks)) {}
};

/// Counters the exact-count self-check and the per-layer ratios read.
struct Counts {
  std::uint64_t messages = 0, regions = 0, steals = 0, attempts = 0;
  static Counts now() {
    return {obs::counter("mp.messages").value(),
            obs::counter("core.regions").value(),
            obs::counter("stencil.steals").value(),
            obs::counter("stencil.steal_attempts").value()};
  }
  Counts operator-(const Counts& o) const {
    return {messages - o.messages, regions - o.regions, steals - o.steals,
            attempts - o.attempts};
  }
  Counts& operator+=(const Counts& o) {
    messages += o.messages;
    regions += o.regions;
    steals += o.steals;
    attempts += o.attempts;
    return *this;
  }
};

/// What must come out identical in every solve, traced or not, on every
/// plan: the engine's step and tile counts and the halo traffic.
struct ExactCounts {
  std::uint64_t steps = 0, computed = 0, skipped = 0, halo_words = 0,
                messages = 0;
  bool operator==(const ExactCounts&) const = default;
  [[nodiscard]] std::string str() const {
    std::ostringstream s;
    s << "steps=" << steps << " tiles_computed=" << computed
      << " tiles_skipped=" << skipped << " halo_words=" << halo_words
      << " messages=" << messages;
    return s.str();
  }
};

ExactCounts exact(const stencil::RunResult& res, std::uint64_t messages) {
  return {res.steps, res.tiles_computed, res.tiles_skipped, res.halo_words,
          messages};
}

void check_exact(Report& r, std::optional<ExactCounts>& want,
                 const ExactCounts& got, const char* what) {
  if (!want) {
    want = got;
    return;
  }
  r.check(got == *want, std::string(what) + ": counts " + got.str() +
                            " differ from the run's first solve " +
                            want->str());
}

double secs(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ------------------------------------------------------------ yardstick
//
// On a shared 4-vCPU KVM guest a solve's wall time measures the host as
// much as the program: throughput-bound code runs in a fast or a slow
// state, and the share of each drifts over minutes (bench.hpp). So each
// timed solve is bracketed by two timings of a yardstick, the benchmark's
// own SWAR Life loop, run on as many threads as the solve's plan keeps
// busy, and the solve is reported at the yardstick's nominal speed: wall
// time x kNominalS / (mean of the two yardstick times). The yardstick
// slows with the solves; a change to the library moves the solves and not
// the yardstick, which is benchmark code.
//
// Measured on 4-5 minute series of interleaved solves cut into 35 s
// pieces, the median scaled time spread (IQR/median) 0.008 on Life {1,1},
// 0.025 on Life {1,2}, 0.053 on heat {1,1} and 0.036 on heat {2,1},
// against 0.027, 0.051, 0.10 and 0.28 for the median wall time. A
// yardstick timed only before each solve left heat {2,1} at 0.16.

/// One yardstick board: a 1024 x 1024 Life field, 64 cells per word, with
/// a dead margin word at each row end and a dead row above and below.
class YardBoard {
 public:
  explicit YardBoard(std::uint64_t seed)
      : cur_(kStride * (kRows + 2)), nxt_(cur_.size()) {
    Rng rng(seed);
    for (std::size_t r = 1; r <= kRows; ++r)
      for (std::size_t w = 1; w <= kWords; ++w)
        cur_[r * kStride + w] = rng.next() & rng.next();
  }
  void run(int gens) {
    for (int g = 0; g < gens; ++g) {
      for (std::size_t r = 1; r <= kRows; ++r) step_row(r);
      std::swap(cur_, nxt_);
    }
  }

 private:
  static constexpr std::size_t kRows = 1024, kWords = 16,
                               kStride = kWords + 2;
  static void add3(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                   std::uint64_t& sum, std::uint64_t& carry) {
    const std::uint64_t t = a ^ b;
    sum = t ^ c;
    carry = (a & b) | (t & c);
  }
  void step_row(std::size_t r) {
    const std::uint64_t* up = &cur_[(r - 1) * kStride];
    const std::uint64_t* mid = up + kStride;
    const std::uint64_t* down = mid + kStride;
    std::uint64_t* out = &nxt_[r * kStride];
    for (std::size_t w = 1; w <= kWords; ++w) {
      const std::uint64_t u = up[w], m = mid[w], d = down[w];
      std::uint64_t s0, c0, s1, c1, n0, k0, n1, k1;
      add3((u << 1) | (up[w - 1] >> 63), u, (u >> 1) | (up[w + 1] << 63), s0,
           c0);
      add3((d << 1) | (down[w - 1] >> 63), d, (d >> 1) | (down[w + 1] << 63),
           s1, c1);
      const std::uint64_t mw = (m << 1) | (mid[w - 1] >> 63);
      const std::uint64_t me = (m >> 1) | (mid[w + 1] << 63);
      add3(s0, s1, mw ^ me, n0, k0);              // ones
      add3(c0, c1, mw & me, n1, k1);              // twos, carry into fours
      const std::uint64_t twos = n1 ^ k0;
      const std::uint64_t fours = k1 | (n1 & k0);  // 4 or more
      out[w] = twos & ~fours & (n0 | m);           // count 3, or 2 and alive
    }
  }
  std::vector<std::uint64_t> cur_, nxt_;
};

/// The yardstick on `threads` threads at once, each on its own board.
class Yardstick {
 public:
  explicit Yardstick(int threads) {
    for (int i = 0; i < threads; ++i)
      boards_.emplace_back(mix(0x7a5d, static_cast<std::uint64_t>(i)));
  }
  /// Seconds until every thread has run kGens generations.
  double time() {
    const auto t0 = Clock::now();
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < boards_.size(); ++i)
      helpers.emplace_back([b = &boards_[i]] { b->run(kGens); });
    boards_[0].run(kGens);
    for (auto& h : helpers) h.join();
    return seconds_since(t0);
  }

 private:
  static constexpr int kGens = 40;
  std::vector<YardBoard> boards_;
};

/// The one-thread yardstick's time in the fast state of that guest's
/// vCPUs (3.7-4.2 ms on a Xeon with 2 MiB of L2 per vCPU). It only fixes
/// the scale: scaled times read as seconds on such a vCPU.
constexpr double kNominalS = 0.004;

/// The timed solves of one plan in a run.
struct Solves {
  explicit Solves(const stencil::ExecPlan& plan)
      : yardstick(plan.ranks * plan.threads_per_rank) {}
  Yardstick yardstick;
  std::vector<double> wall, scaled, yard;

  /// Times `solve` (which returns its wall seconds) between two yardstick
  /// timings.
  template <class Solve>
  void time(Solve&& solve) {
    const double y0 = yardstick.time();
    const double t = solve();
    const double y1 = yardstick.time();
    wall.push_back(t);
    scaled.push_back(t * kNominalS * 2 / (y0 + y1));
    yard.push_back(y0);
    yard.push_back(y1);
  }
};

/// Metrics shared by both stencil workloads' untraced runs.
void report_solves(Report& r, const Args& a, double setup_s,
                   const Solves& plan, const Solves& serial) {
  std::vector<double> setups = a.setup_samples;
  setups.push_back(setup_s);
  r.metric("setup_s", median(setups), "s", setups.size());
  r.metric("solve_s", median(plan.scaled), "s", plan.scaled.size());
  r.metric("serial_s", median(serial.scaled), "s", serial.scaled.size());
  r.distribution("plan solve wall s", plan.wall);
  r.distribution("plan solve scaled s", plan.scaled);
  r.distribution("plan yardstick s", plan.yard);
  r.distribution("serial solve wall s", serial.wall);
  r.distribution("serial solve scaled s", serial.scaled);
  r.distribution("serial yardstick s", serial.yard);
}

/// Runs plan and {1,1} solves alternately until the deadline, switching
/// which goes first each round so neither always follows the other's
/// cache state.
template <class Solve>
void alternate(const Args& a, Solve solve, Solves& plan, Solves& serial) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (int i = 0; i == 0 || Clock::now() < deadline; ++i)
    for (int k = 0; k < 2; ++k) {
      if ((i + k) % 2 == 0) serial.time([&] { return solve(true); });
      else plan.time([&] { return solve(false); });
    }
}

// ------------------------------------------------------------ life-dense
//
// Why: every tile of a 2048^2 30% soup stays active for all generations
// (tiles computed = 64 x G), so dirty-tile skipping is bypassed and no mp
// layer runs. Solve time splits between the SWAR kernel, the rank-0
// serial section between barriers (ghost-row sync, prep), and the
// single-threaded Grid <-> PackedGrid conversion — the open question of
// why more threads reach only ~1.4x over {1,1}.
//
// Plan {1,2}, not {1,4}: a generation ends in a team barrier, so with 4
// busy threads on 4 vCPUs a stall of any one vCPU (hypervisor steal ran
// at 3-13% during runs) stalls the step. In stall episodes {1,4} solves
// ran 2-6x slower while {1,1} moved 10%. Over 6 runs of 25 s the solve
// time spread (IQR/median) 0.97 on {1,4} in such an episode and 0.23
// outside one, 0.16 on {1,3} and 0.15 on {1,2}. {1,2} still runs the
// team, its barriers and tile stealing, and reaches 1.45x over {1,1}.

struct LifeCfg {
  std::size_t n;
  int gens;
  std::uint64_t default_digest;  ///< final board at kDefaultSeed
};

LifeCfg life_cfg(const Args& a) {
  return a.smoke ? LifeCfg{256, 8, 0x8329875c27b8f883ULL}
                 : LifeCfg{2048, 100, 0x34f44587a7b7e848ULL};
}

constexpr stencil::ExecPlan kLifePlan{.ranks = 1, .threads_per_rank = 2};
constexpr const char* kLifePlanName = "life {1,2}";

std::vector<std::uint8_t> life_soup(std::uint64_t seed, std::size_t n) {
  Rng rng(mix(seed, 0x11fe));
  std::vector<std::uint8_t> cells(n * n);
  for (auto& c : cells) c = rng.unit() < 0.30 ? 1 : 0;
  return cells;
}

std::uint64_t board_digest(const life::Grid& g) {
  std::uint64_t h = 0x6c69666564696765ULL;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const std::uint8_t* row = g.row_data(r);
    for (std::size_t c = 0; c < g.cols(); c += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, row + c, std::min<std::size_t>(8, g.cols() - c));
      h = mix(h, w);
    }
  }
  return h;
}

struct LifeSetup {
  life::Grid board;
  double setup_s;
};

/// The timed set-up: build the library's input board from the soup and
/// launch the plan's team once (a zero-generation solve).
LifeSetup life_setup(const Args& a) {
  const auto cfg = life_cfg(a);
  const auto soup = life_soup(a.seed, cfg.n);
  const auto t0 = Clock::now();
  life::Grid board(cfg.n, cfg.n, life::Boundary::kTorus);
  for (std::size_t r = 0; r < cfg.n; ++r)
    std::memcpy(board.row_data(r), &soup[r * cfg.n], cfg.n);
  (void)life::run_plan(board, 0, kLifePlan);
  return {std::move(board), seconds_since(t0)};
}

/// life::run_plan's one-rank path, with the conversions spanned and the
/// workload wrapped: same tiling, same engine options.
stencil::RunResult traced_life_solve(life::Grid& board, int gens,
                                     Tally& tally) {
  const life::EngineOptions eo;
  std::optional<life::PackedGrid> cur;
  {
    obs::TraceScope span("bench.life.convert");
    cur.emplace(board);
  }
  life::PackedGrid nxt(board.rows(), board.cols(), board.boundary());
  Traced<life::LifeWorkload> w{life::LifeWorkload{}, "bench.life.tile",
                               "bench.life.finish_step", &tally.useful,
                               &tally.units, &tally.rank_busy_ns[0]};
  stencil::Options o;
  o.tile_rows = eo.tile_rows;
  o.tile_cols = eo.tile_words;
  o.max_steps = gens;
  o.skip_quiescent = eo.skip_quiescent;
  o.quiesce_eps = 0.0;
  o.converge_eps = -1.0;
  o.span_name = "life.gen";
  const auto res = stencil::run(w, *cur, nxt, kLifePlan, o);
  obs::TraceScope span("bench.life.convert");
  board = cur->unpack();
  return res;
}

// --------------------------------------------------------- heat-converge
//
// Why: time to a stated accuracy. A cold field of 256 rows under a hot
// top edge relaxes to eps = 1e-3 (240 steps); the activity front moves
// away from the hot edge, so skipping (17824 of 30720 tile steps
// skipped) and a halo exchange plus an allreduce every step all do real
// work. Rank 0 owns the hot strip, so rank imbalance is large, and the
// cold interior fills with subnormal floats (3% of cells at the end). The
// problem is fixed by definition: the seed does not enter it.
//
// eps 1e-3, not 1e-4: to 1e-4 a solve takes 2419 steps and 1.5-1.8 s, so
// a 25 s run held about 8 plan solves, too few for a steady median. At
// 1e-3 a 35 s run holds 65-100 plan/serial pairs.
//
// 1024 columns, not 256: the same steps, front depth, skip share and
// subnormal share as the 256^2 field, with four times the work per step.
// Every step's halo exchange and allreduce wake a blocked rank thread,
// and the vCPU wake-up latency rides on hypervisor steal: at 256^2 a
// {2,1} solve took 0.075 s in a run with 1.6% steal and 0.138 s in one
// with 10%, against 0.061-0.070 s on {1,1}. Four times the work per step
// cuts that share of the solve by four.
//
// Plan {2,1}, not {2,2}: each of the 240 steps ends in a barrier and an
// allreduce, and with 4 busy threads a stall of any one vCPU stalls the
// step. Over 6 runs of 25 s on the 256^2 field the solve time spread
// (IQR/median) 0.32 on {2,2}, 0.17 on {2,1} and 0.05 on {1,1}. Tile
// stealing and team barriers stay measured on life-dense.

struct HeatCfg {
  std::size_t rows, cols;
  double eps;
  std::size_t tile_rows, tile_cols;
  // Recorded counts of one solve to eps, the same on every plan.
  std::uint64_t steps, tiles_computed, tiles_skipped;
};

HeatCfg heat_cfg(const Args& a) {
  return a.smoke ? HeatCfg{128, 128, 1e-3, 16, 32, 240, 4920, 2760}
                 : HeatCfg{256, 1024, 1e-3, 32, 64, 240, 12896, 17824};
}

constexpr stencil::ExecPlan kHeatPlan{.ranks = 2, .threads_per_rank = 1};
constexpr const char* kHeatPlanName = "heat {2,1}";

stencil::HeatOptions heat_opts(const HeatCfg& c) {
  stencil::HeatOptions o;
  o.conductivity = 0.25;
  o.max_steps = 1000000;
  o.converge_eps = c.eps;
  o.quiesce_eps = 0.0;
  o.tile_rows = c.tile_rows;
  o.tile_cols = c.tile_cols;
  o.skip_quiescent = true;
  return o;
}

struct HeatSetup {
  stencil::HeatField field;
  double setup_s;
};

/// The timed set-up: build the field and launch the plan's world once (a
/// zero-step solve).
HeatSetup heat_setup(const Args& a) {
  const auto cfg = heat_cfg(a);
  const auto t0 = Clock::now();
  stencil::HeatField field(cfg.rows, cfg.cols, 0.0f);
  field.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
  auto o = heat_opts(cfg);
  o.max_steps = 0;
  (void)stencil::heat_relax_plan(field, o, kHeatPlan);
  return {std::move(field), seconds_since(t0)};
}

/// heat_relax_plan's strip path for plan.ranks > 1 with the workload
/// wrapped: the same tile-row partition, links and engine options, so the
/// traced solve computes exactly what the untraced one does.
stencil::RunResult traced_heat_solve(stencil::HeatField& field,
                                     const stencil::HeatOptions& opt,
                                     const stencil::ExecPlan& plan,
                                     Tally& tally) {
  const int ranks = plan.ranks;
  const std::size_t rows = field.rows();
  const std::size_t tile_h = std::max<std::size_t>(
      1, std::min(opt.tile_rows, rows / static_cast<std::size_t>(ranks)));
  const std::size_t n_tiles = (rows + tile_h - 1) / tile_h;
  std::vector<stencil::RunResult> results(static_cast<std::size_t>(ranks));
  mp::Communicator comm(ranks);
  comm.run([&](mp::RankContext& ctx) {
    const int r = ctx.rank();
    const auto rr = static_cast<std::size_t>(r);
    const auto p = static_cast<std::size_t>(ranks);
    const std::size_t tlo = rr * (n_tiles / p) + std::min(rr, n_tiles % p);
    const std::size_t thi = tlo + n_tiles / p + (rr < n_tiles % p ? 1 : 0);
    const std::size_t r0 = tlo * tile_h;
    const std::size_t r1 = std::min(rows, thi * tile_h);
    stencil::HeatField strip(r1 - r0, field.cols());
    for (std::size_t pr = 0; pr < (r1 - r0) + 2; ++pr)
      std::copy_n(&field.at(static_cast<std::ptrdiff_t>(r0 + pr) - 1, -1),
                  field.cols() + 2,
                  &strip.at(static_cast<std::ptrdiff_t>(pr) - 1, -1));
    stencil::HeatField scratch = strip;
    Traced<stencil::HeatWorkload> w{
        stencil::HeatWorkload{opt.conductivity}, "bench.heat.tile",
        "bench.heat.finish_step", &tally.useful, &tally.units,
        &tally.rank_busy_ns[rr]};
    stencil::Options o;
    o.tile_rows = tile_h;
    o.tile_cols = opt.tile_cols;
    o.max_steps = opt.max_steps;
    o.skip_quiescent = opt.skip_quiescent;
    o.quiesce_eps = opt.quiesce_eps;
    o.converge_eps = opt.converge_eps;
    o.span_name = "heat.step";
    const stencil::MpLinks links{r > 0 ? r - 1 : -1,
                                 r + 1 < ranks ? r + 1 : -1};
    results[rr] = stencil::run(w, strip, scratch, plan, o, ctx, links);
    ctx.barrier();
    for (std::size_t pr = 0; pr < r1 - r0; ++pr)
      std::copy_n(&strip.at(static_cast<std::ptrdiff_t>(pr), 0), field.cols(),
                  &field.at(static_cast<std::ptrdiff_t>(r0 + pr), 0));
  });
  stencil::RunResult total = results[0];
  for (std::size_t i = 1; i < results.size(); ++i) {
    total.tiles_computed += results[i].tiles_computed;
    total.tiles_skipped += results[i].tiles_skipped;
    total.halo_words += results[i].halo_words;
    total.last_delta = std::max(total.last_delta, results[i].last_delta);
  }
  return total;
}

double subnormal_fraction(const stencil::HeatField& f) {
  std::uint64_t sub = 0;
  for (std::size_t r = 0; r < f.rows(); ++r)
    for (std::size_t c = 0; c < f.cols(); ++c)
      if (std::fpclassify(f.at(static_cast<std::ptrdiff_t>(r),
                               static_cast<std::ptrdiff_t>(c))) ==
          FP_SUBNORMAL)
        ++sub;
  return static_cast<double>(sub) / static_cast<double>(f.rows() * f.cols());
}

/// Per-layer numbers common to both traced stencil runs.
void report_engine_layers(Report& r, const TraceDigest& d,
                          const Counts& delta, const Tally& tally,
                          const ExactCounts& per_solve, std::size_t solves,
                          bool team,
                          const std::vector<double>& untraced,
                          const std::vector<double>& traced) {
  const double steps = static_cast<double>(d.steps.steps);
  const auto n = solves;
  r.applicable = {"stencil.compute_us_per_step", "stencil.imbalance",
                  "stencil.steps", "stencil.tiles_computed",
                  "stencil.useful_tile_ratio", "obs.trace_overhead"};
  if (team)
    r.applicable.insert(r.applicable.end(),
                        {"stencil.serial_us_per_step", "stencil.steal_success",
                         "core.barrier_wait_us_per_step",
                         "core.regions_per_solve"});
  r.metric("stencil.serial_us_per_step",
           d.steps.gaps ? d.steps.serial_ns / d.steps.gaps / 1e3 : 0, "us", n);
  r.metric("stencil.compute_us_per_step",
           steps > 0 ? d.steps.compute_ns / steps / 1e3 : 0, "us", n);
  r.metric("stencil.imbalance", steps > 0 ? d.steps.imbalance_sum / steps : 0,
           "ratio", n);
  r.metric("stencil.steal_success",
           delta.attempts ? static_cast<double>(delta.steals) /
                                static_cast<double>(delta.attempts)
                          : 0,
           "ratio", n);
  r.metric("stencil.steps", static_cast<double>(per_solve.steps), "count", n);
  r.metric("stencil.tiles_computed", static_cast<double>(per_solve.computed),
           "count", n);
  r.metric("stencil.tiles_skipped", static_cast<double>(per_solve.skipped),
           "count", n);
  r.metric("stencil.useful_tile_ratio",
           static_cast<double>(tally.useful.load()) /
               static_cast<double>(per_solve.computed * n),
           "ratio", n);
  // Without a team ({R,1}) there is no barrier: the step-end skew is
  // then the ranks', not core's.
  if (team)
    r.metric("core.barrier_wait_us_per_step",
             steps > 0 ? d.steps.barrier_wait_ns / steps / 1e3 : 0, "us", n);
  r.metric("core.regions_per_solve",
           static_cast<double>(delta.regions) / static_cast<double>(n),
           "count", n);
  r.metric("mp.messages_per_step",
           static_cast<double>(per_solve.messages) /
               static_cast<double>(per_solve.steps),
           "count", n);
  r.metric("mp.halo_words_per_step",
           static_cast<double>(per_solve.halo_words) /
               static_cast<double>(per_solve.steps),
           "words", n);
  r.metric("obs.trace_overhead", median(traced) / median(untraced),
           "ratio", n);
  r.metric("obs.spans_dropped", static_cast<double>(d.dropped), "count", n);
}

double span_ns(const TraceDigest& d, const char* name) {
  const auto it = d.spans.find(name);
  return it == d.spans.end() ? 0.0 : it->second.total_ns;
}

void write_trace(const Args& a, Report& r, const TraceDigest& d) {
  note_spans(r, d);
  if (a.trace_file.empty()) return;
  obs::write_chrome_trace(a.trace_file);
  r.note("chrome trace of the last traced solve: " + a.trace_file);
}

}  // namespace

double setup_life_dense(const Args& a) { return life_setup(a).setup_s; }

void run_life_dense(const Args& a, Report& r) {
  const auto cfg = life_cfg(a);
  auto [board, setup_s] = life_setup(a);
  const double cells = static_cast<double>(cfg.n * cfg.n);
  std::optional<life::Grid> reference;
  std::optional<ExactCounts> want;
  const auto solve = [&](life::Grid& b, const stencil::ExecPlan& plan,
                         const char* what) {
    std::uint64_t msgs = 0, words = 0;
    const auto t0 = Clock::now();
    const auto res = life::run_plan(b, cfg.gens, plan, {}, &msgs, &words);
    const auto t1 = Clock::now();
    bool ok = true;
    const auto got = exact(res, msgs);
    check_exact(r, want, got, what);
    ok = ok && (!want || got == *want);
    if (!reference) {
      reference = b;
      const auto dg = board_digest(b);
      std::ostringstream s;
      s << "board digest 0x" << std::hex << dg;
      r.note(s.str());
      if (a.seed == kDefaultSeed)
        r.check(dg == cfg.default_digest,
                "life-dense board digest differs from the one recorded for "
                "the default seed");
      // Every tile stays active: the workload's reason to exist.
      r.check(res.tiles_skipped == 0 && words == 0,
              "life-dense skipped tiles or sent messages");
    } else {
      const bool same = b == *reference;
      r.check(same, std::string(what) + " board differs from the first solve");
      ok = ok && same;
    }
    ++r.attempted;
    if (!ok) ++r.failed;
    return secs(t0, t1);
  };

  if (!a.trace) {
    Solves plan(kLifePlan), serial(kSerialPlan);
    alternate(
        a,
        [&](bool on_serial) {
          life::Grid b = board;
          return on_serial ? solve(b, kSerialPlan, "life {1,1}")
                           : solve(b, kLifePlan, kLifePlanName);
        },
        plan, serial);
    report_solves(r, a, setup_s, plan, serial);
    return;
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  obs::set_trace_capacity(std::size_t{1} << 20);
  Tally tally(1);
  TraceDigest total;
  Counts delta;
  std::vector<double> untraced, traced;
  for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
    life::Grid b = board;
    untraced.push_back(solve(b, kLifePlan, kLifePlanName));
    life::Grid tb = board;
    obs::clear_trace();
    const auto c0 = Counts::now();
    obs::set_tracing_enabled(true);
    const auto t0 = Clock::now();
    const auto res = traced_life_solve(tb, cfg.gens, tally);
    const auto t1 = Clock::now();
    obs::set_tracing_enabled(false);
    delta += Counts::now() - c0;
    traced.push_back(secs(t0, t1));
    accumulate(total, digest_trace(obs::trace_threads(), "life.gen",
                                   "bench.life.tile"));
    const auto got = exact(res, 0);
    check_exact(r, want, got, "traced life plan");
    const bool ok = (got == *want) && tb == *reference;
    r.check(tb == *reference, "traced life board differs from untraced");
    ++r.attempted;
    if (!ok) ++r.failed;
  }
  const auto n = traced.size();
  const double tile_ns = span_ns(total, "bench.life.tile");
  r.metric("life.kernel_cells_per_ns",
           tile_ns > 0 ? cells * cfg.gens * static_cast<double>(n) / tile_ns : 0,
           "cells/ns", n);
  r.metric("life.ghost_sync_us_per_step",
           span_ns(total, "bench.life.finish_step") /
               static_cast<double>(want->steps * n) / 1e3,
           "us", n);
  r.metric("life.convert_ms",
           span_ns(total, "bench.life.convert") / static_cast<double>(n) / 1e6,
           "ms", n);
  report_engine_layers(r, total, delta, tally, *want, n,
                       kLifePlan.threads_per_rank > 1, untraced, traced);
  r.applicable.insert(r.applicable.end(), {"life.kernel_cells_per_ns",
                                           "life.ghost_sync_us_per_step",
                                           "life.convert_ms"});
  write_trace(a, r, total);
}

double setup_heat_converge(const Args& a) { return heat_setup(a).setup_s; }

void run_heat_converge(const Args& a, Report& r) {
  const auto cfg = heat_cfg(a);
  const auto opt = heat_opts(cfg);
  auto [field, setup_s] = heat_setup(a);
  std::optional<stencil::HeatField> reference;
  std::optional<stencil::RunResult> ref_res;
  std::optional<ExactCounts> want_plan, want_serial;
  const auto msgs = [] { return obs::counter("mp.messages").value(); };
  const auto verify = [&](const stencil::HeatField& f,
                          const stencil::RunResult& res, const char* what) {
    bool ok = res.converged && res.steps == cfg.steps &&
              res.tiles_computed == cfg.tiles_computed &&
              res.tiles_skipped == cfg.tiles_skipped;
    r.check(ok, std::string(what) + " took " + std::to_string(res.steps) +
                    " steps, " + std::to_string(res.tiles_computed) +
                    " tiles computed and " +
                    std::to_string(res.tiles_skipped) +
                    " skipped to converge; recorded " +
                    std::to_string(cfg.steps) + ", " +
                    std::to_string(cfg.tiles_computed) + ", " +
                    std::to_string(cfg.tiles_skipped));
    if (!reference) {
      reference = f;
      ref_res = res;
      return ok;
    }
    const bool same = f == *reference && res.steps == ref_res->steps &&
                      res.last_delta == ref_res->last_delta;
    r.check(same, std::string(what) +
                      " field, steps or residual differ from the {1,1} solve");
    return ok && same;
  };
  const auto solve = [&](const stencil::ExecPlan& plan,
                         std::optional<ExactCounts>& want, const char* what) {
    stencil::HeatField f = field;
    const auto m0 = msgs();
    const auto t0 = Clock::now();
    const auto res = stencil::heat_relax_plan(f, opt, plan);
    const auto t1 = Clock::now();
    const auto got = exact(res, msgs() - m0);
    check_exact(r, want, got, what);
    const bool ok = verify(f, res, what) && got == *want;
    ++r.attempted;
    if (!ok) ++r.failed;
    return secs(t0, t1);
  };

  Solves plan(kHeatPlan), serial(kSerialPlan);
  // The {1,1} solve runs first: it is the reference the plan must match.
  serial.time([&] { return solve(kSerialPlan, want_serial, "heat {1,1}"); });
  r.check(want_serial->computed + want_serial->skipped ==
              want_serial->steps * ((cfg.rows / cfg.tile_rows) *
                                    (cfg.cols / cfg.tile_cols)),
          "heat tile accounting does not add up");

  if (!a.trace) {
    alternate(
        a,
        [&](bool on_serial) {
          return on_serial ? solve(kSerialPlan, want_serial, "heat {1,1}")
                           : solve(kHeatPlan, want_plan, kHeatPlanName);
        },
        plan, serial);
    r.check(want_plan->steps == want_serial->steps &&
                want_plan->computed == want_serial->computed &&
                want_plan->skipped == want_serial->skipped,
            std::string(kHeatPlanName) + " and heat {1,1} tile counts differ");
    report_solves(r, a, setup_s, plan, serial);
    return;
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  obs::set_trace_capacity(std::size_t{1} << 20);
  Tally tally(kHeatPlan.ranks);
  TraceDigest total;
  Counts delta;
  std::vector<double> untraced, traced, launch_us;
  double recv_ns = 0;
  stencil::HeatField last = field;
  for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
    untraced.push_back(solve(kHeatPlan, want_plan, kHeatPlanName));
    {
      const auto t0 = Clock::now();
      mp::Communicator world(kHeatPlan.ranks);
      world.run([](mp::RankContext&) {});
      launch_us.push_back(seconds_since(t0) * 1e6);
    }
    stencil::HeatField f = field;
    obs::clear_trace();
    const auto c0 = Counts::now();
    obs::set_tracing_enabled(true);
    const auto t0 = Clock::now();
    const auto res = traced_heat_solve(f, opt, kHeatPlan, tally);
    const auto t1 = Clock::now();
    obs::set_tracing_enabled(false);
    const auto dc = Counts::now() - c0;
    delta += dc;
    traced.push_back(secs(t0, t1));
    const auto threads = obs::trace_threads();
    accumulate(total, digest_trace(threads, "heat.step", "bench.heat.tile"));
    // The halo wait: the allreduce receives through mp.recv as well, and
    // that time belongs to mp.allreduce_us_per_step.
    recv_ns += nested_ns(threads, "mp.recv", "heat.step", "mp.allreduce");
    const auto got = exact(res, dc.messages);
    const std::string what = std::string("traced ") + kHeatPlanName;
    check_exact(r, want_plan, got, what.c_str());
    const bool ok = verify(f, res, what.c_str()) && got == *want_plan;
    ++r.attempted;
    if (!ok) ++r.failed;
    last = f;
  }
  const auto n = traced.size();
  const double steps = static_cast<double>(want_plan->steps * n);
  report_engine_layers(r, total, delta, tally, *want_plan, n,
                       kHeatPlan.threads_per_rank > 1, untraced, traced);
  r.applicable.insert(
      r.applicable.end(),
      {"stencil.tiles_skipped", "stencil.heat_kernel_ns_per_cell",
       "stencil.subnormal_frac", "mp.world_launch_us", "mp.messages_per_step",
       "mp.halo_words_per_step", "mp.recv_wait_us_per_step",
       "mp.allreduce_us_per_step", "mp.rank_imbalance"});
  r.metric("stencil.heat_kernel_ns_per_cell",
           span_ns(total, "bench.heat.tile") /
               static_cast<double>(tally.units.load()),
           "ns", n);
  r.metric("stencil.subnormal_frac", subnormal_fraction(last), "ratio", n);
  r.metric("mp.world_launch_us", median(launch_us), "us",
           launch_us.size());
  r.metric("mp.recv_wait_us_per_step", recv_ns / steps / 1e3, "us", n);
  r.metric("mp.allreduce_us_per_step",
           span_ns(total, "mp.allreduce") / steps / 1e3, "us", n);
  double busy_max = 0, busy_sum = 0;
  for (const auto& b : tally.rank_busy_ns) {
    busy_max = std::max(busy_max, static_cast<double>(b.load()));
    busy_sum += static_cast<double>(b.load());
  }
  r.metric("mp.rank_imbalance",
           busy_sum > 0 ? busy_max / (busy_sum / static_cast<double>(
                                                     tally.rank_busy_ns.size()))
                        : 0,
           "ratio", n);
  write_trace(a, r, total);
}

}  // namespace perfbench
