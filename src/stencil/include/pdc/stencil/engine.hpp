#pragma once
// pdc::stencil — a reusable 2-D stencil engine with dirty-tile skipping.
//
// ONE engine, one entry point: stencil::run(w, cur, nxt, plan, opt). The
// ExecPlan picks the execution shape the curriculum teaches as a
// progression — sequential {1,1}, shared-memory {1,T}, message-passing
// {R,1} — plus the capstone hybrid {R,T}: a core::Team of T threads
// inside every rank, tile-stealing over that rank's strip, with the
// packed halo exchange funneled through the team's rank-0 thread
// (mp::Threading::kFunneled) and received while the team computes the
// interior tiles. Every shape runs the same step loop — a single-threaded
// plan is a team of one — and run_world launches every in-process
// multi-rank plan.
//
// The engine owns tiling (tile.hpp), double-buffer rotation, per-tile
// dirty tracking (quiescent tiles are skipped without touching their
// memory — see tile.hpp for the soundness argument), convergence
// detection, and — for strip plans — the packed halo exchange and the
// cross-rank activity flags that keep distributed skip decisions
// identical to the shared-memory ones.
//
// A workload W plugs in via compile-time duck typing:
//
//   using Field = ...;                      // double-buffered by the engine
//   std::size_t height(const Field&);       // domain size, in W's units
//   std::size_t width(const Field&);        //   (cells, packed words, ...)
//   bool wrap_rows(const Field&);           // torus boundary?
//   bool wrap_cols(const Field&);
//   void init(Field& cur);                  // one-time source fixups
//   double step_tile(const Field& src, Field& dst, const TileBounds&);
//       // compute one tile; returns the tile's max per-unit delta
//       // (Life: 1.0 if any bit changed, else 0.0)
//   void finish_step(Field& dst, const TileMap&,
//                    const std::vector<std::uint8_t>& computed);
//       // post-step fixups on the rows of computed tiles (ghost bits,
//       // wrap halo rows); no-op for plain fields
//   // --- strip (RankContext) plans only ---
//   std::size_t halo_words(const Field&);   // wire words per halo row
//   void pack_row(const Field&, bool top, std::int64_t* out);
//   void unpack_halo(Field&, bool above, const std::int64_t* in);
//   void finish_halo(Field&);               // e.g. ghost-bit sync
//
// Every plan produces identical results for a quiescence threshold of 0
// (exact skipping): a skipped tile's destination provably already holds
// the value a full sweep would write. With quiesce_eps > 0 the skip set
// is still deterministic and identical across all plans (same tile grid,
// same flags), so every {R} x {T} combination stays bit-identical to the
// sequential run — grids, residuals, tile counts, and halo wire words
// alike. Tests assert exactly this.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pdc/core/team.hpp"
#include "pdc/core/work_steal.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/stencil/tile.hpp"

namespace pdc::stencil {

struct Options {
  std::size_t tile_rows = 64;   ///< tile height (workload units)
  std::size_t tile_cols = 256;  ///< tile width (workload units)
  int max_steps = 1;
  bool skip_quiescent = true;   ///< false: full sweep every step (A/B lever)
  /// A tile counts as changed when its step delta exceeds this. 0 = exact
  /// (bit-identical to a full sweep). Must be >= 0 (so not NaN), and
  /// <= converge_eps when convergence is enabled.
  double quiesce_eps = 0.0;
  /// Stop once a step's global max delta is <= this; negative disables
  /// (run exactly max_steps — Life's fixed-generation contract).
  double converge_eps = -1.0;
  /// Trace span emitted per step (must outlive the run; literals only).
  const char* span_name = "stencil.step";
};

/// The execution shape of a stencil run: how many message-passing ranks,
/// and how many threads inside each rank. {1,1} = sequential, {1,T} =
/// shared-memory, {R,1} = message passing, {R,T} = hybrid (a core::Team
/// per rank, comm funneled through each team's rank-0 thread). Every
/// shape is bit-identical. run_world runs multi-rank plans in process;
/// shm/tcp worlds are per-rank processes launched by mp::launch::run_spmd,
/// each body calling the strip overload of run().
struct ExecPlan {
  int ranks = 1;
  int threads_per_rank = 1;
};

struct RunResult {
  std::uint64_t steps = 0;
  std::uint64_t tiles_computed = 0;
  std::uint64_t tiles_skipped = 0;
  /// Strip plans: total int64 wire words this rank sent for halo
  /// exchange (activity flag words + packed row payload).
  std::uint64_t halo_words = 0;
  double last_delta = 0.0;
  bool converged = false;
};

/// Neighbor ranks for strip execution (-1 = board edge; the torus wrap
/// is expressed as up/down pointing at the wrapping rank, possibly this
/// rank itself when it owns the whole board).
struct MpLinks {
  int up = -1;
  int down = -1;
};

namespace detail {

void validate(const Options& opt);
void validate(const ExecPlan& plan);
void bump_counters(const RunResult& res);  // stencil.* obs counters

/// Flag words on the wire per halo message: one bit per tile column.
[[nodiscard]] inline std::size_t flag_words(std::size_t tiles_x) {
  return (tiles_x + 63) / 64;
}

inline void encode_flags(const std::uint8_t* flags, std::size_t n,
                         std::int64_t* out) {
  std::fill_n(out, flag_words(n), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (flags[i] != 0)
      out[i / 64] |= static_cast<std::int64_t>(std::int64_t{1} << (i % 64));
}

inline void decode_flags(const std::int64_t* in, std::size_t n,
                         std::uint8_t* flags) {
  for (std::size_t i = 0; i < n; ++i)
    flags[i] = static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(in[i / 64]) >> (i % 64)) & 1);
}

/// The per-step epilogue every execution shape shares: fold one step's
/// tile accounting and max delta into the result and decide whether the
/// run is over (converged, or out of steps). `max_delta` must already be
/// the *global* max for strip runs with convergence on.
inline bool step_epilogue(RunResult& res, const Options& opt,
                          std::uint64_t computed, std::uint64_t total,
                          double max_delta) {
  res.tiles_computed += computed;
  res.tiles_skipped += total - computed;
  res.last_delta = max_delta;
  ++res.steps;
  if (opt.converge_eps >= 0.0 && max_delta <= opt.converge_eps)
    res.converged = true;
  return res.converged ||
         res.steps >= static_cast<std::uint64_t>(opt.max_steps);
}

/// Bit-exact global max of non-negative IEEE doubles: their bit patterns
/// order like the values, so an integer kMax allreduce is exact.
inline double allreduce_max(mp::RankContext& ctx, double v) {
  return std::bit_cast<double>(
      ctx.allreduce(std::bit_cast<std::int64_t>(v), mp::ReduceOp::kMax));
}

/// One strip rank's halo machinery, driven by its funnel thread: recycled
/// wire buffers, activity-flag staging, exact word accounting. Each step
/// sends one message per neighbor — [activity flag words][packed halo
/// row] — under tags 2s / 2s+1, so the wire format and word counts are
/// identical across every thread count.
template <class W>
class HaloExchange {
 public:
  HaloExchange(W& w, mp::RankContext& ctx, const MpLinks& links,
               const TileMap& tm, std::size_t halo_words)
      : w_(w),
        ctx_(ctx),
        links_(links),
        tm_(tm),
        hw_(halo_words),
        fw_(flag_words(tm.tiles_x())),
        edge_flags_(tm.tiles_x(), 0),
        above_flags_(tm.tiles_x(), 0),
        below_flags_(tm.tiles_x(), 0) {}

  /// Buffered sends to both neighbors. Must run BEFORE
  /// ActivityMap::advance clears the changed marks it encodes. A rank
  /// that owns the whole wrap sends to itself; its up-send arrives as
  /// its own down-message, exactly the torus geometry.
  void send(const typename W::Field& cur, const ActivityMap& act, int step,
            RunResult& res) {
    const int tag = 2 * step;
    if (links_.up >= 0) {
      fill(cur, act, sbuf_up_, /*top=*/true);
      res.halo_words += sbuf_up_.size();
      ctx_.send(links_.up, tag, std::move(sbuf_up_));
    }
    if (links_.down >= 0) {
      fill(cur, act, sbuf_down_, /*top=*/false);
      res.halo_words += sbuf_down_.size();
      ctx_.send(links_.down, tag + 1, std::move(sbuf_down_));
    }
  }

  /// Blocking receives: unpack the halo rows into `cur`, run the
  /// workload's ghost fixups, and stage the decoded neighbor activity
  /// flags for above()/below().
  void recv(typename W::Field& cur, int step) {
    const int tag = 2 * step;
    have_above_ = have_below_ = false;
    if (links_.down >= 0) {
      auto msg = ctx_.recv(links_.down, tag);
      decode_flags(msg.data.data(), tm_.tiles_x(), below_flags_.data());
      w_.unpack_halo(cur, /*above=*/false, msg.data.data() + fw_);
      have_below_ = true;
      sbuf_down_ = std::move(msg.data);  // recycle the wire buffer
    }
    if (links_.up >= 0) {
      auto msg = ctx_.recv(links_.up, tag + 1);
      decode_flags(msg.data.data(), tm_.tiles_x(), above_flags_.data());
      w_.unpack_halo(cur, /*above=*/true, msg.data.data() + fw_);
      have_above_ = true;
      sbuf_up_ = std::move(msg.data);
    }
    w_.finish_halo(cur);
  }

  /// Neighbor changed-flags staged by the last recv (null = no neighbor).
  [[nodiscard]] const std::uint8_t* above() const {
    return have_above_ ? above_flags_.data() : nullptr;
  }
  [[nodiscard]] const std::uint8_t* below() const {
    return have_below_ ? below_flags_.data() : nullptr;
  }

 private:
  void fill(const typename W::Field& cur, const ActivityMap& act,
            std::vector<std::int64_t>& buf, bool top) {
    buf.resize(fw_ + hw_);
    act.copy_edge_changed(top, edge_flags_.data());
    encode_flags(edge_flags_.data(), tm_.tiles_x(), buf.data());
    w_.pack_row(cur, top, buf.data() + fw_);
  }

  W& w_;
  mp::RankContext& ctx_;
  const MpLinks links_;
  const TileMap& tm_;
  std::size_t hw_, fw_;
  std::vector<std::uint8_t> edge_flags_, above_flags_, below_flags_;
  std::vector<std::int64_t> sbuf_up_, sbuf_down_;
  bool have_above_ = false, have_below_ = false;
};

/// The engine body, for every plan: local {1,T} (ctx == nullptr) and
/// strip {R,T} (kStrip), with T = 1 a team of one that core::Team::run
/// runs inline on the caller. The per-step *active* tile list is
/// distributed across a core::Team, so workers share the (possibly
/// sparse) live region instead of owning fixed row strips that may be
/// entirely quiescent: each worker drains its contiguous share of the
/// list through its own Chase–Lev deque and steals tiles from busy
/// victims when dry. A team of one has nobody to balance with and runs
/// its list in order. Every active tile is executed exactly once per
/// step, so grids and tile accounting are bit-identical at any thread
/// count.
///
/// Strip plans funnel ALL communication through the team's rank-0
/// thread (mp::Threading::kFunneled, asserted by RankContext). The
/// serial section sends the halo and seeds only the *interior* active
/// tiles (those whose inputs are local); the team computes them while
/// the funnel thread receives, unpacks, and dilates the neighbor flags
/// into the edge tile rows, then pushes the boundary tiles onto its own
/// deque, where thieves find them without another barrier. A team of
/// one receives first, then runs its interior list and its boundary
/// list in order.
template <bool kStrip, class W>
RunResult run_team(W& w, typename W::Field& cur, typename W::Field& nxt,
                   const ExecPlan& plan, const Options& opt,
                   [[maybe_unused]] mp::RankContext* ctx,
                   [[maybe_unused]] const MpLinks& links) {
  if (w.height(nxt) != w.height(cur) || w.width(nxt) != w.width(cur))
    throw std::invalid_argument("stencil nxt must have the shape of cur");
  const int threads = plan.threads_per_rank;
  const TileMap tm(w.height(cur), w.width(cur), opt.tile_rows, opt.tile_cols);
  ActivityMap act(tm, kStrip ? false : w.wrap_rows(cur), w.wrap_cols(cur));
  w.init(cur);

  typename W::Field* bufs[2] = {&cur, &nxt};
  int src = 0;
  int step = 0;
  std::vector<std::uint32_t> active_list;    // strips: interior tiles only
  std::vector<std::uint32_t> boundary_list;  // strips: halo-dependent tiles
  std::vector<std::uint8_t> computed(tm.count(), 0);
  std::vector<double> rank_delta(static_cast<std::size_t>(threads), 0.0);
  RunResult res;
  bool stop = opt.max_steps == 0;

  const bool steal = threads > 1;
  const auto nthreads = static_cast<std::size_t>(threads);
  std::vector<core::WorkStealingDeque<std::uint32_t>> deques(
      steal ? nthreads : 0);
  // Strips: set once the funnel thread has received the halo and
  // published the boundary tiles; preset when there is nothing to wait
  // for. Workers spin past empty deques until it flips.
  std::atomic<bool> halo_done{true};

  [[maybe_unused]] std::optional<HaloExchange<W>> halo;
  if constexpr (kStrip) halo.emplace(w, *ctx, links, tm, w.halo_words(cur));

  const auto edge_tile = [&](std::uint32_t t) {
    const std::size_t ty = tm.tile_row(t);
    return ty == 0 || ty + 1 == tm.tiles_y();
  };
  const auto want = [&](std::uint32_t t) {
    return !opt.skip_quiescent || act.active()[t] != 0;
  };
  // Serial-section only (single-threaded, published to the workers by
  // barrier A): seed worker r's deque with its near-equal contiguous
  // share of the active list. Stealing rebalances from there.
  const auto seed_deques = [&] {
    for (std::size_t r = 0; r < nthreads; ++r) {
      const auto [lo, hi] =
          core::block_range(0, active_list.size(), r, nthreads);
      for (std::size_t i = lo; i < hi; ++i) deques[r].push(active_list[i]);
    }
  };
  // Serial per-step prep (pre-loop on the home thread, then on the team's
  // rank-0 thread between steps): send this step's halo — the encoded
  // changed marks must be copied before advance() wipes them — advance
  // the activity map, rebuild and reseed the work list. Interior
  // activation never depends on the neighbor flags, so a strip's
  // interior list is final here; its edge tile rows wait for the halo.
  const auto prep_step = [&] {
    std::fill(computed.begin(), computed.end(), 0);
    std::fill(rank_delta.begin(), rank_delta.end(), 0.0);
    boundary_list.clear();
    if constexpr (kStrip) halo->send(*bufs[src], act, step, res);
    act.advance();
    active_list.clear();
    for (std::uint32_t t = 0; t < tm.count(); ++t) {
      if (kStrip && edge_tile(t)) continue;
      if (want(t)) active_list.push_back(t);
    }
    if (steal) seed_deques();
    halo_done.store(!kStrip, std::memory_order_relaxed);
  };
  if (!stop) prep_step();

  core::Team::run(threads, [&](core::TeamContext& tc) {
    static obs::Counter& c_attempts = obs::counter("stencil.steal_attempts");
    static obs::Counter& c_steals = obs::counter("stencil.steals");
    const bool funnel = tc.rank() == 0;
    if constexpr (kStrip) {
      // Pin the communication funnel to this thread: under a pooled Team
      // this is the rank's home thread, under a forked Team it is not —
      // either way every comm call below happens here.
      if (funnel) ctx->set_threading(mp::Threading::kFunneled);
    }
    while (true) {
      // Barrier A: the serial section's state (work list, seeded
      // deques, buffer flip, stop flag) is visible to every worker.
      tc.barrier();
      if (stop) break;
      {
        obs::TraceScope span(opt.span_name);
        double local = 0.0;
        const auto exec_tile = [&](std::uint32_t t) {
          const double d =
              w.step_tile(*bufs[src], *bufs[1 - src], tm.bounds(t));
          act.mark_changed(t, d > opt.quiesce_eps);
          computed[t] = 1;
          if (d > local) local = d;
        };
        if constexpr (kStrip) {
          if (funnel) {
            try {
              // Receive while the team chews the interior, then dilate
              // the neighbor flags into the edge tile rows and publish
              // the now-final boundary work.
              halo->recv(*bufs[src], step);
              act.activate_edges(halo->above(), halo->below());
              for (std::uint32_t t = 0; t < tm.count(); ++t)
                if (edge_tile(t) && want(t)) boundary_list.push_back(t);
              // Owner pushes race cleanly with thieves' steals; the
              // release store orders them before any halo_done load.
              if (steal)
                for (const std::uint32_t t : boundary_list) deques[0].push(t);
              halo_done.store(true, std::memory_order_release);
            } catch (...) {
              // A failed recv (e.g. RankFailedError from a killed peer)
              // must flip halo_done before unwinding: thieves spin on it
              // outside any barrier, so Team's broken-barrier protocol
              // alone cannot release them.
              halo_done.store(true, std::memory_order_release);
              throw;
            }
          }
        }
        if (!steal) {
          for (const std::uint32_t t : active_list) exec_tile(t);
          for (const std::uint32_t t : boundary_list) exec_tile(t);
        } else {
          // Done once the halo is in and the boundary tiles published.
          core::detail::steal_drain(
              deques, static_cast<std::size_t>(tc.rank()), exec_tile,
              [&] { return halo_done.load(std::memory_order_acquire); },
              c_attempts, c_steals, "stencil.steal");
        }
        rank_delta[static_cast<std::size_t>(tc.rank())] = local;
      }
      // Barrier B: every tile write and flag is visible to rank 0.
      tc.barrier();
      if (funnel) {
        double max_delta =
            *std::max_element(rank_delta.begin(), rank_delta.end());
        w.finish_step(*bufs[1 - src], tm, computed);
        const std::uint64_t ncomputed =
            active_list.size() + boundary_list.size();
        src = 1 - src;
        if constexpr (kStrip) {
          if (opt.converge_eps >= 0.0)
            max_delta = allreduce_max(*ctx, max_delta);
        }
        stop = step_epilogue(res, opt, ncomputed, tm.count(), max_delta);
        ++step;
        if (!stop) prep_step();
      }
    }
  });
  if constexpr (kStrip) {
    // Back on the home thread: end the funneled region. (Team::run
    // rethrows worker exceptions after joining, so on the throwing path
    // no further comm happens on this context anyway.)
    ctx->set_threading(mp::Threading::kSingle);
  }

  if (src == 1) std::swap(cur, nxt);  // `cur` always holds the final state
  bump_counters(res);
  return res;
}

}  // namespace detail

/// Unified engine, local plans ({1,1} and {1,T}): `cur` holds the input
/// state and, on return, the final state; `nxt` is the scratch double
/// buffer and must have cur's shape (std::invalid_argument otherwise).
/// plan.ranks must be 1 — multi-rank plans run through run_world below,
/// or an SPMD body calling the strip overload.
template <class W>
RunResult run(W& w, typename W::Field& cur, typename W::Field& nxt,
              const ExecPlan& plan, const Options& opt) {
  detail::validate(opt);
  detail::validate(plan);
  if (plan.ranks != 1)
    throw std::invalid_argument(
        "stencil::run without a RankContext executes one rank: multi-rank "
        "plans go through run_world or the strip overload");
  return detail::run_team<false, W>(w, cur, nxt, plan, opt, nullptr,
                                    MpLinks{});
}

/// Unified engine, strip plans ({R,1} and hybrid {R,T}): call from
/// inside an SPMD rank body with this rank's row strip in `cur`/`nxt`.
/// Each step sends one message per neighbor — [activity flag words]
/// [packed halo row] — and computes its interior active tiles on a
/// core::Team of plan.threads_per_rank threads while the team's rank-0
/// thread (the comm funnel) receives and dilates the neighbor flags into
/// the edge tile rows, whose active tiles the team computes next. When
/// convergence is enabled it then allreduces the step's max delta. The
/// strip's tile grid must be the global tile grid restricted to this
/// rank's rows (partition on tile-row boundaries) so distributed skip
/// decisions match the shared-memory engines exactly.
template <class W>
RunResult run(W& w, typename W::Field& cur, typename W::Field& nxt,
              const ExecPlan& plan, const Options& opt, mp::RankContext& ctx,
              const MpLinks& links) {
  detail::validate(opt);
  detail::validate(plan);
  return detail::run_team<true, W>(w, cur, nxt, plan, opt, &ctx, links);
}

/// Runs a multi-rank plan in process: plan.ranks strip ranks of a domain
/// `rows` high in one mp::Communicator world. Rows are
/// block-partitioned on tile-row boundaries, so every strip's tile grid is
/// the global grid restricted to its rows and skip decisions match the
/// local engine tile for tile; the tile height shrinks if needed so every
/// rank owns at least one tile row. Each rank builds its strip with
/// load(r0, r1) (rows [r0, r1)), runs the strip overload of run() with
/// links to its neighbors (`wrap` closes the torus through the end ranks),
/// and — after one world barrier, so no rank writes back while another
/// still loads — hands the strip to store(strip, r0). The result sums tile
/// and halo-word counts over the ranks and takes the max last_delta;
/// `traffic`, if set, receives the world's totals.
template <class W, class Load, class Store>
RunResult run_world(W w, std::size_t rows, bool wrap, const ExecPlan& plan,
                    Options opt, const Load& load, const Store& store,
                    mp::TrafficStats* traffic = nullptr) {
  detail::validate(plan);
  const auto ranks = static_cast<std::size_t>(plan.ranks);
  if (ranks > rows) throw std::invalid_argument("more ranks than rows");
  opt.tile_rows =
      std::max<std::size_t>(1, std::min(opt.tile_rows, rows / ranks));
  const std::size_t n_tiles = (rows + opt.tile_rows - 1) / opt.tile_rows;

  std::vector<RunResult> results(ranks);
  mp::Communicator comm(plan.ranks);
  comm.run([&](mp::RankContext& ctx) {
    const int r = ctx.rank();
    const auto ur = static_cast<std::size_t>(r);
    const auto [tlo, thi] = core::block_range(0, n_tiles, ur, ranks);
    const std::size_t r0 = tlo * opt.tile_rows;
    typename W::Field cur = load(r0, std::min(rows, thi * opt.tile_rows));
    const MpLinks links{r > 0 ? r - 1 : (wrap ? plan.ranks - 1 : -1),
                        r + 1 < plan.ranks ? r + 1 : (wrap ? 0 : -1)};
    {
      // Free the scratch buffer as soon as this rank is done with it, while
      // others may still compute: freed after the writeback instead, a
      // zero-step 256x1024 heat world took ~0.13 ms (5%) longer to launch
      // on a 4-vCPU host.
      typename W::Field nxt = cur;
      results[ur] = run(w, cur, nxt, plan, opt, ctx, links);
    }
    ctx.barrier();
    store(cur, r0);
  });
  if (traffic != nullptr) *traffic = comm.traffic();

  RunResult total = results[0];
  for (std::size_t i = 1; i < ranks; ++i) {
    total.tiles_computed += results[i].tiles_computed;
    total.tiles_skipped += results[i].tiles_skipped;
    total.halo_words += results[i].halo_words;
    total.last_delta = std::max(total.last_delta, results[i].last_delta);
  }
  return total;
}

}  // namespace pdc::stencil
