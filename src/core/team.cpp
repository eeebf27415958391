#include "pdc/core/team.hpp"

#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pdc/core/team_pool.hpp"
#include "pdc/obs/obs.hpp"

namespace pdc::core {

void TeamContext::barrier() { barrier_->arrive_and_wait(); }

void Team::run(int threads, const std::function<void(TeamContext&)>& body) {
  run(threads, TeamOptions{}, body);
}

void Team::run(int threads, const TeamOptions& options,
               const std::function<void(TeamContext&)>& body) {
  if (threads < 1) throw std::invalid_argument("team size must be >= 1");

  PDC_TRACE_SCOPE("core.region");
  // Registry references are stable for the process lifetime, so pay the
  // name lookup once, not per region launch.
  static obs::Counter& c_regions = obs::counter("core.regions");
  static obs::Counter& c_pooled = obs::counter("core.regions.pooled");
  static obs::Counter& c_forked = obs::counter("core.regions.forked");
  c_regions.add(1);

  sync::CyclicBarrier barrier(static_cast<std::size_t>(threads));

  if (threads == 1) {
    TeamContext ctx(0, 1, &barrier);
    body(ctx);
    return;
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  // One member: on failure, record the exception and break the barrier so
  // that teammates blocked in ctx.barrier() unwind instead of deadlocking.
  const auto member = [&](int rank) noexcept {
    try {
      TeamContext ctx(rank, threads, &barrier);
      body(ctx);
    } catch (const sync::BrokenBarrierError&) {
      // A teammate failed first and broke the barrier out from under our
      // ctx.barrier(); we unwound cleanly and have no error of our own.
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
      barrier.break_barrier();
    }
  };
  if (options.reuse_pool) {
    c_pooled.add(1);
    TeamPool::instance().run(threads, member);
  } else {
    // Fork-per-region path: one fresh jthread per rank, joined on scope
    // exit — the CS31 teaching model.
    c_forked.add(1);
    std::vector<std::jthread> members;
    members.reserve(static_cast<std::size_t>(threads));
    for (int r = 0; r < threads; ++r) members.emplace_back(member, r);
  }  // join all

  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace pdc::core
