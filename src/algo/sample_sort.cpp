#include "pdc/algo/sample_sort.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "pdc/core/team.hpp"
#include "pdc/mp/comm.hpp"

namespace pdc::algo {

std::vector<std::int64_t> mp_sample_sort(std::vector<std::int64_t> data,
                                         int ranks,
                                         std::uint64_t* messages_out,
                                         std::uint64_t* payload_words_out) {
  if (ranks < 1) throw std::invalid_argument("ranks must be >= 1");
  if (ranks == 1 || data.size() < static_cast<std::size_t>(2 * ranks)) {
    std::sort(data.begin(), data.end());
    if (messages_out != nullptr) *messages_out = 0;
    if (payload_words_out != nullptr) *payload_words_out = 0;
    return data;
  }

  const std::size_t n = data.size();
  std::vector<std::int64_t> result(n);
  mp::Communicator comm(ranks);

  comm.run([&](mp::RankContext& ctx) {
    const int p = ctx.size();
    const int r = ctx.rank();
    const auto up = static_cast<std::size_t>(p);
    const auto ur = static_cast<std::size_t>(r);

    // Block partition of the input (each rank copies its own block; the
    // shared vector is only read here, before any rank writes).
    const auto [lo, hi] = core::block_range(0, n, ur, up);
    std::vector<std::int64_t> local(data.begin() + static_cast<long>(lo),
                                    data.begin() + static_cast<long>(hi));

    // Phase 1: local sort.
    std::sort(local.begin(), local.end());

    // Phase 2: p regular samples per rank, gathered at rank 0.
    // (gather() moves one value; send the whole sample vector P2P-style
    // through alltoall to keep it a collective exercise.)
    std::vector<std::int64_t> samples;
    for (int s = 0; s < p; ++s) {
      const std::size_t idx =
          local.empty() ? 0
                        : std::min(local.size() - 1,
                                   static_cast<std::size_t>(s) * local.size() /
                                       up);
      samples.push_back(local.empty() ? 0 : local[idx]);
    }
    std::vector<std::vector<std::int64_t>> sample_out(up);
    sample_out[0] = samples;  // everyone sends samples to rank 0
    auto sample_in = ctx.alltoall(std::move(sample_out));

    // Phase 3: rank 0 sorts the p*p samples and broadcasts p-1 pivots.
    std::vector<std::int64_t> pivots;
    if (r == 0) {
      std::vector<std::int64_t> all;
      for (auto& v : sample_in) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      for (int k = 1; k < p; ++k)
        pivots.push_back(all[static_cast<std::size_t>(k) * all.size() / up]);
    } else {
      pivots.assign(static_cast<std::size_t>(p - 1), 0);
    }
    pivots = ctx.broadcast(0, std::move(pivots));

    // Phase 4: partition local data by pivots, all-to-all exchange.
    std::vector<std::vector<std::int64_t>> buckets(up);
    {
      std::size_t b = 0;
      for (auto v : local) {
        while (b + 1 < up && v > pivots[b]) ++b;
        // v may belong to an earlier bucket if local is sorted... local
        // IS sorted, so b only moves forward. (First elements may skip
        // buckets; that is fine.)
        buckets[b].push_back(v);
      }
    }
    auto incoming = ctx.alltoall(std::move(buckets));

    // Phase 5: p-way merge of the sorted incoming runs.
    std::vector<std::int64_t> merged;
    for (auto& run : incoming)
      merged.insert(merged.end(), run.begin(), run.end());
    std::sort(merged.begin(), merged.end());

    // Gather: tell rank 0 our size via allgather, compute offsets, then
    // write into the shared result (disjoint ranges; barrier first).
    const auto sizes = ctx.allgather(static_cast<std::int64_t>(merged.size()));
    std::size_t offset = 0;
    for (int s = 0; s < r; ++s)
      offset += static_cast<std::size_t>(sizes[static_cast<std::size_t>(s)]);
    ctx.barrier();
    std::copy(merged.begin(), merged.end(),
              result.begin() + static_cast<long>(offset));
  });

  const auto traffic = comm.traffic();
  if (messages_out != nullptr) *messages_out = traffic.messages;
  if (payload_words_out != nullptr) *payload_words_out = traffic.payload_words;
  return result;
}

}  // namespace pdc::algo
