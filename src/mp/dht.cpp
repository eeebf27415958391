#include "pdc/mp/dht.hpp"

#include <stdexcept>
#include <string>

namespace pdc::mp {

std::vector<std::int64_t> detail::encode_batch(
    std::int64_t seq,
    std::span<const std::pair<std::int64_t, std::int64_t>> puts,
    std::span<const std::int64_t> gets) {
  std::vector<std::int64_t> msg;
  msg.reserve(3 + 2 * puts.size() + gets.size());
  msg.push_back(seq);
  msg.push_back(static_cast<std::int64_t>(puts.size()));
  for (const auto& [k, v] : puts) {
    msg.push_back(k);
    msg.push_back(v);
  }
  msg.push_back(static_cast<std::int64_t>(gets.size()));
  msg.insert(msg.end(), gets.begin(), gets.end());
  return msg;
}

std::size_t detail::Shard::apply(int source,
                                 const std::vector<std::int64_t>& batch) {
  std::int64_t& floor = floor_.at(static_cast<std::size_t>(source));
  const std::int64_t seq = batch.at(0);
  if (seq != floor + 1)
    throw std::logic_error(
        "dht: batch desync from rank " + std::to_string(source) +
        " (expected " + std::to_string(floor + 1) + ", got " +
        std::to_string(seq) + ") — a batch was replayed or lost");
  floor = seq;
  const auto n_puts = static_cast<std::size_t>(batch.at(1));
  std::size_t i = 2;
  for (std::size_t k = 0; k < n_puts; ++k, i += 2) {
    const std::int64_t key = batch.at(i);
    map_[key] = batch.at(i + 1);
  }
  (void)batch.at(i);  // the get count
  return i;
}

void detail::Shard::answer(const std::vector<std::int64_t>& batch,
                           std::size_t gets_at,
                           std::vector<std::int64_t>& reply) const {
  const auto n_gets = static_cast<std::size_t>(batch.at(gets_at));
  // The count comes off the wire: bound it before sizing the reply.
  if (n_gets > batch.size() - gets_at - 1)
    throw std::out_of_range("dht: request batch cut short");
  reply.reserve(reply.size() + 2 * n_gets);
  for (std::size_t k = 1; k <= n_gets; ++k) {
    const auto [found, value] = get(batch.at(gets_at + k));
    reply.push_back(found ? 1 : 0);
    reply.push_back(value);
  }
}

std::pair<bool, std::int64_t> detail::Shard::get(std::int64_t key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return {false, 0};
  return {true, it->second};
}

int BspHashMap::owner(std::int64_t key) const {
  return shard_owner(key, ctx_->size());
}

void BspHashMap::queue_put(std::int64_t key, std::int64_t value) {
  pending_puts_.emplace_back(key, value);
}

void BspHashMap::queue_get(std::int64_t key) {
  pending_gets_.push_back(key);
}

std::vector<GetResult> BspHashMap::round() {
  ReliableModeScope guard(*ctx_, opts_.reliable || ctx_->reliable());
  const auto up = static_cast<std::size_t>(ctx_->size());
  const std::int64_t this_round = ++round_;

  // One request batch per destination, numbered by the round.
  std::vector<std::vector<std::int64_t>> outgoing(up);
  {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> puts(up);
    std::vector<std::vector<std::int64_t>> gets(up);
    for (const auto& [k, v] : pending_puts_)
      puts[static_cast<std::size_t>(owner(k))].emplace_back(k, v);
    for (const auto k : pending_gets_)
      gets[static_cast<std::size_t>(owner(k))].push_back(k);
    for (std::size_t d = 0; d < up; ++d)
      outgoing[d] = detail::encode_batch(this_round, puts[d], gets[d]);
  }
  const std::vector<std::int64_t> get_keys = std::move(pending_gets_);
  pending_puts_.clear();
  pending_gets_.clear();

  const auto incoming = ctx_->alltoall(std::move(outgoing));

  // Apply every source's puts in source-rank order (deterministic
  // last-writer-wins), then answer every source's gets: one [found,
  // value] pair per get, in the source's request order.
  std::vector<std::size_t> gets_at(up);
  for (std::size_t s = 0; s < up; ++s)
    gets_at[s] = shard_.apply(static_cast<int>(s), incoming[s]);
  std::vector<std::vector<std::int64_t>> replies(up);
  for (std::size_t s = 0; s < up; ++s)
    shard_.answer(incoming[s], gets_at[s], replies[s]);
  const auto answers = ctx_->alltoall(std::move(replies));

  // Scatter answers back into queue order.
  std::vector<GetResult> results(get_keys.size());
  std::vector<std::size_t> cursor(up, 0);
  for (std::size_t slot = 0; slot < get_keys.size(); ++slot) {
    const auto d = static_cast<std::size_t>(owner(get_keys[slot]));
    const std::size_t c = cursor[d]++;
    results[slot].key = get_keys[slot];
    results[slot].found = answers[d].at(2 * c) == 1;
    results[slot].value = answers[d].at(2 * c + 1);
  }
  return results;
}

}  // namespace pdc::mp
