#pragma once
// Pipeline parallelism (CS87 "parallel programming patterns"): a chain of
// stages, each running on its own thread, connected by bounded buffers.
// Throughput approaches 1/max(stage time) instead of 1/sum(stage time);
// FIFO buffers and one thread per stage preserve item order. A run is one
// Team region on the TeamPool, so repeated runs start no threads.

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pdc/core/team.hpp"
#include "pdc/sync/bounded_buffer.hpp"

namespace pdc::core {

/// A linear pipeline over items of type T.
template <typename T>
class Pipeline {
 public:
  using Stage = std::function<T(T)>;

  /// `stages` run in order on every item; `buffer_capacity` bounds the
  /// queue between consecutive stages (backpressure).
  explicit Pipeline(std::vector<Stage> stages,
                    std::size_t buffer_capacity = 16)
      : stages_(std::move(stages)), capacity_(buffer_capacity) {
    if (stages_.empty()) throw std::invalid_argument("need >= 1 stage");
    if (capacity_ == 0) throw std::invalid_argument("capacity must be > 0");
  }

  /// Push all `inputs` through the pipeline; returns the outputs in input
  /// order. Runs as one Team region of stages() + 2 ranks: rank 0 (the
  /// caller) feeds the inputs, rank s runs stage s - 1, and the last rank
  /// collects the outputs. If a stage throws, the pipeline winds down and
  /// run() rethrows once every rank has finished; when several stages
  /// throw, the lowest stage's exception wins (Team::run's rule).
  std::vector<T> run(const std::vector<T>& inputs) {
    const std::size_t n_stages = stages_.size();
    // buffers[r] connects rank r -> rank r + 1; buffers[0] is the source,
    // buffers[n_stages] the sink.
    std::vector<std::unique_ptr<sync::BoundedBuffer<T>>> buffers;
    for (std::size_t i = 0; i <= n_stages; ++i)
      buffers.push_back(
          std::make_unique<sync::BoundedBuffer<T>>(capacity_));

    std::vector<T> outputs;
    outputs.reserve(inputs.size());
    Team::run(static_cast<int>(n_stages) + 2, [&](TeamContext& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      const CloseOnExit ends{r > 0 ? buffers[r - 1].get() : nullptr,
                             r <= n_stages ? buffers[r].get() : nullptr};
      if (r == 0) {
        for (const T& item : inputs)
          if (!ends.out->push(item)) break;
      } else if (r > n_stages) {
        while (auto item = ends.in->pop()) outputs.push_back(std::move(*item));
      } else {
        // A refused push means a later stage failed: stop too.
        while (auto item = ends.in->pop())
          if (!ends.out->push(stages_[r - 1](*item))) break;
      }
    });
    return outputs;
  }

  [[nodiscard]] std::size_t stages() const { return stages_.size(); }

 private:
  // Closes a rank's buffers however the rank leaves: the ranks after it
  // drain what they hold and end, and the next push of the ranks before
  // it fails, so after a failure every rank finishes instead of blocking.
  struct CloseOnExit {
    sync::BoundedBuffer<T>* in;   // null for the feeder
    sync::BoundedBuffer<T>* out;  // null for the collector
    ~CloseOnExit() {
      if (in != nullptr) in->close();
      if (out != nullptr) out->close();
    }
  };

  std::vector<Stage> stages_;
  std::size_t capacity_;
};

}  // namespace pdc::core
