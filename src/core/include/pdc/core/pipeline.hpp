#pragma once
// Pipeline parallelism (CS87 "parallel programming patterns"): a chain of
// stages, each running on its own thread, connected by bounded buffers.
// Throughput approaches 1/max(stage time) instead of 1/sum(stage time);
// FIFO buffers and one thread per stage preserve item order.

#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

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
  /// order. Rebuilds the stage threads per call (fork-join semantics).
  /// If a stage throws, the pipeline winds down and run() rethrows the
  /// first exception once every thread has joined.
  std::vector<T> run(const std::vector<T>& inputs) {
    const std::size_t n_stages = stages_.size();
    // buffers[i] connects stage i-1 -> stage i; buffers[0] is the source,
    // buffers[n_stages] the sink.
    std::vector<std::unique_ptr<sync::BoundedBuffer<T>>> buffers;
    for (std::size_t i = 0; i <= n_stages; ++i)
      buffers.push_back(
          std::make_unique<sync::BoundedBuffer<T>>(capacity_));

    std::vector<T> outputs;
    outputs.reserve(inputs.size());
    std::mutex error_m;
    std::exception_ptr error;
    {
      std::vector<std::jthread> workers;
      for (std::size_t s = 0; s < n_stages; ++s) {
        workers.emplace_back([&, s] {
          auto& in = *buffers[s];
          auto& out = *buffers[s + 1];
          try {
            // A refused push means a later stage failed: stop too.
            while (auto item = in.pop())
              if (!out.push(stages_[s](*item))) break;
          } catch (...) {
            std::lock_guard lk(error_m);
            if (!error) error = std::current_exception();
          }
          // Closing both sides lets the later stages drain what they hold
          // and makes the earlier ones' next push fail, so after a failure
          // every stage finishes.
          in.close();
          out.close();
        });
      }
      std::jthread sink([&] {
        while (auto item = buffers[n_stages]->pop())
          outputs.push_back(std::move(*item));
      });
      for (const T& item : inputs)
        if (!buffers[0]->push(item)) break;
      buffers[0]->close();
    }  // join all
    if (error) std::rethrow_exception(error);
    return outputs;
  }

  [[nodiscard]] std::size_t stages() const { return stages_.size(); }

 private:
  std::vector<Stage> stages_;
  std::size_t capacity_;
};

}  // namespace pdc::core
