#pragma once
// The vector widths the heat and Life kernels run at, and the one
// dispatcher both kernels run through. Each kernel is one template over
// the width: 16 bytes is the x86-64 baseline (SSE2) and the only width
// built for other targets; 32 (AVX2) and 64 (AVX-512F) are compiled in
// function-level target wrappers, not with ISA compile flags, so one
// binary runs on every x86-64 CPU. Each kernel runs at the widest width
// this CPU supports, picked once per process.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "pdc/obs/metrics.hpp"

namespace pdc::stencil {

/// The vector widths, in bytes, this CPU runs the kernels at, narrowest
/// first: 16 always, then 32 with AVX2 and 64 with AVX-512F (x86-64 only).
/// Detected once per process; the kernels pick the last.
[[nodiscard]] std::span<const std::size_t> vector_widths();

/// One kernel compiled at every vector width, and the pick of the widest.
/// `Kernel` supplies:
///  - `template <std::size_t kBytes> static R run(Args...)`, marked
///    [[gnu::always_inline]]: each width's wrapper below must compile the
///    whole kernel for its own target, where a call into a default-target
///    `run` would step without the wider registers (and give the same
///    answers, so no test would notice);
///  - `kGauge`, the obs gauge that names the picked width, and
///    `kUnitBytes`, the size of the unit that gauge counts per vector.
template <class Kernel, class Signature>
class VectorDispatch;

template <class Kernel, class R, class... Args>
class VectorDispatch<Kernel, R(Args...)> {
 public:
  using Fn = R (*)(Args...);

  /// The kernel at `bytes` per vector. Throws std::invalid_argument unless
  /// this CPU runs that width.
  static Fn at(std::size_t bytes) {
    const auto widths = vector_widths();
    if (std::find(widths.begin(), widths.end(), bytes) == widths.end())
      throw std::invalid_argument("kernel vector width not run on this CPU");
#if defined(__x86_64__)
    if (bytes == 64) return run_64;
    if (bytes == 32) return run_32;
#endif
    return run_16;
  }

  /// Runs the kernel at the widest width this CPU runs. The first call
  /// picks it and names it in the gauge; each later one costs one relaxed
  /// load, where a function-local static would add a guard check and
  /// register saves to every call.
  static R widest(Args... args) {
    return picked_.load(std::memory_order_relaxed)(args...);
  }

 private:
  static R run_16(Args... args) { return Kernel::template run<16>(args...); }
#if defined(__x86_64__)
  [[gnu::target("avx2")]] static R run_32(Args... args) {
    return Kernel::template run<32>(args...);
  }
  [[gnu::target("avx512f")]] static R run_64(Args... args) {
    return Kernel::template run<64>(args...);
  }
#endif

  /// What widest() calls first: picks the widest width, names it in the
  /// gauge and swaps in its kernel. Threads racing here all store the
  /// same kernel.
  static R resolve(Args... args) {
    const std::size_t bytes = vector_widths().back();
    obs::gauge(Kernel::kGauge)
        .set(static_cast<std::int64_t>(bytes / Kernel::kUnitBytes));
    const Fn fn = at(bytes);
    picked_.store(fn, std::memory_order_relaxed);
    return fn(args...);
  }

  static constinit inline std::atomic<Fn> picked_{resolve};
};

}  // namespace pdc::stencil
