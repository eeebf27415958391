#include "pdc/stencil/vector_width.hpp"

#include <vector>

namespace pdc::stencil {

std::span<const std::size_t> vector_widths() {
  static const std::vector<std::size_t> widths = [] {
    std::vector<std::size_t> w{16};
#if defined(__x86_64__)
    // __builtin_cpu_supports checks that the OS saves the wider registers
    // too. The 64-byte kernels step leftovers down through 32-byte
    // vectors, so AVX-512F counts only alongside AVX2.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      w.push_back(32);
      if (__builtin_cpu_supports("avx512f")) w.push_back(64);
    }
#endif
    return w;
  }();
  return widths;
}

}  // namespace pdc::stencil
