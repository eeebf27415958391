#pragma once
// The vector widths the heat and Life kernels run at. Each kernel is one
// template over the width: 16 bytes is the x86-64 baseline (SSE2) and the
// only width built for other targets; 32 (AVX2) and 64 (AVX-512F) are
// compiled in function-level target wrappers, not with ISA compile flags,
// so one binary runs on every x86-64 CPU. Each kernel runs at the widest
// width this CPU supports, picked once per process.

#include <cstddef>
#include <span>

namespace pdc::stencil {

/// The vector widths, in bytes, this CPU runs the kernels at, narrowest
/// first: 16 always, then 32 with AVX2 and 64 with AVX-512F (x86-64 only).
/// Detected once per process; the kernels pick the last.
[[nodiscard]] std::span<const std::size_t> vector_widths();

}  // namespace pdc::stencil
