#include "pdc/core/zeroed_buffer.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

namespace pdc::core::detail {

namespace {

/// `bytes` rounded up to whole huge pages. The caller keeps bytes at most
/// kMaxMappedBytes, so neither this nor the alignment slack wraps.
std::size_t huge_pages_for(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/// The largest request mapped: its round-up plus one huge page of
/// alignment slack still fits in size_t.
constexpr std::size_t kMaxMappedBytes =
    std::numeric_limits<std::size_t>::max() - 2 * kHugePageBytes;

/// Fresh zero pages, `bytes` rounded up to whole huge pages, starting on
/// a huge-page boundary: map one huge page more than needed and unmap
/// the unaligned head and the tail.
void* map_huge(std::size_t bytes) {
  if (bytes > kMaxMappedBytes) throw std::bad_alloc();
  const std::size_t len = huge_pages_for(bytes);
  void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* const base = static_cast<std::byte*>(raw);
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  const std::size_t head =
      ((addr + kHugePageBytes - 1) & ~(kHugePageBytes - 1)) - addr;
  std::byte* const start = base + head;
  if (head != 0) munmap(base, head);
  munmap(start + len, kHugePageBytes - head);
  // Best effort: with THP off, or on a kernel without it, the buffer
  // stays on small pages.
  (void)madvise(start, len, MADV_HUGEPAGE);
  return start;
}

}  // namespace

void* buffer_allocate(std::size_t bytes, bool zeroed) {
  if (bytes == 0) return nullptr;
  if (bytes >= kHugePageBytes) return map_huge(bytes);
  void* p = zeroed ? std::calloc(1, bytes) : std::malloc(bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void buffer_release(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes >= kHugePageBytes)
    munmap(p, huge_pages_for(bytes));
  else
    std::free(p);
}

}  // namespace pdc::core::detail
