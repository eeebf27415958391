#pragma once
// Zero-filled storage that does not write its zeros. Memory fresh from the
// kernel already reads zero, so a value-initialising std::vector touches
// every page once to store zeros and its owner's fill touches it again;
// this buffer leaves the first touch to the owner. It is the CS31
// memory-hierarchy lesson (paging, the TLB) applied to the library's own
// boards: life::Grid and life::PackedGrid live in it.
//
//  - A buffer of kHugePageBytes or more is mmap-ed fresh, aligned to
//    kHugePageBytes and marked madvise(MADV_HUGEPAGE). Where transparent
//    huge pages run in `madvise` or `always` mode, a 4 MiB board then
//    faults in as two 2 MiB pages instead of 1024 4 KiB ones. The advice
//    is best effort: if madvise fails, the buffer still works.
//  - A smaller buffer comes from calloc, which reuses heap memory and
//    zeroes only what was not fresh.
//
// A copy asks for no zeros, since it writes every byte: malloc below the
// cut, fresh mapped pages above it (so copying a big buffer never reuses
// heap memory). A size too large to map throws std::bad_alloc, and one
// whose round-up to whole huge pages would wrap throws before mmap runs.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pdc::core {

/// Buffers of this many bytes or more are mapped on huge-page boundaries.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {
/// `bytes` bytes, zero-filled if `zeroed`, else of any contents; nullptr
/// for 0. Throws std::bad_alloc.
[[nodiscard]] void* buffer_allocate(std::size_t bytes, bool zeroed);
/// Releases what buffer_allocate(bytes, ...) returned.
void buffer_release(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// `size()` elements of trivially copyable T, all bits zero when built.
template <class T>
class ZeroedBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ZeroedBuffer() = default;
  /// `n` zero elements; throws std::bad_alloc if n * sizeof(T) bytes do
  /// not fit in size_t or cannot be mapped.
  explicit ZeroedBuffer(std::size_t n) : ZeroedBuffer(n, true) {}

  ZeroedBuffer(const ZeroedBuffer& other) : ZeroedBuffer(other.size_, false) {
    if (size_ != 0) std::memcpy(data_, other.data_, bytes());
  }
  ZeroedBuffer(ZeroedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  /// Copies in place when the sizes match, else into fresh storage.
  ZeroedBuffer& operator=(const ZeroedBuffer& other) {
    if (this == &other) return *this;
    if (size_ != other.size_) return *this = ZeroedBuffer(other);
    if (size_ != 0) std::memcpy(data_, other.data_, bytes());
    return *this;
  }
  ZeroedBuffer& operator=(ZeroedBuffer&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }

  ~ZeroedBuffer() { detail::buffer_release(data_, bytes()); }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Same size and the same bytes.
  [[nodiscard]] bool operator==(const ZeroedBuffer& other) const {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, bytes()) == 0);
  }

 private:
  ZeroedBuffer(std::size_t n, bool zeroed)
      : data_(static_cast<T*>(
            detail::buffer_allocate(checked_bytes(n), zeroed))),
        size_(n) {}

  static std::size_t checked_bytes(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return n * sizeof(T);
  }
  [[nodiscard]] std::size_t bytes() const { return size_ * sizeof(T); }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pdc::core
