// First-touch-initialized flat slab.
//
// On NUMA machines, pages are physically placed on the node of the thread
// that first writes them. A std::vector zero-fills its backing store on the
// constructing (single) thread, so a multi-gigabyte view slab ends up
// resident on one memory node no matter where the shard workers run. This
// slab instead allocates raw, cache-line-aligned storage and fills it in
// contiguous stripes, one initialization thread per stripe, so each stripe's
// pages are faulted by "its" thread. Callers stripe along the same
// contiguous node partition the sharded driver uses, which makes the layout
// NUMA-friendly without any hard libnuma dependency — on a single-node
// machine the parallel fill simply degenerates to a fast memset.
//
// Before the fill, the slab asks the kernel to back it with transparent huge
// pages. The flat cluster reads its view rows at random, and with 4 KiB
// pages nearly every row access of a large slab also misses the TLB; 2 MiB
// pages make those walks rare. On a 1M-node cluster (163 MB slab) this
// lifted round throughput by about a fifth on a 4-vCPU Xeon whose THP mode
// is `madvise`. Only the 2 MiB-aligned interior of the allocation is
// advised, so a huge page never reaches past the slab and resident memory
// does not grow; the slab is fully written at construction anyway.
//
// Deliberately minimal: trivially-copyable element types only, move-only
// ownership, no incremental growth — the flat cluster sizes its slabs once
// at construction.
#pragma once

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gossip {

template <typename T>
class FirstTouchSlab {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  FirstTouchSlab() = default;

  // Allocates `count` elements and fills every stripe of `stripe_elems`
  // consecutive elements with `fill`, each stripe on its own thread (the
  // caller's thread takes the first stripe). `stripe_elems` == 0 or >=
  // count means a plain single-threaded fill.
  FirstTouchSlab(std::size_t count, T fill, std::size_t stripe_elems = 0)
      : data_(count == 0
                  ? nullptr
                  : static_cast<T*>(::operator new(
                        count * sizeof(T), std::align_val_t{64}))),
        size_(count) {
    if (count == 0) return;
    advise_huge_pages();
    if (stripe_elems == 0 || stripe_elems >= count) {
      fill_range(0, count, fill);
      return;
    }
    std::vector<std::thread> pool;
    for (std::size_t lo = stripe_elems; lo < count; lo += stripe_elems) {
      const std::size_t hi = std::min(lo + stripe_elems, count);
      pool.emplace_back([this, lo, hi, fill] { fill_range(lo, hi, fill); });
    }
    fill_range(0, stripe_elems, fill);
    for (auto& t : pool) t.join();
  }

  FirstTouchSlab(FirstTouchSlab&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  FirstTouchSlab& operator=(FirstTouchSlab&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  FirstTouchSlab(const FirstTouchSlab&) = delete;
  FirstTouchSlab& operator=(const FirstTouchSlab&) = delete;
  ~FirstTouchSlab() { release(); }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  // A hint: the result is ignored, because a kernel without THP (or with
  // it set to `never`) just keeps 4 KiB pages, which is still correct.
  void advise_huge_pages() {
#if defined(MADV_HUGEPAGE)
    constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
    const auto start = reinterpret_cast<std::uintptr_t>(data_);
    const std::uintptr_t begin = (start + kHugePage - 1) & ~(kHugePage - 1);
    const std::uintptr_t end = (start + size_ * sizeof(T)) & ~(kHugePage - 1);
    if (end > begin) {
      (void)madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
    }
#endif
  }
  void fill_range(std::size_t lo, std::size_t hi, T fill) {
    for (std::size_t i = lo; i < hi; ++i) data_[i] = fill;
  }
  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{64});
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace gossip
