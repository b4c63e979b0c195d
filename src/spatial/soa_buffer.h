#ifndef POPAN_SPATIAL_SOA_BUFFER_H_
#define POPAN_SPATIAL_SOA_BUFFER_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "util/check.h"
#include "util/simd.h"

namespace popan::spatial {

/// Structure-of-arrays small-buffer storage for leaf contents: each
/// coordinate axis lives in its own contiguous lane (x[], y[], ...), so
/// the range/partial-match hot loops can test a whole leaf against a box
/// with the SIMD kernels in util/simd.h instead of point-at-a-time
/// Box::Contains calls.
///
///   * up to kInline elements per lane live inside the owning node, larger
///     contents spill to per-lane heap vectors;
///   * the storage mode is a function of size alone (inline iff
///     size() <= kInline), and the spill vectors keep their heap buffers
///     across un-spills;
///   * SwapRemoveAt swaps the last element into the hole (leaf order is
///     immaterial to the tree invariants).
template <size_t D, size_t kInline>
class SoaBuffer {
 public:
  using PointT = geo::Point<D>;

  SoaBuffer() = default;

  static constexpr size_t inline_capacity() { return kInline; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when the lanes currently live on the heap.
  bool spilled() const { return size_ > kInline; }

  /// The contiguous lane for `axis` (size() readable elements).
  const double* lane(size_t axis) const {
    POPAN_DCHECK(axis < D);
    return spilled() ? spill_[axis].data() : inline_[axis].data();
  }

  double At(size_t axis, size_t i) const {
    POPAN_DCHECK(i < size_);
    return lane(axis)[i];
  }

  /// Reassembles element i as a point (the lanes are the storage of
  /// record; this is the AoS view for callers that need whole points).
  PointT Get(size_t i) const {
    POPAN_DCHECK(i < size_);
    PointT p;
    for (size_t a = 0; a < D; ++a) p[a] = lane(a)[i];
    return p;
  }

  /// True iff element i equals `p` on every axis (IEEE ==, the same test
  /// Point::operator== performs).
  bool Matches(size_t i, const PointT& p) const {
    POPAN_DCHECK(i < size_);
    for (size_t a = 0; a < D; ++a) {
      if (lane(a)[i] != p[a]) return false;
    }
    return true;
  }

  void push_back(const PointT& p) {
    if (size_ < kInline) {
      for (size_t a = 0; a < D; ++a) inline_[a][size_] = p[a];
    } else if (size_ == kInline) {
      // Crossing the inline threshold: migrate every lane to the heap.
      for (size_t a = 0; a < D; ++a) {
        spill_[a].clear();
        spill_[a].reserve(kInline + 1);
        spill_[a].insert(spill_[a].end(), inline_[a].begin(),
                         inline_[a].end());
        spill_[a].push_back(p[a]);
      }
    } else {
      for (size_t a = 0; a < D; ++a) spill_[a].push_back(p[a]);
    }
    ++size_;
  }

  /// Removes element i by swapping the last element into its place.
  void SwapRemoveAt(size_t i) {
    POPAN_DCHECK(i < size_);
    if (spilled()) {
      for (size_t a = 0; a < D; ++a) {
        spill_[a][i] = spill_[a].back();
        spill_[a].pop_back();
      }
      --size_;
      if (size_ == kInline) {
        // Back under the threshold: return to inline storage; the spill
        // vectors keep their buffers for future crossings.
        for (size_t a = 0; a < D; ++a) {
          for (size_t j = 0; j < kInline; ++j) inline_[a][j] = spill_[a][j];
          spill_[a].clear();
        }
      }
    } else {
      for (size_t a = 0; a < D; ++a) inline_[a][i] = inline_[a][size_ - 1];
      --size_;
    }
  }

  void clear() {
    size_ = 0;
    for (size_t a = 0; a < D; ++a) spill_[a].clear();
  }

 private:
  size_t size_ = 0;
  std::array<std::array<double, kInline>, D> inline_{};
  std::array<std::vector<double>, D> spill_;
};

/// Raw-lane workhorse behind ForEachInBox, shared with flat SoA storage
/// (the linear quadtree's leaf lanes): lanes[a] points at `n` elements of
/// axis a. Calls fn(i) for every element inside the half-open `box`, in
/// ascending index order — the same visit order as the scalar loop
/// `for i: if (box.Contains(p_i)) fn(i)`, bit for bit, on every dispatch
/// path (the kernels' scalar bodies share Box::Contains' comparison
/// semantics).
template <size_t D, typename Fn>
void ForEachInBoxLanes(const std::array<const double*, D>& lanes, size_t n,
                       const geo::Box<D>& box, Fn&& fn) {
  for (size_t base = 0; base < n; base += 64) {
    const size_t chunk = n - base < 64 ? n - base : 64;
    uint64_t mask = simd::MaskInHalfOpen(lanes[0] + base, chunk, box.lo()[0],
                                         box.hi()[0]);
    for (size_t a = 1; a < D && mask != 0; ++a) {
      mask &= simd::MaskInHalfOpen(lanes[a] + base, chunk, box.lo()[a],
                                   box.hi()[a]);
    }
    while (mask != 0) {
      const size_t i = static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      fn(base + i);
    }
  }
}

/// Raw-lane form of ForEachEqualOnAxis: fn(i) for every element of the
/// lane equal to `value`, ascending.
template <typename Fn>
void ForEachEqualLane(const double* lane, size_t n, double value, Fn&& fn) {
  for (size_t base = 0; base < n; base += 64) {
    const size_t chunk = n - base < 64 ? n - base : 64;
    uint64_t mask = simd::MaskEqual(lane + base, chunk, value);
    while (mask != 0) {
      const size_t i = static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      fn(base + i);
    }
  }
}

/// Calls fn(i) for every element of `b` inside the half-open `box`, in
/// ascending index order (see ForEachInBoxLanes for the order/parity
/// contract).
template <size_t D, size_t kInline, typename Fn>
void ForEachInBox(const SoaBuffer<D, kInline>& b, const geo::Box<D>& box,
                  Fn&& fn) {
  std::array<const double*, D> lanes;
  for (size_t a = 0; a < D; ++a) lanes[a] = b.lane(a);
  ForEachInBoxLanes<D>(lanes, b.size(), box, static_cast<Fn&&>(fn));
}

/// Calls fn(i) for every element whose `axis` coordinate equals `value`,
/// in ascending index order (the partial-match leaf filter).
template <size_t D, size_t kInline, typename Fn>
void ForEachEqualOnAxis(const SoaBuffer<D, kInline>& b, size_t axis,
                        double value, Fn&& fn) {
  ForEachEqualLane(b.lane(axis), b.size(), value, static_cast<Fn&&>(fn));
}

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_SOA_BUFFER_H_
