#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "sched/sliding.hpp"
#include "support/math_utils.hpp"

/// Processor availability for contiguous list scheduling, kept in a
/// tournament min-tree so that placing a width-1 task costs O(log m) instead
/// of an O(m) scan.
///
/// The leaves hold each processor's availability time; they are padded to a
/// power of two with +inf, and every inner node holds the minimum of its two
/// children. A placement follows the paper's §3.2 tie rule: among the
/// earliest windows, the leftmost when the task starts at time 0 (or always,
/// for the leftmost discipline) and the rightmost otherwise.
///
/// Ties are `approx_eq`, a tolerance test, not `==`. The tree descent still
/// finds exactly the window a linear scan finds: for v >= earliest,
/// approx_eq(v, earliest) reduces to leq(v, earliest), which is monotone in
/// v, so a subtree holds a qualifying leaf exactly when its minimum
/// qualifies. Monotonicity fails at +inf (leq(+inf, x) is true), so the
/// descent never enters a subtree that lies wholly in the padding.
///
/// Wider tasks use the O(m) sliding-window maximum over the leaf array.
namespace malsched {

namespace detail {

/// Resizes `vec`, counting an allocation event when capacity had to grow --
/// every reused scratch buffer is resized through this so the
/// allocation-free claims stay auditable.
template <class Vec>
void resize_counted(Vec& vec, std::size_t size, long long& alloc_events) {
  if (vec.capacity() < size) ++alloc_events;
  vec.resize(size);
}

}  // namespace detail

/// An earliest contiguous window: its start time and first processor.
struct Window {
  double start{0.0};
  int column{-1};
};

class AvailabilityTree {
 public:
  AvailabilityTree() = default;

  /// A tree over `machines` idle processors, for one-shot use.
  explicit AvailabilityTree(int machines) {
    long long alloc_events = 0;
    reset(machines, alloc_events);
  }

  /// Every processor idle at time 0. Buffer growths are added to
  /// `alloc_events`; a warm tree of at least this size allocates nothing.
  void reset(int machines, long long& alloc_events) {
    machines_ = static_cast<std::size_t>(machines);
    leaves_ = std::bit_ceil(machines_);
    detail::resize_counted(node_, 2 * leaves_, alloc_events);
    const auto first = node_.begin() + static_cast<std::ptrdiff_t>(leaves_);
    std::fill(first, first + static_cast<std::ptrdiff_t>(machines_), 0.0);
    std::fill(first + static_cast<std::ptrdiff_t>(machines_), node_.end(),
              std::numeric_limits<double>::infinity());
    for (std::size_t i = leaves_; i-- > 1;) node_[i] = std::min(node_[2 * i], node_[2 * i + 1]);
    if (ready_.capacity() < machines_ || ring_.capacity() < machines_) {
      ++alloc_events;
      ready_.reserve(machines_);
      ring_.reserve(machines_);
    }
  }

  /// Availability time of each processor (the leaf array, padding excluded).
  [[nodiscard]] std::span<const double> availability() const noexcept {
    return {node_.data() + leaves_, machines_};
  }

  /// Earliest window of `width` processors under the tie rule above.
  /// Requires 1 <= width <= machines.
  [[nodiscard]] Window earliest_window(int width, bool always_leftmost = false) {
    if (width == 1) {
      const double earliest = node_[1];
      return {earliest, leaf_column(earliest, always_leftmost || approx_eq(earliest, 0.0))};
    }
    sliding_window_max_into(availability(), width, ready_, ring_);
    double earliest = std::numeric_limits<double>::infinity();
    for (const double r : ready_) earliest = std::min(earliest, r);
    if (always_leftmost || approx_eq(earliest, 0.0)) {
      for (std::size_t s = 0; s < ready_.size(); ++s) {
        if (approx_eq(ready_[s], earliest)) return {earliest, static_cast<int>(s)};
      }
    } else {
      for (std::size_t s = ready_.size(); s-- > 0;) {
        if (approx_eq(ready_[s], earliest)) return {earliest, static_cast<int>(s)};
      }
    }
    return {earliest, -1};  // unreachable: the minimum itself qualifies
  }

  /// Marks processors [column, column + width) busy until `until`, in
  /// O(width + log m).
  void occupy(int column, int width, double until) {
    const std::size_t first = leaves_ + static_cast<std::size_t>(column);
    const std::size_t last = first + static_cast<std::size_t>(width) - 1;
    std::fill(node_.begin() + static_cast<std::ptrdiff_t>(first),
              node_.begin() + static_cast<std::ptrdiff_t>(last) + 1, until);
    for (std::size_t lo = first / 2, hi = last / 2; lo > 0; lo /= 2, hi /= 2) {
      for (std::size_t i = lo; i <= hi; ++i) node_[i] = std::min(node_[2 * i], node_[2 * i + 1]);
    }
  }

 private:
  /// Leftmost (or rightmost) processor whose availability ties `earliest`,
  /// the root minimum.
  [[nodiscard]] int leaf_column(double earliest, bool leftmost) const {
    std::size_t node = 1;
    std::size_t first = 0;  // first leaf under `node`
    for (std::size_t span = leaves_ / 2; span > 0; span /= 2) {
      const std::size_t left = 2 * node;
      // A right child starting at or past `machines_` is all padding.
      const bool right_is_real = first + span < machines_;
      const bool go_right = leftmost
                                ? !approx_eq(node_[left], earliest)
                                : right_is_real && approx_eq(node_[left + 1], earliest);
      node = go_right ? left + 1 : left;
      if (go_right) first += span;
    }
    return static_cast<int>(first);
  }

  std::size_t machines_{0};
  std::size_t leaves_{1};      // power of two >= machines_
  std::vector<double> node_;   // node_[1] is the root, children of i are 2i and 2i+1
  std::vector<double> ready_;  // sliding-window maxima for width > 1
  std::vector<int> ring_;      // monotone queue of the sliding-window maximum
};

}  // namespace malsched
