#pragma once

#include <span>
#include <vector>

/// Sliding-window maximum, shared by the list schedulers: for processor
/// availability vectors it yields, in O(m), the earliest feasible start of a
/// width-w contiguous window.
namespace malsched {

/// Core of the sliding-window maximum for hot loops (the availability
/// tree's path for tasks wider than one processor): the result and the
/// monotone queue live in caller-owned buffers (`ring` is resized to
/// values.size()). sliding_window_max() delegates here, so the two can never
/// drift.
inline void sliding_window_max_into(std::span<const double> values, int width,
                                    std::vector<double>& out, std::vector<int>& ring) {
  const int n = static_cast<int>(values.size());
  out.resize(static_cast<std::size_t>(n - width + 1));
  ring.resize(static_cast<std::size_t>(n));
  int head = 0;  // ring[head..tail) holds indices whose values decrease
  int tail = 0;
  for (int j = 0; j < n; ++j) {
    while (tail > head && values[static_cast<std::size_t>(ring[static_cast<std::size_t>(
                              tail - 1)])] <= values[static_cast<std::size_t>(j)]) {
      --tail;
    }
    ring[static_cast<std::size_t>(tail++)] = j;
    if (ring[static_cast<std::size_t>(head)] <= j - width) ++head;
    if (j >= width - 1) {
      out[static_cast<std::size_t>(j - width + 1)] =
          values[static_cast<std::size_t>(ring[static_cast<std::size_t>(head)])];
    }
  }
}

/// result[s] = max(values[s .. s+width-1]); requires 1 <= width <= size.
[[nodiscard]] inline std::vector<double> sliding_window_max(std::span<const double> values,
                                                            int width) {
  std::vector<double> result;
  std::vector<int> ring;
  sliding_window_max_into(values, width, result, ring);
  return result;
}

}  // namespace malsched
