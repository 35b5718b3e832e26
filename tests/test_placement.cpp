// Differential tests for sched/availability_tree.hpp. Every placement the
// tree makes -- directly, through list_schedule, and through the canonical
// list algorithm's reallocation path -- is compared bit for bit with a copy
// of the O(m) scan it replaced: per-window maximum, minimum, then a
// leftmost/rightmost tie scan with approx_eq.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "model/lower_bounds.hpp"
#include "sched/availability_tree.hpp"
#include "sched/list_scheduler.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

constexpr int kMachineCounts[] = {1, 2, 3, 5, 33, 100, 255, 256, 257, 1000};

// ------------------------------------------------------------ the O(m) scan

/// Earliest window of `width` processors by scanning every window (the
/// window maximum is recomputed from scratch, independent of sliding.hpp).
Window scan_window(std::span<const double> avail, int width, bool always_leftmost) {
  const auto windows = avail.size() - static_cast<std::size_t>(width) + 1;
  std::vector<double> ready(windows);
  for (std::size_t s = 0; s < windows; ++s) {
    ready[s] = *std::max_element(avail.begin() + static_cast<std::ptrdiff_t>(s),
                                 avail.begin() + static_cast<std::ptrdiff_t>(s) + width);
  }
  double earliest = std::numeric_limits<double>::infinity();
  for (const double r : ready) earliest = std::min(earliest, r);
  int column = -1;
  if (always_leftmost || approx_eq(earliest, 0.0)) {
    for (std::size_t s = 0; s < ready.size(); ++s) {
      if (approx_eq(ready[s], earliest)) {
        column = static_cast<int>(s);
        break;
      }
    }
  } else {
    for (std::size_t s = ready.size(); s-- > 0;) {
      if (approx_eq(ready[s], earliest)) {
        column = static_cast<int>(s);
        break;
      }
    }
  }
  return {earliest, column};
}

void scan_occupy(std::vector<double>& avail, int column, int width, double until) {
  std::fill(avail.begin() + column, avail.begin() + column + width, until);
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The scan-based list scheduler the tree replaced (contiguous placements).
Schedule scan_list_schedule(const Instance& instance, std::span<const int> allotment,
                            std::span<const int> order, bool always_leftmost) {
  Schedule schedule(instance.machines(), instance.size());
  std::vector<double> avail(static_cast<std::size_t>(instance.machines()), 0.0);
  for (const int task : order) {
    const int procs = allotment[static_cast<std::size_t>(task)];
    const double duration = instance.task(task).time(procs);
    const Window window = scan_window(avail, procs, always_leftmost);
    schedule.assign(task, window.start, duration, window.column, procs);
    scan_occupy(avail, window.column, procs, window.start + duration);
  }
  return schedule;
}

/// The scan-based canonical list placement with the appendix's one-shot
/// reallocation, as it stood before the tree.
Schedule scan_reallocation_schedule(const Instance& instance, std::span<const int> allotment,
                                    std::span<const int> order, int khat, bool& reallocated) {
  Schedule schedule(instance.machines(), instance.size());
  std::vector<double> avail(static_cast<std::size_t>(instance.machines()), 0.0);
  bool reallocation_considered = false;
  reallocated = false;
  for (const int task : order) {
    const int procs = allotment[static_cast<std::size_t>(task)];
    const double duration = instance.task(task).time(procs);
    const Window window = scan_window(avail, procs, false);
    if (!approx_eq(window.start, 0.0) && !reallocation_considered) {
      reallocation_considered = true;
      const int width = std::min(procs, khat);
      const int idle = static_cast<int>(std::count(avail.begin(), avail.end(), 0.0));
      int column = -1;
      for (int j = 0, run = 0; j < static_cast<int>(avail.size()); ++j) {
        run = avail[static_cast<std::size_t>(j)] == 0.0 ? run + 1 : 0;
        if (run >= width) {
          column = j - width + 1;
          break;
        }
      }
      if (idle >= khat && column >= 0) {
        const double squeezed = instance.task(task).time(width);
        schedule.assign(task, 0.0, squeezed, column, width);
        scan_occupy(avail, column, width, squeezed);
        reallocated = true;
        continue;
      }
    }
    schedule.assign(task, window.start, duration, window.column, procs);
    scan_occupy(avail, window.column, procs, window.start + duration);
  }
  return schedule;
}

void expect_identical(const Schedule& expected, const Schedule& actual) {
  ASSERT_EQ(expected.num_tasks(), actual.num_tasks());
  for (int task = 0; task < expected.num_tasks(); ++task) {
    const auto& e = expected.of(task);
    const auto& a = actual.of(task);
    ASSERT_EQ(bits(e.start), bits(a.start)) << "task " << task;
    ASSERT_EQ(bits(e.duration), bits(a.duration)) << "task " << task;
    ASSERT_EQ(e.first_proc, a.first_proc) << "task " << task;
    ASSERT_EQ(e.num_procs, a.num_procs) << "task " << task;
  }
}

// ---------------------------------------------------------- tree vs the scan

/// Durations that build exact ties (small integers) and near-ties inside
/// kRelEps (1e-10 and 5e-10 apart), plus a few gaps just outside it.
constexpr double kDurations[] = {1.0, 2.0, 1.0 + 1e-10, 1.0 + 5e-10, 2.0 - 5e-10,
                                 0.5, 1.0 - 1e-10, 3.0, 1.0 + 4e-9, 2.0 + 1e-8};

double pick(std::span<const double> values, Rng& rng) {
  const auto last = static_cast<std::int64_t>(values.size()) - 1;
  return values[static_cast<std::size_t>(rng.uniform_int(0, last))];
}

double draw_duration(Rng& rng) {
  return rng.bernoulli(0.15) ? rng.uniform(0.1, 4.0) : pick(kDurations, rng);
}

TEST(AvailabilityTree, MatchesTheLinearScanOnEveryPlacement) {
  Rng rng(20260415);
  long long placements = 0;
  long long wide = 0;
  for (const int machines : kMachineCounts) {
    for (const bool always_leftmost : {false, true}) {
      AvailabilityTree tree;
      long long alloc_events = 0;
      tree.reset(machines, alloc_events);
      std::vector<double> avail(static_cast<std::size_t>(machines), 0.0);
      const int tasks = std::min(4 * machines + 8, 1500);
      for (int i = 0; i < tasks; ++i) {
        int width = 1;
        if (machines > 1 && rng.bernoulli(0.06)) {
          width = rng.bernoulli(0.25) ? machines
                                      : static_cast<int>(rng.uniform_int(2, machines));
        }
        const Window expected = scan_window(avail, width, always_leftmost);
        const Window actual = tree.earliest_window(width, always_leftmost);
        ASSERT_EQ(bits(expected.start), bits(actual.start))
            << "m=" << machines << " task " << i << " width " << width;
        ASSERT_EQ(expected.column, actual.column)
            << "m=" << machines << " task " << i << " width " << width
            << " start " << expected.start;
        const double until = expected.start + draw_duration(rng);
        scan_occupy(avail, expected.column, width, until);
        tree.occupy(actual.column, width, until);
        ++placements;
        wide += width > 1 ? 1 : 0;
      }
      const auto leaves = tree.availability();
      ASSERT_EQ(leaves.size(), avail.size());
      for (std::size_t j = 0; j < avail.size(); ++j) ASSERT_EQ(bits(leaves[j]), bits(avail[j]));
    }
  }
  EXPECT_GT(wide, 100);
  EXPECT_GT(placements, 10000);
}

TEST(AvailabilityTree, NeverPlacesOnPaddingLeaves) {
  // m processors all busy until the same time: after time 0 the rightmost
  // tie is processor m-1. The leaves past m are +inf padding, and
  // approx_eq(+inf, x) holds, so a descent that enters an all-padding
  // subtree would return a column >= m whenever m is not a power of two.
  for (const int machines : kMachineCounts) {
    AvailabilityTree tree(machines);
    for (int j = 0; j < machines; ++j) {
      const Window window = tree.earliest_window(1);
      ASSERT_EQ(window.column, j);  // leftmost at time 0
      tree.occupy(window.column, 1, 2.0);
    }
    const Window later = tree.earliest_window(1);
    EXPECT_EQ(later.start, 2.0);
    EXPECT_EQ(later.column, machines - 1) << "m=" << machines;
    EXPECT_EQ(tree.earliest_window(1, true).column, 0) << "m=" << machines;
  }
}

TEST(AvailabilityTree, ResetReusesItsBuffers) {
  AvailabilityTree tree;
  long long alloc_events = 0;
  tree.reset(257, alloc_events);
  const long long warmed = alloc_events;
  EXPECT_GT(warmed, 0);
  tree.occupy(3, 200, 1.5);
  for (const int machines : {257, 100, 1, 256}) {
    tree.reset(machines, alloc_events);
    const auto leaves = tree.availability();
    EXPECT_EQ(leaves.size(), static_cast<std::size_t>(machines));
    EXPECT_TRUE(std::all_of(leaves.begin(), leaves.end(), [](double v) { return v == 0.0; }));
    EXPECT_EQ(tree.earliest_window(machines).start, 0.0);
  }
  EXPECT_EQ(alloc_events, warmed);
}

// ------------------------------------------------------- schedulers vs scan

std::vector<WorkloadFamily> families() {
  return {WorkloadFamily::kUniform, WorkloadFamily::kBimodal, WorkloadFamily::kStairs,
          WorkloadFamily::kSequentialOnly};
}

TEST(AvailabilityTree, ListScheduleMatchesTheScan) {
  Rng rng(77);
  for (const int machines : kMachineCounts) {
    GeneratorOptions options;
    options.machines = machines;
    options.tasks = std::min(2 * machines + 6, 400);
    for (const auto family : families()) {
      const auto instance = generate_instance(family, options, rng.fork_seed());
      std::vector<int> allotment(static_cast<std::size_t>(instance.size()));
      for (int& p : allotment) {
        p = rng.bernoulli(0.9) ? 1 : static_cast<int>(rng.uniform_int(1, machines));
      }
      const auto order = order_by_decreasing_alloted_time(instance, allotment);
      expect_identical(scan_list_schedule(instance, allotment, order, false),
                       list_schedule(instance, allotment, order));
      expect_identical(
          scan_list_schedule(instance, allotment, order, true),
          list_schedule(instance, allotment, order, Placement::kContiguousLeftmost));
    }
  }
}

/// A task of canonical width ceil(work) at deadline 1: t(p) = work / p.
MalleableTask constant_work_task(double work, int machines) {
  std::vector<double> profile(static_cast<std::size_t>(machines));
  for (int p = 1; p <= machines; ++p) profile[static_cast<std::size_t>(p) - 1] = work / p;
  return MalleableTask(std::move(profile));
}

/// An instance on which the reallocation rule fires at deadline 1 (m >= 5):
/// tasks of width <= 5 and time >= 0.85 fill all but 4 processors at time
/// 0, then a width-5 task of time 0.81 cannot start at 0 and is squeezed
/// onto the 4 idle ones; shorter sequential fillers follow. Total work
/// stays below m so Property 2 never rejects, and times repeat or differ
/// by 1e-10 or 5e-10, so starts tie.
Instance reallocating_instance(int machines, Rng& rng) {
  constexpr double kLevelTimes[] = {0.9, 0.9 + 1e-10, 0.9 + 5e-10, 0.85, 0.85 - 5e-10};
  constexpr double kFillerTimes[] = {0.5, 0.5 + 1e-10, 0.5 + 5e-10, 0.7, 0.7 - 5e-10};
  std::vector<MalleableTask> tasks;
  double work = 0.0;
  const auto add = [&](double time, int width) {
    tasks.push_back(constant_work_task(time * width, machines));
    work += time * width;
  };
  for (int left = machines - 4; left > 0;) {
    const int width = static_cast<int>(rng.uniform_int(1, std::min(left, 5)));
    add(pick(kLevelTimes, rng), width);
    left -= width;
  }
  add(0.81, 5);
  while (true) {
    const double time = pick(kFillerTimes, rng);
    if (work + time > 0.99 * machines) break;
    add(time, 1);
  }
  return Instance(machines, std::move(tasks));
}

void expect_reallocation_path_matches(const Instance& instance, double deadline,
                                      int& schedules, int& reallocations) {
  const auto outcome = canonical_list_schedule(instance, deadline);
  if (!outcome.schedule) return;
  const auto canonical = canonical_allotment(instance, deadline);
  const auto order = order_by_decreasing_alloted_time(instance, canonical.procs);
  bool reallocated = false;
  const auto expected = scan_reallocation_schedule(instance, canonical.procs, order,
                                                   reallocation_width(kMu), reallocated);
  expect_identical(expected, *outcome.schedule);
  EXPECT_EQ(reallocated, outcome.reallocated);
  ++schedules;
  reallocations += reallocated ? 1 : 0;
}

TEST(AvailabilityTree, ReallocationPathMatchesTheScan) {
  Rng rng(4242);
  int reallocations = 0;
  int schedules = 0;
  for (const int machines : kMachineCounts) {
    GeneratorOptions options;
    options.machines = machines;
    options.tasks = std::min(machines + 10, 400);
    for (const auto family : families()) {
      const auto instance = generate_instance(family, options, rng.fork_seed());
      const double lb = makespan_lower_bound(instance);
      for (const double factor : {1.0, 1.1, 1.3, 1.6, 2.2}) {
        expect_reallocation_path_matches(instance, lb * factor, schedules, reallocations);
      }
    }
    for (int trial = 0; machines >= 5 && trial < 8; ++trial) {
      expect_reallocation_path_matches(reallocating_instance(machines, rng), 1.0, schedules,
                                       reallocations);
    }
  }
  EXPECT_GT(schedules, 200);
  EXPECT_GE(reallocations, 7 * 8) << "the engineered instances stopped reallocating";
}

}  // namespace
}  // namespace malsched
