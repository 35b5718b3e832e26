// Tests for the DualWorkspace hot path: every gamma_i(d) must equal a linear
// scan of the profile, and the canonical allotment, the shared
// decreasing-time order, and the canonical area it serves must equal their
// independent references (canonical_allotment, order_by_decreasing_alloted_time,
// the Instance overload of canonical_area) at every breakpoint; batch solves
// must be byte-identical across thread counts; the scratch reuse must be
// allocation-free after warm-up; and the breakpoint-snapped dual search must
// stay sound (certified bounds never contradict brute force).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "api/scheduler_service.hpp"
#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "registry/solver_registry.hpp"
#include "sched/exact_small.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

void expect_same_schedule(const Schedule& a, const Schedule& b, const std::string& what) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks()) << what;
  ASSERT_EQ(a.machines(), b.machines()) << what;
  for (int t = 0; t < a.num_tasks(); ++t) {
    ASSERT_EQ(a.is_assigned(t), b.is_assigned(t)) << what << " task " << t;
    if (!a.is_assigned(t)) continue;
    const auto& x = a.of(t);
    const auto& y = b.of(t);
    EXPECT_EQ(x.start, y.start) << what << " task " << t;
    EXPECT_EQ(x.duration, y.duration) << what << " task " << t;
    EXPECT_EQ(x.first_proc, y.first_proc) << what << " task " << t;
    EXPECT_EQ(x.num_procs, y.num_procs) << what << " task " << t;
    EXPECT_EQ(x.scattered, y.scattered) << what << " task " << t;
  }
}

// ------------------------------------------------ canonical allotment + area

/// Deadlines probing every profile entry exactly, one ulp to each side, and
/// a few scales in between (the tolerance boundaries of every gamma_i).
std::vector<double> breakpoint_sweep(const Instance& instance) {
  std::vector<double> deadlines{0.0};
  for (const auto& task : instance.tasks()) {
    for (const double t : task.profile()) {
      deadlines.push_back(t);
      deadlines.push_back(std::nextafter(t, 0.0));
      deadlines.push_back(std::nextafter(t, 1e300));
      deadlines.push_back(t * 0.5);
      deadlines.push_back(t * (1.0 - 1e-9));
      deadlines.push_back(t * (1.0 + 1e-9));
      deadlines.push_back(t * 2.0);
    }
  }
  const double lb = makespan_lower_bound(instance);
  for (const double factor : {0.3, 0.7, 0.95, 1.0, 1.1, 1.5, 2.5, 6.0}) {
    deadlines.push_back(lb * factor);
  }
  return deadlines;
}

/// What the workspace shares across a dual step's branches equals its
/// independent reference at every deadline of `deadlines`.
void expect_workspace_matches_references(const Instance& instance,
                                         const std::vector<double>& deadlines) {
  DualWorkspace workspace(instance);
  for (const double d : deadlines) {
    const auto naive = canonical_allotment(instance, d);
    const auto& fast = workspace.canonical(d);
    ASSERT_EQ(naive.feasible, fast.feasible) << "d " << d;
    EXPECT_EQ(naive.procs, fast.procs) << "d " << d;
    EXPECT_EQ(naive.total_work, fast.total_work) << "d " << d;
    EXPECT_EQ(naive.total_procs, fast.total_procs) << "d " << d;
    if (!naive.feasible) continue;
    const auto order = workspace.canonical_order();
    EXPECT_EQ(std::vector<int>(order.begin(), order.end()),
              order_by_decreasing_alloted_time(instance, naive.procs))
        << "d " << d;
    EXPECT_EQ(canonical_area(instance, naive), canonical_area(workspace, fast)) << "d " << d;
  }
}

/// gamma_i(d) by a linear scan of the profile: the first p whose time is
/// within tolerance of d. Independent of the binary search that both
/// canonical_allotment and the workspace go through.
std::optional<int> gamma_by_linear_scan(const MalleableTask& task, double d) {
  const auto& profile = task.profile();
  for (std::size_t p = 0; p < profile.size(); ++p) {
    if (leq(profile[p], d)) return static_cast<int>(p) + 1;
  }
  return std::nullopt;
}

/// The workspace's gamma_i(d) equals the linear-scan reference for every task
/// at every deadline of `deadlines`, and the allotment is feasible exactly
/// when every task admits some processor count.
void expect_gamma_matches_linear_scan(const Instance& instance,
                                      const std::vector<double>& deadlines) {
  DualWorkspace workspace(instance);
  for (const double d : deadlines) {
    const auto& fast = workspace.canonical(d);
    bool feasible = true;
    for (int i = 0; i < instance.size(); ++i) {
      const auto reference = gamma_by_linear_scan(instance.task(i), d);
      if (!reference) {
        feasible = false;
        continue;
      }
      if (fast.feasible) {
        ASSERT_EQ(fast.procs.size(), static_cast<std::size_t>(instance.size())) << "d " << d;
        EXPECT_EQ(fast.procs[static_cast<std::size_t>(i)], *reference)
            << "task " << i << " d " << d;
      }
    }
    EXPECT_EQ(fast.feasible, feasible) << "d " << d;
  }
}

class WorkspaceFamilyTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int>> {};

TEST_P(WorkspaceFamilyTest, GammaLookupMatchesProfileBinarySearch) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  expect_gamma_matches_linear_scan(instance, breakpoint_sweep(instance));
}

TEST_P(WorkspaceFamilyTest, CanonicalAllotmentAndAreaAreByteIdentical) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  expect_workspace_matches_references(instance, breakpoint_sweep(instance));
}

INSTANTIATE_TEST_SUITE_P(
    Families, WorkspaceFamilyTest,
    ::testing::Combine(::testing::ValuesIn(all_workload_families()),
                       ::testing::Values(1, 2, 3)));

TEST(DualWorkspace, CanonicalAllotmentAndAreaMatchOnPlateauProfiles) {
  // Flat and plateaued profiles put many breakpoints on the same deadline;
  // near-ties sit inside the comparison tolerance.
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(std::vector<double>{4.0, 4.0, 4.0, 4.0}, "flat");
  tasks.emplace_back(std::vector<double>{8.0, 4.0, 4.0, 4.0}, "plateau");
  tasks.emplace_back(std::vector<double>{1.0 + 1e-10, 1.0, 1.0 - 1e-13, 0.75}, "near-ties");
  const Instance instance(4, std::move(tasks));
  auto deadlines = breakpoint_sweep(instance);
  for (const double base : {0.25, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-10, 2.0, 4.0, 8.0, 16.0}) {
    for (const double d : {std::nextafter(base, 0.0), base, std::nextafter(base, 100.0)}) {
      deadlines.push_back(d);
    }
  }
  expect_workspace_matches_references(instance, deadlines);
  expect_gamma_matches_linear_scan(instance, deadlines);
}

// ------------------------------------------------------------- batch solves

TEST(DualWorkspace, BatchResultsAreIdenticalAcrossThreadCounts) {
  // The production fan-out: every thread count must produce the schedules
  // and bounds of the synchronous solve, with and without the snapped search
  // (same-instance misses on one worker also reuse its workspace).
  std::vector<SolveRequest> requests;
  Rng rng(4242);
  for (const auto family : all_workload_families()) {
    GeneratorOptions options;
    options.tasks = 20;
    options.machines = 10;
    const auto handle = InstanceHandle::intern(generate_instance(family, options, rng.fork_seed()));
    requests.emplace_back("mrt", SolverOptions::from_string(""), handle);
    requests.emplace_back("mrt", SolverOptions::from_string("snap=1"), handle);
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    ServiceConfig config;
    config.threads = threads;
    SchedulerService service(config);
    const auto tickets = service.submit(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto outcome = service.wait(tickets[i]);
      ASSERT_EQ(outcome.status, SolveStatus::kOk);
      const auto& batch = outcome.result;
      ASSERT_TRUE(batch);
      const auto direct = SolverRegistry::global().solve(requests[i]);
      const std::string what =
          "request " + std::to_string(i) + " threads " + std::to_string(threads);
      EXPECT_EQ(batch->makespan, direct.makespan) << what;
      EXPECT_EQ(batch->lower_bound, direct.lower_bound) << what;
      EXPECT_EQ(batch->ratio, direct.ratio) << what;
      expect_same_schedule(batch->schedule, direct.schedule, what);
    }
  }
}

// ------------------------------------------------------- allocation audit

TEST(DualWorkspace, DualStepsAreAllocationFreeAfterWarmUp) {
  GeneratorOptions options;
  options.tasks = 40;
  options.machines = 24;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 7);
  DualWorkspace workspace(instance);
  MrtOptions mrt;

  const double lb = makespan_lower_bound(instance);
  const auto sweep = [&] {
    for (const double factor : {0.6, 0.9, 1.0, 1.05, 1.2, 1.6, 2.4, 4.0}) {
      (void)mrt_dual_step(workspace, lb * factor, mrt);
    }
  };
  sweep();  // warm-up populates every scratch buffer
  const auto warmed = workspace.stats();
  sweep();
  sweep();
  const auto after = workspace.stats();
  EXPECT_EQ(after.alloc_events, warmed.alloc_events)
      << "scratch buffers grew after warm-up";
  EXPECT_GT(after.canonical_hits, warmed.canonical_hits);  // branches shared the step's allotment
}

// ------------------------------------------------------------ snapped search

class SnappedSearchTest : public ::testing::TestWithParam<int> {};

TEST_P(SnappedSearchTest, StaysSoundAndWithinTheGuarantee) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  long long default_iterations = 0;
  long long snapped_iterations = 0;
  for (int trial = 0; trial < 8; ++trial) {
    GeneratorOptions options;
    options.tasks = 18;
    options.machines = 10;
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, rng.fork_seed());

    MrtOptions plain;
    MrtOptions snapped;
    snapped.snap_to_breakpoints = true;
    const auto a = mrt_schedule(instance, plain);
    const auto b = mrt_schedule(instance, snapped);
    default_iterations += a.iterations;
    snapped_iterations += b.iterations;

    const auto report = validate_schedule(b.schedule, instance);
    ASSERT_TRUE(report.ok) << report.str();
    EXPECT_GE(b.lower_bound, makespan_lower_bound(instance) - 1e-12);
    EXPECT_TRUE(leq(b.makespan, kSqrt3 * (1.0 + plain.search.epsilon) * b.lower_bound * 1.02))
        << "ratio " << b.ratio;
    EXPECT_EQ(b.gaps, 0);
    // Both searches bracket the same optimum within (1+eps) of each other.
    EXPECT_TRUE(leq(b.final_guess, a.final_guess * (1.0 + plain.search.epsilon) * 1.01));
  }
  // The analytic Property-2 prefilter skips the ramp's certified rejections;
  // across a batch the snapped search must not need more dual steps.
  EXPECT_LE(snapped_iterations, default_iterations + 4);
}

TEST_P(SnappedSearchTest, CertifiedBoundNeverContradictsBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratorOptions options;
    options.tasks = 4;
    options.machines = 4;
    options.seq_time_lo = 0.5;
    options.seq_time_hi = 4.0;
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, rng.fork_seed());
    const auto brute = brute_force_schedule(instance);
    ASSERT_TRUE(brute.has_value());

    MrtOptions snapped;
    snapped.snap_to_breakpoints = true;
    const auto result = mrt_schedule(instance, snapped);
    // The certified bound claims OPT >= lower_bound; brute force exhibits a
    // schedule of length brute->makespan, so the claim must stay below it.
    EXPECT_TRUE(leq(result.lower_bound, brute->makespan))
        << "certified " << result.lower_bound << " vs OPT " << brute->makespan;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnappedSearchTest, ::testing::Values(1, 2, 3));

// ------------------------------------------------------------ registry keys

TEST(DualWorkspace, RegistryExposesWorkspaceCounters) {
  GeneratorOptions options;
  options.tasks = 16;
  options.machines = 8;
  const auto instance = generate_instance(WorkloadFamily::kBimodal, options, 3);
  const auto fast = solve("mrt", instance);
  EXPECT_GE(fast.stat("workspace.canonical_evals", -1.0), 1.0);
  EXPECT_GE(fast.stat("workspace.allocations", -1.0), 0.0);
  const auto snapped = solve("mrt", instance, SolverOptions::from_string("snap=1"));
  EXPECT_GE(snapped.stat("workspace.canonical_evals", -1.0), 1.0);
  EXPECT_GE(snapped.stat("workspace.allocations", -1.0), 0.0);
}

}  // namespace
}  // namespace malsched
