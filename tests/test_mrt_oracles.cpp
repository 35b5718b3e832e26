// Oracles for the mrt solver.
//
// Golden outcomes: makespan and certified lower bound (as hex floats), dual
// iterations, and per-branch counts for the default dual search and the
// breakpoint-snapped one (snap=1), over 24 seeded instances. The instances
// are drawn from Rng with + - * / only -- no libm call -- so their bits
// reproduce on every IEEE-754 host, and the solver itself uses only
// correctly rounded sqrt/floor/ceil. Any change to these numbers is a
// change of solver outcome; a refactor must leave them untouched. On a
// mismatch the failure message prints the observed row in table form.
//
// Exact-search oracle: on instances small enough for brute force (m <= 4,
// n <= 5), both dual searches must certify a lower bound no larger than the
// brute-force makespan, stay within sqrt(3)(1+eps) of it, and hit no gap.
// Brute force only bounds OPT from above, so any failure is a real bug.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mrt_scheduler.hpp"
#include "sched/exact_small.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

/// One monotone profile: t(p) non-increasing, p*t(p) non-decreasing.
std::vector<double> golden_profile(Rng& rng, int machines) {
  const double seq = rng.uniform(0.5, 8.0);
  std::vector<double> times(static_cast<std::size_t>(machines));
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // Amdahl: serial fraction f
      const double f = rng.next_double();
      for (int p = 1; p <= machines; ++p) {
        times[static_cast<std::size_t>(p - 1)] = seq * (f + (1.0 - f) / p);
      }
      break;
    }
    case 1: {  // linear speedup up to k processors, then a plateau
      const auto k = static_cast<int>(rng.uniform_int(1, machines));
      for (int p = 1; p <= machines; ++p) {
        times[static_cast<std::size_t>(p - 1)] = seq / std::min(p, k);
      }
      break;
    }
    case 2:  // sequential only
      std::fill(times.begin(), times.end(), seq);
      break;
    default: {  // random steps between flat and perfectly linear
      times[0] = seq;
      for (int p = 2; p <= machines; ++p) {
        const double u = rng.next_double();
        times[static_cast<std::size_t>(p - 1)] =
            times[static_cast<std::size_t>(p - 2)] * ((p - 1) + u) / p;
      }
      break;
    }
  }
  return times;
}

Instance golden_instance(std::uint64_t seed, int tasks, int machines) {
  Rng rng(seed);
  std::vector<MalleableTask> list;
  for (int i = 0; i < tasks; ++i) list.emplace_back(golden_profile(rng, machines));
  return Instance(machines, std::move(list));
}

struct GoldenOutcome {
  double makespan;
  double lower_bound;
  int iterations;
  std::array<int, kDualBranchCount> branches;  ///< indexed by DualBranch
};

struct GoldenCase {
  std::uint64_t seed;
  int tasks;
  int machines;
  GoldenOutcome search;   ///< default dual search
  GoldenOutcome snapped;  ///< snap_to_breakpoints
};

// Shapes: n << m (single shelf), n <= m (two-shelf knapsack), n >> m
// (canonical list), m <= 6 (malleable list).
const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
    {1, 4, 16,
     {0x1.716708ec7d954p+2, 0x1.716708ec7d954p+2, 1, {0, 1, 0, 0, 0, 0, 0}},
     {0x1.716708ec7d954p+2, 0x1.716708ec7d954p+2, 1, {0, 1, 0, 0, 0, 0, 0}}},
    {8, 8, 24,
     {0x1.e59044fb8c26dp+2, 0x1.e59044fb8c26dp+2, 1, {0, 1, 0, 0, 0, 0, 0}},
     {0x1.e59044fb8c26dp+2, 0x1.e59044fb8c26dp+2, 1, {0, 1, 0, 0, 0, 0, 0}}},
    {5, 12, 48,
     {0x1.87360dc1898cp+2, 0x1.85a6a89f06bc9p+2, 9, {1, 8, 0, 0, 0, 0, 0}},
     {0x1.4bc5f328b56dbp+3, 0x1.85acdb8c89113p+2, 1, {0, 0, 1, 0, 0, 0, 0}}},
    {7, 20, 32,
     {0x1.b1087f80e748p+2, 0x1.af2b61a267e35p+2, 9, {1, 8, 0, 0, 0, 0, 0}},
     {0x1.6f2cc1a7a9ebcp+3, 0x1.af4124fd58b9p+2, 1, {0, 0, 1, 0, 0, 0, 0}}},
    {2006, 4, 8,
     {0x1.3060339704f7dp+2, 0x1.1f0756c3fb58bp+2, 9, {4, 3, 2, 0, 0, 0, 0}},
     {0x1.afd2839fcf02cp+2, 0x1.1e62f3d2af4fep+2, 2, {1, 0, 1, 0, 0, 0, 0}}},
    {2011, 4, 8,
     {0x1.a953dfb110293p+1, 0x1.7cc760cb05488p+1, 9, {2, 2, 4, 0, 1, 0, 0}},
     {0x1.a953dfb110293p+1, 0x1.7ab314df4dbc6p+1, 5, {1, 1, 3, 0, 0, 0, 0}}},
    {2014, 7, 12,
     {0x1.e369c0b026162p+1, 0x1.e326238d7dd3dp+1, 9, {4, 1, 2, 0, 2, 0, 0}},
     {0x1.83f9f2c55c408p+2, 0x1.e0eada6e3f8bfp+1, 2, {1, 0, 1, 0, 0, 0, 0}}},
    {2013, 10, 12,
     {0x1.05ec9b56cea1ap+2, 0x1.f4f699adbe5b5p+1, 9, {4, 1, 2, 0, 2, 0, 0}},
     {0x1.05ec9b56cea1ap+2, 0x1.f5a8e822412e9p+1, 4, {0, 0, 3, 0, 1, 0, 0}}},
    {2039, 4, 8,
     {0x1.44f4771ed1997p+1, 0x1.1a22e0aef14d9p+1, 9, {3, 1, 3, 0, 2, 0, 0}},
     {0x1.44f4771ed1997p+1, 0x1.19c684afab4c7p+1, 5, {0, 0, 3, 0, 2, 0, 0}}},
    {25, 40, 256,
     {0x1.dd7c9350bbbb8p+2, 0x1.db8868333981dp+2, 9, {1, 8, 0, 0, 0, 0, 0}},
     {0x1.94983a869647ep+3, 0x1.db8930cb8bf3dp+2, 1, {0, 0, 1, 0, 0, 0, 0}}},
    {37, 80, 256,
     {0x1.d66df4a2ca064p+2, 0x1.d3e92de92d6e6p+2, 9, {1, 8, 0, 0, 0, 0, 0}},
     {0x1.93382259c2d82p+3, 0x1.d3ea43119add1p+2, 1, {0, 0, 1, 0, 0, 0, 0}}},
    {9, 40, 8,
     {0x1.95a71448db131p+4, 0x1.89886045dec12p+4, 1, {0, 0, 0, 0, 1, 0, 0}},
     {0x1.95a71448db131p+4, 0x1.89886045dec12p+4, 1, {0, 0, 0, 0, 1, 0, 0}}},
    {10, 60, 12,
     {0x1.5cae727f4f059p+4, 0x1.548c4b0888fe5p+4, 1, {0, 0, 0, 0, 1, 0, 0}},
     {0x1.5cae727f4f059p+4, 0x1.548c4b0888fe5p+4, 1, {0, 0, 0, 0, 1, 0, 0}}},
    {11, 30, 6,
     {0x1.6e421bcb6ee7bp+4, 0x1.67852783078b7p+4, 1, {0, 0, 0, 0, 1, 0, 0}},
     {0x1.6e421bcb6ee7bp+4, 0x1.67852783078b7p+4, 1, {0, 0, 0, 0, 1, 0, 0}}},
    {13, 10, 3,
     {0x1.d0b7e4d7d71dcp+3, 0x1.b002417bf946fp+3, 1, {0, 0, 0, 0, 1, 0, 0}},
     {0x1.d0b7e4d7d71dcp+3, 0x1.b002417bf946fp+3, 1, {0, 0, 0, 0, 1, 0, 0}}},
    {2007, 4, 12,
     {0x1.6e516a45e5cd6p+1, 0x1.4d0126c61bba9p+1, 9, {4, 1, 3, 0, 1, 0, 0}},
     {0x1.079d19a353e8p+2, 0x1.4b03190ae6739p+1, 5, {2, 0, 3, 0, 0, 0, 0}}},
    {23, 150, 64,
     {0x1.62698a06a8c46p+3, 0x1.4f6a7bec80503p+3, 1, {0, 0, 0, 0, 1, 0, 0}},
     {0x1.62698a06a8c46p+3, 0x1.4f6a7bec80503p+3, 1, {0, 0, 0, 0, 1, 0, 0}}},
    {15, 9, 5,
     {0x1.e461c488e4f81p+2, 0x1.e20bb79ce403fp+2, 9, {4, 0, 0, 0, 5, 0, 0}},
     {0x1.e461c488e4f81p+2, 0x1.dfd91d95a1d1bp+2, 4, {3, 0, 0, 0, 1, 0, 0}}},
    {1207, 2, 6,
     {0x1.d99f82aaee8a5p+0, 0x1.ce6e2f2c82ba9p+0, 9, {4, 3, 0, 0, 0, 2, 0}},
     {0x1.d99f82aaee8a5p+0, 0x1.d060ca2b5e33ep+0, 3, {1, 1, 0, 0, 1, 0, 0}}},
    {3565, 2, 5,
     {0x1.2a441e0393c74p+0, 0x1.2840f113697fep+0, 9, {5, 3, 0, 0, 0, 1, 0}},
     {0x1.2a441e0393c74p+0, 0x1.28006cfb47caep+0, 2, {1, 1, 0, 0, 0, 0, 0}}},
    {5758, 2, 5,
     {0x1.4295a049e74fbp+1, 0x1.3c1d7de774a7fp+1, 9, {4, 3, 0, 0, 1, 1, 0}},
     {0x1.4295a049e74fbp+1, 0x1.3c20f0ef9dc63p+1, 4, {1, 1, 0, 0, 1, 1, 0}}},
    {4585, 2, 6,
     {0x1.6ad4a891ce49p-1, 0x1.577913ce27283p-1, 9, {5, 2, 0, 0, 1, 1, 0}},
     {0x1.6ad4a891ce49p-1, 0x1.589440e5f0a52p-1, 5, {1, 1, 0, 0, 3, 0, 0}}},
    {7640, 2, 6,
     {0x1.b66b66215b9edp+0, 0x1.a089d7fb0351cp+0, 9, {2, 4, 0, 0, 3, 0, 0}},
     {0x1.b66b66215b9edp+0, 0x1.9e49f59dfc243p+0, 4, {0, 1, 0, 0, 2, 1, 0}}},
    {5071, 2, 6,
     {0x1.6778284718706p-1, 0x1.c1536bca1dc07p-2, 1, {0, 0, 0, 0, 0, 1, 0}},
     {0x1.df4ae05ecb408p-2, 0x1.c1536bca1dc07p-2, 4, {0, 1, 0, 0, 3, 0, 0}}},
  };
  return cases;
}

std::string row(const GoldenOutcome& o) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{%a, %a, %d, {%d, %d, %d, %d, %d, %d, %d}}", o.makespan,
                o.lower_bound, o.iterations, o.branches[0], o.branches[1], o.branches[2],
                o.branches[3], o.branches[4], o.branches[5], o.branches[6]);
  return buf;
}

GoldenOutcome observe(const Instance& instance, bool snap) {
  MrtOptions options;
  options.snap_to_breakpoints = snap;
  const auto result = mrt_schedule(instance, options);
  return {result.makespan, result.lower_bound, result.iterations, result.branch_counts};
}

bool same(const GoldenOutcome& a, const GoldenOutcome& b) {
  return a.makespan == b.makespan && a.lower_bound == b.lower_bound &&
         a.iterations == b.iterations && a.branches == b.branches;
}

class MrtGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MrtGoldenTest, OutcomesAreUnchangedToTheBit) {
  const auto& golden = golden_cases()[GetParam()];
  const auto instance = golden_instance(golden.seed, golden.tasks, golden.machines);
  const auto search = observe(instance, false);
  const auto snapped = observe(instance, true);
  EXPECT_TRUE(same(search, golden.search) && same(snapped, golden.snapped))
      << "observed row\n  {" << golden.seed << ", " << golden.tasks << ", "
      << golden.machines << ",\n   " << row(search) << ",\n   " << row(snapped) << "},";
}

INSTANTIATE_TEST_SUITE_P(Cases, MrtGoldenTest,
                         ::testing::Range(std::size_t{0}, golden_cases().size()));

TEST(MrtGolden, CasesFireEveryConstructiveBranch) {
  // The table is only a regression pin for the branches it exercises.
  ASSERT_EQ(golden_cases().size(), 24u);
  std::array<int, kDualBranchCount> total{};
  for (const auto& golden : golden_cases()) {
    for (int b = 0; b < kDualBranchCount; ++b) {
      total[static_cast<std::size_t>(b)] += golden.search.branches[static_cast<std::size_t>(b)] +
                                            golden.snapped.branches[static_cast<std::size_t>(b)];
    }
  }
  for (const auto branch : {DualBranch::kSingleShelf, DualBranch::kTwoShelfKnapsack,
                            DualBranch::kCanonicalList, DualBranch::kMalleableList}) {
    EXPECT_GT(total[static_cast<std::size_t>(branch)], 0) << to_string(branch);
  }
}

// ------------------------------------------------------- exact-search oracle

void expect_within_brute_force(const Instance& instance, const std::string& what) {
  const auto brute = brute_force_schedule(instance);
  ASSERT_TRUE(brute.has_value()) << what;
  for (const bool snap : {false, true}) {
    MrtOptions options;
    options.snap_to_breakpoints = snap;
    const auto result = mrt_schedule(instance, options);
    const std::string label = what + (snap ? " (snapped)" : " (default)");
    EXPECT_TRUE(leq(result.lower_bound, brute->makespan))
        << label << ": certified " << result.lower_bound << " vs brute force "
        << brute->makespan;
    EXPECT_TRUE(leq(result.makespan,
                    kSqrt3 * (1.0 + options.search.epsilon) * brute->makespan))
        << label << ": makespan " << result.makespan << " vs brute force " << brute->makespan;
    EXPECT_EQ(result.gaps, 0) << label;
  }
}

TEST(MrtExactOracle, GeneratorFamilies) {
  for (const auto family : all_workload_families()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      GeneratorOptions options;
      options.tasks = 2 + static_cast<int>(seed);
      options.machines = 5 - static_cast<int>(seed);
      expect_within_brute_force(generate_instance(family, options, seed),
                                to_string(family) + " seed " + std::to_string(seed));
    }
  }
}

TEST(MrtExactOracle, RandomMonotoneProfiles) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const int machines = 2 + static_cast<int>(seed % 3);
    const int tasks = machines == 4 ? 4 : 5;
    expect_within_brute_force(golden_instance(seed, tasks, machines),
                              "random seed " + std::to_string(seed));
  }
}

TEST(MrtExactOracle, PlateauFixtures) {
  const std::vector<std::vector<double>> fixtures = {
      {4.0, 4.0, 4.0, 4.0},                  // flat
      {8.0, 4.0, 4.0, 4.0},                  // plateau after one step
      {1.0 + 1e-10, 1.0, 1.0 - 1e-13, 0.75},  // near-ties at the tolerance
      {6.0, 3.0, 2.0, 2.0},                  // linear, then flat
  };
  for (std::size_t a = 0; a < fixtures.size(); ++a) {
    for (std::size_t b = a; b < fixtures.size(); ++b) {
      std::vector<MalleableTask> tasks;
      tasks.emplace_back(fixtures[a]);
      tasks.emplace_back(fixtures[b]);
      tasks.emplace_back(fixtures[(a + b) % fixtures.size()]);
      tasks.emplace_back(std::vector<double>{2.0, 1.0, 1.0, 1.0});
      expect_within_brute_force(Instance(4, std::move(tasks)),
                                "fixtures " + std::to_string(a) + "," + std::to_string(b));
    }
  }
}

}  // namespace
}  // namespace malsched
