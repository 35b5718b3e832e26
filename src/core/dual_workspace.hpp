#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/dual_approx.hpp"
#include "core/two_shelf.hpp"
#include "model/instance.hpp"
#include "sched/availability_tree.hpp"

/// Reusable scratch state for the dual-approximation hot loop.
///
/// A DualWorkspace holds what the branches of one dual step share and what
/// a whole dichotomic search can reuse:
///
///   * the canonical allotment of the current guess, computed once per step
///     into a reused buffer (the branches re-request the same deadline and
///     hit the cache) by the same per-task MalleableTask::min_procs_for loop
///     canonical_allotment() runs, so both are byte-identical by
///     construction,
///   * the one decreasing-time sort per step that canonical_area and the
///     canonical list algorithm share,
///   * reusable branch scratch (two-shelf partitions, knapsack DP tables,
///     list-scheduler availability buffers), so a *rejected* dual step
///     performs no heap allocation at all after warm-up and an accepted one
///     allocates only the returned Schedule (audited by alloc_events), and
///   * the snap domain of the breakpoint-snapped dual search.
///
/// The const Instance& overloads of the dual step and its branches build a
/// local workspace and run the same code, so there is one implementation per
/// branch.
///
/// A workspace is single-threaded mutable scratch: create one per solve (the
/// mrt scheduler does) and never share it across threads. The referenced
/// Instance must outlive the workspace.
namespace malsched {

/// Running counters behind the workspace's "allocation-free after warm-up"
/// claim; exported per solve through MrtResult and the bench artifact.
struct DualWorkspaceStats {
  long long canonical_evals{0};  ///< canonical allotments actually computed
  long long canonical_hits{0};   ///< served from the same-deadline cache
  long long alloc_events{0};     ///< scratch buffer growths (incl. sub-scratches)
};

class DualWorkspace {
 public:
  explicit DualWorkspace(const Instance& instance);

  DualWorkspace(const DualWorkspace&) = delete;
  DualWorkspace& operator=(const DualWorkspace&) = delete;

  [[nodiscard]] const Instance& instance() const noexcept { return *instance_; }

  /// The canonical allotment at `deadline`, computed into a reused internal
  /// buffer (cached when `deadline` repeats) by fill_canonical_allotment --
  /// byte-identical to canonical_allotment(instance(), deadline). The
  /// reference is invalidated by the next canonical() call with a different
  /// deadline.
  [[nodiscard]] const CanonicalAllotment& canonical(double deadline);

  /// Task order by non-increasing t_i(gamma_i) for the *current* canonical
  /// allotment -- the one sort per dual step that canonical_area and the
  /// canonical list algorithm share. Requires a feasible canonical().
  [[nodiscard]] std::span<const int> canonical_order();

  /// Merged strictly-increasing snap domain of task-profile breakpoints (the
  /// deadlines where some gamma_i changes), computed from the profiles on
  /// first use and capped by an even per-task sample on very large
  /// instances -- it only steers the snapped search, every probe
  /// re-evaluates real predicates.
  [[nodiscard]] std::span<const double> merged_breakpoints();

  /// Smallest snap-domain breakpoint that Property 2 does not certify as
  /// infeasible (canonical allotment fits m processors, canonical work fits
  /// m*d), found by bisecting merged_breakpoints() with the *real*
  /// certificate predicate -- so points below it that were probed are
  /// genuinely certified rejections.
  [[nodiscard]] double first_plausible_deadline();

  [[nodiscard]] TwoShelfScratch& two_shelf_scratch() noexcept { return two_shelf_scratch_; }
  [[nodiscard]] CanonicalListScratch& list_scratch() noexcept { return list_scratch_; }

  /// Counter snapshot with alloc_events aggregated over all sub-scratches.
  [[nodiscard]] DualWorkspaceStats stats() const;

 private:
  const Instance* instance_;

  // Canonical-allotment cache and the shared per-step sort.
  CanonicalAllotment canonical_;
  bool canonical_valid_{false};
  std::uint64_t generation_{0};
  std::uint64_t order_generation_{static_cast<std::uint64_t>(-1)};
  std::vector<int> order_;
  std::vector<double> canonical_times_;

  // Lazily built snap domain + Property-2 prefilter (-1 = not yet computed).
  bool merged_built_{false};
  std::vector<double> merged_;
  double first_plausible_{-1.0};

  TwoShelfScratch two_shelf_scratch_;
  CanonicalListScratch list_scratch_;
  DualWorkspaceStats stats_;
};

/// Breakpoint-snapped dual search: same contract as dual_search (and the
/// same soundness discipline -- only certificates evaluated with the real
/// Property-2 predicate ever tighten the reported lower bound), but the
/// guesses are steered by the workspace's snap domain instead of blind
/// geometric ramping: phase 1 starts at the analytically smallest
/// non-certified deadline (skipping every provably rejected guess), and
/// phase 2 bisects the merged breakpoint *indices* inside the bracket before
/// finishing geometrically. Schedules differ from dual_search only through
/// the different guess sequence; the certified bound stays sound and the
/// final bracket still satisfies hi <= (1+epsilon)*lo.
[[nodiscard]] DualSearchResult dual_search_snapped(DualWorkspace& workspace,
                                                   const DualStep& step,
                                                   const DualSearchOptions& options = {});

}  // namespace malsched
