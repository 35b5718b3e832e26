#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/dual_approx.hpp"
#include "core/two_shelf.hpp"
#include "model/instance.hpp"

/// Breakpoint-indexed scratch state for the dual-approximation hot loop.
///
/// The canonical allotment gamma_i(d) of Section 2 is a step function of the
/// guess d: it can only change where some profile time t_i(p) crosses the
/// deadline, i.e. at the n*m task-profile breakpoints. A DualWorkspace holds
///
///   * a flattened structure-of-arrays index over every task profile
///     (contiguous per-task scans without vector-of-vector hops), built at
///     construction,
///   * per-task sorted breakpoint tables mapping a deadline straight to
///     gamma_i(d) -- with a per-task hint pointer the lookup is O(1)
///     amortized while the dichotomic search narrows its bracket. These are
///     built at most once per workspace, lazily: the first canonical
///     allotment is answered by the exact profile search, and the index is
///     built on the first lookup past it (the second dual step, the
///     two-shelf's lambda*d lookups, or the snapped search). A solve
///     accepted at its first guess never builds it, and
///   * reusable scratch buffers (the canonical allotment, the shared
///     canonical-area sort order, two-shelf partitions, knapsack DP tables,
///     list-scheduler availability buffers) so a *rejected* dual step
///     performs no heap allocation at all after warm-up and an accepted one
///     allocates only the returned Schedule.
///
/// Everything the workspace computes is byte-identical to the naive
/// recomputation it replaces: the breakpoint tables are built by replaying
/// MalleableTask::min_procs_for's exact binary-search probes on each
/// breakpoint segment (see dual_workspace.cpp), so gamma lookups, canonical
/// allotments, areas, and every schedule derived from them match the legacy
/// path bit for bit (tests/test_dual_workspace.cpp enforces this across all
/// generator families).
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
  long long lookup_probes{0};    ///< gamma lookups answered
  long long lookup_hits{0};      ///< ... answered by the hint pointer alone
  long long alloc_events{0};     ///< scratch buffer growths (incl. sub-scratches)
  long long index_builds{0};     ///< breakpoint index constructions (0 or 1)
};

namespace detail {

/// Resizes `vec`, counting an allocation event when capacity had to grow --
/// every workspace scratch buffer is resized through this so the
/// allocation-free claim stays auditable.
template <class Vec>
void resize_counted(Vec& vec, std::size_t size, long long& alloc_events) {
  if (vec.capacity() < size) ++alloc_events;
  vec.resize(size);
}

}  // namespace detail

class DualWorkspace {
 public:
  explicit DualWorkspace(const Instance& instance);

  DualWorkspace(const DualWorkspace&) = delete;
  DualWorkspace& operator=(const DualWorkspace&) = delete;

  [[nodiscard]] const Instance& instance() const noexcept { return *instance_; }

  /// Hint channels for the amortized-O(1) lookups: distinct deadline streams
  /// (the guess d vs. the two-shelf's lambda*d) get separate hint pointers so
  /// they do not evict each other.
  enum Channel : int { kPrimary = 0, kSecondary = 1 };
  static constexpr int kChannelCount = 2;

  /// gamma lookup, byte-identical to instance().task(task).min_procs_for(d)
  /// for every deadline >= 0 (the dual search never guesses below 0).
  [[nodiscard]] std::optional<int> min_procs_for(int task, double deadline,
                                                 Channel channel = kPrimary);

  /// t_task(procs) through the flattened profile index.
  [[nodiscard]] double time(int task, int procs) const {
    return profile_ptr_[static_cast<std::size_t>(task)][procs - 1];
  }

  /// The canonical allotment at `deadline`, computed into a reused internal
  /// buffer (cached when `deadline` repeats). Byte-identical to
  /// canonical_allotment(instance(), deadline); the reference is invalidated
  /// by the next canonical() call with a different deadline.
  [[nodiscard]] const CanonicalAllotment& canonical(double deadline);

  /// Task order by non-increasing t_i(gamma_i) for the *current* canonical
  /// allotment -- the one sort per dual step that canonical_area and the
  /// canonical list algorithm share. Requires a feasible canonical().
  [[nodiscard]] std::span<const int> canonical_order();

  /// t_i(gamma_i) keys matching canonical_order(). Requires canonical_order()
  /// to have been computed for the current allotment.
  [[nodiscard]] std::span<const double> canonical_times() const {
    return {canonical_times_.data(), canonical_times_.size()};
  }

  /// Merged strictly-increasing snap domain of task-profile breakpoints (the
  /// deadlines where some gamma_i changes); built lazily on first use and
  /// capped by an even per-task sample on very large instances -- it only
  /// steers the snapped search, every probe re-evaluates real predicates.
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
  [[nodiscard]] std::optional<int> indexed_min_procs(int task, double deadline,
                                                    Channel channel);
  [[nodiscard]] std::optional<int> strict_min_procs(int task, double deadline, Channel channel);
  [[nodiscard]] std::optional<int> exception_min_procs(int task, double deadline,
                                                      Channel channel);
  [[nodiscard]] std::optional<int> profile_min_procs(int task, double deadline) const;
  /// Builds the breakpoint index and the hint pointers on first call.
  void ensure_index();

  const Instance* instance_;
  int machines_;
  int task_count_;

  // Flattened profile index: task i's profile is the contiguous run
  // profile_ptr_[i][0 .. profile_len_[i]) inside the instance (no copy --
  // touching n*m fresh pages would dominate construction; per-task scans
  // are contiguous either way).
  std::vector<const double*> profile_ptr_;
  std::vector<int> profile_len_;

  // Breakpoint index, built by ensure_index() on the first lookup that is
  // not part of the first canonical allotment. For a task whose per-entry
  // deadline thresholds are strictly decreasing in p (virtually every real
  // profile), the threshold is a three-flop pure function of the profile
  // entry, so no table is materialized at all -- lookups evaluate it inline
  // on the SoA profile and the hint pointer caches the last gamma. Only
  // non-strict tasks (plateaus, tolerance-level wiggles) get explicit
  // segment tables below: within [exc_d_[j], exc_d_[j+1]) the legacy binary
  // search returns exc_gamma_[j].
  // Deadlines within a breakpoint's fuzz window re-run the exact profile
  // binary search instead of trusting either path (byte-identity without
  // exact threshold construction).
  bool index_built_{false};
  std::vector<char> strict_;     ///< per task: inline-threshold fast path?
  std::vector<int> exc_index_;   ///< per task: row in exc_begin_, or -1
  std::vector<std::size_t> exc_begin_;
  std::vector<double> exc_d_;
  std::vector<double> exc_fuzz_;
  std::vector<int> exc_gamma_;
  std::array<std::vector<std::uint32_t>, kChannelCount> hints_;

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
/// guesses are steered by the workspace's breakpoint index instead of blind
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
