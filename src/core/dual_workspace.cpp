#include "core/dual_workspace.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "model/lower_bounds.hpp"
#include "support/math_utils.hpp"

namespace malsched {

namespace {

/// Deadline from which leq(a, d) holds: leq(a, .) is monotone non-decreasing
/// on [0, inf) (its right side d + kRelEps*max(a, d, 1) + kAbsEps is), so the
/// accepting deadlines form a half-line starting near d* = a -
/// kRelEps*max(a, 1) - kAbsEps (at the boundary d is within an ulp of a, so
/// the comparison scale max(a, d, 1) resolves to max(a, 1)). Exact up to a
/// few ulps of rounding -- plenty for a snap domain that only steers the
/// search.
double leq_threshold(double a) {
  const double c = a >= 1.0 ? a * (1.0 - kRelEps) - kAbsEps : a - kRelEps - kAbsEps;
  return c > 0.0 ? c : 0.0;
}

}  // namespace

DualWorkspace::DualWorkspace(const Instance& instance) : instance_(&instance) {
  const auto n = static_cast<std::size_t>(instance.size());
  canonical_.procs.reserve(n);
  order_.reserve(n);
  canonical_times_.reserve(n);
}

const CanonicalAllotment& DualWorkspace::canonical(double deadline) {
  if (canonical_valid_ && canonical_.deadline == deadline) {
    ++stats_.canonical_hits;
    return canonical_;
  }
  ++stats_.canonical_evals;
  ++generation_;
  canonical_valid_ = true;
  fill_canonical_allotment(*instance_, deadline, canonical_);
  return canonical_;
}

std::span<const int> DualWorkspace::canonical_order() {
  if (!canonical_valid_ || !canonical_.feasible) {
    throw std::logic_error("DualWorkspace::canonical_order: no feasible canonical allotment");
  }
  if (order_generation_ == generation_) return {order_.data(), order_.size()};

  const auto n = static_cast<std::size_t>(instance_->size());
  detail::resize_counted(canonical_times_, n, stats_.alloc_events);
  // gamma_i <= max_procs by construction, so the profile is indexed directly.
  for (std::size_t i = 0; i < n; ++i) {
    const auto& times = instance_->task(static_cast<int>(i)).profile();
    canonical_times_[i] = times[static_cast<std::size_t>(canonical_.procs[i]) - 1];
  }
  detail::resize_counted(order_, n, stats_.alloc_events);
  std::iota(order_.begin(), order_.end(), 0);
  // order_by_decreasing_alloted_time uses std::stable_sort on the
  // decreasing-time key (ties keep the lower index first). std::sort with the
  // explicit index tie-break yields that exact permutation without
  // stable_sort's internal temporary buffer, keeping the step
  // allocation-free.
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const double ta = canonical_times_[static_cast<std::size_t>(a)];
    const double tb = canonical_times_[static_cast<std::size_t>(b)];
    if (ta != tb) return ta > tb;
    return a < b;
  });
  order_generation_ = generation_;
  return {order_.data(), order_.size()};
}

std::span<const double> DualWorkspace::merged_breakpoints() {
  if (merged_built_) return {merged_.data(), merged_.size()};
  merged_built_ = true;

  // Snap domain for the breakpoint-bisecting search. It is a *navigation
  // grid*, not a correctness surface (every probe re-evaluates the real
  // predicates), so it is capped: past the cap each task contributes an
  // evenly strided sample of its breakpoints, keeping the one-time sort
  // O(cap log cap) instead of O(n*m log(n*m)) on 10k-task instances.
  constexpr std::size_t kSnapDomainCap = 8192;
  std::size_t total = 0;
  for (const auto& task : instance_->tasks()) total += task.profile().size();
  const std::size_t stride =
      total <= kSnapDomainCap ? 1 : (total + kSnapDomainCap - 1) / kSnapDomainCap;
  merged_.clear();
  merged_.reserve(total / stride + static_cast<std::size_t>(instance_->size()));
  std::vector<double> thresholds;
  for (const auto& task : instance_->tasks()) {
    const auto& times = task.profile();
    thresholds.resize(times.size());
    std::transform(times.begin(), times.end(), thresholds.begin(), leq_threshold);
    // Strictly decreasing thresholds (virtually every real profile) are
    // sampled in profile order. Otherwise (plateaus, tolerance-level
    // wiggles) gamma_i only changes at the distinct thresholds from the last
    // entry's up -- below it the task has no allotment at all -- sampled in
    // increasing order.
    if (std::adjacent_find(thresholds.begin(), thresholds.end(), std::less_equal<>{}) !=
        thresholds.end()) {
      const double feasible_from = thresholds.back();
      std::sort(thresholds.begin(), thresholds.end());
      thresholds.erase(std::unique(thresholds.begin(), thresholds.end()), thresholds.end());
      thresholds.erase(thresholds.begin(), std::lower_bound(thresholds.begin(), thresholds.end(),
                                                            feasible_from));
    }
    for (std::size_t k = 0; k < thresholds.size(); k += stride) merged_.push_back(thresholds[k]);
  }
  std::sort(merged_.begin(), merged_.end());
  merged_.erase(std::unique(merged_.begin(), merged_.end()), merged_.end());
  return {merged_.data(), merged_.size()};
}

double DualWorkspace::first_plausible_deadline() {
  if (first_plausible_ >= 0.0) return first_plausible_;
  const auto domain = merged_breakpoints();
  if (domain.empty()) {
    first_plausible_ = 0.0;
    return first_plausible_;
  }
  // Property-2 feasibility is monotone in d (the canonical allotment only
  // shrinks while the m*d budget grows), so bisect the snap domain with the
  // *real* predicate -- O(log |domain|) canonical evaluations. Certificates
  // callers claim from points below the result are genuine Property-2
  // evaluations, not extrapolations.
  const auto rejected = [&](double d) {
    return certified_infeasible(*instance_, canonical(d));
  };
  std::size_t lo = 0;
  std::size_t hi = domain.size() - 1;
  if (rejected(domain[hi])) {
    // Even the largest breakpoint is rejected. Past it the allotment is
    // constant, so the Property-2 crossing sits near total_work / m.
    const auto& last = canonical(domain[hi]);
    first_plausible_ =
        last.feasible
            ? std::max(domain[hi], last.total_work / static_cast<double>(instance_->machines()))
            : domain[hi];
    return first_plausible_;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (rejected(domain[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  first_plausible_ = domain[lo];
  return first_plausible_;
}

DualWorkspaceStats DualWorkspace::stats() const {
  DualWorkspaceStats out = stats_;
  out.alloc_events += two_shelf_scratch_.alloc_events + two_shelf_scratch_.knapsack.alloc_events +
                      list_scratch_.alloc_events;
  return out;
}

// ------------------------------------------------------------ snapped search

DualSearchResult dual_search_snapped(DualWorkspace& workspace, const DualStep& step,
                                     const DualSearchOptions& options) {
  if (!(options.epsilon > 0.0)) {
    throw std::invalid_argument("dual_search_snapped: epsilon must be positive");
  }
  const Instance& instance = workspace.instance();
  const double static_lb = makespan_lower_bound(instance);

  double certified_lb = static_lb;
  int iterations = 0;
  int gaps = 0;
  double final_guess = 0.0;

  std::optional<Schedule> best;
  double best_makespan = 0.0;
  const auto record_accept = [&](Schedule schedule) {
    const double makespan = schedule.makespan();
    if (!best || makespan < best_makespan) {
      best = std::move(schedule);
      best_makespan = makespan;
    }
  };
  const auto record_reject = [&](double guess, bool certified) {
    if (certified) {
      certified_lb = std::max(certified_lb, guess);
    } else {
      ++gaps;
    }
  };

  // Phase 1: start at the analytically smallest deadline Property 2 cannot
  // reject instead of ramping through certain rejections. The analytic value
  // only steers; before it may tighten the certified bound, the real
  // predicate is evaluated at a breakpoint just below it (soundness: a bound
  // moves only on an actual Property-2 certificate).
  const auto breakpoints = workspace.merged_breakpoints();
  double lo = static_lb;
  double hi = std::max(dual_ramp_start(instance), workspace.first_plausible_deadline());
  {
    const auto below = std::lower_bound(breakpoints.begin(), breakpoints.end(), hi);
    if (below != breakpoints.begin()) {
      const double probe = *std::prev(below);
      if (probe > lo &&
          certified_infeasible(instance, workspace.canonical(probe))) {
        certified_lb = std::max(certified_lb, probe);
        lo = probe;
      }
    }
  }
  bool have_hi = false;
  while (iterations < options.max_iterations && !have_hi) {
    options.cancel.poll();
    ++iterations;
    auto outcome = step(hi);
    if (outcome.schedule) {
      record_accept(std::move(*outcome.schedule));
      have_hi = true;
      final_guess = hi;
    } else {
      record_reject(hi, outcome.certified_reject);
      lo = hi;
      hi *= 2.0;
    }
  }
  if (!have_hi) {
    throw std::runtime_error(
        "dual_search_snapped: no guess accepted within the iteration budget");
  }

  // Phase 2: bisect the breakpoint *indices* inside (lo, hi) -- each probe
  // halves the number of candidate allotment changes in the bracket -- and
  // finish geometrically once the bracket is breakpoint-free.
  while (iterations < options.max_iterations && hi > lo * (1.0 + options.epsilon)) {
    options.cancel.poll();
    ++iterations;
    const auto first = std::upper_bound(breakpoints.begin(), breakpoints.end(), lo);
    const auto last = std::lower_bound(first, breakpoints.end(), hi);
    double mid;
    if (first != last) {
      mid = *(first + (last - first) / 2);
    } else {
      mid = std::sqrt(lo * hi);
      if (!(mid > lo) || !(mid < hi)) mid = lo + (hi - lo) / 2.0;
    }
    auto outcome = step(mid);
    if (outcome.schedule) {
      record_accept(std::move(*outcome.schedule));
      hi = mid;
      final_guess = mid;
    } else {
      record_reject(mid, outcome.certified_reject);
      lo = mid;
    }
  }

  const double ratio = certified_lb > 0.0 ? best_makespan / certified_lb : 1.0;
  return DualSearchResult{std::move(*best), best_makespan, certified_lb,
                          ratio,            final_guess,   iterations,
                          gaps};
}

}  // namespace malsched
