#include "core/dual_workspace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "model/lower_bounds.hpp"
#include "support/math_utils.hpp"

namespace malsched {

namespace {

/// Deadline threshold of one profile entry: leq(a, .) is monotone
/// non-decreasing on [0, inf) (its right side d + kRelEps*max(a, d, 1) +
/// kAbsEps is), so the accepting deadlines form a half-line starting near
/// d* = a - kRelEps*max(a, 1) - kAbsEps (at the boundary d is within an ulp
/// of a, so the comparison scale max(a, d, 1) resolves to max(a, 1)). The
/// candidate is exact up to a few ulps of float rounding; lookups landing
/// inside the fuzz window around it re-run the profile binary search
/// instead, which keeps every answer byte-identical to
/// MalleableTask::min_procs_for without exact threshold computation. Three
/// flops -- cheap enough to recompute at lookup time instead of tabulating.
inline double leq_threshold(double a) {
  const double c = a >= 1.0 ? a * (1.0 - kRelEps) - kAbsEps : a - kRelEps - kAbsEps;
  return c > 0.0 ? c : 0.0;
}

/// Half-width of the ambiguity window around leq_threshold(a): hundreds of
/// ulps of the comparison scale, vastly wider than the candidate's real
/// error (a few ulps of float rounding) and still measure-zero for the dual
/// search's guesses.
inline double leq_threshold_fuzz(double a) { return 1e-13 * std::max(a, 1.0); }

/// Replays MalleableTask::min_procs_for's exact probe sequence, with every
/// predicate leq(times[mid-1], d) replaced by the equivalent
/// d >= thresholds[mid-1] (valid whenever d sits outside every threshold's
/// fuzz window). Identical probes, identical result.
int replay_min_procs(std::span<const double> thresholds, double d) {
  int lo = 1;
  int hi = static_cast<int>(thresholds.size());
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (d >= thresholds[static_cast<std::size_t>(mid) - 1]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

DualWorkspace::DualWorkspace(const Instance& instance)
    : instance_(&instance),
      machines_(instance.machines()),
      task_count_(instance.size()) {
  const auto n = static_cast<std::size_t>(task_count_);

  // Flattened profile index (pointers into the instance's own storage).
  profile_ptr_.resize(n);
  profile_len_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& profile = instance.task(static_cast<int>(i)).profile();
    profile_ptr_[i] = profile.data();
    profile_len_[i] = static_cast<int>(profile.size());
  }

  // The breakpoint index is NOT built here: a solve accepted at its first
  // guess evaluates one canonical allotment, which the exact profile search
  // answers in n*log(m) probes, while the build reads all n*m entries.
  // ensure_index() builds it on the first lookup past that allotment.
  canonical_.procs.reserve(n);
  order_.reserve(n);
  canonical_times_.reserve(n);
}

void DualWorkspace::ensure_index() {
  if (index_built_) return;
  index_built_ = true;
  ++stats_.index_builds;

  const auto n = static_cast<std::size_t>(task_count_);
  for (auto& hints : hints_) hints.assign(n, 0);
  strict_.assign(n, 1);
  exc_index_.assign(n, -1);
  exc_begin_.clear();
  exc_d_.clear();
  exc_fuzz_.clear();
  exc_gamma_.clear();
  exc_begin_.push_back(0);

  // A task whose per-entry thresholds strictly decrease in p needs no
  // materialized table: segment j's start is leq_threshold(t(j)) -- three
  // flops recomputed at lookup time -- so the build only *classifies*
  // each task with one read pass (no per-entry writes, which would dominate
  // the build through fresh-page traffic on 10k-task instances).
  std::vector<double> thresholds;  // scratch for the rare non-strict tasks
  std::vector<std::pair<double, double>> unique_d;
  for (std::size_t i = 0; i < n; ++i) {
    const double* times = profile_ptr_[i];
    const auto length = static_cast<std::size_t>(profile_len_[i]);
    bool strictly_decreasing = true;
    double previous = leq_threshold(times[0]);
    for (std::size_t k = 1; k < length && strictly_decreasing; ++k) {
      const double current = leq_threshold(times[k]);
      strictly_decreasing = current < previous;
      previous = current;
    }
    if (strictly_decreasing) continue;

    // General case (plateaus or tolerance-level wiggles): build an explicit
    // segment table. The legacy lookup first requires leq(times.back(), d):
    // deadlines below the last entry's threshold have no allotment at all,
    // so segments only start there (profiles are non-increasing up to
    // tolerance, hence the back threshold is the smallest up to the same
    // tolerance).
    strict_[i] = 0;
    exc_index_[i] = static_cast<int>(exc_begin_.size()) - 1;
    thresholds.resize(length);
    unique_d.clear();
    for (std::size_t k = 0; k < length; ++k) {
      const double a = times[k];
      thresholds[k] = leq_threshold(a);
      unique_d.emplace_back(thresholds[k], leq_threshold_fuzz(a));
    }
    std::sort(unique_d.begin(), unique_d.end());
    const double feasible_from = thresholds[length - 1];
    const std::size_t row_begin = exc_d_.size();
    for (const auto& [d, fz] : unique_d) {
      if (d < feasible_from) continue;
      if (exc_d_.size() > row_begin && exc_d_.back() == d) {
        // Exact tie (plateau): keep one segment, widest fuzz wins.
        exc_fuzz_.back() = std::max(exc_fuzz_.back(), fz);
        continue;
      }
      // Within [d, next breakpoint) every predicate d' >= thresholds[k] is
      // constant, so the replayed search result is the segment's gamma.
      exc_d_.push_back(d);
      exc_fuzz_.push_back(fz);
      exc_gamma_.push_back(replay_min_procs(thresholds, d));
    }
    exc_begin_.push_back(exc_d_.size());
  }
}

std::optional<int> DualWorkspace::profile_min_procs(int task, double deadline) const {
  // The same probes MalleableTask::min_procs_for performs, via the flat
  // index: answers the first canonical allotment before the breakpoint
  // index exists, and deadlines inside a breakpoint's fuzz window after.
  const double* times = profile_ptr_[static_cast<std::size_t>(task)];
  const int count = profile_len_[static_cast<std::size_t>(task)];
  if (!leq(times[count - 1], deadline)) return std::nullopt;
  int lo = 1;
  int hi = count;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (leq(times[mid - 1], deadline)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::optional<int> DualWorkspace::strict_min_procs(int task, double deadline, Channel channel) {
  const double* times = profile_ptr_[static_cast<std::size_t>(task)];
  const auto count = static_cast<std::size_t>(profile_len_[static_cast<std::size_t>(task)]);
  // Thresholds strictly decrease in p, so gamma(d) is the first p with
  // d >= leq_threshold(times[p-1]) -- all thresholds recomputed inline.
  const double back = leq_threshold(times[count - 1]);
  if (deadline < back - leq_threshold_fuzz(times[count - 1])) return std::nullopt;
  if (deadline <= back + leq_threshold_fuzz(times[count - 1])) {
    return profile_min_procs(task, deadline);  // feasibility boundary fuzz
  }

  ++stats_.lookup_probes;
  auto& hint = hints_[channel][static_cast<std::size_t>(task)];
  // gamma(d) is in [1, count]; the bisection narrows its bracket, so the
  // hinted gamma (or a neighbor) answers most lookups in O(1).
  const auto in_segment = [&](std::size_t g) {
    return deadline >= leq_threshold(times[g - 1]) &&
           (g == 1 || deadline < leq_threshold(times[g - 2]));
  };
  std::size_t g = hint;
  if (g < 1 || g > count) g = count;
  if (in_segment(g)) {
    ++stats_.lookup_hits;
  } else if (g < count && in_segment(g + 1)) {
    ++stats_.lookup_hits;
    ++g;
  } else if (g > 1 && in_segment(g - 1)) {
    ++stats_.lookup_hits;
    --g;
  } else {
    // replay_min_procs with the thresholds evaluated on the fly.
    std::size_t lo = 1;
    std::size_t hi = count;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (deadline >= leq_threshold(times[mid - 1])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    g = lo;
  }
  hint = static_cast<std::uint32_t>(g);
  // Boundary fuzz: within a window of either enclosing breakpoint the
  // inline thresholds are not trusted; the exact search answers instead.
  if (deadline <= leq_threshold(times[g - 1]) + leq_threshold_fuzz(times[g - 1]) ||
      (g > 1 &&
       deadline >= leq_threshold(times[g - 2]) - leq_threshold_fuzz(times[g - 2]))) {
    return profile_min_procs(task, deadline);
  }
  return static_cast<int>(g);
}

std::optional<int> DualWorkspace::exception_min_procs(int task, double deadline,
                                                      Channel channel) {
  const auto row = static_cast<std::size_t>(exc_index_[static_cast<std::size_t>(task)]);
  const std::size_t begin = exc_begin_[row];
  const std::size_t end = exc_begin_[row + 1];
  if (begin == end) return std::nullopt;
  if (deadline < exc_d_[begin]) {
    if (deadline >= exc_d_[begin] - exc_fuzz_[begin]) return profile_min_procs(task, deadline);
    return std::nullopt;
  }
  ++stats_.lookup_probes;
  const double* const d = exc_d_.data();
  const std::size_t count = end - begin;
  auto& hint = hints_[channel][static_cast<std::size_t>(task)];
  std::size_t j = hint;
  if (j >= count) j = count - 1;
  const auto in_segment = [&](std::size_t s) {
    return d[begin + s] <= deadline && (s + 1 == count || deadline < d[begin + s + 1]);
  };
  if (in_segment(j)) {
    ++stats_.lookup_hits;
  } else if (j + 1 < count && in_segment(j + 1)) {
    ++stats_.lookup_hits;
    ++j;
  } else if (j > 0 && in_segment(j - 1)) {
    ++stats_.lookup_hits;
    --j;
  } else {
    j = static_cast<std::size_t>(
            std::upper_bound(d + begin, d + end, deadline) - (d + begin)) -
        1;
  }
  hint = static_cast<std::uint32_t>(j);
  // Boundary fuzz as in the strict path.
  if (deadline <= exc_d_[begin + j] + exc_fuzz_[begin + j] ||
      (begin + j + 1 < end && deadline >= exc_d_[begin + j + 1] - exc_fuzz_[begin + j + 1])) {
    return profile_min_procs(task, deadline);
  }
  return exc_gamma_[begin + j];
}

std::optional<int> DualWorkspace::min_procs_for(int task, double deadline, Channel channel) {
  ensure_index();
  return indexed_min_procs(task, deadline, channel);
}

std::optional<int> DualWorkspace::indexed_min_procs(int task, double deadline,
                                                    Channel channel) {
  if (strict_[static_cast<std::size_t>(task)]) {
    return strict_min_procs(task, deadline, channel);
  }
  return exception_min_procs(task, deadline, channel);
}

const CanonicalAllotment& DualWorkspace::canonical(double deadline) {
  if (canonical_valid_ && canonical_.deadline == deadline) {
    ++stats_.canonical_hits;
    return canonical_;
  }
  ++stats_.canonical_evals;
  ++generation_;
  canonical_valid_ = true;
  // The first allotment without an index goes through the exact search;
  // every later one pays for the index once and then reads it.
  const bool exact = !index_built_ && stats_.canonical_evals == 1;
  if (!exact) ensure_index();

  // Mirrors canonical_allotment(instance, deadline) term for term (same
  // lookups, same accumulation order) so the totals match bit for bit.
  canonical_.deadline = deadline;
  canonical_.feasible = true;
  canonical_.procs.clear();
  canonical_.total_work = 0.0;
  canonical_.total_procs = 0;
  for (int i = 0; i < task_count_; ++i) {
    const auto gamma =
        exact ? profile_min_procs(i, deadline) : indexed_min_procs(i, deadline, kPrimary);
    if (!gamma || *gamma > machines_) {
      canonical_.feasible = false;
      canonical_.procs.clear();
      canonical_.total_work = 0.0;
      canonical_.total_procs = 0;
      return canonical_;
    }
    canonical_.procs.push_back(*gamma);
    canonical_.total_work += static_cast<double>(*gamma) * time(i, *gamma);
    canonical_.total_procs += *gamma;
  }
  return canonical_;
}

std::span<const int> DualWorkspace::canonical_order() {
  if (!canonical_valid_ || !canonical_.feasible) {
    throw std::logic_error("DualWorkspace::canonical_order: no feasible canonical allotment");
  }
  if (order_generation_ == generation_) return {order_.data(), order_.size()};

  const auto n = static_cast<std::size_t>(task_count_);
  detail::resize_counted(canonical_times_, n, stats_.alloc_events);
  for (std::size_t i = 0; i < n; ++i) {
    canonical_times_[i] = time(static_cast<int>(i), canonical_.procs[i]);
  }
  detail::resize_counted(order_, n, stats_.alloc_events);
  std::iota(order_.begin(), order_.end(), 0);
  // The legacy paths use std::stable_sort on the decreasing-time key (ties
  // keep the lower index first). std::sort with the explicit index
  // tie-break yields that exact permutation without stable_sort's internal
  // temporary buffer, keeping the step allocation-free.
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
  ensure_index();

  // Snap domain for the breakpoint-bisecting search. It is a *navigation
  // grid*, not a correctness surface (every probe re-evaluates the real
  // predicates), so it is capped: past the cap each task contributes an
  // evenly strided sample of its segment starts, keeping the one-time sort
  // O(cap log cap) instead of O(n*m log(n*m)) on 10k-task instances.
  constexpr std::size_t kSnapDomainCap = 8192;
  std::size_t total = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(task_count_); ++i) {
    total += static_cast<std::size_t>(profile_len_[i]);
  }
  const std::size_t stride =
      total <= kSnapDomainCap ? 1 : (total + kSnapDomainCap - 1) / kSnapDomainCap;
  merged_.clear();
  merged_.reserve(total / stride + static_cast<std::size_t>(task_count_));
  for (std::size_t i = 0; i < static_cast<std::size_t>(task_count_); ++i) {
    if (strict_[i]) {
      const double* times = profile_ptr_[i];
      for (std::size_t k = 0; k < static_cast<std::size_t>(profile_len_[i]); k += stride) {
        merged_.push_back(leq_threshold(times[k]));
      }
      continue;
    }
    const auto row = static_cast<std::size_t>(exc_index_[i]);
    for (std::size_t j = exc_begin_[row]; j < exc_begin_[row + 1]; j += stride) {
      merged_.push_back(exc_d_[j]);
    }
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
  // *real* predicate -- O(log |domain|) canonical evaluations, each answered
  // from the breakpoint tables. Certificates callers claim from points below
  // the result are genuine Property-2 evaluations, not extrapolations.
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
            ? std::max(domain[hi], last.total_work / static_cast<double>(machines_))
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
