#include "core/canonical.hpp"

#include <span>

#include "core/dual_workspace.hpp"
#include "sched/list_scheduler.hpp"
#include "support/math_utils.hpp"

namespace malsched {

CanonicalAllotment canonical_allotment(const Instance& instance, double deadline) {
  CanonicalAllotment result;
  fill_canonical_allotment(instance, deadline, result);
  return result;
}

void fill_canonical_allotment(const Instance& instance, double deadline,
                              CanonicalAllotment& out) {
  out.deadline = deadline;
  out.feasible = true;
  out.procs.clear();
  out.procs.reserve(static_cast<std::size_t>(instance.size()));
  out.total_work = 0.0;
  out.total_procs = 0;
  for (const auto& task : instance.tasks()) {
    const auto gamma = task.min_procs_for(deadline);
    if (!gamma || *gamma > instance.machines()) {
      out.feasible = false;
      out.procs.clear();
      out.total_work = 0.0;
      out.total_procs = 0;
      return;
    }
    out.procs.push_back(*gamma);
    out.total_work += task.work(*gamma);
    out.total_procs += *gamma;
  }
}

bool certified_infeasible(const Instance& instance, const CanonicalAllotment& allotment) {
  if (!allotment.feasible) return true;
  const double budget = static_cast<double>(instance.machines()) * allotment.deadline;
  return !leq(allotment.total_work, budget);
}

bool property1_holds(const MalleableTask& task, int gamma, double deadline) {
  if (gamma < 2) return true;
  const double bound =
      static_cast<double>(gamma - 1) / static_cast<double>(gamma) * deadline;
  return task.time(gamma) > bound - kAbsEps;
}

namespace {

/// Definition 1's stacking sum, shared by both canonical_area overloads:
/// `order` must list the tasks by non-increasing t_i(procs[i]) with ties on
/// the lower index (order_by_decreasing_alloted_time's order), or the
/// fractional cut lands on the wrong task.
double stacked_area(const Instance& instance, std::span<const int> order,
                    std::span<const int> procs) {
  const int machines = instance.machines();
  double area = 0.0;
  long long procs_used = 0;
  for (const int i : order) {
    const int gamma = procs[static_cast<std::size_t>(i)];
    const double time = instance.task(i).time(gamma);
    if (procs_used + gamma >= machines) {
      // Task k of Definition 1: only the slice up to processor m counts.
      area += static_cast<double>(machines - procs_used) * time;
      return area;
    }
    area += static_cast<double>(gamma) * time;
    procs_used += gamma;
  }
  return area;  // stacking never filled the first m processors
}

}  // namespace

double canonical_area(const Instance& instance, const CanonicalAllotment& allotment) {
  if (!allotment.feasible) return 0.0;
  return stacked_area(instance, order_by_decreasing_alloted_time(instance, allotment.procs),
                      allotment.procs);
}

double canonical_area(DualWorkspace& workspace, const CanonicalAllotment& allotment) {
  if (!allotment.feasible) return 0.0;
  return stacked_area(workspace.instance(), workspace.canonical_order(), allotment.procs);
}

double area_threshold(const Instance& instance, double deadline) {
  return kMu * static_cast<double>(instance.machines()) * deadline;
}

}  // namespace malsched
