#include "traced_mrt.hpp"

#include <array>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/malleable_list.hpp"
#include "core/mrt_scheduler.hpp"
#include "packing/shelf.hpp"
#include "sched/compaction.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "tracer.hpp"

namespace perfbench {

using namespace malsched;

namespace {

std::optional<Schedule> accept_if_within_bound(Schedule schedule, const Instance& instance,
                                               double deadline, const MrtOptions& options) {
  if (options.use_compaction) {
    const ScopedSpan span("sched.compact");
    schedule = compact_schedule(schedule, instance);
  }
  const ScopedSpan span("sched.validate");
  ValidationOptions validation;
  validation.makespan_bound = kSqrt3 * deadline;
  if (!validate_schedule(schedule, instance, validation).ok) return std::nullopt;
  return schedule;
}

std::optional<Schedule> single_shelf_schedule(const Instance& instance,
                                              const CanonicalAllotment& canonical) {
  ShelfAllocator shelf(instance.machines());
  Schedule schedule(instance.machines(), instance.size());
  for (int i = 0; i < instance.size(); ++i) {
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, 0.0, instance.task(i).time(gamma), *column, gamma);
  }
  return schedule;
}

/// mrt_dual_step(workspace, ...) with a span around each branch: the same
/// case split in the same order, so the outcome is identical.
MrtDualOutcome traced_dual_step(DualWorkspace& workspace, double deadline,
                                const MrtOptions& options) {
  const Instance& instance = workspace.instance();
  MrtDualOutcome outcome;
  const CanonicalAllotment* canonical = nullptr;
  {
    const ScopedSpan span("core.canonical");
    canonical = &workspace.canonical(deadline);
    if (certified_infeasible(instance, *canonical)) {
      outcome.branch = DualBranch::kRejected;
      outcome.certified_reject = true;
      return outcome;
    }
    outcome.canonical_area = canonical_area(workspace, *canonical);
    outcome.area_condition = leq(outcome.canonical_area, area_threshold(instance, deadline));
  }

  struct Attempt {
    DualBranch branch;
    Schedule schedule;
  };
  std::vector<Attempt> accepted;
  const auto consider = [&](DualBranch branch, std::optional<Schedule> schedule) {
    if (!schedule) return;
    auto checked = accept_if_within_bound(std::move(*schedule), instance, deadline, options);
    if (checked) accepted.push_back({branch, std::move(*checked)});
  };
  const auto done = [&] { return !accepted.empty() && !options.pick_best_branch; };

  if (canonical->total_procs <= instance.machines()) {
    std::optional<Schedule> schedule;
    {
      const ScopedSpan span("core.single_shelf");
      schedule = single_shelf_schedule(instance, *canonical);
    }
    consider(DualBranch::kSingleShelf, std::move(schedule));
  }
  const auto try_two_shelf = [&] {
    if (!options.enable_two_shelf || done()) return;
    TwoShelfOutcome result;
    {
      const ScopedSpan span("core.two_shelf");
      result = two_shelf_schedule(workspace, deadline, options.two_shelf);
    }
    if (result.schedule) {
      consider(result.used_trivial ? DualBranch::kTwoShelfTrivial
                                   : DualBranch::kTwoShelfKnapsack,
               std::move(result.schedule));
    }
  };
  const auto try_canonical_list = [&] {
    if (!options.enable_canonical_list || done()) return;
    CanonicalListOutcome result;
    {
      const ScopedSpan span("core.canonical_list");
      result = canonical_list_schedule(workspace, deadline, options.canonical_list);
    }
    consider(DualBranch::kCanonicalList, std::move(result.schedule));
  };
  if (outcome.area_condition) {
    try_canonical_list();
    try_two_shelf();
  } else {
    try_two_shelf();
    try_canonical_list();
  }
  if (options.enable_malleable_list && !done()) {
    std::optional<Schedule> schedule;
    {
      const ScopedSpan span("core.malleable_list");
      schedule = malleable_list_schedule(instance, deadline);
    }
    consider(DualBranch::kMalleableList, std::move(schedule));
  }

  if (accepted.empty()) {
    outcome.branch = DualBranch::kGap;
    return outcome;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < accepted.size(); ++i) {
    if (accepted[i].schedule.makespan() < accepted[best].schedule.makespan()) best = i;
  }
  outcome.branch = accepted[best].branch;
  outcome.schedule = std::move(accepted[best].schedule);
  return outcome;
}

/// The registry's "mrt" body (option parsing, cancellation, workspace
/// borrowing, dual search, stats) with spans.
SolverResult solve_traced(const Instance& instance, const SolverOptions& options,
                          const SolveContext& context) {
  const auto request = static_cast<std::uint64_t>(options.get_int(kTraceRequestOption, 0));
  const auto parent = static_cast<std::uint64_t>(options.get_int(kTraceParentOption, 0));
  const ScopedSpan solve("core.solve", request, parent);

  MrtOptions mrt;
  mrt.search.epsilon = options.get_double("epsilon", mrt.search.epsilon);
  mrt.use_compaction = options.get_bool("compaction", mrt.use_compaction);
  mrt.pick_best_branch = options.get_bool("pick_best_branch", mrt.pick_best_branch);
  mrt.enable_two_shelf = options.get_bool("two_shelf", mrt.enable_two_shelf);
  mrt.enable_canonical_list = options.get_bool("canonical_list", mrt.enable_canonical_list);
  mrt.enable_malleable_list = options.get_bool("malleable_list", mrt.enable_malleable_list);
  mrt.use_workspace = options.get_bool("workspace", mrt.use_workspace);
  mrt.snap_to_breakpoints = options.get_bool("snap", mrt.snap_to_breakpoints);
  if (!mrt.use_workspace) {
    throw std::invalid_argument("traced mrt: only the workspace path is traced");
  }
  const CancelCheck check(context.cancel, context.deadline_seconds);
  mrt.search.cancel = check;
  mrt.canonical_list.cancel = check;
  mrt.two_shelf.cancel = check;

  std::optional<DualWorkspace> local;
  DualWorkspace* workspace = nullptr;
  {
    const ScopedSpan span("core.workspace_build");
    if (context.workspace_provider) workspace = context.workspace_provider(instance);
    if (workspace == nullptr || &workspace->instance() != &instance) {
      local.emplace(instance);
      workspace = &*local;
    }
  }
  const DualWorkspaceStats before = workspace->stats();

  std::array<int, kDualBranchCount> branch_counts{};
  const DualStep step = [&](double guess) {
    const ScopedSpan span("core.dual_step");
    auto outcome = traced_dual_step(*workspace, guess, mrt);
    ++branch_counts[static_cast<std::size_t>(outcome.branch)];
    DualStepResult result;
    result.schedule = std::move(outcome.schedule);
    result.certified_reject = outcome.certified_reject;
    return result;
  };
  auto search = mrt.snap_to_breakpoints ? dual_search_snapped(*workspace, step, mrt.search)
                                        : dual_search(instance, step, mrt.search);

  SolverResult out{"", std::move(search.schedule), 0.0, search.certified_lower_bound,
                   0.0, 0.0, {}};
  out.stats.emplace_back("iterations", search.iterations);
  out.stats.emplace_back("gaps", search.gaps);
  out.stats.emplace_back("final_guess", search.final_guess);
  const DualWorkspaceStats after = workspace->stats();
  out.stats.emplace_back("workspace.allocations",
                         static_cast<double>(after.alloc_events - before.alloc_events));
  out.stats.emplace_back("workspace.canonical_evals",
                         static_cast<double>(after.canonical_evals - before.canonical_evals));
  for (int b = 0; b < kDualBranchCount; ++b) {
    const int count = branch_counts[static_cast<std::size_t>(b)];
    if (count > 0) {
      out.stats.emplace_back("branch." + to_string(static_cast<DualBranch>(b)), count);
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<SolverRegistry> make_traced_registry() {
  std::vector<OptionSpec> specs = SolverRegistry::global().option_specs("mrt");
  specs.push_back(OptionSpec::integer(kTraceRequestOption, 0, 0, 1 << 30,
                                      "root span id of the request (0 = untraced)"));
  specs.push_back(OptionSpec::integer(kTraceParentOption, 0, 0, 1 << 30,
                                      "span the solve hangs under"));
  auto registry = std::make_unique<SolverRegistry>();
  registry->add_with_context("mrt", "traced mrt (benchmark)", solve_traced, std::move(specs),
                             /*contiguous=*/true, /*reuses_workspace=*/true);
  return registry;
}

}  // namespace perfbench
