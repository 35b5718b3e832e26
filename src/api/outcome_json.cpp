#include "api/outcome_json.hpp"

namespace malsched {

namespace {

void append_schedule_json(JsonWriter& writer, const Schedule& schedule) {
  writer.begin_array();
  for (const auto& assignment : schedule.assignments()) {
    writer.begin_object();
    writer.kv("task", assignment.task);
    writer.kv("start", assignment.start);
    writer.kv("duration", assignment.duration);
    if (assignment.contiguous()) {
      writer.kv("first_proc", assignment.first_proc);
      writer.kv("num_procs", assignment.num_procs);
    } else {
      writer.key("procs");
      writer.begin_array();
      for (const int p : assignment.scattered) writer.value(p);
      writer.end_array();
    }
    writer.end_object();
  }
  writer.end_array();
}

void append_stats_json(JsonWriter& writer,
                       const std::vector<std::pair<std::string, double>>& stats) {
  writer.begin_object();
  for (const auto& [key, value] : stats) writer.kv(key, value);
  writer.end_object();
}

}  // namespace

void append_result_json(JsonWriter& writer, const SolverResult& result,
                        const OutcomeJsonOptions& options) {
  writer.begin_object();
  writer.kv("solver", result.solver);
  writer.kv("makespan", result.makespan);
  writer.kv("lower_bound", result.lower_bound);
  writer.kv("ratio", result.ratio);
  if (options.include_timing) writer.kv("wall_seconds", result.wall_seconds);
  writer.key("stats");
  append_stats_json(writer, result.stats);
  if (options.include_schedules) {
    writer.key("schedule");
    append_schedule_json(writer, result.schedule);
  }
  writer.end_object();
}

void append_outcome_json(JsonWriter& writer, const SolveOutcome& outcome,
                         const OutcomeJsonOptions& options) {
  writer.begin_object();
  writer.kv("ticket", outcome.ticket);
  writer.kv("status", to_string(outcome.status));
  // v2.1 typed errors: the machine-readable code for every non-ok outcome,
  // the human-readable detail (the pre-v2.1 "error" string) only where
  // there is message text to carry.
  if (outcome.status != SolveStatus::kOk) writer.kv("error_code", to_string(outcome.error.code));
  if (outcome.status == SolveStatus::kError) writer.kv("error", outcome.error.detail);
  if (outcome.result) {
    writer.key("result");
    append_result_json(writer, *outcome.result, options);
  }
  writer.end_object();
}

std::string outcomes_json(const std::vector<SolveOutcome>& outcomes,
                          const OutcomeJsonOptions& options) {
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t cancelled = 0;
  for (const auto& outcome : outcomes) {
    switch (outcome.status) {
      case SolveStatus::kOk: ++ok; break;
      case SolveStatus::kError: ++errors; break;
      case SolveStatus::kCancelled: ++cancelled; break;
    }
  }
  JsonWriter writer;
  writer.begin_object();
  writer.kv("ok", ok);
  writer.kv("errors", errors);
  writer.kv("cancelled", cancelled);
  writer.key("outcomes");
  writer.begin_array();
  for (const auto& outcome : outcomes) append_outcome_json(writer, outcome, options);
  writer.end_array();
  writer.end_object();
  return writer.str();
}

}  // namespace malsched
