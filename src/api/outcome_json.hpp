#pragma once

#include <string>
#include <vector>

#include "registry/request.hpp"
#include "support/json.hpp"

/// JSON serialization of solve outcomes -- the bridge between the serving
/// path and machine-readable artifacts (CI uploads, determinism diffs).
///
/// Field order is fixed and every number renders deterministically (see
/// support/json.hpp), so two outcome lists serialize to identical bytes
/// exactly when the underlying results are identical. Provenance (cache hit,
/// dedup join, worker, shard) is not payload and is never written. Timing
/// fields are the one legitimately nondeterministic part of a result;
/// `include_timing=false` omits them, which is how the tests assert that an
/// 8-thread service run equals serial registry solves byte for byte.
namespace malsched {

struct OutcomeJsonOptions {
  /// Emit each result's wall_seconds, the one field that legitimately
  /// differs between runs of the same requests. Off for determinism
  /// comparisons.
  bool include_timing{true};
  /// Emit the full per-task placements of each schedule. Heavier, but turns
  /// the byte-compare into a check of the complete schedule, not just its
  /// makespan.
  bool include_schedules{false};
};

/// Writes one SolverResult as a JSON object into `writer` (which must be
/// positioned where a value is accepted).
void append_result_json(JsonWriter& writer, const SolverResult& result,
                        const OutcomeJsonOptions& options = {});

/// Writes one SolveOutcome (ticket, status, error or result) as a JSON object.
void append_outcome_json(JsonWriter& writer, const SolveOutcome& outcome,
                         const OutcomeJsonOptions& options = {});

/// The whole list as one JSON document: status tallies and the per-outcome
/// array in the order given.
[[nodiscard]] std::string outcomes_json(const std::vector<SolveOutcome>& outcomes,
                                        const OutcomeJsonOptions& options = {});

}  // namespace malsched
