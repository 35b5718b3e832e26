#pragma once

#include <memory>

#include "registry/solver_registry.hpp"

/// The traced stand-in for the registry's "mrt" solver.
///
/// It runs the same algorithm as the global registry's "mrt" entry, composed
/// from the library's public entry points (DualWorkspace, dual_search, the
/// canonical allotment, the two-shelf, canonical-list and malleable-list
/// branches, compaction and validation) with a span around each call, so the
/// traced run can attribute a solve's time to those layers without touching
/// the library. The benchmark checks that it reproduces the untraced solve
/// exactly: makespan, bound, iterations and branch counts.
namespace perfbench {

/// Options naming the request (root span id) and the parent span the
/// solver's spans hang under; without them the spans (recorded only while
/// the tracer is enabled) go to request 0, the set-up bucket.
inline constexpr const char* kTraceRequestOption = "trace_request";
inline constexpr const char* kTraceParentOption = "trace_parent";

/// A registry holding one solver, "mrt", that accepts the global mrt
/// options plus the two trace options above.
[[nodiscard]] std::unique_ptr<malsched::SolverRegistry> make_traced_registry();

}  // namespace perfbench
