#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// In-memory span recorder for the traced benchmark run.
///
/// A span is a name, a start, an end, the span that caused it and the id of
/// the request it belongs to (0 for set-up work). Spans are appended to a
/// per-thread buffer when they close, so recording takes no lock; the
/// buffers are gathered once every thread that wrote them has been joined.
/// Nothing is recorded unless the tracer is enabled, so the untraced run
/// pays one branch per span site.
namespace perfbench {

/// Steady-clock seconds since an arbitrary process-wide epoch.
[[nodiscard]] double now_seconds();

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};   ///< 0 = root
  std::uint64_t request{0};  ///< 0 = set-up
  const char* name{""};      ///< string literal
  double start{0.0};
  double end{0.0};
};

class Tracer {
 public:
  static void enable(bool on);
  [[nodiscard]] static bool enabled();
  /// Fresh span id (never 0).
  [[nodiscard]] static std::uint64_t next_id();
  /// Appends a closed span to the calling thread's buffer.
  static void record(const Span& span);
  /// Every span recorded so far, ordered by id, and clears the buffers.
  /// Call only while no other thread records.
  [[nodiscard]] static std::vector<Span> collect();
};

/// RAII span. The parent defaults to the innermost open span of the calling
/// thread and the request to that span's request; pass both explicitly for a
/// span whose cause lives on another thread.
class ScopedSpan {
 public:
  /// Tag for a request's root span, whose id doubles as the request id.
  struct Root {};

  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::uint64_t request, std::uint64_t parent);
  ScopedSpan(const char* name, Root);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  [[nodiscard]] std::uint64_t request() const noexcept { return span_.request; }

 private:
  void open(const char* name, std::uint64_t request, std::uint64_t parent);

  Span span_;
  std::uint64_t saved_current_{0};
  std::uint64_t saved_request_{0};
  bool active_{false};
};

/// Per-request self time by span name, derived from a span list: a span's
/// self time is its duration minus the part of it its children cover.
struct SpanAnalysis {
  /// request id -> span name -> summed self seconds in that request.
  std::map<std::uint64_t, std::map<std::string, double>> self;
  /// request id -> span name -> summed inclusive seconds.
  std::map<std::uint64_t, std::map<std::string, double>> total;
  /// request id -> span name -> number of spans.
  std::map<std::uint64_t, std::map<std::string, long long>> count;
};

[[nodiscard]] SpanAnalysis analyze(const std::vector<Span>& spans);

/// Writes `spans` as CSV (id,parent,request,name,start_us,end_us); returns
/// false when the file cannot be written.
bool write_spans_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
