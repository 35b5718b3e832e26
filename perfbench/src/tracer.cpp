#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

/// Buffers outlive their threads: the registry owns them, a thread only
/// keeps a pointer to its own.
struct Buffers {
  std::mutex mutex;
  std::vector<std::unique_ptr<std::vector<Span>>> all;
};

Buffers& buffers() {
  static Buffers instance;
  return instance;
}

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<std::vector<Span>>();
    fresh->reserve(1 << 12);
    mine = fresh.get();
    const std::lock_guard<std::mutex> lock(buffers().mutex);
    buffers().all.push_back(std::move(fresh));
  }
  return *mine;
}

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_request = 0;

}  // namespace

double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

void Tracer::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t Tracer::next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Tracer::record(const Span& span) { thread_buffer().push_back(span); }

std::vector<Span> Tracer::collect() {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(buffers().mutex);
  for (auto& buffer : buffers().all) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (Tracer::enabled()) open(name, t_current_request, t_current_span);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request, std::uint64_t parent) {
  if (Tracer::enabled()) open(name, request, parent);
}

ScopedSpan::ScopedSpan(const char* name, Root) {
  if (!Tracer::enabled()) return;
  open(name, 0, 0);
  span_.request = span_.id;
  t_current_request = span_.id;
}

void ScopedSpan::open(const char* name, std::uint64_t request, std::uint64_t parent) {
  active_ = true;
  span_.id = Tracer::next_id();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  saved_current_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = span_.id;
  t_current_request = request;
  span_.start = now_seconds();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end = now_seconds();
  Tracer::record(span_);
  t_current_span = saved_current_;
  t_current_request = saved_request_;
}

SpanAnalysis analyze(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  SpanAnalysis out;
  std::vector<std::pair<double, double>> cover;
  for (const Span& span : spans) {
    // Union of the children's intervals, clipped to this span: children on
    // other threads may overlap each other or start before their parent.
    cover.clear();
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const double lo = std::max(child->start, span.start);
        const double hi = std::min(child->end, span.end);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const double duration = span.end - span.start;
    out.self[span.request][span.name] += duration - covered;
    out.total[span.request][span.name] += duration;
    out.count[span.request][span.name] += 1;
  }
  return out;
}

bool write_spans_csv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << "id,parent,request,name,start_us,end_us\n";
  file.setf(std::ios::fixed);
  file.precision(3);
  for (const Span& span : spans) {
    file << span.id << ',' << span.parent << ',' << span.request << ',' << span.name << ','
         << span.start * 1e6 << ',' << span.end * 1e6 << '\n';
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
