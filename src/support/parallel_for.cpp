#include "support/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "support/mutex.hpp"

namespace malsched {

namespace {

/// The worker count for `count` items: `threads == 0` means
/// hardware_concurrency, clamped to `count` (extra workers would only
/// idle), at least 1 when there is work.
unsigned resolve_worker_count(std::size_t count, unsigned threads) {
  if (count == 0) return 0;
  const unsigned workers =
      threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<std::size_t>(workers, count));
}

}  // namespace

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned threads) {
  if (count == 0) return;
  const unsigned workers = resolve_worker_count(count, threads);

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // The only shared state: the work counter (atomic -- the shared-counter
  // dispatch IS the determinism story, see the header) and the first
  // exception, guarded by a local annotated Mutex.
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  Mutex error_mutex;

  const auto worker = [&] {
    // Dynamic chunking: grab small index blocks so irregular per-instance
    // solve times still balance across the pool.
    constexpr std::size_t kChunk = 4;
    for (;;) {
      const std::size_t begin = next.fetch_add(kChunk);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + kChunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          body(i);
        } catch (...) {
          const LockGuard lock(error_mutex);
          if (!error) error = std::current_exception();
          return;
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace malsched
