#pragma once

#include <cstddef>
#include <functional>

/// Minimal fork-join helper used to run experiment sweeps across cores.
///
/// The scheduling algorithms themselves are sequential (the paper's
/// contribution is algorithmic, not an implementation of parallel search);
/// this utility only parallelizes *independent instance evaluations* in
/// benches and tests.
///
/// Concurrency contract: workers share exactly one atomic index counter
/// (lock-free dispatch) plus a first-exception slot guarded by an annotated
/// support/mutex.hpp Mutex; `body` owns whatever state it touches for each
/// distinct index.
namespace malsched {

/// Runs body(i) for every i in [0, count) across up to `threads` workers.
///
/// Work is divided into contiguous blocks; `body` must be safe to call
/// concurrently for distinct indices. `threads == 0` means
/// hardware_concurrency. Exceptions thrown by `body` are rethrown on the
/// calling thread (the first one wins).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned threads = 0);

}  // namespace malsched
