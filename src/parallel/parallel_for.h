// parallelFor: chunked index-range parallelism, the one parallel
// primitive of the library. Its callers run it once per batch over
// independent units (shapes, cache-miss cells, audited shot sections);
// work inside a unit is serial.
//
// The range [begin, end) is cut into fixed chunks of `grain` indices;
// chunk boundaries depend only on (begin, end, grain), never on the
// thread count, and threads claim chunks through a shared atomic cursor.
// Because the body writes per-index results only, the output is
// byte-identical for any thread count — callers that reduce must fold
// their per-index partials in index order afterwards.
//
// Helper threads are started per call and joined before it returns; the
// calling thread claims chunks like every helper. Caller plus helpers
// never exceed the hardware concurrency, and a helper that fails to
// start leaves its chunks to the threads already running.
//
// Exception isolation: an exception thrown by fn(i) never escapes a
// helper thread and never stops the other indices — every index still
// runs, then parallelFor rethrows the captured exception of the lowest
// failing index on the calling thread. The serial path behaves
// identically, so error behaviour does not depend on the thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "support/telemetry.h"

namespace mbf {

/// Resolves a user-facing thread knob: 0 = hardware concurrency,
/// otherwise the requested value itself (clamped to >= 1).
inline int resolveThreads(int requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(requested, 1);
}

/// Runs fn(i) for every i in [begin, end). `numThreads` follows the
/// library-wide knob convention (0 = hardware concurrency, 1 = serial on
/// the calling thread). `grain` is the number of consecutive indices per
/// claimed chunk.
template <typename Fn>
void parallelFor(int begin, int end, int numThreads, int grain, Fn&& fn) {
  const int n = end - begin;
  if (n <= 0) return;
  grain = std::max(1, grain);
  const int numChunks = (n + grain - 1) / grain;
  // Helpers beyond the calling thread: never more than the chunks left
  // for them, and never more than the cores left beside the caller.
  const int helpers = std::min({resolveThreads(numThreads) - 1,
                                resolveThreads(0) - 1, numChunks - 1});
  if (helpers <= 0) {
    std::exception_ptr error;
    for (int i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  std::atomic<int> nextChunk{0};
  std::mutex errorMutex;
  std::exception_ptr error;
  int errorIndex = std::numeric_limits<int>::max();

  const auto runChunks = [&] {
    while (true) {
      const int chunk = nextChunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= numChunks) return;
      TraceScope traceChunk("parallel-for", chunk);
      const int lo = begin + chunk * grain;
      const int hi = std::min(end, lo + grain);
      for (int i = lo; i < hi; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(errorMutex);
          if (i < errorIndex) {
            error = std::current_exception();
            errorIndex = i;
          }
        }
      }
    }
  };

  {
    // jthread joins on destruction, so helpers are joined on every path
    // out of this block.
    std::vector<std::jthread> started;
    started.reserve(static_cast<std::size_t>(helpers));
    for (int h = 0; h < helpers; ++h) {
      try {
        started.emplace_back(runChunks);
      } catch (const std::system_error&) {
        break;  // the cursor hands this helper's chunks to the others
      }
    }
    runChunks();
  }
  // The joins are also the memory barrier for the error slot; surface
  // the lowest-index failure here, on the calling thread.
  if (error) std::rethrow_exception(error);
}

}  // namespace mbf
