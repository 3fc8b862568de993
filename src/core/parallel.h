// parallel.h - The one parallel loop.  Every block-parallel job in the
// library runs through `parallel_for`: range decode (BlockReader),
// batch encode (StreamWriter), batch decode (StreamConsumer), and the
// QuartetPlan pair build and compute loop.  PaSTRI's blocks are
// independent (Section IV-C of the paper), so each of these is the same
// loop over block indices.
//
// The policy, stated once:
//   * Thread count.  `num_threads` > 0 is taken as is, up to kMaxThreads
//     (above it: std::invalid_argument, before any allocation or thread
//     start); 0 or less means the OpenMP default, omp_get_max_threads().
//   * Serial cutoff.  Work that fits one chunk (n <= chunk), or a single
//     resolved thread, runs on the calling thread as worker 0 and starts
//     no thread team: one thread would get all of it anyway.
//   * Schedule.  Otherwise the indices are split into chunks of `chunk`
//     and handed out dynamically to an OpenMP team of the resolved size.
//   * Exceptions.  The first exception thrown by any chunk is rethrown
//     on the caller after the join; the other chunks still run.
//
// Each call site keeps its own chunk size, so no site's work split
// depends on this file.  The OpenMP region here is the only one in the
// library.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace pastri {

/// Largest thread count a caller may ask for (Params::num_threads,
/// StreamConsumerOptions::num_threads, BlockReader, QuartetPlan).
inline constexpr int kMaxThreads = 1024;

/// Map a requested thread count to the one parallel_for uses: > 0 as is,
/// otherwise omp_get_max_threads() (capped at kMaxThreads).  Throws
/// std::invalid_argument above kMaxThreads.
int resolve_threads(int num_threads);

namespace detail {

using ChunkFn = void (*)(void* body, std::size_t begin, std::size_t end,
                         int worker);

void parallel_for_chunks(std::size_t n, std::size_t chunk, int num_threads,
                         ChunkFn fn, void* body);

}  // namespace detail

/// Run body(begin, end, worker) over [0, n) in chunks of `chunk` indices
/// (0 counts as 1), under the policy above.  `worker` is below
/// resolve_threads(num_threads), and no two chunks run on one worker at
/// once, so callers index per-worker scratch by it.  `body` is called by
/// reference; nothing is copied or allocated.
template <class Body>
void parallel_for(std::size_t n, std::size_t chunk, int num_threads,
                  Body&& body) {
  using B = std::remove_reference_t<Body>;
  detail::parallel_for_chunks(
      n, chunk, num_threads,
      [](void* b, std::size_t begin, std::size_t end, int worker) {
        (*static_cast<B*>(b))(begin, end, worker);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace pastri
