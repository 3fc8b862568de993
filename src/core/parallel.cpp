// parallel.cpp - parallel_for's OpenMP region (policy in parallel.h).
#include "core/parallel.h"

#include <omp.h>

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

namespace pastri {

int resolve_threads(int num_threads) {
  if (num_threads > kMaxThreads) {
    throw std::invalid_argument("num_threads must be at most " +
                                std::to_string(kMaxThreads));
  }
  return num_threads > 0 ? num_threads
                         : std::min(omp_get_max_threads(), kMaxThreads);
}

namespace detail {

void parallel_for_chunks(std::size_t n, std::size_t chunk, int num_threads,
                         ChunkFn fn, void* body) {
  const int threads = resolve_threads(num_threads);
  chunk = std::max<std::size_t>(chunk, 1);
  if (n == 0) return;
  if (n <= chunk || threads == 1) {
    fn(body, 0, n, 0);
    return;
  }
  // `parallel` then `for`, not the combined `parallel for`: with the
  // combined form, on a loaded host the calling thread often got no chunk
  // of a small batch at all, batch after batch, so worker 0's scratch
  // stayed cold until some later batch allocated it.
  // Exceptions cannot leave an OpenMP region: keep the first one and
  // rethrow it after the join (corrupt payloads must surface as throws,
  // not std::terminate).
  const auto chunks = static_cast<std::ptrdiff_t>((n + chunk - 1) / chunk);
  std::exception_ptr error;
#pragma omp parallel num_threads(threads)
  {
    const int worker = omp_get_thread_num();
#pragma omp for schedule(dynamic)
    for (std::ptrdiff_t c = 0; c < chunks; ++c) {
      const std::size_t begin = static_cast<std::size_t>(c) * chunk;
      try {
        fn(body, begin, std::min(n, begin + chunk), worker);
      } catch (...) {
#pragma omp critical(pastri_parallel_for_error)
        if (!error) error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace detail
}  // namespace pastri
