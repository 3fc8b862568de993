// The one parallel loop (core/parallel.h): every index is visited once,
// workers stay below the resolved thread count, work that fits one chunk
// runs on the caller and starts no thread, the first exception from any
// chunk reaches the caller, and a thread count above kMaxThreads is
// rejected at every entry point before anything is started.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/pastri.h"
#include "core/stream.h"
#include "qc/quartet_plan.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri {
namespace {

constexpr std::size_t kChunk = 16;

TEST(Parallel, EveryIndexOnceAndWorkersBelowTheThreadCount) {
  for (const int threads : {1, 2, omp_get_max_threads()}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, kChunk, kChunk + 1,
          std::size_t{1000}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", n " +
                   std::to_string(n));
      std::vector<std::atomic<int>> visits(n);
      std::atomic<int> bad_worker = 0;
      std::atomic<int> bad_chunk = 0;
      parallel_for(n, kChunk, threads,
                   [&](std::size_t begin, std::size_t end, int worker) {
                     if (worker < 0 || worker >= threads) ++bad_worker;
                     if (begin >= end || end > n) ++bad_chunk;
                     for (std::size_t i = begin; i < end; ++i) ++visits[i];
                   });
      EXPECT_EQ(bad_worker.load(), 0);
      EXPECT_EQ(bad_chunk.load(), 0);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(Parallel, SerialPathRunsOnTheCallerAsWorkerZero) {
  const auto caller = std::this_thread::get_id();
  // Fits one chunk, and (second case) one thread for many chunks: both
  // are a single body(0, n, 0) call on the calling thread.
  for (const auto& [n, threads] :
       {std::pair<std::size_t, int>{kChunk, 4}, {1000, 1}}) {
    int calls = 0;
    parallel_for(n, kChunk, threads,
                 [&](std::size_t begin, std::size_t end, int worker) {
                   ++calls;
                   EXPECT_EQ(begin, 0u);
                   EXPECT_EQ(end, n);
                   EXPECT_EQ(worker, 0);
                   EXPECT_EQ(std::this_thread::get_id(), caller);
                 });
    EXPECT_EQ(calls, 1);
  }
}

TEST(Parallel, ExceptionInALaterChunkIsRethrownAfterTheJoin) {
  const std::size_t n = 20 * kChunk;
  for (const int threads : {1, 2, omp_get_max_threads()}) {
    std::atomic<std::size_t> visited = 0;
    EXPECT_THROW(
        parallel_for(n, kChunk, threads,
                     [&](std::size_t begin, std::size_t end, int) {
                       visited += end - begin;
                       if (begin <= 7 * kChunk && 7 * kChunk < end) {
                         throw std::runtime_error("chunk 7");
                       }
                     }),
        std::runtime_error);
    // The serial path stops at the throw; a team finishes every chunk.
    if (threads > 1) {
      EXPECT_EQ(visited.load(), n);
    }
  }
}

TEST(Parallel, ThreadCountAboveTheCapIsInvalidArgument) {
  EXPECT_EQ(resolve_threads(kMaxThreads), kMaxThreads);
  EXPECT_THROW(resolve_threads(kMaxThreads + 1), std::invalid_argument);
  EXPECT_GE(resolve_threads(0), 1);

  const BlockSpec spec{4, 4};
  const auto data = testutil::random_doubles(16 * spec.block_size(), -1, 1);
  const auto stream = compress(data, spec, Params{});
  EXPECT_THROW(BlockReader(stream, 1 << 20).read_range(0, 16),
               std::invalid_argument);
  SpanSource source(stream);
  EXPECT_THROW(StreamConsumer(source, {.num_threads = 1 << 20}),
               std::invalid_argument);
  EXPECT_THROW(compress(data, spec, Params{.num_threads = 1 << 20}),
               std::invalid_argument);
}

using testutil::os_thread_count;

TEST(Parallel, WorkThatFitsOneChunkStartsNoThreads) {
  if (omp_get_max_threads() == 1) GTEST_SKIP() << "one OpenMP thread";
  if (os_thread_count() < 1) GTEST_SKIP() << "/proc/self/task unreadable";

  const BlockSpec spec{4, 4};
  const auto data = testutil::random_doubles(16 * spec.block_size(), -1, 1);
  const auto stream = compress(data, spec, Params{});
  // Built here, not on the probe thread: the plan's own pair build is
  // more than one chunk of work.
  const qc::QuartetPlan plan(qc::make_sto3g_basis(testutil::h2o_molecule()));
  std::vector<qc::Quartet> quartets;
  plan.layout().for_each_quartet_in_class(
      {0, 0, 0, 0},
      [&](std::size_t a, std::size_t b, std::size_t c, std::size_t d) {
        if (quartets.size() < kChunk) quartets.push_back({a, b, c, d});
      });
  ASSERT_EQ(quartets.size(), kChunk);  // (ss|ss): one value, chunk 16

  // Each case runs on a fresh host thread, which owns no thread team
  // yet, so any team the call starts shows up as new OS threads.
  const auto threads_started = [](const auto& work) {
    int grew = 0;
    std::thread probe([&] {
      const int before = os_thread_count();
      work();
      grew = os_thread_count() - before;
    });
    probe.join();
    return grew;
  };
  EXPECT_EQ(threads_started([&] {
              std::vector<double> out(data.size());
              BlockReader(stream).read_range(0, 16, out);
            }),
            0)
      << "16-block BlockReader::read_range";
  EXPECT_EQ(threads_started([&] {
              SpanSource source(stream);
              StreamConsumer consumer(source, {.batch_blocks = 16});
              std::vector<double> out(data.size());
              consumer.read_blocks(out);
            }),
            0)
      << "16-block StreamConsumer batch";
  EXPECT_EQ(threads_started([&] {
              std::vector<double> out(quartets.size());
              plan.compute_batch(quartets, 1, 0, out);
            }),
            0)
      << "QuartetPlan::compute_batch of one chunk";
}

}  // namespace
}  // namespace pastri
