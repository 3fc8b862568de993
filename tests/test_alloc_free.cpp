// Allocation accounting for the block codec hot path.  Overriding the
// global operator new in this TU counts every heap allocation the
// process makes; after a warm-up pass that sizes the CodecWorkspace and
// the driver arenas, steady-state compress/decompress must allocate
// nothing per block (workspace loops: exactly zero; streaming drivers:
// amortized container growth only, far below one allocation per block).
// It also tracks live heap bytes, so a test can bound the peak memory of
// a whole call (the sharded dataset read-back), or what a loop leaves
// behind on the heap (decoded-block cache misses).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <random>
#include <vector>

#include "bitio/bit_reader.h"
#include "bitio/bit_writer.h"
#include "core/pastri.h"
#include "core/simd/simd.h"
#include "core/stream.h"
#include "io/block_store.h"
#include "io/compressed_file.h"
#include "io/file_per_process.h"
#include "qc/eri_engine.h"
#include "qc/md_eri.h"
#include "qc/molecule.h"
#include "qc/quartet_plan.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
// Live heap bytes and their high-water mark.  Each allocation carries
// its size in a max_align_t-sized prefix, so delete can subtract it.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};
constexpr std::size_t kSizePrefix = alignof(std::max_align_t);
}  // namespace

// The replacement allocator pairs new with malloc/free on purpose.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(std::malloc(kSizePrefix + n));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof n);
  const std::size_t live =
      g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return base + kSizePrefix;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kSizePrefix;
  std::size_t n = 0;
  std::memcpy(&n, base, sizeof n);
  g_live_bytes.fetch_sub(n, std::memory_order_relaxed);
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
#pragma GCC diagnostic pop

namespace pastri {
namespace {

constexpr BlockSpec kSpec{.num_sub_blocks = 36, .sub_block_size = 36};

/// ERI-like blocks: scaled copies of a pattern plus noise large enough
/// to force dense ECQ payloads (the hot decode path).
std::vector<double> make_blocks(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> data(count * kSpec.block_size());
  for (std::size_t b = 0; b < count; ++b) {
    double pattern[36];
    for (double& p : pattern) p = unit(gen);
    for (std::size_t j = 0; j < kSpec.num_sub_blocks; ++j) {
      const double scale = unit(gen);
      for (std::size_t i = 0; i < kSpec.sub_block_size; ++i) {
        data[b * kSpec.block_size() + j * kSpec.sub_block_size + i] =
            scale * pattern[i] + 2e-9 * unit(gen);
      }
    }
  }
  return data;
}

std::size_t allocations_since(std::size_t mark) {
  return g_alloc_count.load(std::memory_order_relaxed) - mark;
}

TEST(AllocFree, CompressBlockSteadyStateAllocatesNothing) {
  const std::size_t n = 64;
  const auto data = make_blocks(n, 11);
  Params params;
  CodecWorkspace ws;
  bitio::BitWriter w;

  auto block = [&](std::size_t b) {
    return std::span<const double>(data).subspan(b * kSpec.block_size(),
                                                 kSpec.block_size());
  };
  // Warm pass over every block: sizes the workspace, grows the writer
  // buffer to the largest payload, and builds any lazy statics (metric
  // registry shards, decode LUTs).  The measured second pass is the
  // steady state.
  for (std::size_t b = 0; b < n; ++b) {
    w.restart();
    compress_block(block(b), kSpec, params, w, &ws.stats, ws);
  }

  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = 0; b < n; ++b) {
    w.restart();
    compress_block(block(b), kSpec, params, w, &ws.stats, ws);
    (void)w.finish_view();
  }
  EXPECT_EQ(allocations_since(mark), 0u)
      << "compress_block allocated in steady state";
}

/// StreamWriter reserves every new worker's workspace up-front, so a
/// worker the schedule leaves idle for a while never warms up inside a
/// steady-state batch: a reserved workspace's first encode, into its
/// own bit staging buffer, allocates nothing.
TEST(AllocFree, ReservedWorkspaceFirstEncodeAllocatesNothing) {
  const auto data = make_blocks(2, 12);
  Params params;
  const auto block = std::span<const double>(data).first(kSpec.block_size());
  {
    // Build the lazy statics (metric registry shards, dispatch tables)
    // on another workspace first.
    CodecWorkspace other;
    compress_block(block, kSpec, params, other.writer, nullptr, other);
  }
  CodecWorkspace ws;
  ws.reserve_encode(kSpec);
  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = 0; b < 2; ++b) {
    ws.writer.restart();
    compress_block(std::span<const double>(data).subspan(
                       b * kSpec.block_size(), kSpec.block_size()),
                   kSpec, params, ws.writer, &ws.stats, ws);
    const auto payload = ws.writer.finish_view();
    ws.arena.insert(ws.arena.end(), payload.begin(), payload.end());
  }
  EXPECT_EQ(allocations_since(mark), 0u)
      << "first encodes into a reserved workspace allocated";
}

TEST(AllocFree, DecompressBlockSteadyStateAllocatesNothing) {
  const std::size_t n = 64;
  const auto data = make_blocks(n, 12);
  Params params;
  CodecWorkspace ws;
  bitio::BitWriter w;

  std::vector<std::vector<std::uint8_t>> payloads(n);
  for (std::size_t b = 0; b < n; ++b) {
    w.restart();
    compress_block(std::span<const double>(data).subspan(
                       b * kSpec.block_size(), kSpec.block_size()),
                   kSpec, params, w, nullptr, ws);
    const auto view = w.finish_view();
    payloads[b].assign(view.begin(), view.end());
  }

  std::vector<double> out(kSpec.block_size());
  for (std::size_t b = 0; b < n; ++b) {  // warm pass
    bitio::BitReader r(payloads[b]);
    decompress_block(r, kSpec, params, out, ws);
  }
  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = 0; b < n; ++b) {
    bitio::BitReader r(payloads[b]);
    decompress_block(r, kSpec, params, out, ws);
  }
  EXPECT_EQ(allocations_since(mark), 0u)
      << "decompress_block allocated in steady state";
}

/// Backends this binary can actually execute (scalar + every supported
/// vector tier); the alloc contract must hold on all of them.
std::vector<simd::Backend> runnable_backends() {
  std::vector<simd::Backend> v{simd::Backend::Scalar};
  for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512}) {
    if (simd::backend_supported(b)) v.push_back(b);
  }
  return v;
}

/// Blocks whose ECQ payload is a handful of large outliers in an
/// otherwise exact scaled pattern -- the geometry that makes the
/// planner pick the sparse (index,value) representation, so decode
/// exercises unpack_pairs + scatter_ecq and the workspace sparse_idx /
/// sparse_val arrays.
std::vector<double> make_sparse_blocks(std::size_t count,
                                       std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> data(count * kSpec.block_size());
  for (std::size_t b = 0; b < count; ++b) {
    double pattern[36];
    for (double& p : pattern) p = 1e-6 * (1.0 + 0.5 * unit(gen));
    for (std::size_t j = 0; j < kSpec.num_sub_blocks; ++j) {
      const double scale = 0.25 + 0.5 * (static_cast<double>(j) / 36.0);
      for (std::size_t i = 0; i < kSpec.sub_block_size; ++i) {
        double v = scale * pattern[i];
        if ((j * 36 + i + b) % 331 == 0) v += 1e-3 * unit(gen);
        data[b * kSpec.block_size() + j * kSpec.sub_block_size + i] = v;
      }
    }
  }
  return data;
}

/// Steady-state decompress_block allocates nothing on ANY backend, for
/// dense-ECQ and sparse-ECQ payloads alike (the sparse path's
/// (idx,val) scratch lives in the workspace and is warmed by the first
/// pass, like every other array).
TEST(AllocFree, DecompressBlockAllocFreeOnEveryBackendBothEcqPaths) {
  const std::size_t n = 32;
  Params params;
  CodecWorkspace ws;
  bitio::BitWriter w;

  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& data : {make_blocks(n, 21), make_sparse_blocks(n, 22)}) {
    for (std::size_t b = 0; b < n; ++b) {
      w.restart();
      compress_block(std::span<const double>(data).subspan(
                         b * kSpec.block_size(), kSpec.block_size()),
                     kSpec, params, w, nullptr, ws);
      const auto view = w.finish_view();
      payloads.emplace_back(view.begin(), view.end());
    }
  }

  std::vector<double> out(kSpec.block_size());
  for (simd::Backend backend : runnable_backends()) {
    simd::force_backend(backend);
    for (const auto& payload : payloads) {  // warm pass
      bitio::BitReader r(payload);
      decompress_block(r, kSpec, params, out, ws);
    }
    const std::size_t mark = g_alloc_count.load();
    for (const auto& payload : payloads) {
      bitio::BitReader r(payload);
      decompress_block(r, kSpec, params, out, ws);
    }
    EXPECT_EQ(allocations_since(mark), 0u)
        << "decompress_block allocated in steady state on backend "
        << simd::backend_name(backend);
  }
  simd::refresh_backend_from_env();
}

TEST(AllocFree, StreamWriterSteadyStateBatchesAllocateFarBelowPerBlock) {
  const std::size_t batch = 16;
  const std::size_t n = 8 * batch;
  const std::size_t warm = 2 * batch;
  const auto data = make_blocks(n, 13);
  Params params;
  params.num_threads = 2;

  VectorSink sink;
  StreamWriter writer(sink, kSpec, params,
                      {.batch_blocks = batch, .expected_blocks = n});
  auto block = [&](std::size_t b) {
    return std::span<const double>(data).subspan(b * kSpec.block_size(),
                                                 kSpec.block_size());
  };
  // First batches are the cold path: workspaces, arenas (which may still
  // rebalance across threads on batch two), sink buffer.
  for (std::size_t b = 0; b < warm; ++b) writer.put_block(block(b));

  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = warm; b < n; ++b) writer.put_block(block(b));
  const std::size_t measured = n - warm;
  const std::size_t allocs = allocations_since(mark);
  // Amortized growth of the sink buffer and the offset table is allowed;
  // per-block payload/scratch allocation is not.
  EXPECT_LT(allocs, measured / 8)
      << allocs << " allocations over " << measured << " blocks";

  writer.finish();
  // The workspace/arena rewrite must not change the container bytes.
  EXPECT_EQ(sink.take(), compress(data, kSpec, params));
}

TEST(AllocFree, StreamConsumerSteadyStateBatchesAllocateFarBelowPerBlock) {
  const std::size_t batch = 16;
  const std::size_t n = 4 * batch;
  const auto data = make_blocks(n, 14);
  Params params;
  params.num_threads = 2;
  const auto stream = compress(data, kSpec, params);

  SpanSource source(stream);
  StreamConsumer consumer(source,
                          {.batch_blocks = batch, .num_threads = 2});
  std::vector<double> out(n * kSpec.block_size());
  // Cold batch: decode buffers, extents, workspaces.
  ASSERT_EQ(consumer.read_blocks(
                std::span<double>(out).first(batch * kSpec.block_size())),
            batch);

  const std::size_t mark = g_alloc_count.load();
  ASSERT_EQ(consumer.read_blocks(
                std::span<double>(out).subspan(batch * kSpec.block_size())),
            n - batch);
  const std::size_t measured = n - batch;
  const std::size_t allocs = allocations_since(mark);
  EXPECT_LT(allocs, measured / 4)
      << allocs << " allocations over " << measured << " blocks";
  // Decode is deterministic: the chunked path must equal the one-shot.
  EXPECT_EQ(out, decompress(stream));
}

/// The consumer chunk loop keeps the amortized-allocation contract on
/// every backend tier (the bulk decode kernels draw all their scratch
/// from the per-thread workspaces).
TEST(AllocFree, StreamConsumerChunkLoopAllocLeanOnEveryBackend) {
  const std::size_t batch = 16;
  const std::size_t n = 4 * batch;
  const auto data = make_blocks(n, 15);
  Params params;
  params.num_threads = 2;
  const auto stream = compress(data, kSpec, params);
  const auto want = decompress(stream);

  for (simd::Backend backend : runnable_backends()) {
    simd::force_backend(backend);
    SpanSource source(stream);
    StreamConsumer consumer(source,
                            {.batch_blocks = batch, .num_threads = 2});
    std::vector<double> out(n * kSpec.block_size());
    ASSERT_EQ(consumer.read_blocks(std::span<double>(out).first(
                  batch * kSpec.block_size())),
              batch);
    const std::size_t mark = g_alloc_count.load();
    ASSERT_EQ(consumer.read_blocks(std::span<double>(out).subspan(
                  batch * kSpec.block_size())),
              n - batch);
    const std::size_t measured = n - batch;
    const std::size_t allocs = allocations_since(mark);
    EXPECT_LT(allocs, measured / 4)
        << allocs << " allocations over " << measured << " blocks on "
        << simd::backend_name(backend);
    EXPECT_EQ(out, want) << simd::backend_name(backend);
  }
  simd::refresh_backend_from_env();
}

/// The ERI generation hot path: once the shell-pair cache is built
/// (plan) and the thread-local workspaces are warm (first pass), the
/// steady-state quartet loop draws everything -- HermiteR tensor,
/// Schwarz scratch, term arenas -- from preallocated storage.  The
/// bound is amortized rather than exactly zero only because the OpenMP
/// runtime may allocate per-parallel-region bookkeeping (team/task
/// structs), which is per compute_range call, not per block.
TEST(AllocFree, EriGenerationSteadyStateAllocatesFarBelowPerBlock) {
  const qc::Molecule mol = qc::make_molecule("benzene");
  qc::DatasetOptions opt;
  opt.config = qc::parse_config("(dd|dd)");
  opt.max_blocks = 48;
  const qc::EriBlockGenerator gen(mol, opt);
  const std::size_t n = gen.meta().num_blocks;
  const std::size_t bs = gen.meta().shape.block_size();
  ASSERT_EQ(n, 48u);
  std::vector<double> out(n * bs);

  // Warm pass: sizes each thread's workspace for this momentum class.
  gen.compute_range(0, n, out);

  const std::size_t passes = 4;
  const std::size_t mark = g_alloc_count.load();
  for (std::size_t p = 0; p < passes; ++p) gen.compute_range(0, n, out);
  const std::size_t measured = passes * n;
  const std::size_t allocs = allocations_since(mark);
  EXPECT_LT(allocs, measured / 8)
      << allocs << " allocations over " << measured << " generated blocks";
}

/// The quartet kernel itself: once one (ff|ff) call has grown the
/// workspace (HermiteR, the X/S intermediate), every smaller or equal
/// class reuses it, whatever order the classes come in.
TEST(AllocFree, EriBlockKernelWarmWorkspaceAllocatesNothing) {
  const auto shell = [](int l, qc::Vec3 center) {
    qc::Shell s;
    s.l = l;
    s.center = center;
    s.primitives = {{0.5, 0.6}, {2.7, 0.4}};
    s.normalize();
    return s;
  };
  const qc::Vec3 A{0.0, 0.2, -0.1}, B{1.3, -0.4, 0.8};
  const auto pair = [&](int la, int lb, int l_total) {
    qc::ShellPairData p(shell(la, A), shell(lb, B));
    p.set_r_stride(l_total);
    return p;
  };
  struct Class {
    qc::ShellPairData bra, ket;
  };
  const std::vector<Class> classes{
      {pair(3, 3, 12), pair(3, 3, 12)},  // (ff|ff)
      {pair(0, 0, 0), pair(0, 0, 0)},    // (ss|ss)
      {pair(2, 2, 10), pair(3, 3, 10)},  // (dd|ff)
      {pair(3, 3, 12), pair(3, 3, 12)},  // (ff|ff)
      {pair(1, 1, 4), pair(0, 2, 4)},    // (pp|sd)
  };
  std::vector<double> out(100 * 100);
  qc::EriWorkspace ws;
  const auto run = [&](const Class& c) {
    qc::compute_eri_block(c.bra, c.ket, ws,
                          std::span(out.data(), c.bra.ncomp() * c.ket.ncomp()));
  };
  run(classes[0]);  // warm-up

  const std::size_t mark = g_alloc_count.load();
  for (std::size_t i = 1; i < classes.size(); ++i) run(classes[i]);
  EXPECT_EQ(allocations_since(mark), 0u);
}

/// The store build's compute side: with the plan built and the
/// thread-local workspaces warm, computing every quartet class through
/// compute_class allocates per batch (batch buffers, OpenMP region
/// bookkeeping), never per block.
TEST(AllocFree, StoreBuildComputeBatchesAllocateFarBelowPerBlock) {
  const qc::QuartetPlan plan(
      qc::make_sto3g_basis(testutil::methanol_molecule()));
  const auto classes = plan.layout().quartet_classes();
  std::size_t blocks = 0;
  const auto build = [&] {
    for (const auto& cls : classes) {
      plan.compute_class(cls, 0,
                         [&](std::span<const qc::Quartet> quartets,
                             std::span<const double>) {
                           blocks += quartets.size();
                         });
    }
  };
  build();  // warm pass

  blocks = 0;
  const std::size_t mark = g_alloc_count.load();
  build();
  const std::size_t allocs = allocations_since(mark);
  EXPECT_EQ(blocks, plan.layout().num_quartets());
  EXPECT_LT(allocs, blocks / 8)
      << allocs << " allocations over " << blocks << " computed blocks";
}

/// The dataset read-back decodes every shard straight into its slice of
/// one dataset buffer: beyond the returned values it holds one shard
/// file at a time plus small bookkeeping (manifest, headers, block
/// index), never a per-shard decoded copy.
TEST(AllocFree, DatasetReadAllocatesDecodedValuesOnce) {
  const std::size_t n = 60;
  qc::EriDataset ds;
  ds.label = "alloc";
  ds.shape.n = {6, 6, 6, 6};  // kSpec: 36 sub-blocks of 36
  ds.num_blocks = n;
  ds.values = make_blocks(n, 13);
  const std::string dir = testutil::per_test_dir("pastri_alloc");
  io::write_compressed_dataset(ds, Params{}, 3, dir, "ds");
  std::size_t largest_shard = 0;
  for (int s = 0; s < 3; ++s) {
    largest_shard = std::max(
        largest_shard, static_cast<std::size_t>(std::filesystem::file_size(
                           io::rank_file_path(dir, "ds", s))));
  }
  const std::size_t raw = ds.values.size() * sizeof(double);

  // Warm pass: sizes each decode thread's workspace.
  const auto warm = io::read_compressed_dataset(dir, "ds");

  const std::size_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  const auto back = io::read_compressed_dataset(dir, "ds");
  const std::size_t peak = g_peak_bytes.load() - base;
  EXPECT_EQ(back.values, warm.values);
  EXPECT_LE(peak, raw + largest_shard + 64 * 1024)
      << "raw " << raw << " B, largest shard " << largest_shard << " B";
  std::filesystem::remove_all(dir);
}

/// A store with caching disabled keeps nothing per decoded block: once
/// the first read has warmed the decode workspace, reading every other
/// block once leaves the heap where it was, however many distinct
/// blocks the store holds.
TEST(AllocFree, CacheMissesLeaveNoHeapBehind) {
  const std::size_t n = 2048;
  const BlockSpec spec{.num_sub_blocks = 4, .sub_block_size = 16};
  std::mt19937_64 gen(31);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> data(n * spec.block_size());
  for (double& v : data) v = unit(gen);
  const std::string dir = testutil::per_test_dir("pastri_alloc");
  const std::string path = dir + "/blocks.pastri";
  {
    const auto bytes = compress(data, spec, Params{});
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }

  const io::BlockStore store(path, CacheConfig{0, 8});
  ASSERT_EQ(store.num_blocks(), n);
  (void)store.block(0);  // warm pass: decode workspace, lazy statics

  const std::size_t base = g_live_bytes.load();
  for (std::size_t b = 1; b < n; ++b) (void)store.block(b);
  const std::size_t live = g_live_bytes.load();
  EXPECT_LE(live, base + 4096)
      << (live - base) << " B left on the heap after " << (n - 1)
      << " cache misses";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pastri
