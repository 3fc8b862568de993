// Tests for the compressed ERI store (the Fig. 11 infrastructure).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <thread>
#include <vector>

#include "qc/compressed_eri_store.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

using testutil::h2o_molecule;

TEST(CompressedEriStore, MaterializeWithinBound) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor exact = compute_eri_tensor(basis);
  Params p;
  p.error_bound = 1e-10;
  const CompressedEriStore store(basis, p);
  const EriTensor restored = store.materialize();
  ASSERT_EQ(restored.size(), exact.size());
  EXPECT_LE(testutil::max_abs_diff(exact, restored),
            p.error_bound * (1 + 1e-12));
}

TEST(CompressedEriStore, GroupsByConfigurationClass) {
  // STO-3G water has s and p shells -> 2^4 = 16 quartet classes.
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  Params p;
  const CompressedEriStore store(basis, p);
  EXPECT_EQ(store.num_classes(), 16u);
  EXPECT_EQ(store.uncompressed_bytes(),
            basis.num_basis_functions() * basis.num_basis_functions() *
                basis.num_basis_functions() * basis.num_basis_functions() *
                sizeof(double));
  EXPECT_GT(store.ratio(), 1.0);
}

TEST(CompressedEriStore, ScfFromStoreMatchesExact) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor exact = compute_eri_tensor(basis);
  const ScfResult ref = run_rhf(mol, basis, exact);

  Params p;
  p.error_bound = 1e-10;
  const CompressedEriStore store(basis, p);
  // The Fig. 11 loop: decompress each "iteration"; here one materialize
  // feeds a full SCF.
  const ScfResult res = run_rhf(mol, basis, store.materialize());
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.total_energy, ref.total_energy, 1e-7);
}

TEST(CompressedEriStore, ShellBlockWithinBoundWithoutMaterialize) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  Params p;
  p.error_bound = 1e-10;
  const CompressedEriStore store(basis, p);
  const std::size_t ns = store.num_shells();
  ASSERT_EQ(ns, basis.shells.size());
  const QuartetPlan plan(basis);
  EriWorkspace ws;
  std::vector<double> exact;
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      for (std::size_t c = 0; c < ns; ++c) {
        for (std::size_t d = 0; d < ns; ++d) {
          const auto blk = store.shell_block(a, b, c, d);
          const std::size_t want =
              basis.shells[a].num_components() *
              basis.shells[b].num_components() *
              basis.shells[c].num_components() *
              basis.shells[d].num_components();
          ASSERT_EQ(blk->size(), want);
          exact.resize(want);
          plan.compute(a, b, c, d, ws, exact);
          EXPECT_LE(testutil::max_abs_diff(exact, *blk),
                    p.error_bound * (1 + 1e-12));
        }
      }
    }
  }
}

TEST(CompressedEriStore, BlockCacheHitsAndEviction) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  Params p;
  CompressedEriStore store(basis, p);
  EXPECT_EQ(store.cache_stats().hits, 0u);
  const auto first = store.shell_block(0, 0, 0, 0);
  EXPECT_EQ(store.cache_stats().misses, 1u);
  const auto again = store.shell_block(0, 0, 0, 0);
  EXPECT_EQ(store.cache_stats().hits, 1u);
  EXPECT_EQ(first.get(), again.get());  // served from cache, same object

  // A capacity-1 cache must evict, yet previously returned blocks stay
  // valid and a re-fetch still decodes the same values.
  store.set_cache({1, 1});
  const auto other = store.shell_block(0, 0, 0, 1);
  const std::size_t misses = store.cache_stats().misses;
  const auto refetch = store.shell_block(0, 0, 0, 0);  // was evicted
  EXPECT_EQ(store.cache_stats().misses, misses + 1);
  EXPECT_EQ(*refetch, *first);
  EXPECT_FALSE(other->empty());

  EXPECT_THROW(store.shell_block(99, 0, 0, 0), std::out_of_range);
}

TEST(CompressedEriStore, EachCachedQuartetOwnsItsBlock) {
  // Two identical shells at the same center: quartets (0,0,0,0) and
  // (1,1,1,1) decode to equal values, yet the cache is keyed by quartet
  // only, so each cached quartet holds its own vector.
  BasisSet basis;
  Shell sh;
  sh.l = 1;
  sh.center = {0, 0, 0};
  sh.primitives = {{1.2, 0.7}, {0.4, 0.5}};
  sh.normalize();
  Shell other = sh;  // same class, different radial part
  other.primitives = {{0.9, 1.0}};
  other.normalize();
  basis.shells = {sh, sh, other};
  Params p;
  const CompressedEriStore store(basis, p);
  const auto a = store.shell_block(0, 0, 0, 0);
  const auto b = store.shell_block(1, 1, 1, 1);
  ASSERT_EQ(*a, *b);
  EXPECT_NE(a.get(), b.get()) << "distinct quartets share a vector";
  const std::size_t block_bytes = a->size() * sizeof(double);
  CacheStats stats = store.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.unique_blocks, 2u);
  EXPECT_EQ(stats.bytes, 2 * block_bytes);

  // A re-read of either quartet is a hit on its own entry.
  EXPECT_EQ(store.shell_block(1, 1, 1, 1).get(), b.get());
  EXPECT_EQ(store.shell_block(0, 0, 0, 0).get(), a.get());
  const auto c = store.shell_block(2, 2, 2, 2);
  ASSERT_NE(*c, *a);
  stats = store.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.unique_blocks, 3u);
  EXPECT_EQ(stats.bytes, 3 * block_bytes);
}

TEST(CompressedEriStore, CoarserBoundSmallerStore) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  Params fine, coarse;
  fine.error_bound = 1e-12;
  coarse.error_bound = 1e-8;
  EXPECT_LT(CompressedEriStore(basis, coarse).compressed_bytes(),
            CompressedEriStore(basis, fine).compressed_bytes());
}

TEST(CompressedEriStore, CacheConfigStructs) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  Params params;
  CompressedEriStore store(basis, params);
  store.set_cache(CacheConfig{16, 4});
  EXPECT_EQ(store.cache_config().capacity_blocks, 16u);
  EXPECT_EQ(store.cache_config().num_shards, 4u);

  (void)store.shell_block(0, 0, 0, 0);
  (void)store.shell_block(0, 0, 0, 0);
  const CacheStats stats = store.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.unique_blocks, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // Reading the stats is not a cache access: a second read agrees.
  const CacheStats again = store.cache_stats();
  EXPECT_EQ(again.hits, stats.hits);
  EXPECT_EQ(again.misses, stats.misses);
  EXPECT_EQ(again.bytes, stats.bytes);
  EXPECT_EQ(again.unique_blocks, stats.unique_blocks);

  // Shard counts are clamped to the capacity (a 1-block cache cannot
  // stripe 8 ways without losing exact LRU accounting).
  store.set_cache(CacheConfig{2, 64});
  EXPECT_LE(store.cache_config().num_shards, 2u);

  // And to a fixed stripe limit, however large the capacity: a caller
  // cannot make the cache allocate one stripe per requested shard.
  store.set_cache(CacheConfig{1 << 16, 1 << 16});
  EXPECT_EQ(store.cache_config().capacity_blocks, std::size_t{1} << 16);
  EXPECT_LE(store.cache_config().num_shards, 256u);
}

TEST(CompressedEriStore, ShellBlockConcurrentStress) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  Params params;
  params.error_bound = 1e-10;
  const CompressedEriStore ref(basis, params);
  CompressedEriStore store(basis, params);
  store.set_cache(CacheConfig{8, 4});  // small: force eviction races

  const std::size_t ns = store.num_shells();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 300;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t rng = 0xDEADBEEF + t;
      for (std::size_t it = 0; it < kIters; ++it) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t a = (rng >> 12) % ns;
        const std::size_t b = (rng >> 24) % ns;
        const std::size_t c = (rng >> 36) % ns;
        const std::size_t d = (rng >> 48) % ns;
        const auto got = store.shell_block(a, b, c, d);
        const auto want = ref.shell_block(a, b, c, d);
        if (*got != *want) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Exact accounting: every lookup is exactly one hit or one miss,
  // even under contention and eviction.
  const CacheStats stats = store.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.unique_blocks, 8u);
}

TEST(CompressedEriStore, ConcurrentMissesOnOneQuartetShareOneVector) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  Params params;
  CompressedEriStore store(basis, params);
  store.set_cache(CacheConfig{4, 2});

  // Every thread misses the same cold quartet at once; whichever insert
  // lands first is the entry, and the others are handed that vector.
  constexpr std::size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const std::vector<double>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = store.shell_block(1, 2, 3, 4);
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_NE(got[0], nullptr);
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
  const CacheStats stats = store.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.unique_blocks, 1u);
  EXPECT_EQ(stats.bytes, got[0]->size() * sizeof(double));
}

}  // namespace
}  // namespace pastri::qc
