// Tests for the compressed ERI store (the Fig. 11 infrastructure).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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

TEST(CompressedEriStore, SharesIdenticalDecodedBlocks) {
  // Two identical shells at the same center: quartets (0,0,0,0) and
  // (1,1,1,1) decode to identical values, so the store's value dedup
  // must hand out one shared vector for both cache entries.
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
  EXPECT_EQ(a.get(), b.get()) << "identical decoded blocks not shared";
  EXPECT_EQ(store.cache_stats().unique_blocks, 1u);
  EXPECT_EQ(store.cache_stats().bytes, a->size() * sizeof(double));
  // A genuinely different quartet gets its own storage.
  const auto c = store.shell_block(2, 2, 2, 2);
  ASSERT_NE(*c, *a);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(store.cache_stats().unique_blocks, 2u);
  EXPECT_EQ(store.cache_stats().bytes, 2 * a->size() * sizeof(double));
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

}  // namespace
}  // namespace pastri::qc
