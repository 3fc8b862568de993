// Golden pins for the ERI compute stage.  The shell-pair cache, the
// flattened term arenas, the sign-folded coefficients, and the
// workspace-threaded kernels are all refactors of the same FP operations
// in the same order -- so the generated datasets must be BIT-identical
// to the original per-quartet implementation.  These digests were
// captured from the pre-cache engine and must never change; any drift
// means a transformation stopped being value-preserving.  The
// QuartetPlan suite holds the parallel batch loop to the same bits for
// any thread count.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "qc/basis.h"
#include "qc/compressed_eri_store.h"
#include "qc/eri_engine.h"
#include "qc/md_eri.h"
#include "qc/molecule.h"
#include "qc/quartet_plan.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t values_digest(const EriDataset& ds) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(ds.values.data());
  return fnv1a({p, ds.values.size() * sizeof(double)});
}

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

using testutil::h2o_molecule;
using testutil::methanol_molecule;

/// Every class stream of `store`, concatenated in class order.
std::vector<std::uint8_t> class_streams(const CompressedEriStore& store) {
  std::vector<std::uint8_t> streams;
  for (const std::array<int, 4>& cls : store.layout().quartet_classes()) {
    const auto s = store.class_stream(cls);
    streams.insert(streams.end(), s.begin(), s.end());
  }
  return streams;
}

TEST(EriGolden, DatasetDigestsMatchSeed) {
  // Benzene, max_blocks = 12, contraction 1..3, four configs covering
  // pure-d, pure-f, and the two hybrid shapes whose schwarz stride
  // differs from the dataset stride (exercising set_r_stride
  // re-linearization).
  struct Case {
    const char* config;
    int contraction;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"(dd|dd)", 1, 0x77204e7a4bce188full},
      {"(dd|dd)", 2, 0x33bde022f7118dafull},
      {"(dd|dd)", 3, 0x18ff57eb77d27186ull},
      {"(ff|ff)", 1, 0x4058ddfa0333887dull},
      {"(ff|ff)", 2, 0x078f941496d46daaull},
      {"(ff|ff)", 3, 0x99979b1667df81ceull},
      {"(df|fd)", 1, 0x1522a9af72408a6aull},
      {"(df|fd)", 2, 0xe6ff6a86bb168768ull},
      {"(df|fd)", 3, 0xff30d3055eada7f0ull},
      {"(dd|ff)", 1, 0xf42239e8339d493cull},
      {"(dd|ff)", 2, 0x679e2a7ea0c88fd7ull},
      {"(dd|ff)", 3, 0xf0b8830ce110ac5dull},
  };
  const Molecule mol = make_molecule("benzene");
  for (const Case& c : cases) {
    DatasetOptions opt;
    opt.config = parse_config(c.config);
    opt.contraction = c.contraction;
    opt.max_blocks = 12;
    const EriDataset ds = generate_eri_dataset(mol, opt);
    EXPECT_EQ(values_digest(ds), c.digest)
        << c.config << " contraction=" << c.contraction;
  }
}

TEST(EriGolden, SchwarzBoundBitsMatchSeed) {
  // The plan's Schwarz table comes from its cached pairs at the stride
  // of the diagonal quartet (2 * l_sum); the bound must stay bitwise
  // what the uncached engine produced.
  struct Case {
    int l;
    int contraction;
    std::uint64_t q01, q23;
  };
  const Case cases[] = {
      {2, 1, 0x3fdd44ee0f5a050bull, 0x3fdd44ee0f5a050bull},
      {2, 3, 0x3fe60c5367249cbeull, 0x3fe60c5367249cbeull},
      {3, 1, 0x3fd8de084d656813ull, 0x3fd8de084d656813ull},
      {3, 3, 0x3fe507bb5c69568cull, 0x3fe507bb5c69568cull},
  };
  const Molecule mol = make_molecule("benzene");
  for (const Case& c : cases) {
    BasisOptions bo;
    bo.l = c.l;
    bo.contraction = c.contraction;
    const BasisSet bs = make_basis(mol, bo);
    const QuartetPlan plan = testutil::plan_of(
        {bs.shells[0], bs.shells[1], bs.shells[2], bs.shells[3]});
    EXPECT_EQ(bits(plan.schwarz(0, 1)), c.q01)
        << "l=" << c.l << " c=" << c.contraction;
    EXPECT_EQ(bits(plan.schwarz(2, 3)), c.q23)
        << "l=" << c.l << " c=" << c.contraction;
  }
}

TEST(EriGolden, PlanPathMatchesFreshPairsBitwise) {
  // Same quartet through (a) fresh ShellPairData objects at the quartet
  // stride and a fresh workspace -- the per-quartet build every consumer
  // used before the plan --, (b) a QuartetPlan, whose pairs were built
  // once and copied per stride, and (c) the same pair objects and
  // workspace reused dirty after computing an unrelated quartet at a
  // different total momentum.  All three must agree to the bit.
  const Molecule mol = make_molecule("benzene");
  BasisOptions bo;
  bo.l = 3;
  bo.contraction = 2;
  const BasisSet bs = make_basis(mol, bo);
  const Shell &A = bs.shells[0], &B = bs.shells[1], &C = bs.shells[2],
              &D = bs.shells[3];

  ShellPairData bra(A, B), ket(C, D);
  const int l_total = bra.l_sum() + ket.l_sum();
  bra.set_r_stride(l_total);
  ket.set_r_stride(l_total);
  const std::size_t size = bra.ncomp() * ket.ncomp();
  EriWorkspace ws;
  std::vector<double> ref(size, 0.0);
  compute_eri_block(bra, ket, ws, std::span<double>(ref));
  EXPECT_GT(ws.boys_evals, 0u);

  // A plan mixing momenta, so pair (A, B) is kept at several strides.
  BasisOptions dbo;
  dbo.l = 2;
  const BasisSet dshells = make_basis(mol, dbo);
  const QuartetPlan plan =
      testutil::plan_of({A, B, C, D, dshells.shells[0]});
  EriWorkspace plan_ws;
  std::vector<double> got(size, 0.0);
  std::vector<double> mixed(plan.layout().block_size(0, 4, 0, 1));
  plan.compute(0, 4, 0, 1, plan_ws, std::span<double>(mixed));
  plan.compute(0, 1, 2, 3, plan_ws, std::span<double>(got));
  for (std::size_t i = 0; i < size; ++i)
    ASSERT_EQ(bits(got[i]), bits(ref[i])) << "plan, i=" << i;

  // Dirty the workspace with a lower-momentum quartet (the HermiteR
  // tensor shrinks, then must re-grow without stale data leaking), plus
  // a schwarz call that reuses the diag scratch, then recompute.
  BasisOptions lo;
  lo.l = 2;
  lo.contraction = 1;
  const BasisSet small = make_basis(mol, lo);
  ShellPairData sp(small.shells[0], small.shells[1]);
  sp.set_r_stride(2 * sp.l_sum());
  (void)schwarz_bound(sp, ws);
  sp.set_r_stride(2 * sp.l_sum() + 1);  // different stride, then back
  sp.set_r_stride(2 * sp.l_sum());
  std::vector<double> tiny(sp.ncomp() * sp.ncomp(), 0.0);
  compute_eri_block(sp, sp, ws, std::span<double>(tiny));

  std::fill(got.begin(), got.end(), 0.0);
  compute_eri_block(bra, ket, ws, std::span<double>(got));
  for (std::size_t i = 0; i < size; ++i)
    ASSERT_EQ(bits(got[i]), bits(ref[i])) << "dirty workspace, i=" << i;
}

TEST(EriGolden, BasisTensorAndStoreDigestsMatchSeed) {
  // The mixed-momentum BasisSet path (s and p shells of STO-3G): the
  // dense tensor and the compressed store's class streams, pinned from
  // the per-quartet engine that preceded QuartetPlan.
  const Molecule water = h2o_molecule();
  const Molecule methanol = methanol_molecule();
  const auto tensor_digest = [](const Molecule& mol) {
    const EriTensor t = compute_eri_tensor(make_sto3g_basis(mol));
    const auto* p = reinterpret_cast<const std::uint8_t*>(t.data());
    return fnv1a({p, t.size() * sizeof(double)});
  };
  EXPECT_EQ(tensor_digest(water), 0xdf9ddcafc84745a1ull);
  EXPECT_EQ(tensor_digest(methanol), 0x1abd0221243883aeull);

  // Class streams concatenated in class order, (ss|ss) ... (pp|pp).
  const CompressedEriStore store(make_sto3g_basis(water), Params{});
  std::vector<std::uint8_t> streams;
  for (int c = 0; c < 16; ++c) {
    const std::array<int, 4> cls{(c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1,
                                 c & 1};
    const auto s = store.class_stream(cls);
    ASSERT_FALSE(s.empty()) << "class " << c;
    streams.insert(streams.end(), s.begin(), s.end());
  }
  EXPECT_EQ(streams.size(), store.compressed_bytes());
  EXPECT_EQ(store.compressed_bytes(), 12649u);
  EXPECT_EQ(fnv1a(streams), 0xfbc67e21c0aa5d8full);
}

TEST(EriGolden, PairCacheAndBoysCountersAdvance) {
  const auto counter_value = [](const obs::MetricsSnapshot& snap,
                                std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "counter not registered: " << name;
    return 0;
  };
  const Molecule mol = make_molecule("benzene");
  DatasetOptions opt;
  opt.config = parse_config("(dd|dd)");
  opt.max_blocks = 16;
  const auto before = obs::registry().snapshot();
  const EriDataset ds = generate_eri_dataset(mol, opt);
  const auto after = obs::registry().snapshot();

  const std::uint64_t misses =
      counter_value(after, obs::kQcShellPairCacheMisses) -
      counter_value(before, obs::kQcShellPairCacheMisses);
  const std::uint64_t hits = counter_value(after, obs::kQcShellPairCacheHits) -
                             counter_value(before, obs::kQcShellPairCacheHits);
  const std::uint64_t boys = counter_value(after, obs::kQcBoysEvals) -
                             counter_value(before, obs::kQcBoysEvals);
  // A miss is one pair the plan built: every ordered pair of the slots'
  // shells, once.  A hit is one cached pair a computed quartet read: two
  // per quartet that survived screening (screened blocks stay all-zero).
  BasisOptions bo;
  bo.l = 2;
  const std::size_t ns = make_basis(mol, bo).shells.size();
  const std::size_t bs = ds.shape.block_size();
  const std::span<const double> values(ds.values);
  std::uint64_t computed = 0;
  for (std::size_t b = 0; b < ds.num_blocks; ++b) {
    const auto blk = values.subspan(b * bs, bs);
    computed += std::any_of(blk.begin(), blk.end(),
                            [](double v) { return v != 0.0; });
  }
  EXPECT_EQ(misses, ns * ns);
  EXPECT_EQ(hits, 2 * computed);
  EXPECT_GT(computed, 0u);
  EXPECT_GT(boys, 0u);
}

TEST(QuartetPlan, BatchMatchesComputeAndZeroesSkippedSlots) {
  // (sp|sp) of methanol: 256 quartets, enough for several schedule
  // chunks.  Every fifth quartet is skipped; its slot starts dirty.
  const QuartetPlan plan(make_sto3g_basis(methanol_molecule()));
  std::vector<Quartet> batch;
  plan.layout().for_each_quartet_in_class(
      {0, 1, 0, 1},
      [&](std::size_t a, std::size_t b, std::size_t c, std::size_t d) {
        batch.push_back({a, b, c, d, batch.size() % 5 == 2});
      });
  ASSERT_EQ(batch.size(), 256u);
  const std::size_t bs = 9;
  std::vector<double> out(batch.size() * bs, 7.0);
  const BatchCounts counts =
      plan.compute_batch(batch, bs, 0, out);

  EriWorkspace ws;
  std::vector<double> want(bs);
  std::uint64_t computed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Quartet& q = batch[i];
    if (q.skip) {
      std::fill(want.begin(), want.end(), 0.0);
    } else {
      plan.compute(q.a, q.b, q.c, q.d, ws, want);
      ++computed;
    }
    ASSERT_EQ(std::memcmp(out.data() + i * bs, want.data(),
                          bs * sizeof(double)),
              0)
        << "quartet " << i;
  }
  EXPECT_EQ(counts.computed, computed);
  EXPECT_EQ(counts.boys_evals, ws.boys_evals);
  EXPECT_THROW(plan.compute_batch(batch, bs, 0,
                                  std::span<double>(out).first(bs)),
               std::invalid_argument);
}

TEST(QuartetPlan, StoreStreamsIdenticalForAnyThreadCount) {
  const BasisSet basis = make_sto3g_basis(methanol_molecule());
  Params serial;
  serial.num_threads = 1;
  const std::vector<std::uint8_t> want =
      class_streams(CompressedEriStore(basis, serial));
  ASSERT_FALSE(want.empty());
  for (const int threads : {2, omp_get_max_threads()}) {
    Params params;
    params.num_threads = threads;
    EXPECT_EQ(class_streams(CompressedEriStore(basis, params)), want)
        << threads << " threads";
  }
}

TEST(QuartetPlan, TensorIdenticalForAnyThreadCount) {
  const BasisSet basis = make_sto3g_basis(methanol_molecule());
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const EriTensor serial = compute_eri_tensor(basis);
  omp_set_num_threads(threads);
  const EriTensor parallel = compute_eri_tensor(basis);
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                        serial.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace pastri::qc
