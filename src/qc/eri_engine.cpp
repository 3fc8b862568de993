#include "qc/eri_engine.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::qc {
namespace {

/// Integral-generation telemetry (obs/metric_names.h).  Quartets are
/// counted per batch; the rate gauge holds the latest batch's quartets
/// per second.
struct EngineMetrics {
  obs::Counter quartets = obs::registry().counter(obs::kQcEriQuartets);
  obs::Histogram generate_batch_ns =
      obs::registry().histogram(obs::kQcEriGenerateBatchNs);
  obs::Gauge generate_rate = obs::registry().gauge(obs::kQcEriGenerateRate);
  obs::Counter pair_hits =
      obs::registry().counter(obs::kQcShellPairCacheHits);
  obs::Counter pair_misses =
      obs::registry().counter(obs::kQcShellPairCacheMisses);
  obs::Counter boys_evals = obs::registry().counter(obs::kQcBoysEvals);
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics m;
  return m;
}

/// One reusable quartet workspace per OS thread.  OpenMP teams spawned
/// by different host threads run on disjoint OS threads, so concurrent
/// compute_range calls (the multi-producer pipeline) never share one.
EriWorkspace& tls_workspace() {
  thread_local EriWorkspace ws;
  return ws;
}

/// Sample `k` distinct values from [0, n) deterministically; returned
/// sorted so the dataset block order is stable across runs.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (k >= n) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  // Floyd's algorithm: k iterations, no O(n) storage.
  std::mt19937_64 rng(seed);
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  for (std::size_t j = n - k; j < n; ++j) {
    std::uniform_int_distribution<std::size_t> dist(0, j);
    const std::size_t t = dist(rng);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  out.assign(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// One sampled quartet, post-screening.
struct Item {
  std::size_t i, j, k, l;
  bool screened;
};

/// Everything `generate_eri_dataset` decides before computing a single
/// integral: the shells, the surviving sample, and the dataset metadata.
/// Shared by the dense and the streaming generators so both produce the
/// identical dataset.  Slots are stored as momenta (indices into by_l),
/// not pointers, so the plan is safely movable.
struct EriPlan {
  std::array<BasisSet, kMaxAngularMomentum + 1> by_l;
  std::array<int, 4> slot_l{};
  std::vector<Item> items;
  EriStreamMeta meta;
  BoysMode boys_mode = BoysMode::Exact;

  // Shell-pair cache: every (bra i,j) and (ket k,l) pair's Hermite term
  // data, built once at plan time and reused by every quartet and every
  // Schwarz bound.  Pure configurations share one table (the ket simply
  // indexes bra_pairs), mirroring the q_bra/q_ket sharing below.
  std::vector<ShellPairData> bra_pairs;  // i * |s1| + j
  std::vector<ShellPairData> ket_pairs;  // k * |s3| + l; empty when shared
  bool ket_shares_bra = false;

  const std::vector<Shell>& shells(int s) const {
    return by_l[static_cast<std::size_t>(slot_l[s])].shells;
  }

  const ShellPairData& bra_pair(std::size_t i, std::size_t j) const {
    return bra_pairs[i * shells(1).size() + j];
  }
  const ShellPairData& ket_pair(std::size_t k, std::size_t l) const {
    const std::size_t idx = k * shells(3).size() + l;
    return ket_shares_bra ? bra_pairs[idx] : ket_pairs[idx];
  }
};

EriPlan plan_eri(const Molecule& mol, const DatasetOptions& opt) {
  EriPlan plan;
  {
    std::array<bool, kMaxAngularMomentum + 1> built{};
    for (int i = 0; i < 4; ++i) {
      const int l = opt.config[i];
      if (l < 0 || l > kMaxAngularMomentum) {
        throw std::invalid_argument("configuration momentum out of range");
      }
      if (!built[l]) {
        BasisOptions bo;
        bo.l = l;
        bo.contraction = opt.contraction;
        plan.by_l[static_cast<std::size_t>(l)] = make_basis(mol, bo);
        built[l] = true;
      }
      plan.slot_l[i] = l;
    }
  }
  const auto& s0 = plan.shells(0);
  const auto& s1 = plan.shells(1);
  const auto& s2 = plan.shells(2);
  const auto& s3 = plan.shells(3);
  if (s0.empty() || s1.empty() || s2.empty() || s3.empty()) {
    throw std::invalid_argument("molecule yields no shells for this config");
  }

  plan.meta.shape.n = {
      static_cast<std::uint16_t>(num_cartesians(opt.config[0])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[1])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[2])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[3]))};
  plan.meta.label = mol.name + " " + plan.meta.shape.config_name();

  const std::size_t block_size = plan.meta.shape.block_size();
  std::size_t max_blocks = opt.max_blocks;
  if (opt.target_bytes != 0) {
    max_blocks = std::max<std::size_t>(
        1, opt.target_bytes / (block_size * sizeof(double)));
  }

  const std::size_t total =
      s0.size() * s1.size() * s2.size() * s3.size();
  const auto indices = sample_indices(total, std::min(total, max_blocks),
                                      opt.seed);

  // Build the shell-pair cache and the Schwarz bounds off it in one
  // pass: each pair is constructed exactly once (a cache miss), its
  // bound computed from the cached data, and the pair kept for every
  // quartet that will reference it.  Pure configurations share one
  // table between bra and ket.
  plan.boys_mode = opt.boys_mode;
  const EngineMetrics& metrics = engine_metrics();
  plan.bra_pairs.resize(s0.size() * s1.size());
  std::vector<double> q_bra(s0.size() * s1.size());
#pragma omp parallel
  {
    EriWorkspace ws;
    ws.boys_mode = opt.boys_mode;
#pragma omp for schedule(dynamic)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(s0.size());
         ++i) {
      for (std::size_t j = 0; j < s1.size(); ++j) {
        const std::size_t idx = static_cast<std::size_t>(i) * s1.size() + j;
        ShellPairData sp(s0[static_cast<std::size_t>(i)], s1[j]);
        sp.set_r_stride(2 * sp.l_sum());
        q_bra[idx] = schwarz_bound(sp, ws);
        plan.bra_pairs[idx] = std::move(sp);
      }
    }
  }
  metrics.pair_misses.add(plan.bra_pairs.size());
  std::vector<double> q_ket;
  if (&s2 == &s0 && &s3 == &s1) {
    plan.ket_shares_bra = true;
    q_ket = q_bra;
    metrics.pair_hits.add(plan.bra_pairs.size());
  } else {
    plan.ket_pairs.resize(s2.size() * s3.size());
    q_ket.resize(s2.size() * s3.size());
#pragma omp parallel
    {
      EriWorkspace ws;
      ws.boys_mode = opt.boys_mode;
#pragma omp for schedule(dynamic)
      for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(s2.size());
           ++k) {
        for (std::size_t l = 0; l < s3.size(); ++l) {
          const std::size_t idx = static_cast<std::size_t>(k) * s3.size() + l;
          ShellPairData sp(s2[static_cast<std::size_t>(k)], s3[l]);
          sp.set_r_stride(2 * sp.l_sum());
          q_ket[idx] = schwarz_bound(sp, ws);
          plan.ket_pairs[idx] = std::move(sp);
        }
      }
    }
    metrics.pair_misses.add(plan.ket_pairs.size());
  }

  // Decide which sampled quartets survive screening.
  plan.items.reserve(indices.size());
  for (std::size_t flat : indices) {
    Item it;
    it.l = flat % s3.size();
    flat /= s3.size();
    it.k = flat % s2.size();
    flat /= s2.size();
    it.j = flat % s1.size();
    it.i = flat / s1.size();
    it.screened = q_bra[it.i * s1.size() + it.j] *
                      q_ket[it.k * s3.size() + it.l] <
                  opt.screen_threshold;
    if (it.screened && !opt.keep_screened) continue;
    plan.items.push_back(it);
  }
  plan.meta.num_blocks = plan.items.size();

  // Re-linearize the cached term offsets for the quartet total momentum
  // (Schwarz used 2 * pair momentum, which differs for mixed configs).
  // After this the plan is immutable and safe for concurrent readers.
  const int l_total =
      plan.slot_l[0] + plan.slot_l[1] + plan.slot_l[2] + plan.slot_l[3];
  for (ShellPairData& sp : plan.bra_pairs) sp.set_r_stride(l_total);
  for (ShellPairData& sp : plan.ket_pairs) sp.set_r_stride(l_total);
  return plan;
}

}  // namespace

std::array<int, 4> parse_config(const std::string& name) {
  std::string letters;
  for (char c : name) {
    if (c == '(' || c == ')' || c == '|' || c == ' ') continue;
    letters += c;
  }
  if (letters.size() != 4) {
    throw std::invalid_argument("config must name four shells: " + name);
  }
  std::array<int, 4> cfg{};
  for (int i = 0; i < 4; ++i) {
    const int l = shell_momentum(letters[i]);
    if (l < 0) throw std::invalid_argument("bad shell letter in: " + name);
    cfg[i] = l;
  }
  return cfg;
}

EriDataset generate_eri_dataset(const Molecule& mol,
                                const DatasetOptions& opt) {
  // The dense dataset is just compute_range over the whole plan -- one
  // planning pass, then the cached-pair generation path.
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();

  EriDataset ds;
  ds.label = meta.label;
  ds.shape = meta.shape;
  ds.num_blocks = meta.num_blocks;
  ds.values.assign(ds.num_blocks * ds.shape.block_size(), 0.0);
  gen.compute_range(0, ds.num_blocks, ds.values);
  return ds;
}

// ---- EriBlockGenerator --------------------------------------------------

struct EriBlockGenerator::Impl {
  EriPlan plan;
};

EriBlockGenerator::EriBlockGenerator(const Molecule& mol,
                                     const DatasetOptions& opt)
    : impl_(std::make_unique<Impl>(Impl{plan_eri(mol, opt)})) {}

EriBlockGenerator::~EriBlockGenerator() = default;
EriBlockGenerator::EriBlockGenerator(EriBlockGenerator&&) noexcept = default;
EriBlockGenerator& EriBlockGenerator::operator=(
    EriBlockGenerator&&) noexcept = default;

const EriStreamMeta& EriBlockGenerator::meta() const {
  return impl_->plan.meta;
}

void EriBlockGenerator::compute_range(std::size_t first, std::size_t count,
                                      std::span<double> out) const {
  const EriPlan& plan = impl_->plan;
  if (first + count < first || first + count > plan.items.size()) {
    throw std::out_of_range("EriBlockGenerator: block range out of range");
  }
  const std::size_t bs = plan.meta.shape.block_size();
  if (out.size() != count * bs) {
    throw std::invalid_argument(
        "EriBlockGenerator: output span does not match range size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  const EngineMetrics& metrics = engine_metrics();
  const bool timed = metrics.generate_batch_ns.active();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  std::uint64_t boys_total = 0;
  std::uint64_t computed = 0;
#pragma omp parallel reduction(+ : boys_total, computed)
  {
    EriWorkspace& ws = tls_workspace();
    ws.boys_mode = plan.boys_mode;
    const std::uint64_t boys0 = ws.boys_evals;
#pragma omp for schedule(dynamic)
    for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(count); ++b) {
      const Item& it = plan.items[first + static_cast<std::size_t>(b)];
      if (it.screened) continue;  // stays all-zero
      compute_eri_block(plan.bra_pair(it.i, it.j), plan.ket_pair(it.k, it.l),
                        ws,
                        out.subspan(static_cast<std::size_t>(b) * bs, bs));
      ++computed;
    }
    boys_total += ws.boys_evals - boys0;
  }
  metrics.quartets.add(count);
  metrics.boys_evals.add(boys_total);
  metrics.pair_hits.add(2 * computed);  // bra + ket cache use per quartet
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics.generate_batch_ns.record(static_cast<std::uint64_t>(ns));
    if (ns > 0) {
      metrics.generate_rate.set(static_cast<double>(count) * 1e9 /
                                static_cast<double>(ns));
    }
  }
}

EriStreamMeta generate_eri_block_batches(
    const Molecule& mol, const DatasetOptions& opt,
    const std::function<void(const EriStreamMeta& meta,
                             std::size_t first_block,
                             std::span<const double> values)>& emit,
    std::size_t batch_blocks) {
  // Compute a batch of blocks in parallel into one reusable buffer, then
  // hand the batch to the callback in dataset order -- the emitted
  // sequence is exactly generate_eri_dataset's block order, with
  // O(batch) memory.
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();
  const std::size_t bs = meta.shape.block_size();
  const std::size_t batch = batch_blocks != 0 ? batch_blocks : 64;
  std::vector<double> buf(batch * bs);
  for (std::size_t b0 = 0; b0 < meta.num_blocks; b0 += batch) {
    const std::size_t n = std::min(batch, meta.num_blocks - b0);
    const auto chunk = std::span<double>(buf).first(n * bs);
    gen.compute_range(b0, n, chunk);
    emit(meta, b0, chunk);
  }
  return meta;
}

double measure_generation_rate(const Molecule& mol, const DatasetOptions& opt,
                               std::size_t blocks) {
  DatasetOptions o = opt;
  o.max_blocks = blocks;
  o.target_bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const EriDataset ds = generate_eri_dataset(mol, o);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return (static_cast<double>(ds.size_bytes()) / 1e6) / std::max(secs, 1e-9);
}

}  // namespace pastri::qc
