#include "qc/eri_engine.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "qc/quartet_plan.h"

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

/// The shells of the four configuration slots as one BasisSet: the
/// make_basis shells of each distinct slot momentum, in first-slot
/// order.  Slot s owns shells [first[s], first[s] + count[s]).
struct SlotBasis {
  BasisSet basis;
  std::array<std::size_t, 4> first{};
  std::array<std::size_t, 4> count{};
};

SlotBasis slot_basis(const Molecule& mol, const DatasetOptions& opt) {
  SlotBasis sb;
  for (int s = 0; s < 4; ++s) {
    const int l = opt.config[s];
    if (l < 0 || l > kMaxAngularMomentum) {
      throw std::invalid_argument("configuration momentum out of range");
    }
    int prev = 0;
    while (prev < s && opt.config[prev] != l) ++prev;
    if (prev < s) {
      sb.first[s] = sb.first[prev];
      sb.count[s] = sb.count[prev];
      continue;
    }
    BasisOptions bo;
    bo.l = l;
    bo.contraction = opt.contraction;
    const BasisSet b = make_basis(mol, bo);
    sb.first[s] = sb.basis.shells.size();
    sb.count[s] = b.shells.size();
    sb.basis.shells.insert(sb.basis.shells.end(), b.shells.begin(),
                           b.shells.end());
  }
  for (const std::size_t n : sb.count) {
    if (n == 0) {
      throw std::invalid_argument(
          "molecule yields no shells for this config");
    }
  }
  return sb;
}

/// Everything `generate_eri_dataset` decides before computing a single
/// integral: the quartet plan over the slots' shells (pairs and Schwarz
/// table), the sample as shell indices into the plan's union basis
/// (screened quartets marked skip, computed as zeros), and the dataset
/// metadata.  Immutable
/// once built, so concurrent readers are safe.
struct EriPlan {
  QuartetPlan quartets;
  std::vector<Quartet> items;
  EriStreamMeta meta;
};

EriPlan plan_eri(const Molecule& mol, const DatasetOptions& opt) {
  const SlotBasis sb = slot_basis(mol, opt);
  EriPlan plan{QuartetPlan(sb.basis), {}, {}};
  const std::size_t ns = plan.quartets.layout().num_shells();
  engine_metrics().pair_misses.add(ns * ns);

  plan.meta.shape.n = {
      static_cast<std::uint16_t>(num_cartesians(opt.config[0])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[1])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[2])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[3]))};
  plan.meta.label = mol.name + " " + plan.meta.shape.config_name();

  const auto& n = sb.count;
  const std::size_t total = n[0] * n[1] * n[2] * n[3];
  const auto indices = sample_indices(
      total, std::min(total, opt.max_blocks), opt.seed);

  // Mark the sampled quartets that fail the Schwarz screen.
  plan.items.reserve(indices.size());
  for (std::size_t flat : indices) {
    Quartet it;
    it.d = sb.first[3] + flat % n[3];
    flat /= n[3];
    it.c = sb.first[2] + flat % n[2];
    flat /= n[2];
    it.b = sb.first[1] + flat % n[1];
    it.a = sb.first[0] + flat / n[1];
    it.skip = plan.quartets.schwarz(it.a, it.b) *
                  plan.quartets.schwarz(it.c, it.d) <
              opt.screen_threshold;
    plan.items.push_back(it);
  }
  plan.meta.num_blocks = plan.items.size();
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
  const EngineMetrics& metrics = engine_metrics();
  const bool timed = metrics.generate_batch_ns.active();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  const BatchCounts done = plan.quartets.compute_batch(
      std::span<const Quartet>(plan.items).subspan(first, count), bs, 0,
      out);
  metrics.quartets.add(count);
  metrics.boys_evals.add(done.boys_evals);
  metrics.pair_hits.add(2 * done.computed);  // bra + ket per quartet
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

double measure_generation_rate(const Molecule& mol, const DatasetOptions& opt,
                               std::size_t blocks) {
  DatasetOptions o = opt;
  o.max_blocks = blocks;
  const auto t0 = std::chrono::steady_clock::now();
  const EriDataset ds = generate_eri_dataset(mol, o);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return (static_cast<double>(ds.size_bytes()) / 1e6) / std::max(secs, 1e-9);
}

}  // namespace pastri::qc
