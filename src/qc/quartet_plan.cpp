#include "qc/quartet_plan.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>

#include "core/parallel.h"
#include "core/stream.h"
#include "qc/cartesian.h"

namespace pastri::qc {
namespace {

/// compute_batch's parallel_for chunk, in quartets: 16 small blocks
/// (STO-3G's s and p classes cost microseconds each), down to one block
/// once a block holds 256 or more integrals ((dd|dd) and up cost
/// milliseconds, and 16 of them would hand one thread a quarter of a
/// whole pipeline chunk).
std::size_t schedule_chunk(std::size_t block_size) {
  return std::clamp<std::size_t>(256 / std::max<std::size_t>(block_size, 1),
                                 1, 16);
}

/// One reusable quartet workspace per OS thread.  Concurrent
/// compute_batch calls run on disjoint OS threads (parallel_for's teams
/// never share a thread), so they never share one.
EriWorkspace& tls_workspace() {
  thread_local EriWorkspace ws;
  return ws;
}

}  // namespace

ShellLayout::ShellLayout(const BasisSet& basis)
    : offset_(basis.shells.size() + 1, 0) {
  l_.reserve(basis.shells.size());
  center_.reserve(basis.shells.size());
  for (std::size_t s = 0; s < basis.shells.size(); ++s) {
    const Shell& sh = basis.shells[s];
    l_.push_back(sh.l);
    center_.push_back(sh.center);
    offset_[s + 1] =
        offset_[s] + static_cast<std::size_t>(sh.num_components());
  }
}

std::vector<std::array<int, 4>> ShellLayout::quartet_classes() const {
  std::vector<int> ls = l_;
  std::sort(ls.begin(), ls.end());
  ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
  std::vector<std::array<int, 4>> classes;
  for (const int la : ls)
    for (const int lb : ls)
      for (const int lc : ls)
        for (const int ld : ls) classes.push_back({la, lb, lc, ld});
  return classes;
}

QuartetPlan::QuartetPlan(const BasisSet& basis) : layout_(basis) {
  const std::size_t ns = layout_.num_shells();
  int lmax = 0;
  for (const Shell& sh : basis.shells) lmax = std::max(lmax, sh.l);
  num_l_sums_ = static_cast<std::size_t>(2 * lmax + 1);

  // A pair meets, as its other side, every momentum sum some pair of the
  // basis has; the quartet's R stride is the sum of both plus one.
  std::vector<bool> occurs(num_l_sums_, false);
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      occurs[static_cast<std::size_t>(layout_.momentum(a) +
                                      layout_.momentum(b))] = true;
    }
  }

  // Build each pair once, keep a copy linearized per stride, and take
  // its Schwarz bound from the copy at the diagonal stride 2 * l_sum.
  // Every (a, b) writes only its own slots, so rows of the table are
  // built in parallel, one row per chunk.
  pairs_.resize(ns * ns * num_l_sums_);
  schwarz_.resize(ns * ns);
  parallel_for(ns, 1, 0, [&](std::size_t begin, std::size_t end, int) {
    EriWorkspace ws;
    for (std::size_t a = begin; a < end; ++a) {
      for (std::size_t b = 0; b < ns; ++b) {
        const ShellPairData built(basis.shells[a], basis.shells[b]);
        for (std::size_t s = 0; s < num_l_sums_; ++s) {
          if (!occurs[s]) continue;
          ShellPairData& p = pairs_[(a * ns + b) * num_l_sums_ + s];
          p = built;
          p.set_r_stride(built.l_sum() + static_cast<int>(s));
        }
        schwarz_[a * ns + b] = schwarz_bound(pair(a, b, built.l_sum()), ws);
      }
    }
  });
}

void QuartetPlan::compute(std::size_t a, std::size_t b, std::size_t c,
                          std::size_t d, EriWorkspace& ws,
                          std::span<double> out) const {
  const int bra_l = layout_.momentum(a) + layout_.momentum(b);
  const int ket_l = layout_.momentum(c) + layout_.momentum(d);
  compute_eri_block(pair(a, b, ket_l), pair(c, d, bra_l), ws, out);
}

BatchCounts QuartetPlan::compute_batch(std::span<const Quartet> batch,
                                       std::size_t block_size,
                                       int num_threads,
                                       std::span<double> out) const {
  if (out.size() != batch.size() * block_size) {
    throw std::invalid_argument(
        "QuartetPlan::compute_batch: output span does not match batch");
  }
  std::atomic<std::uint64_t> computed = 0;
  std::atomic<std::uint64_t> boys_evals = 0;
  parallel_for(
      batch.size(), schedule_chunk(block_size), num_threads,
      [&](std::size_t begin, std::size_t end, int) {
        EriWorkspace& ws = tls_workspace();
        const std::uint64_t boys0 = ws.boys_evals;
        std::uint64_t done = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Quartet& q = batch[i];
          const auto blk = out.subspan(i * block_size, block_size);
          if (q.skip) {
            std::fill(blk.begin(), blk.end(), 0.0);
            continue;
          }
          compute(q.a, q.b, q.c, q.d, ws, blk);
          ++done;
        }
        computed += done;
        boys_evals += ws.boys_evals - boys0;
      });
  return {computed.load(), boys_evals.load()};
}

void QuartetPlan::compute_class(const std::array<int, 4>& cls,
                                int num_threads,
                                const BatchFn& on_batch) const {
  const auto width = [&](std::size_t k) {
    return static_cast<std::size_t>(num_cartesians(cls[k]));
  };
  const BlockSpec spec{.num_sub_blocks = width(0) * width(1),
                       .sub_block_size = width(2) * width(3)};
  const std::size_t bs = spec.block_size();
  const std::size_t cap = auto_batch_blocks(spec, num_threads);
  std::vector<Quartet> batch;
  batch.reserve(cap);
  std::vector<double> values(cap * bs);
  const auto flush = [&] {
    const auto blocks = std::span<double>(values).first(batch.size() * bs);
    compute_batch(batch, bs, num_threads, blocks);
    on_batch(batch, blocks);
    batch.clear();
  };
  layout_.for_each_quartet_in_class(
      cls, [&](std::size_t a, std::size_t b, std::size_t c, std::size_t d) {
        batch.push_back({a, b, c, d});
        if (batch.size() == cap) flush();
      });
  if (!batch.empty()) flush();
}

}  // namespace pastri::qc
