// quartet_plan.h - The one shell-quartet path: every ERI block is
// computed here.
//
// The dense ERI tensor and the compressed store walk the ns^4 ordered
// shell quartets of a BasisSet class by class, the direct Fock build and
// store-backed MP2 its canonical ones; the dataset generator
// (eri_engine.h) samples ordered ones.  `ShellLayout` is where each shell
// sits in basis-function index space (offsets, widths, momenta, centers)
// and the one place that enumerates quartets; `QuartetPlan` adds the
// integral side: every shell pair's ShellPairData, built once (in
// parallel across pairs) and kept at each R stride its quartets need, plus the
// Schwarz table.  Both are immutable after construction.  The plan also
// owns the one parallel compute loop, `compute_batch`: the dataset
// generator, the store build and the dense tensor all compute their
// blocks through it, one thread-local workspace per worker thread.
// Both loops run through parallel_for (core/parallel.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "qc/basis.h"
#include "qc/md_eri.h"

namespace pastri::qc {

/// Per-shell placement of a BasisSet in basis-function index space.
class ShellLayout {
 public:
  explicit ShellLayout(const BasisSet& basis);

  std::size_t num_shells() const { return l_.size(); }
  std::size_t num_functions() const { return offset_.back(); }
  std::size_t num_quartets() const {
    const std::size_t ns = num_shells();
    return ns * ns * ns * ns;
  }

  int momentum(std::size_t s) const { return l_[s]; }
  /// First basis function of shell `s`.
  std::size_t offset(std::size_t s) const { return offset_[s]; }
  /// Cartesian components of shell `s`.
  std::size_t width(std::size_t s) const {
    return offset_[s + 1] - offset_[s];
  }

  /// Flat quartet index ((a*ns + b)*ns + c)*ns + d.
  std::size_t quartet_index(std::size_t a, std::size_t b, std::size_t c,
                            std::size_t d) const {
    const std::size_t ns = num_shells();
    return ((a * ns + b) * ns + c) * ns + d;
  }

  std::size_t block_size(std::size_t a, std::size_t b, std::size_t c,
                         std::size_t d) const {
    return width(a) * width(b) * width(c) * width(d);
  }

  /// True when both layouts have shells of the same momenta at the same
  /// centers, in the same order -- the condition under which a block
  /// stored for one basis can be read for the other.
  bool same_shells(const ShellLayout& other) const {
    return l_ == other.l_ && center_ == other.center_;
  }

  /// The momentum classes (lA, lB, lC, lD) the ordered quartets fall
  /// in, ascending.
  std::vector<std::array<int, 4>> quartet_classes() const;

  /// Call f(a, b, c, d) for every ordered shell quartet of momentum class
  /// `cls`, in flat-index order.
  template <typename F>
  void for_each_quartet_in_class(const std::array<int, 4>& cls,
                                 F&& f) const {
    std::array<std::vector<std::size_t>, 4> shells;
    for (std::size_t k = 0; k < 4; ++k)
      for (std::size_t s = 0; s < num_shells(); ++s)
        if (l_[s] == cls[k]) shells[k].push_back(s);
    for (const std::size_t a : shells[0])
      for (const std::size_t b : shells[1])
        for (const std::size_t c : shells[2])
          for (const std::size_t d : shells[3]) f(a, b, c, d);
  }

  /// Call f(a, b, c, d, deg) for every canonical shell quartet (a >= b,
  /// c >= d, pair ab >= pair cd); deg (1, 2, 4 or 8) counts the ordered
  /// quartets it stands for under 8-fold permutational symmetry.
  template <typename F>
  void for_each_canonical_quartet(F&& f) const {
    const std::size_t ns = num_shells();
    for (std::size_t a = 0; a < ns; ++a)
      for (std::size_t b = 0; b <= a; ++b)
        for (std::size_t c = 0; c <= a; ++c)
          for (std::size_t d = 0; d <= (c == a ? b : c); ++d)
            f(a, b, c, d,
              (a == b ? 1 : 2) * (c == d ? 1 : 2) *
                  (a == c && b == d ? 1 : 2));
  }

  /// Call f(mu, nu, la, si, value) for every element of the (a b|c d)
  /// block `blk`, which is laid out as compute_eri_block writes it.
  template <typename F>
  void for_each_element(std::size_t a, std::size_t b, std::size_t c,
                        std::size_t d, const double* blk, F&& f) const {
    std::size_t idx = 0;
    for (std::size_t mu = offset_[a]; mu < offset_[a + 1]; ++mu)
      for (std::size_t nu = offset_[b]; nu < offset_[b + 1]; ++nu)
        for (std::size_t la = offset_[c]; la < offset_[c + 1]; ++la)
          for (std::size_t si = offset_[d]; si < offset_[d + 1]; ++si)
            f(mu, nu, la, si, blk[idx++]);
  }

 private:
  std::vector<int> l_;
  std::vector<Vec3> center_;
  std::vector<std::size_t> offset_;  ///< num_shells + 1 entries
};

/// One quartet of a compute batch, as shell indices.  A skipped quartet
/// is not computed; its block comes out all-zero.
struct Quartet {
  std::size_t a = 0, b = 0, c = 0, d = 0;
  bool skip = false;
};

/// What one QuartetPlan::compute_batch call did.
struct BatchCounts {
  std::uint64_t computed = 0;    ///< quartets not skipped
  std::uint64_t boys_evals = 0;  ///< Boys function evaluations
};

/// A BasisSet's shell-pair cache and Schwarz table: computes any
/// (a b|c d) block from pairs built once.  compute() is bit-identical
/// to building both ShellPairData objects fresh for that quartet,
/// because each pair is kept linearized at exactly the R stride the
/// quartet uses.
class QuartetPlan {
 public:
  explicit QuartetPlan(const BasisSet& basis);

  const ShellLayout& layout() const { return layout_; }

  /// Cauchy-Schwarz bound sqrt(max (ab|ab)) of shell pair (a, b).
  double schwarz(std::size_t a, std::size_t b) const {
    return schwarz_[a * layout_.num_shells() + b];
  }

  /// Compute the (a b|c d) block into `out`, which must hold
  /// layout().block_size(a, b, c, d) doubles.
  void compute(std::size_t a, std::size_t b, std::size_t c, std::size_t d,
               EriWorkspace& ws, std::span<double> out) const;

  /// The one parallel compute loop.  Computes `batch`, whose quartets all
  /// have block size `block_size`, into consecutive block_size slots of
  /// `out` (batch.size() * block_size doubles); skipped quartets come out
  /// all-zero.  parallel_for over `num_threads` threads (core/parallel.h),
  /// in chunks of 16 small blocks down to single blocks of 256
  /// integrals or more; serial when the batch fits in one chunk.
  /// Each worker uses its thread's EriWorkspace.  Every block is
  /// compute()'s, so the bits do not depend on the thread count.  Throws
  /// std::invalid_argument on a size mismatch.
  BatchCounts compute_batch(std::span<const Quartet> batch,
                            std::size_t block_size, int num_threads,
                            std::span<double> out) const;

  using BatchFn =
      std::function<void(std::span<const Quartet>, std::span<const double>)>;

  /// Compute every ordered quartet of momentum class `cls`, in flat-index
  /// order, through compute_batch in batches of at most
  /// auto_batch_blocks(class block spec, num_threads) blocks
  /// (core/stream.h); on_batch(quartets, blocks) sees each batch once.
  /// Memory is O(batch), never O(class).
  void compute_class(const std::array<int, 4>& cls, int num_threads,
                     const BatchFn& on_batch) const;

 private:
  /// Pair (a, b) linearized for quartets whose other pair has momentum
  /// sum `other_l_sum`.
  const ShellPairData& pair(std::size_t a, std::size_t b,
                            int other_l_sum) const {
    return pairs_[(a * layout_.num_shells() + b) * num_l_sums_ +
                  static_cast<std::size_t>(other_l_sum)];
  }

  ShellLayout layout_;
  std::size_t num_l_sums_ = 0;  ///< 2 * max momentum + 1
  std::vector<ShellPairData> pairs_;
  std::vector<double> schwarz_;  ///< a * ns + b
};

}  // namespace pastri::qc
