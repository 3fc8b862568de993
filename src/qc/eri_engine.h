// eri_engine.h - Shell-quartet enumeration, Schwarz screening, and
// dataset generation: the GAMESS-side substrate that feeds PaSTRI.
//
// The paper's datasets are streams of shell blocks for one BF
// configuration at a time -- (dd|dd), (ff|ff), hybrids -- sampled down to
// a practical size.  `generate_eri_dataset` reproduces that: it builds
// shells of the requested momenta on the molecule's heavy atoms,
// enumerates all ordered shell quartets, draws a deterministic uniform
// sample, and evaluates each block with the McMurchie-Davidson engine.
// Quartets failing the Schwarz bound are emitted as all-zero blocks,
// matching the paper's "screened elements are represented as zeros".
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "qc/basis.h"
#include "qc/dataset.h"
#include "qc/md_eri.h"
#include "qc/molecule.h"

namespace pastri::qc {

struct DatasetOptions {
  /// BF configuration: angular momentum of each of the four shell slots.
  std::array<int, 4> config{2, 2, 2, 2};  // default (dd|dd)

  int contraction = 1;        ///< primitives per shell
  std::uint64_t seed = 12345; ///< sampling seed (deterministic)

  /// Cap on the number of blocks.
  std::size_t max_blocks = std::numeric_limits<std::size_t>::max();

  /// Schwarz product threshold below which a quartet is screened out
  /// (emitted as zeros).  GAMESS uses ~1e-10..1e-12 integral cutoffs.
  double screen_threshold = 1e-12;
};

/// Parse "(dd|dd)"-style names ("dddd", "(fd|ff)", ...) into a config.
/// Throws std::invalid_argument on malformed names.
std::array<int, 4> parse_config(const std::string& name);

/// Generate a sampled ERI dataset for `mol` under `opt`.
EriDataset generate_eri_dataset(const Molecule& mol,
                                const DatasetOptions& opt);

/// Metadata of a planned generation, known before any block is computed
/// (it is exactly the label/shape/num_blocks the dense dataset would
/// have).  Streaming consumers use `num_blocks` to declare the block
/// count up-front, e.g. to a StreamWriter on a non-seekable sink.
struct EriStreamMeta {
  std::string label;
  BlockShape shape;
  std::size_t num_blocks = 0;
};

/// The planned generation behind `generate_eri_dataset`, reified: plans
/// once (shells, Schwarz screen, deterministic sample), then computes
/// any range of dataset blocks on demand.  The plan is a pure function
/// of (mol, opt), so two generators -- or the same generator across
/// process restarts -- produce identical blocks for identical indices.
/// That random access is what the pipeline's shard-resume path and
/// per-rank (file-per-process) dumps are built on: rank r computes
/// exactly the block range its shard covers, nothing else.
///
/// The plan is a QuartetPlan over the union of the slots' shells, so
/// every block comes out of QuartetPlan::compute_batch, the one parallel
/// compute loop the BasisSet consumers use too.  compute_range() is
/// parallel through it (core/parallel.h); the plan is immutable after
/// construction and per-quartet scratch lives in thread-local
/// workspaces, so a const generator may be used from any thread.
class EriBlockGenerator {
 public:
  EriBlockGenerator(const Molecule& mol, const DatasetOptions& opt);
  ~EriBlockGenerator();
  EriBlockGenerator(EriBlockGenerator&&) noexcept;
  EriBlockGenerator& operator=(EriBlockGenerator&&) noexcept;
  EriBlockGenerator(const EriBlockGenerator&) = delete;
  EriBlockGenerator& operator=(const EriBlockGenerator&) = delete;

  const EriStreamMeta& meta() const;

  /// Compute dataset blocks [first, first+count) into `out`, which must
  /// hold exactly count * shape.block_size() doubles.  Screened quartets
  /// come out all-zero.  Throws std::out_of_range past num_blocks.
  void compute_range(std::size_t first, std::size_t count,
                     std::span<double> out) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Throughput measurement helper for Fig. 11: evaluates `blocks` sampled
/// blocks and returns generated MB per second of wall time.
double measure_generation_rate(const Molecule& mol, const DatasetOptions& opt,
                               std::size_t blocks);

}  // namespace pastri::qc
