// bench_random_access.cpp - Seek cost of the indexed (v3) container.
//
// The point of the block index: pulling one block out of an N-block
// stream should cost O(block), not O(stream).  This bench measures, at
// several block counts,
//   - full decompress (the pre-index baseline for any single-block need),
//   - single-block decode, cold (BlockReader construction included) and
//     warm (reader reused),
//   - a 64-block range decode,
// and reports the single-block speedup over full decompression.  Emits
// JSON (one object per block count) so the numbers are scriptable.
//
// Usage: bench_random_access [block_counts...]   (default: 100 1000 10000)
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pastri.h"

namespace {

/// Synthetic noisy-pattern blocks in the paper's (dd|dd) shape.
std::vector<double> make_blocks(const pastri::BlockSpec& spec,
                                std::size_t num_blocks) {
  std::mt19937_64 gen(20180901);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data;
  data.reserve(num_blocks * spec.block_size());
  std::vector<double> base(spec.sub_block_size);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    for (auto& x : base) x = 1e-4 * dist(gen);
    for (std::size_t j = 0; j < spec.num_sub_blocks; ++j) {
      const double s = dist(gen);
      for (std::size_t i = 0; i < spec.sub_block_size; ++i) {
        data.push_back(s * base[i] + 1e-8 * dist(gen));
      }
    }
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pastri;
  std::vector<std::size_t> counts;
  for (int i = 1; i < argc; ++i) {
    counts.push_back(std::strtoull(argv[i], nullptr, 10));
  }
  if (counts.empty()) counts = {100, 1000, 10000};
  if (bench::quick_mode()) counts = {100, 1000};

  const BlockSpec spec{36, 36};  // (dd|dd)
  Params params;

  std::printf("[\n");
  for (std::size_t ci = 0; ci < counts.size(); ++ci) {
    const std::size_t nb = counts[ci];
    const auto data = make_blocks(spec, nb);
    const auto stream = compress(data, spec, params);

    std::mt19937_64 pick(7);
    const double t_full = bench::best_time_seconds([&] {
      volatile double sink = decompress(stream)[0];
      (void)sink;
    });
    // Cold: index parse + one block, i.e. "open the stream, read one":
    // the BlockReader is constructed inside the timed call.
    const double t_cold = bench::best_time_seconds([&] {
      volatile double sink = BlockReader(stream).read_block(pick() % nb)[0];
      (void)sink;
    });
    // Warm: reader (and its parsed index) reused across seeks.
    const BlockReader reader(stream);
    std::vector<double> block(spec.block_size());
    const int warm_reps = 64;
    const double t_warm =
        bench::best_time_seconds([&] {
          for (int r = 0; r < warm_reps; ++r) {
            reader.read_block(pick() % nb, block);
          }
        }) /
        warm_reps;
    const std::size_t range_count = std::min<std::size_t>(64, nb);
    const double t_range = bench::best_time_seconds([&] {
      volatile double sink =
          reader.read_range(pick() % (nb - range_count + 1), range_count)[0];
      (void)sink;
    });

    std::printf("  {\"blocks\": %zu, \"stream_bytes\": %zu,\n", nb,
                stream.size());
    std::printf("   \"full_decompress_s\": %.3e,\n", t_full);
    std::printf("   \"single_block_cold_s\": %.3e,\n", t_cold);
    std::printf("   \"single_block_warm_s\": %.3e,\n", t_warm);
    std::printf("   \"range64_s\": %.3e,\n", t_range);
    std::printf("   \"speedup_cold\": %.1f, \"speedup_warm\": %.1f}%s\n",
                t_full / t_cold, t_full / t_warm,
                ci + 1 < counts.size() ? "," : "");
  }
  std::printf("]\n");
  return 0;
}
