// bench_common.h - Shared infrastructure for the paper-reproduction
// benches: the six evaluation datasets (tri-alanine/benzene/glutamine x
// (dd|dd)/(ff|ff)), timing helpers, and plain-text table printing.
//
// Dataset sizes are scaled down from the paper's 2 GB samples to finish
// on one node in seconds (population statistics converge at MBs);
// set PASTRI_BENCH_QUICK=1 for an even smaller sweep, or
// PASTRI_BENCH_FULL=1 for larger samples.  Generated datasets are cached
// on disk under /tmp/pastri_bench_cache so successive benches reuse them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/pastri.h"
#include "qc/eri_engine.h"

namespace pastri::bench {

inline bool quick_mode() {
  const char* q = std::getenv("PASTRI_BENCH_QUICK");
  return q != nullptr && q[0] == '1';
}
inline bool full_mode() {
  const char* f = std::getenv("PASTRI_BENCH_FULL");
  return f != nullptr && f[0] == '1';
}

struct DatasetSpec {
  const char* molecule;
  const char* config;
  std::size_t blocks_default;
  std::size_t blocks_quick;
  std::size_t blocks_full;
};

/// The paper's six evaluation datasets (Fig. 9).
inline const std::vector<DatasetSpec>& paper_datasets() {
  static const std::vector<DatasetSpec> specs{
      {"alanine", "(dd|dd)", 1500, 250, 6000},
      {"alanine", "(ff|ff)", 220, 40, 900},
      {"benzene", "(dd|dd)", 1296, 250, 1296},
      {"benzene", "(ff|ff)", 220, 40, 900},
      {"glutamine", "(dd|dd)", 1500, 250, 6000},
      {"glutamine", "(ff|ff)", 220, 40, 900},
  };
  return specs;
}

inline std::size_t spec_blocks(const DatasetSpec& s) {
  if (quick_mode()) return s.blocks_quick;
  if (full_mode()) return s.blocks_full;
  return s.blocks_default;
}

/// Generate (or load from the cache) one benchmark dataset.
inline qc::EriDataset load_bench_dataset(const DatasetSpec& spec) {
  const std::size_t blocks = spec_blocks(spec);
  const std::filesystem::path cache_dir = "/tmp/pastri_bench_cache";
  std::filesystem::create_directories(cache_dir);
  const std::string key = std::string(spec.molecule) + "_" +
                          qc::make_molecule(spec.molecule).name + "_" +
                          spec.config + "_" + std::to_string(blocks);
  std::string fname = key;
  for (char& c : fname) {
    if (c == '(' || c == ')' || c == '|') c = '_';
  }
  const std::filesystem::path path = cache_dir / (fname + ".bin");
  if (std::filesystem::exists(path)) {
    try {
      return qc::load_dataset(path.string());
    } catch (const std::exception&) {
      // fall through and regenerate
    }
  }
  qc::DatasetOptions opt;
  opt.config = qc::parse_config(spec.config);
  opt.max_blocks = blocks;
  opt.seed = 20180901;  // CLUSTER'18
  const qc::EriDataset ds =
      qc::generate_eri_dataset(qc::make_molecule(spec.molecule), opt);
  try {
    qc::save_dataset(ds, path.string());
  } catch (const std::exception&) {
    // cache is best-effort
  }
  return ds;
}

inline BlockSpec block_spec_of(const qc::EriDataset& ds) {
  return BlockSpec{ds.shape.num_sub_blocks(), ds.shape.sub_block_size()};
}

/// Wall-clock seconds of a callable.
inline double time_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Best-of-N timing (reduces scheduler noise on shared machines).
inline double best_time_seconds(const std::function<void()>& fn,
                                int reps = 3) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, time_seconds(fn));
  return best;
}

/// Median and range of N timed repeats, in seconds.
struct TimeSpread {
  double median = 0.0, min = 0.0, max = 0.0;
};

inline TimeSpread time_spread_seconds(const std::function<void()>& fn,
                                      int reps = 5) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(time_seconds(fn));
  std::sort(t.begin(), t.end());
  const std::size_t n = t.size();
  const double median =
      n % 2 == 1 ? t[n / 2] : 0.5 * (t[n / 2 - 1] + t[n / 2]);
  return {median, t.front(), t.back()};
}

/// Where to write a bench artifact (BENCH_*.json).  A full run writes
/// the checked-in copy at the repo root; a quick run
/// (PASTRI_BENCH_QUICK=1) writes into the build tree, wherever it is
/// started from, so quick numbers never overwrite the recorded ones.
/// bench/CMakeLists.txt defines both directories; a binary built
/// without them writes into the working directory.
inline std::string artifact_path(const char* filename) {
#if defined(PASTRI_SOURCE_DIR) && defined(PASTRI_BENCH_BINARY_DIR)
  return std::string(quick_mode() ? PASTRI_BENCH_BINARY_DIR
                                  : PASTRI_SOURCE_DIR) +
         "/" + filename;
#else
  return filename;
#endif
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

inline void print_header(const char* title, const char* paper_ref) {
  print_rule();
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  if (quick_mode()) std::printf("(quick mode: reduced dataset sizes)\n");
  print_rule();
}

}  // namespace pastri::bench
