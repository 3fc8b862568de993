// io_pipeline - Out-of-core dump/load demo: stream shell blocks from the
// integral engine straight into a sharded compressed file (never holding
// both raw and compressed copies), then stream them back -- the
// file-per-process workflow of the paper's Fig. 10 on a single node.
//
//   $ io_pipeline [shards] [blocks]
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/stream.h"
#include "io/compressed_file.h"
#include "io/file_per_process.h"
#include "qc/eri_engine.h"
#include "zchecker/metrics.h"

int main(int argc, char** argv) {
  using namespace pastri;
  const int shards = argc > 1 ? std::stoi(argv[1]) : 4;
  const std::size_t blocks = argc > 2 ? std::stoul(argv[2]) : 400;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "pastri_io_pipeline")
          .string();
  std::filesystem::create_directories(dir);

  // Produce the dataset (stands in for the GAMESS integral program).
  qc::DatasetOptions opt;
  opt.config = qc::parse_config("(dd|dd)");
  opt.max_blocks = blocks;
  const qc::EriDataset ds =
      qc::generate_eri_dataset(qc::make_glutamine(), opt);
  std::printf("dataset: %s, %zu blocks, %.2f MB\n", ds.label.c_str(),
              ds.num_blocks, ds.size_bytes() / 1e6);

  // Dump: shard-parallel compressed write.
  Params params;
  const std::size_t compressed_bytes =
      io::write_compressed_dataset(ds, params, shards, dir, "eri");
  std::printf("dump   : %d shards, %zu bytes (ratio %.2fx)\n", shards,
              compressed_bytes,
              static_cast<double>(ds.size_bytes()) / compressed_bytes);

  // Load it back and verify the bound.
  const qc::EriDataset restored = io::read_compressed_dataset(dir, "eri");
  const auto err = zchecker::compare(ds.values, restored.values);
  std::printf("load   : %zu blocks, max |error| = %.3e (bound %.0e)\n",
              restored.num_blocks, err.max_abs_error, params.error_bound);

  // Bonus: pure streaming path -- compress block-at-a-time without the
  // dataset ever existing as one raw array on the writer side.
  VectorSink sink;
  StreamWriter writer(
      sink, BlockSpec{ds.shape.num_sub_blocks(), ds.shape.sub_block_size()},
      params);
  for (std::size_t b = 0; b < ds.num_blocks; ++b) {
    writer.put_block(ds.block(b));
  }
  writer.finish();
  SpanSource source(sink.bytes());
  StreamConsumer consumer(source);
  std::vector<double> block(ds.shape.block_size());
  std::size_t n = 0;
  double max_err = 0.0;
  while (consumer.read_blocks(block) == 1) {
    const auto orig = ds.block(n);
    for (std::size_t i = 0; i < block.size(); ++i) {
      max_err = std::max(max_err, std::abs(block[i] - orig[i]));
    }
    ++n;
  }
  std::printf("stream : %zu blocks round-tripped, max |error| = %.3e\n",
              n, max_err);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return (err.max_abs_error <= params.error_bound &&
          max_err <= params.error_bound)
             ? 0
             : 1;
}
