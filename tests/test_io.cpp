// Tests for the PFS performance model and file-per-process I/O helpers.
#include <gtest/gtest.h>

#include <filesystem>

#include "io/file_per_process.h"
#include "io/pfs_model.h"
#include "test_util.h"

namespace pastri::io {
namespace {

TEST(PfsModel, BandwidthMonotoneInCores) {
  const PfsModel m;
  double prev = 0.0;
  for (int cores : {1, 16, 64, 256, 1024, 4096}) {
    const double bw = m.aggregate_bandwidth(cores);
    EXPECT_GE(bw, prev) << cores;
    prev = bw;
  }
}

TEST(PfsModel, BandwidthSaturatesBelowPeak) {
  const PfsModel m;
  EXPECT_LT(m.aggregate_bandwidth(1 << 20), m.peak_bandwidth_mbps);
  EXPECT_GT(m.aggregate_bandwidth(1 << 20), 0.99 * m.peak_bandwidth_mbps);
}

TEST(PfsModel, SmallCoreCountTakesBindingMinimum) {
  const PfsModel m;
  const double expect =
      std::min(m.per_core_bandwidth_mbps,
               m.peak_bandwidth_mbps / (1.0 + m.half_saturation_cores));
  EXPECT_DOUBLE_EQ(m.aggregate_bandwidth(1), expect);
  EXPECT_LE(m.aggregate_bandwidth(1), m.per_core_bandwidth_mbps);
}

TEST(PfsModel, RejectsZeroCores) {
  const PfsModel m;
  EXPECT_THROW(m.aggregate_bandwidth(0), std::invalid_argument);
}

TEST(PfsModel, HigherRatioDumpsFaster) {
  const PfsModel m;
  CodecProfile slow{"low", 5.0, 500.0, 800.0};
  CodecProfile fast{"high", 17.0, 500.0, 800.0};
  const double t_slow = dump_time(m, slow, 2000.0, 512).total_seconds();
  const double t_fast = dump_time(m, fast, 2000.0, 512).total_seconds();
  EXPECT_LT(t_fast, t_slow);
}

TEST(PfsModel, LoadMirrorsDump) {
  const PfsModel m;
  CodecProfile c{"x", 10.0, 400.0, 400.0};
  const IoTimes d = dump_time(m, c, 1000.0, 256);
  const IoTimes l = load_time(m, c, 1000.0, 256);
  EXPECT_DOUBLE_EQ(d.io_seconds, l.io_seconds);  // symmetric BW model
  EXPECT_DOUBLE_EQ(d.compute_seconds, l.compute_seconds);
}

TEST(PfsModel, MoreCoresNeverSlower) {
  const PfsModel m;
  CodecProfile c{"x", 16.8, 660.0, 1110.0};
  double prev = 1e300;
  for (int cores : {256, 512, 1024, 2048}) {
    const double t = dump_time(m, c, 2000.0, cores).total_seconds();
    EXPECT_LE(t, prev) << cores;
    prev = t;
  }
}

TEST(PfsModel, RawIoDominatesCompressed) {
  // The paper: writing the original data takes "extremely long" compared
  // with compressed dumps.
  const PfsModel m;
  CodecProfile c{"PaSTRI", 16.8, 660.0, 1110.0};
  const double raw = raw_io_time(m, 2000.0, 1024);
  const double dumped = dump_time(m, c, 2000.0, 1024).total_seconds();
  EXPECT_GT(raw, 2.0 * dumped);
}

class FppTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testutil::per_test_dir("pastri_fpp"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(FppTest, WriteReadRoundTrip) {
  // An empty rank file (a rank with no bytes to dump) round-trips too.
  for (const std::vector<std::uint8_t>& data :
       {std::vector<std::uint8_t>{10, 20, 30, 40, 50},
        std::vector<std::uint8_t>{}}) {
    write_rank_file(dir_, "chunk", 3, data);
    EXPECT_EQ(rank_file_size(dir_, "chunk", 3), data.size());
    EXPECT_EQ(read_rank_file(dir_, "chunk", 3), data);
    EXPECT_TRUE(remove_rank_file(dir_, "chunk", 3));
    EXPECT_FALSE(remove_rank_file(dir_, "chunk", 3));
  }
}

TEST_F(FppTest, ReadMissingThrows) {
  EXPECT_THROW(read_rank_file(dir_, "nope", 0), std::runtime_error);
  EXPECT_THROW(rank_file_size(dir_, "nope", 0), std::runtime_error);
  EXPECT_THROW(read_rank_file_slice(dir_, "nope", 0, 0, 1),
               std::runtime_error);
}

TEST_F(FppTest, SliceReadsExactRanges) {
  const std::vector<std::uint8_t> data{10, 20, 30, 40, 50, 60};
  write_rank_file(dir_, "chunk", 0, data);
  EXPECT_EQ(rank_file_size(dir_, "chunk", 0), data.size());
  EXPECT_EQ(read_rank_file_slice(dir_, "chunk", 0, 0, 6), data);
  EXPECT_EQ(read_rank_file_slice(dir_, "chunk", 0, 2, 3),
            (std::vector<std::uint8_t>{30, 40, 50}));
  EXPECT_EQ(read_rank_file_slice(dir_, "chunk", 0, 5, 1),
            (std::vector<std::uint8_t>{60}));
  EXPECT_TRUE(read_rank_file_slice(dir_, "chunk", 0, 6, 0).empty());
  // Past-the-end slices are rejected, not clamped.
  EXPECT_THROW(read_rank_file_slice(dir_, "chunk", 0, 5, 2),
               std::runtime_error);
  EXPECT_THROW(read_rank_file_slice(dir_, "chunk", 0, 7, 0),
               std::runtime_error);
}

}  // namespace
}  // namespace pastri::io
