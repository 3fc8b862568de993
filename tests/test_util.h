// test_util.h - Shared fixtures and data factories for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "core/block_spec.h"
#include "qc/eri_engine.h"
#include "qc/molecule.h"
#include "qc/quartet_plan.h"

namespace pastri::testutil {

/// Deterministic RNG for reproducible tests.
inline std::mt19937_64 rng(std::uint64_t seed = 0xC0FFEE) {
  return std::mt19937_64(seed);
}

/// A fresh directory for the running test, `<tmp>/<prefix>_<test name>`,
/// created on the spot (the fixture's TearDown removes it).  One
/// directory per test keeps parallel ctest processes, which run the
/// tests of one fixture at the same time, out of each other's files.
inline std::string per_test_dir(const std::string& prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / (prefix + "_" + info->name());
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// OS threads of this process, or -1 when /proc/self/task is unreadable.
inline int os_thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int count = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return -1;
    ++count;
  }
  return count;
}

/// Water, R_OH ~ 0.9572 A and HOH ~ 104.52 deg (coordinates in bohr).
inline pastri::qc::Molecule h2o_molecule() {
  pastri::qc::Molecule m;
  m.name = "H2O";
  m.atoms = {{"O", 8, {0, 0, 0}},
             {"H", 1, {0, 1.4305, 1.1093}},
             {"H", 1, {0, -1.4305, 1.1093}}};
  return m;
}

/// Staggered methanol, CH3-OH (coordinates given in Angstrom).
inline pastri::qc::Molecule methanol_molecule() {
  pastri::qc::Molecule m;
  m.name = "methanol";
  m.atoms = {{"C", 6, {-0.0465, 0.6633, 0.0}},
             {"O", 8, {-0.0465, -0.7553, 0.0}},
             {"H", 1, {-1.0863, 0.9766, 0.0}},
             {"H", 1, {0.4378, 1.0709, 0.8900}},
             {"H", 1, {0.4378, 1.0709, -0.8900}},
             {"H", 1, {0.8614, -1.0558, 0.0}}};
  for (pastri::qc::Atom& a : m.atoms) {
    for (double& x : a.position) x *= pastri::qc::kAngstromToBohr;
  }
  return m;
}

/// Uniform random doubles in [lo, hi].
inline std::vector<double> random_doubles(std::size_t n, double lo,
                                          double hi,
                                          std::uint64_t seed = 0xC0FFEE) {
  auto gen = rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

/// A block that is an *exact* pattern: sub-block j = scale_j * base.
/// PaSTRI should compress this to pattern+scales with (almost) no ECQ.
inline std::vector<double> exact_pattern_block(const pastri::BlockSpec& spec,
                                               std::uint64_t seed = 7) {
  auto gen = rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> base(spec.sub_block_size);
  for (auto& x : base) x = dist(gen);
  std::vector<double> block(spec.block_size());
  for (std::size_t j = 0; j < spec.num_sub_blocks; ++j) {
    // Guarantee at least one scale of magnitude 1 (the pattern itself).
    const double s = (j == 0) ? 1.0 : dist(gen);
    for (std::size_t i = 0; i < spec.sub_block_size; ++i) {
      block[j * spec.sub_block_size + i] = s * base[i];
    }
  }
  return block;
}

/// Pattern block with bounded additive noise (models real ERI deviation).
inline std::vector<double> noisy_pattern_block(const pastri::BlockSpec& spec,
                                               double noise,
                                               std::uint64_t seed = 7) {
  auto block = exact_pattern_block(spec, seed);
  auto gen = rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::uniform_real_distribution<double> dist(-noise, noise);
  for (auto& x : block) x += dist(gen);
  return block;
}

/// QuartetPlan over ad-hoc shells, in the given order.
inline pastri::qc::QuartetPlan plan_of(
    std::vector<pastri::qc::Shell> shells) {
  pastri::qc::BasisSet basis;
  basis.shells = std::move(shells);
  return pastri::qc::QuartetPlan(basis);
}

/// The (AB|CD) block of four ad-hoc shells, computed through a plan.
inline std::vector<double> eri_quartet(const pastri::qc::Shell& A,
                                       const pastri::qc::Shell& B,
                                       const pastri::qc::Shell& C,
                                       const pastri::qc::Shell& D) {
  const pastri::qc::QuartetPlan plan = plan_of({A, B, C, D});
  pastri::qc::EriWorkspace ws;
  std::vector<double> out(plan.layout().block_size(0, 1, 2, 3));
  plan.compute(0, 1, 2, 3, ws, out);
  return out;
}

/// Small cached ERI dataset for integration-style tests (computed once).
inline const pastri::qc::EriDataset& small_eri_dataset() {
  static const pastri::qc::EriDataset ds = [] {
    pastri::qc::DatasetOptions o;
    o.config = {2, 2, 2, 2};
    o.max_blocks = 200;
    o.seed = 99;
    return pastri::qc::generate_eri_dataset(pastri::qc::make_benzene(), o);
  }();
  return ds;
}

/// Small (pd|dp)-style hybrid dataset exercising non-uniform shapes.
inline const pastri::qc::EriDataset& hybrid_eri_dataset() {
  static const pastri::qc::EriDataset ds = [] {
    pastri::qc::DatasetOptions o;
    o.config = {1, 2, 2, 1};
    o.max_blocks = 150;
    o.seed = 17;
    return pastri::qc::generate_eri_dataset(pastri::qc::make_glutamine(), o);
  }();
  return ds;
}

inline double max_abs_diff(std::span<const double> a,
                           std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace pastri::testutil
