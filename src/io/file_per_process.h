// file_per_process.h - POSIX file-per-process dump/load, the I/O pattern
// the paper uses on GPFS ("file-per-process mode with POSIX I/O on each
// process", Section V-A).  Locally this exercises the real read/write
// path; the Fig. 10 bench combines it with the PfsModel to extrapolate
// to cluster scale.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pastri::io {

/// Path of rank `rank`'s file: `<dir>/<basename>.<rank>`.
std::string rank_file_path(const std::string& dir,
                           const std::string& basename, int rank);

/// Write `data` as `<dir>/<basename>.<rank>` (created/truncated).
/// Throws std::runtime_error on failure.
void write_rank_file(const std::string& dir, const std::string& basename,
                     int rank, std::span<const std::uint8_t> data);

/// Read back a rank file written by write_rank_file.
std::vector<std::uint8_t> read_rank_file(const std::string& dir,
                                         const std::string& basename,
                                         int rank);

/// Size in bytes of a rank file.  Throws std::runtime_error if missing.
std::size_t rank_file_size(const std::string& dir,
                           const std::string& basename, int rank);

/// Read `count` bytes starting at `offset` from a rank file.  The slice
/// must lie inside the file; throws std::runtime_error otherwise.  This
/// is the primitive behind partial shard loads: header, index footer,
/// offset table, and payload ranges are each one small ranged read
/// instead of pulling the whole shard.
std::vector<std::uint8_t> read_rank_file_slice(const std::string& dir,
                                               const std::string& basename,
                                               int rank, std::size_t offset,
                                               std::size_t count);

/// Remove a rank file (best-effort; returns false if it did not exist).
bool remove_rank_file(const std::string& dir, const std::string& basename,
                      int rank);

/// Dump `data` split evenly over `ranks` files, each written serially;
/// returns total elapsed seconds.
double timed_dump(const std::string& dir, const std::string& basename,
                  int ranks, std::span<const std::uint8_t> data);

/// Load previously dumped rank files back into one buffer; returns
/// elapsed seconds via `*seconds` (may be null).
std::vector<std::uint8_t> timed_load(const std::string& dir,
                                     const std::string& basename, int ranks,
                                     double* seconds);

}  // namespace pastri::io
