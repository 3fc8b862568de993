// file_per_process.h - POSIX file-per-process dump/load, the I/O pattern
// the paper uses on GPFS ("file-per-process mode with POSIX I/O on each
// process", Section V-A).  The sharded dataset container stores each
// shard as one rank file; the Fig. 10 bench extrapolates to cluster
// scale with the PfsModel.
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
/// must lie inside the file; throws std::runtime_error otherwise.  The
/// shard header, index footer and offset table checks each take one
/// small ranged read instead of pulling the whole shard.
std::vector<std::uint8_t> read_rank_file_slice(const std::string& dir,
                                               const std::string& basename,
                                               int rank, std::size_t offset,
                                               std::size_t count);

/// Remove a rank file (best-effort; returns false if it did not exist).
bool remove_rank_file(const std::string& dir, const std::string& basename,
                      int rank);

}  // namespace pastri::io
