#include "io/block_store.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/compressed_file.h"
#include "io/tool_container.h"

namespace pastri::io {
namespace {

// Raw PaSTRI stream magic, little-endian as the first four file bytes.
constexpr std::uint32_t kStreamMagic = 0x52545350;  // "PSTR"

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("BlockStore: cannot open " + path);
  const auto size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(data.data()), size);
  if (!f) throw std::runtime_error("BlockStore: read failed: " + path);
  return data;
}

std::uint32_t leading_magic(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) return 0;
  std::uint32_t m;
  std::memcpy(&m, bytes.data(), 4);
  return m;
}

}  // namespace

BlockStore::BlockStore(const std::string& path, const CacheConfig& cache)
    : cache_(cache) {
  if (path.empty()) {
    throw std::invalid_argument("BlockStore: empty path");
  }
  if (path.size() > 9 && path.rfind(".manifest") == path.size() - 9) {
    open_manifest_(path);
  } else {
    open_container_(path);
  }
  if (block_size() == 0) {
    throw std::runtime_error("BlockStore: zero block size");
  }
}

void BlockStore::add_shard_(std::vector<std::uint8_t>&& bytes,
                            const std::string& what) {
  Shard shard;
  shard.bytes = std::move(bytes);
  std::span<const std::uint8_t> stream(shard.bytes);
  switch (leading_magic(shard.bytes)) {
    case kToolMagic:
      stream = parse_tool_file(stream).stream;
      break;
    case kStreamMagic:
      break;
    default:
      throw std::runtime_error("BlockStore: " + what +
                               " is not a PaSTRI container");
  }
  shard.reader = std::make_unique<BlockReader>(stream);
  shard.first_block = num_blocks_;
  if (shards_.empty()) {
    info_ = shard.reader->info();
  } else if (shard.reader->info().spec.num_sub_blocks !=
                 info_.spec.num_sub_blocks ||
             shard.reader->info().spec.sub_block_size !=
                 info_.spec.sub_block_size) {
    throw std::runtime_error("BlockStore: " + what +
                             " disagrees on the block spec");
  }
  num_blocks_ += shard.reader->num_blocks();
  compressed_bytes_ += shard.bytes.size();
  shards_.push_back(std::move(shard));
}

void BlockStore::open_container_(const std::string& path) {
  add_shard_(read_file(path), path);
}

void BlockStore::open_manifest_(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string dir =
      p.parent_path().empty() ? "." : p.parent_path().string();
  const std::string basename = p.stem().string();  // strips ".manifest"
  const CompressedDatasetInfo ds = read_manifest(dir, basename);
  for (std::size_t s = 0; s < ds.layout.num_shards; ++s) {
    const std::string shard_path =
        dir + "/" + basename + "." + std::to_string(s);
    add_shard_(read_file(shard_path), shard_path);
    check_shard_block_size(shards_.back().reader->info(), ds.shape);
  }
  if (num_blocks_ != ds.num_blocks) {
    throw std::runtime_error(
        "BlockStore: shard block counts disagree with the manifest");
  }
}

std::shared_ptr<const std::vector<double>> BlockStore::block(
    std::size_t index) const {
  if (index >= num_blocks_) {
    throw std::out_of_range("BlockStore: block index out of range");
  }
  if (auto hit = cache_.lookup(index)) return hit;
  // Shards are contiguous in block order; binary-search the owner.
  std::size_t lo = 0, hi = shards_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (shards_[mid].first_block <= index) lo = mid;
    else hi = mid - 1;
  }
  const Shard& shard = shards_[lo];
  std::vector<double> decoded =
      shard.reader->read_block(index - shard.first_block);
  return cache_.insert(index, std::move(decoded));
}

std::vector<double> BlockStore::range(std::size_t first,
                                      std::size_t count) const {
  if (first + count < first || first + count > num_blocks_) {
    throw std::out_of_range("BlockStore: block range out of range");
  }
  std::vector<double> out(count * block_size());
  range(first, count, out);
  return out;
}

void BlockStore::range(std::size_t first, std::size_t count,
                       std::span<double> out) const {
  if (first + count < first || first + count > num_blocks_) {
    throw std::out_of_range("BlockStore: block range out of range");
  }
  if (out.size() != count * block_size()) {
    throw std::invalid_argument("BlockStore: output size mismatch");
  }
  for (const Shard& shard : shards_) {
    const std::size_t shard_end =
        shard.first_block + shard.reader->num_blocks();
    const std::size_t lo = std::max(first, shard.first_block);
    const std::size_t hi = std::min(first + count, shard_end);
    if (lo >= hi) continue;
    shard.reader->read_range(
        lo - shard.first_block, hi - lo,
        out.subspan((lo - first) * block_size(), (hi - lo) * block_size()));
  }
}

}  // namespace pastri::io
