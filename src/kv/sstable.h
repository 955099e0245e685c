// Sorted string table: the on-"disk" unit of the mini-LSM store.
//
// Layout (all little-endian), modeled on LevelDB/RocksDB:
//   [data block]*    entries: key_len u16 | key | type u8 | value_len u32 | value
//   [index]          per block: offset u64 | size u32 | last_key_len u16 | last_key
//   [bloom filter]   bit_count u32 | k u32 | bits
//   [footer, 48 B]   index_off u64 | index_len u64 | bloom_off u64 | bloom_len u64 |
//                    entry_count u64 | magic u64
//
// The builder streams blocks to the Env as they fill; the reader loads the footer, index, and
// bloom filter once at open (the "table cache") and then serves point lookups with at most one
// data-block read.

#ifndef BLOCKHEAD_SRC_KV_SSTABLE_H_
#define BLOCKHEAD_SRC_KV_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/kv/env.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

enum class KvEntryType : std::uint8_t { kTombstone = 0, kValue = 1 };

// One entry viewed in place: the key and value point into the bytes it was parsed from (a
// data block in a BlockArena, or a memtable node).
struct KvEntryView {
  std::string_view key;
  KvEntryType type = KvEntryType::kValue;
  std::string_view value;
};

// Buffers for the data blocks one call reads, reused from call to call so the read path does
// not allocate once warm. A buffer keeps its address until Reset(), so entry views parsed
// from it stay valid for the rest of the call.
class BlockArena {
 public:
  // Frees every buffer for reuse; views into them become invalid.
  void Reset() { used_ = 0; }
  // A buffer of `size` bytes whose address holds until Reset().
  std::span<std::uint8_t> Next(std::size_t size);
  // Data blocks SSTableReader has parsed from this arena's buffers (a work counter).
  std::uint64_t blocks_parsed() const { return blocks_parsed_; }

 private:
  friend class SSTableReader;

  std::vector<std::vector<std::uint8_t>> buffers_;
  std::size_t used_ = 0;
  std::uint64_t blocks_parsed_ = 0;
};

// Blocked bloom-free simple bloom filter with double hashing.
class BloomFilter {
 public:
  // The two FNV-1a hashes a key probes with (h2 is odd).
  struct KeyHash {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
  };

  BloomFilter() = default;

  static KeyHash Hash(std::string_view key);
  static BloomFilter Build(std::span<const KeyHash> hashes, std::uint32_t bits_per_key);
  static Result<BloomFilter> Deserialize(std::span<const std::uint8_t> bytes);

  bool MayContain(std::string_view key) const;
  std::vector<std::uint8_t> Serialize() const;
  std::uint32_t bit_count() const { return bit_count_; }

 private:
  std::uint32_t bit_count_ = 0;
  std::uint32_t k_ = 0;
  std::vector<std::uint8_t> bits_;
};

// Streams sorted entries into a new file. Add() must be called in strictly increasing key
// order; Finish() writes index/bloom/footer and syncs.
class SSTableBuilder {
 public:
  // `hint` is the lifetime class the file is created with.
  SSTableBuilder(Env* env, std::string name, Lifetime hint);

  Status Start(SimTime now);  // Creates the file.
  Status Add(std::string_view key, KvEntryType type, std::string_view value, SimTime now);
  // Completes the table. Returns the sync completion time.
  Result<SimTime> Finish(SimTime now);

  const std::string& name() const { return name_; }
  std::uint64_t file_bytes() const { return offset_; }
  std::uint64_t entry_count() const { return entry_count_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  SimTime last_write_completion() const { return last_write_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    std::string last_key;
  };

  Status FlushBlock(SimTime now);

  Env* env_;
  std::string name_;
  Lifetime hint_;
  std::vector<std::uint8_t> block_;
  std::vector<IndexEntry> index_;
  std::vector<BloomFilter::KeyHash> key_hashes_;  // For the bloom filter.
  std::uint64_t offset_ = 0;
  std::uint64_t entry_count_ = 0;
  std::string smallest_;
  std::string largest_;  // Also the last key of the block being built.
  SimTime last_write_ = 0;
  bool started_ = false;
};

// Read handle over a finished table. Open() loads footer + index + bloom.
class SSTableReader {
 public:
  static Result<std::unique_ptr<SSTableReader>> Open(Env* env, std::string name, SimTime now);

  // The reads below put each data block they read into `arena`; the entry views they return
  // point into it and stay valid until the arena is reset.

  struct GetResult {
    bool found = false;           // Key present (as value or tombstone).
    KvEntryType type = KvEntryType::kValue;
    std::string_view value;
    SimTime completion = 0;
    bool bloom_skipped = false;   // Lookup answered negatively by the filter alone.
  };

  Result<GetResult> Get(std::string_view key, SimTime now, BlockArena* arena) const;

  // Appends every entry, in order, to `out` (used by compaction). Returns the completion of
  // the last block read (`now` if none).
  Result<SimTime> ReadAll(SimTime now, BlockArena* arena, std::vector<KvEntryView>* out) const;

  // Appends up to `limit` entries with key >= start_key, in order, to `out`, reading only the
  // data blocks that can contain them (used by range scans). Returns as ReadAll does.
  Result<SimTime> ScanFrom(std::string_view start_key, std::size_t limit, SimTime now,
                           BlockArena* arena, std::vector<KvEntryView>* out) const;

  const std::string& name() const { return name_; }
  std::uint64_t entry_count() const { return entry_count_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    std::string last_key;
  };

  SSTableReader(Env* env, std::string name) : env_(env), name_(std::move(name)) {}

  // Reads data block `e` into `arena`, parses it and calls visit(entry) for each entry in
  // order. A truncated entry anywhere in the block fails the whole read with kCorruption.
  template <typename Visit>
  Result<SimTime> ReadBlock(const IndexEntry& e, SimTime now, BlockArena* arena,
                            Visit&& visit) const;
  // The first block whose last key is >= `key`.
  std::vector<IndexEntry>::const_iterator FirstBlockFor(std::string_view key) const;

  Env* env_;
  std::string name_;
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  std::uint64_t entry_count_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_SSTABLE_H_
