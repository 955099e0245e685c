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
#include <string>
#include <string_view>
#include <vector>

#include "src/kv/env.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

enum class KvEntryType : std::uint8_t { kTombstone = 0, kValue = 1 };

struct KvEntry {
  std::string key;
  KvEntryType type = KvEntryType::kValue;
  std::string value;
};

// Blocked bloom-free simple bloom filter with double hashing.
class BloomFilter {
 public:
  BloomFilter() = default;

  static BloomFilter Build(const std::vector<std::string>& keys, std::uint32_t bits_per_key);
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
  std::vector<std::string> keys_;  // For the bloom filter.
  std::uint64_t offset_ = 0;
  std::uint64_t entry_count_ = 0;
  std::string smallest_;
  std::string largest_;
  std::string block_last_key_;
  SimTime last_write_ = 0;
  bool started_ = false;
};

// Read handle over a finished table. Open() loads footer + index + bloom.
class SSTableReader {
 public:
  static Result<std::unique_ptr<SSTableReader>> Open(Env* env, std::string name, SimTime now);

  struct GetResult {
    bool found = false;           // Key present (as value or tombstone).
    KvEntryType type = KvEntryType::kValue;
    std::string value;
    SimTime completion = 0;
    bool bloom_skipped = false;   // Lookup answered negatively by the filter alone.
  };

  Result<GetResult> Get(std::string_view key, SimTime now) const;

  // Reads every entry in order (used by compaction).
  Result<std::vector<KvEntry>> ReadAll(SimTime now, SimTime* completion = nullptr) const;

  // Reads up to `limit` entries with key >= start_key, in order, touching only the data
  // blocks that can contain them (used by range scans).
  Result<std::vector<KvEntry>> ScanFrom(std::string_view start_key, std::size_t limit,
                                        SimTime now, SimTime* completion = nullptr) const;

  const std::string& name() const { return name_; }
  std::uint64_t entry_count() const { return entry_count_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    std::string last_key;
  };

  SSTableReader(Env* env, std::string name) : env_(env), name_(std::move(name)) {}

  static Status ParseBlock(std::span<const std::uint8_t> block,
                           std::vector<KvEntry>* entries);

  Env* env_;
  std::string name_;
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  std::uint64_t entry_count_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_SSTABLE_H_
