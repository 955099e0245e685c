// Tests for the LSM read path: KvStore::Scan against a std::map reference over a store with a
// memtable, overlapping L0 tables and sorted levels L1-L3; the exact sequence of Env::Read
// calls a seeded workload makes on each file backend (pinned as a hash); kCorruption from a
// truncated block entry on every path that parses blocks; and the serialized bytes of a fixed
// bloom filter.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/kv/block_env.h"
#include "src/kv/kv_store.h"
#include "src/kv/sstable.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08llu", static_cast<unsigned long long>(n));
  return buf;
}

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Forwards to another Env and hands every successful Read, once done, to `on_read`, which
// may inspect or alter the bytes read.
class TapEnv final : public Env {
 public:
  using ReadTap =
      std::function<void(std::string_view, std::uint64_t, std::span<std::uint8_t>, SimTime)>;

  TapEnv(Env* inner, ReadTap on_read) : inner_(inner), on_read_(std::move(on_read)) {}

  Result<SimTime> CreateFile(std::string_view name, Lifetime hint, SimTime now) override {
    return inner_->CreateFile(name, hint, now);
  }
  Result<SimTime> Append(std::string_view name, std::span<const std::uint8_t> data,
                         SimTime now) override {
    return inner_->Append(name, data, now);
  }
  Result<SimTime> Read(std::string_view name, std::uint64_t offset, std::span<std::uint8_t> out,
                       SimTime now) override {
    Result<SimTime> done = inner_->Read(name, offset, out, now);
    if (done.ok()) {
      on_read_(name, offset, out, now);
    }
    return done;
  }
  Result<SimTime> Sync(std::string_view name, SimTime now) override {
    return inner_->Sync(name, now);
  }
  Result<SimTime> DeleteFile(std::string_view name, SimTime now) override {
    return inner_->DeleteFile(name, now);
  }
  Result<std::uint64_t> FileSize(std::string_view name) const override {
    return inner_->FileSize(name);
  }
  bool Exists(std::string_view name) const override { return inner_->Exists(name); }
  std::vector<std::string> ListFiles() const override { return inner_->ListFiles(); }

 private:
  Env* inner_;
  ReadTap on_read_;
};

KvConfig SmallLevels() {
  KvConfig config;
  config.memtable_bytes = 8 * kKiB;
  config.level_base_bytes = 16 * kKiB;
  config.level_multiplier = 4.0;
  config.target_table_bytes = 8 * kKiB;
  return config;
}

// A seeded mix of puts and deletes over a shared key space, applied to the store and to
// `reference`.
class Writer {
 public:
  Writer(KvStore* store, std::uint64_t seed, std::map<std::string, std::string>* reference)
      : store_(store), rng_(seed), reference_(reference) {}

  void Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::string key = KeyOf(rng_.NextBelow(kKeySpace));
      Result<SimTime> done = 0;
      if (rng_.NextBool(0.15)) {
        done = store_->Delete(key, t);
        reference_->erase(key);
      } else {
        std::string value = "v" + std::to_string(rng_.Next() % 1000000) + "-";
        value.resize(16 + rng_.NextBelow(120), static_cast<char>('a' + i % 26));
        done = store_->Put(key, value, t);
        (*reference_)[key] = value;
      }
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      t = done.value();
    }
  }

  void Flush() {
    Result<SimTime> done = store_->Flush(t);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    t = done.value();
  }

  Rng& rng() { return rng_; }

  static constexpr std::uint64_t kKeySpace = 2500;
  SimTime t = 0;

 private:
  KvStore* store_;
  Rng rng_;
  std::map<std::string, std::string>* reference_;
};

// Loads the store until it holds L1-L3 tables, then flushes small batches until L0 holds
// three overlapping tables (the fourth flush would compact them), then leaves a batch in the
// memtable.
void BuildLayeredStore(KvStore* store, Writer* writer) {
  writer->Run(3000);
  for (int i = 0; i < 8 && store->LevelTableCounts()[0] != 3; ++i) {
    writer->Run(25);
    writer->Flush();
  }
  writer->Run(25);
  const std::vector<std::uint32_t> counts = store->LevelTableCounts();
  ASSERT_EQ(counts[0], 3u);
  ASSERT_GT(counts[1], 0u);
  ASSERT_GT(counts[2], 0u);
  ASSERT_GT(counts[3], 0u);
}

// Start keys that cover: before every key, past every key, stored keys, absent keys and keys
// that fall between two stored keys.
std::vector<std::string> StartKeys(Rng& rng, int random) {
  std::vector<std::string> keys = {"", "a", "zzz", KeyOf(0)};
  for (int i = 0; i < random; ++i) {
    std::string key = KeyOf(rng.NextBelow(Writer::kKeySpace + 50));
    if (i % 2 == 1) {
      key += "5";
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

class KvScanDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvScanDifferentialTest, ScanMatchesMapReference) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  auto opened = KvStore::Open(&env, SmallLevels(), 0);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<KvStore> store = std::move(opened).value();
  std::map<std::string, std::string> reference;
  Writer writer(store.get(), GetParam(), &reference);
  ASSERT_NO_FATAL_FAILURE(BuildLayeredStore(store.get(), &writer));
  ASSERT_GT(store->stats().deletes, 0u);

  for (const std::string& start : StartKeys(writer.rng(), 30)) {
    for (std::size_t limit = 0; limit <= 60; ++limit) {
      Result<KvStore::ScanResult> got = store->Scan(start, limit, writer.t);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::vector<std::pair<std::string, std::string>> want;
      for (auto it = reference.lower_bound(start); it != reference.end() && want.size() < limit;
           ++it) {
        want.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(got->entries, want) << "start '" << start << "' limit " << limit;
      writer.t = std::max(writer.t, got->completion);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvScanDifferentialTest, ::testing::Values(1, 2, 3));

// The SimTime of a read is decided by which blocks it reads and when. This pins the exact
// Env::Read sequence (name, offset, size, now) of a seeded workload that flushes, compacts
// through L3, scans at every limit 0..60 and probes with Get, plus the bytes every read
// returned (table, manifest and WAL contents), on each file backend.
struct ReadSchedule {
  std::uint64_t reads = 0;
  // One hash over the calls (name, offset, size, now), one over the bytes they returned.
  std::uint64_t call_hash = 1469598103934665603ULL;
  std::uint64_t bytes_hash = 1469598103934665603ULL;
  SimTime end = 0;
};

void RunReadSchedule(Env* inner, ReadSchedule* schedule) {
  TapEnv env(inner, [&](std::string_view name, std::uint64_t offset, std::span<std::uint8_t> out,
                        SimTime now) {
    const std::uint64_t words[3] = {offset, out.size(), now};
    schedule->call_hash =
        Fnv(Fnv(schedule->call_hash, name.data(), name.size()), words, sizeof(words));
    schedule->bytes_hash = Fnv(schedule->bytes_hash, out.data(), out.size());
    ++schedule->reads;
  });
  auto opened = KvStore::Open(&env, SmallLevels(), 0);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<KvStore> store = std::move(opened).value();
  std::map<std::string, std::string> reference;
  Writer writer(store.get(), 7, &reference);
  ASSERT_NO_FATAL_FAILURE(BuildLayeredStore(store.get(), &writer));
  for (const std::string& start : StartKeys(writer.rng(), 12)) {
    for (std::size_t limit = 0; limit <= 60; ++limit) {
      Result<KvStore::ScanResult> got = store->Scan(start, limit, writer.t);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      writer.t = std::max(writer.t, got->completion);
    }
  }
  for (std::uint64_t i = 0; i < Writer::kKeySpace; i += 7) {
    Result<KvStore::GetResult> got = store->Get(KeyOf(i), writer.t);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    writer.t = std::max(writer.t, got->completion);
  }
  schedule->end = writer.t;
}

TEST(KvReadScheduleTest, EnvReadSequenceIsPinned) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv block_env(&ssd);
  ReadSchedule schedule;
  ASSERT_NO_FATAL_FAILURE(RunReadSchedule(&block_env, &schedule));
  EXPECT_EQ(schedule.reads, 10359u);
  EXPECT_EQ(schedule.call_hash, 17036960899056127010ULL);
  EXPECT_EQ(schedule.bytes_hash, 15909227318582336569ULL);
  EXPECT_EQ(schedule.end, 157138u);
}

TEST(KvReadScheduleTest, ZoneEnvReadSequenceIsPinned) {
  ZnsConfig zns;
  zns.max_active_zones = 10;
  zns.max_open_zones = 10;
  ZnsDevice device(SmallFlash(), zns);
  auto fs = ZoneFileSystem::Format(&device, ZoneFileConfig{}, 0);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ZoneEnv zone_env(fs.value().get());
  ReadSchedule schedule;
  ASSERT_NO_FATAL_FAILURE(RunReadSchedule(&zone_env, &schedule));
  EXPECT_EQ(schedule.reads, 10359u);
  EXPECT_EQ(schedule.call_hash, 15483052048852541929ULL);
  EXPECT_EQ(schedule.bytes_hash, 15909227318582336569ULL);
  EXPECT_EQ(schedule.end, 3670559u);
}

TEST(KvCorruptionTest, TruncatedBlockEntryFailsGetScanAndCompaction) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv block_env(&ssd);
  // Once armed, the first entry of every table's first data block gets key length 0xFFFF,
  // so it runs past the end of the block.
  bool armed = false;
  TapEnv env(&block_env, [&armed](std::string_view name, std::uint64_t offset,
                                  std::span<std::uint8_t> out, SimTime) {
    if (armed && offset == 0 && name.ends_with(".sst")) {
      out[0] = 0xFF;
      out[1] = 0xFF;
    }
  });
  KvConfig config;
  config.memtable_bytes = 1 * kMiB;  // Only explicit flushes.
  auto opened = KvStore::Open(&env, config, 0);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<KvStore> store = std::move(opened).value();
  SimTime t = 0;
  auto fill_and_flush = [&](std::uint64_t from) {
    for (std::uint64_t i = from; i < from + 200; ++i) {
      Result<SimTime> put = store->Put(KeyOf(i), std::string(40, 'x'), t);
      ASSERT_TRUE(put.ok());
      t = put.value();
    }
    Result<SimTime> flushed = store->Flush(t);
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    t = flushed.value();
  };
  ASSERT_NO_FATAL_FAILURE(fill_and_flush(0));
  ASSERT_TRUE(store->Get(KeyOf(0), t).ok());
  ASSERT_TRUE(store->Scan(KeyOf(0), 10, t).ok());

  armed = true;
  EXPECT_EQ(store->Get(KeyOf(0), t).code(), ErrorCode::kCorruption);
  EXPECT_EQ(store->Scan(KeyOf(0), 10, t).code(), ErrorCode::kCorruption);
  EXPECT_EQ(store->Scan("", 1, t).code(), ErrorCode::kCorruption);
  // Three more L0 tables: the fourth flush compacts L0, which reads every block.
  ASSERT_NO_FATAL_FAILURE(fill_and_flush(1000));
  ASSERT_NO_FATAL_FAILURE(fill_and_flush(2000));
  for (std::uint64_t i = 3000; i < 3200; ++i) {
    ASSERT_TRUE(store->Put(KeyOf(i), std::string(40, 'x'), t).ok());
  }
  EXPECT_EQ(store->Flush(t).code(), ErrorCode::kCorruption);
}

// The builder hashes each key once as it is added; the filter it writes must keep the bytes the
// per-key copies used to produce.
TEST(BloomFilterBytesTest, FixedKeySetSerializesToPinnedBytes) {
  std::vector<BloomFilter::KeyHash> hashes;
  for (std::uint64_t i = 0; i < 25; ++i) {
    hashes.push_back(BloomFilter::Hash(KeyOf(i * 37)));
  }
  std::string hex;
  for (const std::uint8_t byte : BloomFilter::Build(hashes, 10).Serialize()) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", byte);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "fa000000060000007c8d7dd904888e3c01d727c01ac66a5335b8e7e06924b85634a683c7c5cb5000");
}

}  // namespace
}  // namespace blockhead
