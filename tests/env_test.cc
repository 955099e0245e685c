// The Env contract on both KV file backends (BlockEnv on a conventional SSD, ZoneEnv on the
// zoned filesystem): seeded random create/append/sync/delete against a std::map reference,
// with reads at random offsets and lengths that land inside one page, across page and extent
// boundaries, exactly on whole pages, in the tail only, and across extents plus tail; and a
// device filled until Append fails, after which the file holds exactly the bytes it accepted.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/kv/block_env.h"
#include "src/kv/env.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

constexpr std::uint64_t kPage = 4096;

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

enum class Backend { kBlock, kZns };

class EnvContractTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kBlock) {
      ssd_ = std::make_unique<ConventionalSsd>(SmallFlash(), FtlConfig{});
      env_ = std::make_unique<BlockEnv>(ssd_.get());
    } else {
      ZnsConfig zns;
      zns.max_active_zones = 10;
      zns.max_open_zones = 10;
      zns_ = std::make_unique<ZnsDevice>(SmallFlash(), zns);
      auto fs = ZoneFileSystem::Format(zns_.get(), ZoneFileConfig{}, 0);
      ASSERT_TRUE(fs.ok()) << fs.status().ToString();
      fs_ = std::move(fs).value();
      env_ = std::make_unique<ZoneEnv>(fs_.get());
    }
  }

  std::unique_ptr<ConventionalSsd> ssd_;
  std::unique_ptr<ZnsDevice> zns_;
  std::unique_ptr<ZoneFileSystem> fs_;
  std::unique_ptr<Env> env_;
};

std::vector<std::uint8_t> RandomBytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return v;
}

// An append length: a few bytes, up to a page, exactly whole pages, or several pages and a
// part.
std::size_t AppendLength(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return 1 + rng.NextBelow(16);
    case 1:
      return 1 + rng.NextBelow(kPage);
    case 2:
      return kPage * (1 + rng.NextBelow(3));
    default:
      return 1 + rng.NextBelow(4 * kPage);
  }
}

// A read range inside a file of `size` bytes (size > 0).
std::pair<std::uint64_t, std::uint64_t> ReadRange(Rng& rng, std::uint64_t size) {
  auto clamp = [size](std::uint64_t offset, std::uint64_t len) {
    offset = std::min(offset, size - 1);
    return std::make_pair(offset, std::min(len, size - offset));
  };
  switch (rng.NextBelow(7)) {
    case 0: {  // Inside one page.
      const std::uint64_t offset = rng.NextBelow(size);
      return clamp(offset, 1 + rng.NextBelow(kPage - offset % kPage));
    }
    case 1: {  // Across a page boundary.
      const std::uint64_t boundary = kPage * (1 + rng.NextBelow(size / kPage + 1));
      return clamp(boundary - 1 - rng.NextBelow(64), 2 + rng.NextBelow(2 * kPage));
    }
    case 2: {  // Exactly whole pages.
      const std::uint64_t offset = kPage * rng.NextBelow(size / kPage + 1);
      return clamp(offset, kPage * (1 + rng.NextBelow(3)));
    }
    case 3: {  // A page give or take a byte, from a page start or one byte past it.
      const std::uint64_t offset = kPage * rng.NextBelow(size / kPage + 1) + rng.NextBelow(2);
      return clamp(offset, kPage - 1 + rng.NextBelow(3));
    }
    case 4:  // The last bytes, which include the tail.
      return clamp(size - 1 - rng.NextBelow(std::min<std::uint64_t>(size, 2 * kPage)), size);
    case 5:  // From a random offset to the end: extents plus tail.
      return clamp(rng.NextBelow(size), size);
    default:  // The whole file.
      return {0, size};
  }
}

TEST_P(EnvContractTest, RandomOpsMatchMapReference) {
  std::map<std::string, std::vector<std::uint8_t>> reference;
  Rng rng(GetParam() == Backend::kBlock ? 101 : 202);
  SimTime t = 0;
  std::uint64_t serial = 0;
  std::uint64_t reads = 0;
  auto pick = [&]() {
    auto it = reference.begin();
    std::advance(it, static_cast<long>(rng.NextBelow(reference.size())));
    return it;
  };
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t roll = rng.NextBelow(100);
    if (roll < 8 || reference.empty()) {  // Create.
      const std::string name = "file" + std::to_string(serial++);
      const Lifetime hint = static_cast<Lifetime>(rng.NextBelow(kLifetimeClasses));
      Result<SimTime> created = env_->CreateFile(name, hint, t);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      t = created.value();
      reference[name];
    } else if (roll < 45) {  // Append.
      auto it = pick();
      const std::vector<std::uint8_t> data = RandomBytes(rng, AppendLength(rng));
      Result<SimTime> appended = env_->Append(it->first, data, t);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      t = appended.value();
      it->second.insert(it->second.end(), data.begin(), data.end());
    } else if (roll < 55) {  // Sync.
      Result<SimTime> synced = env_->Sync(pick()->first, t);
      ASSERT_TRUE(synced.ok()) << synced.status().ToString();
      t = synced.value();
    } else if (roll < 60) {  // Delete.
      auto it = pick();
      Result<SimTime> deleted = env_->DeleteFile(it->first, t);
      ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
      t = deleted.value();
      reference.erase(it);
    } else {  // Read.
      auto it = pick();
      const std::vector<std::uint8_t>& content = it->second;
      ASSERT_EQ(env_->FileSize(it->first).value(), content.size()) << it->first;
      std::vector<std::uint8_t> past(1);
      EXPECT_EQ(env_->Read(it->first, content.size(), past, t).code(), ErrorCode::kOutOfRange);
      if (content.empty()) {
        continue;
      }
      const auto [offset, len] = ReadRange(rng, content.size());
      std::vector<std::uint8_t> out(len);
      Result<SimTime> read = env_->Read(it->first, offset, out, t);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_GE(read.value(), t);
      const std::vector<std::uint8_t> want(content.begin() + static_cast<long>(offset),
                                           content.begin() + static_cast<long>(offset + len));
      ASSERT_EQ(out, want) << it->first << " offset " << offset << " len " << len;
      ++reads;
    }
    if (op % 50 == 0) {
      env_->Maintain(t, false);
    }
  }
  EXPECT_GT(reads, 1000u);
  std::vector<std::string> names;
  for (const auto& [name, content] : reference) {
    names.push_back(name);
  }
  EXPECT_EQ(env_->ListFiles(), names);
  for (const auto& [name, content] : reference) {
    ASSERT_EQ(env_->FileSize(name).value(), content.size()) << name;
    std::vector<std::uint8_t> out(content.size());
    ASSERT_TRUE(env_->Read(name, 0, out, t).ok()) << name;
    ASSERT_EQ(out, content) << name;
  }
  if (fs_ != nullptr) {
    EXPECT_TRUE(fs_->CheckConsistency().ok());
  }
}

// Appends until the device has no room: the failing Append keeps what its tail took and no
// more, so FileSize is the accepted byte count and a full Read returns exactly that prefix.
TEST_P(EnvContractTest, FailedAppendKeepsExactlyTheAcceptedPrefix) {
  ASSERT_TRUE(env_->CreateFile("big", Lifetime::kLong, 0).ok());
  Rng rng(5);
  std::vector<std::uint8_t> attempted;
  std::uint64_t accepted = 0;
  SimTime t = 0;
  Result<SimTime> appended = t;
  while (appended.ok()) {
    const std::vector<std::uint8_t> data = RandomBytes(rng, 12388);
    attempted.insert(attempted.end(), data.begin(), data.end());
    appended = env_->Append("big", data, t);
    if (appended.ok()) {
      t = appended.value();
      accepted = attempted.size();
    }
    ASSERT_LT(attempted.size(), 64u * kMiB) << "the device never filled";
  }
  const std::uint64_t size = env_->FileSize("big").value();
  EXPECT_GE(size, accepted);
  EXPECT_LT(size, attempted.size()) << "FileSize counts bytes the failed Append did not take";
  std::vector<std::uint8_t> out(size);
  ASSERT_TRUE(env_->Read("big", 0, out, t).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), attempted.begin()));
  if (fs_ != nullptr) {
    EXPECT_TRUE(fs_->CheckConsistency().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EnvContractTest,
                         ::testing::Values(Backend::kBlock, Backend::kZns),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return param_info.param == Backend::kBlock ? "BlockEnv" : "ZoneEnv";
                         });

}  // namespace
}  // namespace blockhead
