#include "src/kv/sstable.h"

#include <algorithm>
#include <cassert>

#include "src/util/bytes.h"

namespace blockhead {

namespace {

constexpr std::uint64_t kTableMagic = 0x31424154534E5A42ULL;  // "BZNSTAB1"
constexpr std::size_t kFooterBytes = 48;
// Upper bound on a bloom filter's hash count (Build clamps k to [1, kMaxHashes]).
constexpr std::uint32_t kMaxHashes = 16;
// The builder flushes a data block once it reaches this many bytes.
constexpr std::uint32_t kSSTableBlockBytes = 4096;
constexpr std::uint32_t kBloomBitsPerKey = 10;

// FNV-1a 64-bit.
std::uint64_t HashKey(std::string_view key, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

// --- BlockArena ---

std::span<std::uint8_t> BlockArena::Next(std::size_t size) {
  if (used_ == buffers_.size()) {
    buffers_.emplace_back();
  }
  std::vector<std::uint8_t>& buffer = buffers_[used_++];
  buffer.resize(size);
  return buffer;
}

// --- BloomFilter ---

BloomFilter::KeyHash BloomFilter::Hash(std::string_view key) {
  return KeyHash{HashKey(key, 0), HashKey(key, 0x9E3779B97F4A7C15ULL) | 1};
}

BloomFilter BloomFilter::Build(std::span<const KeyHash> hashes, std::uint32_t bits_per_key) {
  BloomFilter f;
  if (hashes.empty() || bits_per_key == 0) {
    return f;
  }
  f.bit_count_ =
      static_cast<std::uint32_t>(std::max<std::size_t>(64, hashes.size() * bits_per_key));
  // k = bits_per_key * ln2, clamped.
  f.k_ = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(static_cast<double>(bits_per_key) * 0.69), 1, kMaxHashes);
  f.bits_.assign((f.bit_count_ + 7) / 8, 0);
  for (const KeyHash& h : hashes) {
    for (std::uint32_t i = 0; i < f.k_; ++i) {
      const std::uint64_t bit = (h.h1 + i * h.h2) % f.bit_count_;
      f.bits_[bit / 8] |= static_cast<std::uint8_t>(1U << (bit % 8));
    }
  }
  return f;
}

bool BloomFilter::MayContain(std::string_view key) const {
  if (bit_count_ == 0) {
    return true;  // No filter -> cannot exclude.
  }
  const KeyHash h = Hash(key);
  for (std::uint32_t i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h.h1 + i * h.h2) % bit_count_;
    if (!(bits_[bit / 8] & (1U << (bit % 8)))) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> BloomFilter::Serialize() const {
  std::vector<std::uint8_t> out;
  PutU32(out, bit_count_);
  PutU32(out, k_);
  out.insert(out.end(), bits_.begin(), bits_.end());
  return out;
}

Result<BloomFilter> BloomFilter::Deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  BloomFilter f;
  f.bit_count_ = in.U32();
  f.k_ = in.U32();
  if (!in.ok()) {
    return Status(ErrorCode::kCorruption, "bloom too short");
  }
  // Build() writes either an empty filter (no bits, k = 0) or k in [1, 16].
  if ((f.bit_count_ == 0) != (f.k_ == 0) || f.k_ > kMaxHashes) {
    return Status(ErrorCode::kCorruption, "bloom hash count out of range");
  }
  if (in.remaining() != (std::uint64_t{f.bit_count_} + 7) / 8) {
    return Status(ErrorCode::kCorruption, "bloom size mismatch");
  }
  f.bits_.assign(bytes.begin() + 8, bytes.end());
  return f;
}

// --- SSTableBuilder ---

SSTableBuilder::SSTableBuilder(Env* env, std::string name, Lifetime hint)
    : env_(env), name_(std::move(name)), hint_(hint) {}

Status SSTableBuilder::Start(SimTime now) {
  Result<SimTime> created = env_->CreateFile(name_, hint_, now);
  if (!created.ok()) {
    return created.status();
  }
  last_write_ = created.value();
  started_ = true;
  return Status::Ok();
}

Status SSTableBuilder::FlushBlock(SimTime now) {
  if (block_.empty()) {
    return Status::Ok();
  }
  // Self-chain on the previous block's completion: table writes are a single QD-1 stream
  // (like a rate-limited compaction), not a burst booked at one instant — so foreground reads
  // can interleave on the device.
  Result<SimTime> appended = env_->Append(name_, block_, std::max(now, last_write_));
  if (!appended.ok()) {
    return appended.status();
  }
  last_write_ = std::max(last_write_, appended.value());
  index_.push_back(IndexEntry{offset_, static_cast<std::uint32_t>(block_.size()), largest_});
  offset_ += block_.size();
  block_.clear();
  return Status::Ok();
}

Status SSTableBuilder::Add(std::string_view key, KvEntryType type, std::string_view value,
                           SimTime now) {
  assert(started_);
  assert(entry_count_ == 0 || key > largest_);
  if (entry_count_ == 0) {
    smallest_.assign(key);
  }
  largest_.assign(key);
  PutU16(block_, static_cast<std::uint16_t>(key.size()));
  block_.insert(block_.end(), key.begin(), key.end());
  block_.push_back(static_cast<std::uint8_t>(type));
  PutU32(block_, static_cast<std::uint32_t>(value.size()));
  block_.insert(block_.end(), value.begin(), value.end());
  key_hashes_.push_back(BloomFilter::Hash(key));
  entry_count_++;
  if (block_.size() >= kSSTableBlockBytes) {
    return FlushBlock(now);
  }
  return Status::Ok();
}

Result<SimTime> SSTableBuilder::Finish(SimTime now) {
  assert(started_);
  BLOCKHEAD_RETURN_IF_ERROR(FlushBlock(now));

  std::vector<std::uint8_t> tail;
  const std::uint64_t index_off = offset_;
  for (const IndexEntry& e : index_) {
    PutU64(tail, e.offset);
    PutU32(tail, e.size);
    PutU16(tail, static_cast<std::uint16_t>(e.last_key.size()));
    tail.insert(tail.end(), e.last_key.begin(), e.last_key.end());
  }
  const std::uint64_t index_len = tail.size();

  const BloomFilter bloom = BloomFilter::Build(key_hashes_, kBloomBitsPerKey);
  const std::vector<std::uint8_t> bloom_bytes = bloom.Serialize();
  const std::uint64_t bloom_off = index_off + index_len;
  tail.insert(tail.end(), bloom_bytes.begin(), bloom_bytes.end());

  PutU64(tail, index_off);
  PutU64(tail, index_len);
  PutU64(tail, bloom_off);
  PutU64(tail, bloom_bytes.size());
  PutU64(tail, entry_count_);
  PutU64(tail, kTableMagic);

  Result<SimTime> appended = env_->Append(name_, tail, std::max(now, last_write_));
  if (!appended.ok()) {
    return appended;
  }
  offset_ += tail.size();
  Result<SimTime> synced = env_->Sync(name_, appended.value());
  if (!synced.ok()) {
    return synced;
  }
  last_write_ = std::max(last_write_, synced.value());
  return last_write_;
}

// --- SSTableReader ---

Result<std::unique_ptr<SSTableReader>> SSTableReader::Open(Env* env, std::string name,
                                                           SimTime now) {
  Result<std::uint64_t> size = env->FileSize(name);
  if (!size.ok()) {
    return size.status();
  }
  if (size.value() < kFooterBytes) {
    return Status(ErrorCode::kCorruption, "table smaller than footer");
  }
  std::vector<std::uint8_t> footer(kFooterBytes);
  Result<SimTime> r = env->Read(name, size.value() - kFooterBytes, footer, now);
  if (!r.ok()) {
    return r.status();
  }
  ByteReader in(footer);
  const std::uint64_t index_off = in.U64();
  const std::uint64_t index_len = in.U64();
  const std::uint64_t bloom_off = in.U64();
  const std::uint64_t bloom_len = in.U64();
  const std::uint64_t entry_count = in.U64();
  const std::uint64_t magic = in.U64();
  // The index and bloom sections both lie before the footer. Checked before either buffer is
  // allocated, and without forming off + len (which can wrap).
  const std::uint64_t body = size.value() - kFooterBytes;
  const auto in_body = [body](std::uint64_t off, std::uint64_t len) {
    return len <= body && off <= body - len;
  };
  if (magic != kTableMagic || !in_body(index_off, index_len) || !in_body(bloom_off, bloom_len)) {
    return Status(ErrorCode::kCorruption, "bad table footer");
  }

  auto reader = std::unique_ptr<SSTableReader>(new SSTableReader(env, std::move(name)));
  reader->entry_count_ = entry_count;

  std::vector<std::uint8_t> index_bytes(index_len);
  if (index_len > 0) {
    r = env->Read(reader->name_, index_off, index_bytes, now);
    if (!r.ok()) {
      return r.status();
    }
  }
  ByteReader index(index_bytes);
  while (index.remaining() >= 14) {  // offset u64 | size u32 | key length u16 | key
    IndexEntry e;
    e.offset = index.U64();
    e.size = index.U32();
    e.last_key = index.String(index.U16());
    if (!index.ok()) {
      return Status(ErrorCode::kCorruption, "truncated index entry");
    }
    reader->index_.push_back(std::move(e));
  }

  std::vector<std::uint8_t> bloom_bytes(bloom_len);
  if (bloom_len > 0) {
    r = env->Read(reader->name_, bloom_off, bloom_bytes, now);
    if (!r.ok()) {
      return r.status();
    }
    Result<BloomFilter> bloom = BloomFilter::Deserialize(bloom_bytes);
    if (!bloom.ok()) {
      return bloom.status();
    }
    reader->bloom_ = std::move(bloom).value();
  }
  return reader;
}

template <typename Visit>
Result<SimTime> SSTableReader::ReadBlock(const IndexEntry& e, SimTime now, BlockArena* arena,
                                         Visit&& visit) const {
  const std::span<std::uint8_t> block = arena->Next(e.size);
  Result<SimTime> r = env_->Read(name_, e.offset, block, now);
  if (!r.ok()) {
    return r;
  }
  arena->blocks_parsed_++;
  ByteReader in(block);
  while (in.remaining() >= 7) {  // key length u16 | key | type u8 | value length u32 | value
    KvEntryView entry;
    entry.key = in.View(in.U16());
    entry.type = static_cast<KvEntryType>(in.U8());
    entry.value = in.View(in.U32());
    if (!in.ok()) {
      return Status(ErrorCode::kCorruption, "truncated entry");
    }
    visit(entry);
  }
  return r;
}

// First block whose last_key >= key; every later block may also hold keys >= key.
std::vector<SSTableReader::IndexEntry>::const_iterator SSTableReader::FirstBlockFor(
    std::string_view key) const {
  return std::lower_bound(index_.begin(), index_.end(), key,
                          [](const IndexEntry& e, std::string_view k) {
                            return std::string_view(e.last_key) < k;
                          });
}

Result<SSTableReader::GetResult> SSTableReader::Get(std::string_view key, SimTime now,
                                                    BlockArena* arena) const {
  GetResult result;
  result.completion = now;
  if (!bloom_.MayContain(key)) {
    result.bloom_skipped = true;
    return result;
  }
  auto it = FirstBlockFor(key);
  if (it == index_.end()) {
    return result;
  }
  Result<SimTime> r = ReadBlock(*it, now, arena, [&](const KvEntryView& e) {
    if (e.key == key) {
      result.found = true;
      result.type = e.type;
      result.value = e.value;
    }
  });
  if (!r.ok()) {
    return r.status();
  }
  result.completion = r.value();
  return result;
}

Result<SimTime> SSTableReader::ScanFrom(std::string_view start_key, std::size_t limit,
                                        SimTime now, BlockArena* arena,
                                        std::vector<KvEntryView>* out) const {
  SimTime done = now;
  std::size_t taken = 0;
  for (auto it = FirstBlockFor(start_key); it != index_.end() && taken < limit; ++it) {
    Result<SimTime> r = ReadBlock(*it, now, arena, [&](const KvEntryView& e) {
      if (taken < limit && e.key >= start_key) {
        out->push_back(e);
        ++taken;
      }
    });
    if (!r.ok()) {
      return r;
    }
    done = std::max(done, r.value());
  }
  return done;
}

Result<SimTime> SSTableReader::ReadAll(SimTime now, BlockArena* arena,
                                       std::vector<KvEntryView>* out) const {
  SimTime done = now;
  for (const IndexEntry& e : index_) {
    Result<SimTime> r = ReadBlock(e, now, arena, [out](const KvEntryView& v) {
      out->push_back(v);
    });
    if (!r.ok()) {
      return r;
    }
    done = std::max(done, r.value());
  }
  return done;
}

}  // namespace blockhead
