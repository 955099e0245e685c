#include "src/kv/kv_store.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

namespace blockhead {

namespace {

constexpr std::uint8_t kManifestAdd = 1;
constexpr std::uint8_t kManifestRemove = 2;
constexpr std::uint8_t kManifestWal = 3;
constexpr std::uint8_t kWalValue = 1;
constexpr std::uint8_t kWalTombstone = 2;
constexpr const char* kManifestName = "MANIFEST";

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void PutString(std::vector<std::uint8_t>& out, std::string_view s) {
  PutU16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::uint8_t U8() { return static_cast<std::uint8_t>(Raw(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Raw(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Raw(4)); }
  std::uint64_t U64() { return Raw(8); }
  std::string Str() {
    const std::uint16_t len = U16();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  std::uint64_t Raw(int n) {
    if (!ok_ || remaining() < static_cast<std::size_t>(n)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

KvStore::KvStore(Env* env, const KvConfig& config) : env_(env), config_(config) {
  levels_.resize(config_.max_levels);
  compaction_cursor_.resize(config_.max_levels);
}

std::string KvStore::TableName(std::uint32_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06u.sst", number);
  return buf;
}

std::string KvStore::WalName(std::uint32_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06u.log", number);
  return buf;
}

Lifetime KvStore::HintForLevel(std::uint32_t level) {
  switch (level) {
    case 0:
      return Lifetime::kShort;
    case 1:
      return Lifetime::kMedium;
    case 2:
      return Lifetime::kLong;
    default:
      return Lifetime::kExtreme;
  }
}

Result<std::unique_ptr<KvStore>> KvStore::Open(Env* env, const KvConfig& config, SimTime now) {
  auto store = std::unique_ptr<KvStore>(new KvStore(env, config));
  BLOCKHEAD_RETURN_IF_ERROR(store->RecoverManifest(now));
  BLOCKHEAD_RETURN_IF_ERROR(store->RecoverWal(now));
  return store;
}

void KvStore::FrameAddRecord(const TableMeta& meta, std::vector<std::uint8_t>& out) const {
  std::vector<std::uint8_t> rec;
  rec.push_back(kManifestAdd);
  rec.push_back(static_cast<std::uint8_t>(meta.level));
  PutU32(rec, meta.file_number);
  PutU64(rec, meta.bytes);
  PutString(rec, meta.smallest);
  PutString(rec, meta.largest);
  PutU32(out, static_cast<std::uint32_t>(rec.size()));
  out.insert(out.end(), rec.begin(), rec.end());
}

Result<SimTime> KvStore::RollManifest(SimTime now) {
  // Replace the grown journal with a snapshot of the live version. (A production store would
  // write MANIFEST-new and swap a CURRENT pointer; this env has no rename, so the window
  // between delete and rewrite is accepted — see DESIGN.md.)
  Result<SimTime> deleted = env_->DeleteFile(kManifestName, now);
  if (!deleted.ok()) {
    return deleted;
  }
  Result<SimTime> created = env_->CreateFile(kManifestName, Lifetime::kShort, deleted.value());
  if (!created.ok()) {
    return created;
  }
  std::vector<std::uint8_t> blob;
  for (const auto& level : levels_) {
    for (const TableMeta& meta : level) {
      FrameAddRecord(meta, blob);
    }
  }
  std::vector<std::uint8_t> rec;
  rec.push_back(kManifestWal);
  PutU32(rec, wal_number_);
  PutU32(blob, static_cast<std::uint32_t>(rec.size()));
  blob.insert(blob.end(), rec.begin(), rec.end());
  Result<SimTime> appended = env_->Append(kManifestName, blob, created.value());
  if (!appended.ok()) {
    return appended;
  }
  return env_->Sync(kManifestName, appended.value());
}

Result<SimTime> KvStore::LogTableChange(const std::vector<TableMeta>& added,
                                        const std::vector<TableMeta>& removed,
                                        std::optional<std::uint32_t> new_wal, SimTime now) {
  std::vector<std::uint8_t> blob;
  for (const TableMeta& meta : added) {
    FrameAddRecord(meta, blob);
  }
  for (const TableMeta& meta : removed) {
    std::vector<std::uint8_t> rec;
    rec.push_back(kManifestRemove);
    PutU32(rec, meta.file_number);
    PutU32(blob, static_cast<std::uint32_t>(rec.size()));
    blob.insert(blob.end(), rec.begin(), rec.end());
  }
  if (new_wal.has_value()) {
    std::vector<std::uint8_t> rec;
    rec.push_back(kManifestWal);
    PutU32(rec, *new_wal);
    PutU32(blob, static_cast<std::uint32_t>(rec.size()));
    blob.insert(blob.end(), rec.begin(), rec.end());
  }
  // All records in one framed batch would break the per-record framing; AppendManifest frames
  // once, so write the raw concatenation of already-framed records directly.
  Result<SimTime> appended = env_->Append(kManifestName, blob, now);
  if (!appended.ok()) {
    return appended;
  }
  Result<SimTime> synced = env_->Sync(kManifestName, appended.value());
  if (!synced.ok()) {
    return synced;
  }
  const Result<std::uint64_t> size = env_->FileSize(kManifestName);
  if (size.ok() && config_.manifest_roll_bytes != 0 &&
      size.value() > config_.manifest_roll_bytes) {
    return RollManifest(synced.value());
  }
  return synced;
}

Status KvStore::RecoverManifest(SimTime now) {
  if (!env_->Exists(kManifestName)) {
    // Fresh store.
    Result<SimTime> created = env_->CreateFile(kManifestName, Lifetime::kShort, now);
    if (!created.ok()) {
      return created.status();
    }
    wal_number_ = next_file_number_++;
    created = env_->CreateFile(WalName(wal_number_), Lifetime::kShort, now);
    if (!created.ok()) {
      return created.status();
    }
    Result<SimTime> logged = LogTableChange({}, {}, wal_number_, now);
    return logged.ok() ? Status::Ok() : logged.status();
  }

  Result<std::uint64_t> size = env_->FileSize(kManifestName);
  if (!size.ok()) {
    return size.status();
  }
  std::vector<std::uint8_t> bytes(size.value());
  if (!bytes.empty()) {
    Result<SimTime> r = env_->Read(kManifestName, 0, bytes, now);
    if (!r.ok()) {
      return r.status();
    }
  }
  std::size_t pos = 0;
  while (pos + 4 <= bytes.size()) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 4;
    if (pos + len > bytes.size()) {
      break;  // Torn tail record.
    }
    ByteReader rec(std::span<const std::uint8_t>(bytes.data() + pos, len));
    pos += len;
    const std::uint8_t type = rec.U8();
    if (type == kManifestAdd) {
      TableMeta meta;
      meta.level = rec.U8();
      meta.file_number = rec.U32();
      meta.bytes = rec.U64();
      meta.smallest = rec.Str();
      meta.largest = rec.Str();
      if (!rec.ok() || meta.level >= config_.max_levels) {
        return Status(ErrorCode::kCorruption, "bad manifest add record");
      }
      next_file_number_ = std::max(next_file_number_, meta.file_number + 1);
      if (meta.level == 0) {
        levels_[0].insert(levels_[0].begin(), std::move(meta));  // Newest first.
      } else {
        levels_[meta.level].push_back(std::move(meta));
      }
    } else if (type == kManifestRemove) {
      const std::uint32_t file_number = rec.U32();
      for (auto& level : levels_) {
        std::erase_if(level, [file_number](const TableMeta& m) {
          return m.file_number == file_number;
        });
      }
    } else if (type == kManifestWal) {
      wal_number_ = rec.U32();
      next_file_number_ = std::max(next_file_number_, wal_number_ + 1);
    } else {
      return Status(ErrorCode::kCorruption, "unknown manifest record");
    }
  }

  // Keep sorted order in levels >= 1 and open readers everywhere.
  for (std::uint32_t level = 1; level < config_.max_levels; ++level) {
    std::sort(levels_[level].begin(), levels_[level].end(),
              [](const TableMeta& a, const TableMeta& b) { return a.smallest < b.smallest; });
  }
  for (auto& level : levels_) {
    for (TableMeta& meta : level) {
      Result<std::unique_ptr<SSTableReader>> reader =
          SSTableReader::Open(env_, TableName(meta.file_number), now);
      if (!reader.ok()) {
        return reader.status();
      }
      meta.reader = std::shared_ptr<SSTableReader>(std::move(reader).value());
    }
  }
  return Status::Ok();
}

Status KvStore::RecoverWal(SimTime now) {
  const std::string wal = WalName(wal_number_);
  if (!env_->Exists(wal)) {
    Result<SimTime> created = env_->CreateFile(wal, Lifetime::kShort, now);
    return created.ok() ? Status::Ok() : created.status();
  }
  Result<std::uint64_t> size = env_->FileSize(wal);
  if (!size.ok()) {
    return size.status();
  }
  std::vector<std::uint8_t> bytes(size.value());
  if (!bytes.empty()) {
    Result<SimTime> r = env_->Read(wal, 0, bytes, now);
    if (!r.ok()) {
      return r.status();
    }
  }
  ByteReader reader(bytes);
  while (reader.ok() && reader.remaining() > 0) {
    const std::uint8_t type = reader.U8();
    if (type != kWalValue && type != kWalTombstone) {
      break;  // Zero padding from a page-aligned sync, or torn tail.
    }
    const std::string key = reader.Str();
    const std::string value = type == kWalValue ? reader.Str() : std::string();
    if (!reader.ok()) {
      break;
    }
    memtable_bytes_ += key.size() + value.size() + 16;
    if (type == kWalValue) {
      memtable_[key] = value;
    } else {
      memtable_[key] = std::nullopt;
    }
  }
  return Status::Ok();
}

Result<SimTime> KvStore::WriteWalRecord(std::string_view key, KvEntryType type,
                                        std::string_view value, SimTime now) {
  std::vector<std::uint8_t> rec;
  rec.push_back(type == KvEntryType::kValue ? kWalValue : kWalTombstone);
  PutString(rec, key);
  if (type == KvEntryType::kValue) {
    PutString(rec, value);
  }
  Result<SimTime> appended = env_->Append(WalName(wal_number_), rec, now);
  if (!appended.ok()) {
    return appended;
  }
  if (config_.sync_wal_every_put) {
    return env_->Sync(WalName(wal_number_), appended.value());
  }
  return appended;
}

Result<SimTime> KvStore::ApplyWrite(std::string_view key, KvEntryType type,
                                    std::string_view value, SimTime now) {
  // Respect any write stall from compaction debt.
  if (now < stall_until_) {
    now = stall_until_;
  }
  Result<SimTime> logged = WriteWalRecord(key, type, value, now);
  if (!logged.ok()) {
    return logged;
  }
  memtable_bytes_ += key.size() + value.size() + 16;
  const bool audit = audit_memtable_ != nullptr && audit_memtable_->armed();
  std::uint64_t pre = 0;
  bool existed = false;
  if (audit) {
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
      existed = true;
      pre = MemtableEntryHash(it->first, it->second);
    }
  }
  if (type == KvEntryType::kValue) {
    memtable_[std::string(key)] = std::string(value);
  } else {
    memtable_[std::string(key)] = std::nullopt;
  }
  if (audit) {
    const std::uint64_t post = MemtableEntryHash(key, memtable_.find(key)->second);
    if (existed) {
      audit_memtable_->Replace(logged.value(), pre, post);
    } else {
      audit_memtable_->Insert(logged.value(), post);
    }
  }
  stats_.user_bytes_written += key.size() + value.size();
  if (provenance_ingress_ != nullptr) {
    *provenance_ingress_ += Bytes{key.size() + value.size()};
  }
  if (memtable_bytes_ >= config_.memtable_bytes) {
    Result<SimTime> flushed = FlushMemtable(now);
    if (!flushed.ok()) {
      return flushed;
    }
  }
  return logged;
}

Result<SimTime> KvStore::Put(std::string_view key, std::string_view value, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kKv, ProfOp::kWrite);
  stats_.puts++;
  Tracer::Span span = Tracer::Start(put_span_, now);
  Result<SimTime> done = ApplyWrite(key, KvEntryType::kValue, value, now);
  if (done.ok()) {
    span.End(done.value());
  }
  return done;
}

Result<SimTime> KvStore::Delete(std::string_view key, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kKv, ProfOp::kOther);
  stats_.deletes++;
  return ApplyWrite(key, KvEntryType::kTombstone, {}, now);
}

Result<SimTime> KvStore::FlushMemtable(SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kKv, ProfOp::kFlush);
  if (memtable_.empty()) {
    return now;
  }
  // The L0 table the flush writes is LSM housekeeping, not foreground user data.
  WriteProvenance::CauseScope cause(ProvenanceOf(telemetry_), WriteCause::kLsmFlush,
                                    StackLayer::kKv);
  const std::uint32_t file_number = next_file_number_++;
  SSTableBuilderOptions opts;
  opts.block_bytes = config_.block_bytes;
  opts.bloom_bits_per_key = config_.bloom_bits_per_key;
  opts.hint = HintForLevel(0);
  SSTableBuilder builder(env_, TableName(file_number), opts);
  BLOCKHEAD_RETURN_IF_ERROR(builder.Start(now));
  for (const auto& [key, value] : memtable_) {
    BLOCKHEAD_RETURN_IF_ERROR(builder.Add(
        key, value.has_value() ? KvEntryType::kValue : KvEntryType::kTombstone,
        value.has_value() ? std::string_view(*value) : std::string_view(), now));
  }
  Result<SimTime> finished = builder.Finish(now);
  if (!finished.ok()) {
    return finished;
  }
  SimTime t = finished.value();

  TableMeta meta;
  meta.file_number = file_number;
  meta.level = 0;
  meta.bytes = builder.file_bytes();
  meta.smallest = builder.smallest();
  meta.largest = builder.largest();
  Result<std::unique_ptr<SSTableReader>> reader =
      SSTableReader::Open(env_, TableName(file_number), t);
  if (!reader.ok()) {
    return reader.status();
  }
  meta.reader = std::shared_ptr<SSTableReader>(std::move(reader).value());
  stats_.flushes++;
  stats_.bytes_flushed += meta.bytes;

  // Swap in a fresh WAL; the old one is fully covered by the table.
  const std::uint32_t old_wal = wal_number_;
  wal_number_ = next_file_number_++;
  Result<SimTime> created = env_->CreateFile(WalName(wal_number_), Lifetime::kShort, t);
  if (!created.ok()) {
    return created;
  }
  levels_[0].insert(levels_[0].begin(), meta);
  if (audit_manifest_ != nullptr && audit_manifest_->armed()) {
    audit_manifest_->Replace(t, WalEntryHash(old_wal), WalEntryHash(wal_number_));
    audit_manifest_->Insert(t, TableEntryHash(meta));
  }
  Result<SimTime> logged = LogTableChange({meta}, {}, wal_number_, t);
  if (!logged.ok()) {
    return logged;
  }
  t = logged.value();
  Result<SimTime> deleted = env_->DeleteFile(WalName(old_wal), t);
  if (!deleted.ok()) {
    return deleted;
  }
  if (audit_memtable_ != nullptr && audit_memtable_->armed()) {
    for (const auto& [mkey, mvalue] : memtable_) {
      audit_memtable_->Remove(t, MemtableEntryHash(mkey, mvalue));
    }
  }
  memtable_.clear();
  memtable_bytes_ = 0;
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(t, TimelineEventType::kCompaction, metric_prefix_,
                              "flush memtable table " + std::to_string(file_number) +
                                  " bytes " + std::to_string(meta.bytes),
                              file_number, meta.bytes);
    telemetry_->timeline.RecordMaintenance(metric_prefix_ + ".compaction", "flush", now, t);
  }

  Result<SimTime> compacted = MaybeCompact(t);
  if (!compacted.ok()) {
    return compacted;
  }
  if (levels_[0].size() >= config_.l0_stall_trigger) {
    stall_until_ = std::max(stall_until_, compacted.value());
    stats_.stall_events++;
  }
  return t;
}

Result<SimTime> KvStore::Flush(SimTime now) { return FlushMemtable(now); }

std::uint64_t KvStore::LevelBytes(std::uint32_t level) const {
  std::uint64_t total = 0;
  for (const TableMeta& meta : levels_[level]) {
    total += meta.bytes;
  }
  return total;
}

std::uint64_t KvStore::LevelTargetBytes(std::uint32_t level) const {
  if (level == 0 || level + 1 >= config_.max_levels) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  double target = static_cast<double>(config_.level_base_bytes);
  for (std::uint32_t l = 1; l < level; ++l) {
    target *= config_.level_multiplier;
  }
  return static_cast<std::uint64_t>(target);
}

Result<SimTime> KvStore::MaybeCompact(SimTime now) {
  SimTime t = now;
  while (true) {
    std::uint32_t level_to_compact = config_.max_levels;
    if (levels_[0].size() >= config_.l0_compaction_trigger) {
      level_to_compact = 0;
    } else {
      for (std::uint32_t level = 1; level + 1 < config_.max_levels; ++level) {
        if (LevelBytes(level) > LevelTargetBytes(level)) {
          level_to_compact = level;
          break;
        }
      }
    }
    if (level_to_compact >= config_.max_levels) {
      return t;
    }
    Result<SimTime> done = CompactLevel(level_to_compact, t);
    if (!done.ok()) {
      return done;
    }
    t = done.value();
  }
}

Result<SimTime> KvStore::CompactLevel(std::uint32_t level, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kKv, ProfOp::kCompaction);
  const std::uint32_t out_level = level + 1;
  assert(out_level < config_.max_levels);
  // Everything the merge writes (output tables + manifest updates) is compaction work.
  WriteProvenance::CauseScope cause(ProvenanceOf(telemetry_), WriteCause::kLsmCompaction,
                                    StackLayer::kKv);

  // Upper inputs.
  std::vector<TableMeta> upper;
  if (level == 0) {
    upper = levels_[0];  // All of L0 (they overlap arbitrarily).
  } else {
    // Round-robin by key cursor.
    auto& tables = levels_[level];
    assert(!tables.empty());
    std::size_t pick = 0;
    for (std::size_t i = 0; i < tables.size(); ++i) {
      if (tables[i].smallest > compaction_cursor_[level]) {
        pick = i;
        break;
      }
    }
    upper.push_back(tables[pick]);
    compaction_cursor_[level] = tables[pick].largest;
  }
  std::string range_lo = upper.front().smallest;
  std::string range_hi = upper.front().largest;
  for (const TableMeta& meta : upper) {
    range_lo = std::min(range_lo, meta.smallest);
    range_hi = std::max(range_hi, meta.largest);
  }

  // Overlapping lower inputs.
  std::vector<TableMeta> lower;
  for (const TableMeta& meta : levels_[out_level]) {
    if (meta.largest >= range_lo && meta.smallest <= range_hi) {
      lower.push_back(meta);
    }
  }

  // Merge: apply lower level first, then upper from oldest to newest, so newer entries win.
  std::map<std::string, KvEntry> merged;
  SimTime t = now;
  auto absorb = [&](const TableMeta& meta) -> Status {
    SimTime completion = t;
    Result<std::vector<KvEntry>> entries = meta.reader->ReadAll(t, &completion);
    if (!entries.ok()) {
      return entries.status();
    }
    t = std::max(t, completion);
    for (KvEntry& entry : entries.value()) {
      merged[entry.key] = std::move(entry);
    }
    return Status::Ok();
  };
  for (const TableMeta& meta : lower) {
    BLOCKHEAD_RETURN_IF_ERROR(absorb(meta));
  }
  for (auto it = upper.rbegin(); it != upper.rend(); ++it) {  // Oldest first.
    BLOCKHEAD_RETURN_IF_ERROR(absorb(*it));
  }

  // Write output tables, dropping tombstones when compacting into the bottom level.
  const bool bottom = out_level + 1 >= config_.max_levels;
  std::vector<TableMeta> outputs;
  std::unique_ptr<SSTableBuilder> builder;
  std::uint32_t builder_file_number = 0;
  SSTableBuilderOptions opts;
  opts.block_bytes = config_.block_bytes;
  opts.bloom_bits_per_key = config_.bloom_bits_per_key;
  opts.hint = HintForLevel(out_level);

  auto finish_builder = [&]() -> Status {
    if (builder == nullptr || builder->entry_count() == 0) {
      builder.reset();
      return Status::Ok();
    }
    Result<SimTime> finished = builder->Finish(t);
    if (!finished.ok()) {
      return finished.status();
    }
    t = std::max(t, finished.value());
    TableMeta meta;
    meta.file_number = builder_file_number;
    meta.level = out_level;
    meta.bytes = builder->file_bytes();
    meta.smallest = builder->smallest();
    meta.largest = builder->largest();
    Result<std::unique_ptr<SSTableReader>> reader = SSTableReader::Open(env_, builder->name(), t);
    if (!reader.ok()) {
      return reader.status();
    }
    meta.reader = std::shared_ptr<SSTableReader>(std::move(reader).value());
    stats_.bytes_compacted += meta.bytes;
    outputs.push_back(std::move(meta));
    builder.reset();
    return Status::Ok();
  };

  for (auto& [key, entry] : merged) {
    if (bottom && entry.type == KvEntryType::kTombstone) {
      continue;
    }
    if (builder == nullptr) {
      builder_file_number = next_file_number_++;
      builder = std::make_unique<SSTableBuilder>(env_, TableName(builder_file_number), opts);
      BLOCKHEAD_RETURN_IF_ERROR(builder->Start(t));
    }
    BLOCKHEAD_RETURN_IF_ERROR(builder->Add(key, entry.type, entry.value, t));
    if (builder->file_bytes() >= config_.target_table_bytes) {
      BLOCKHEAD_RETURN_IF_ERROR(finish_builder());
    }
  }
  BLOCKHEAD_RETURN_IF_ERROR(finish_builder());

  // Commit: manifest first, then drop inputs.
  std::vector<TableMeta> removed = upper;
  removed.insert(removed.end(), lower.begin(), lower.end());
  Result<SimTime> logged = LogTableChange(outputs, removed, std::nullopt, t);
  if (!logged.ok()) {
    return logged;
  }
  t = logged.value();

  auto in_removed = [&removed](const TableMeta& meta) {
    return std::any_of(removed.begin(), removed.end(), [&meta](const TableMeta& r) {
      return r.file_number == meta.file_number;
    });
  };
  std::erase_if(levels_[level], in_removed);
  std::erase_if(levels_[out_level], in_removed);
  if (audit_manifest_ != nullptr && audit_manifest_->armed()) {
    for (const TableMeta& meta : removed) {
      audit_manifest_->Remove(t, TableEntryHash(meta));
    }
    for (const TableMeta& meta : outputs) {
      audit_manifest_->Insert(t, TableEntryHash(meta));
    }
  }
  for (TableMeta& meta : outputs) {
    levels_[out_level].push_back(std::move(meta));
  }
  std::sort(levels_[out_level].begin(), levels_[out_level].end(),
            [](const TableMeta& a, const TableMeta& b) { return a.smallest < b.smallest; });
  for (const TableMeta& meta : removed) {
    Result<SimTime> deleted = env_->DeleteFile(TableName(meta.file_number), t);
    if (!deleted.ok()) {
      return deleted;
    }
    t = deleted.value();
  }
  stats_.compactions++;
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(t, TimelineEventType::kCompaction, metric_prefix_,
                              "compact L" + std::to_string(level) + " -> L" +
                                  std::to_string(out_level) + " inputs " +
                                  std::to_string(removed.size()) + " outputs " +
                                  std::to_string(outputs.size()),
                              level, out_level);
    telemetry_->timeline.RecordMaintenance(metric_prefix_ + ".compaction",
                                           "compact_l" + std::to_string(level), now, t);
  }
  return t;
}

Result<KvStore::GetResult> KvStore::Get(std::string_view key, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kKv, ProfOp::kRead);
  stats_.gets++;
  Tracer::Span span = Tracer::Start(get_span_, now);
  GetResult result;
  result.completion = now;

  // 1. Memtable.
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (it->second.has_value()) {
      result.found = true;
      result.value = *it->second;
      stats_.gets_found++;
    }
    span.End(now);
    return result;
  }

  SimTime t = now;
  auto probe = [&](const TableMeta& meta) -> Result<bool> {
    Result<SSTableReader::GetResult> r = meta.reader->Get(key, t);
    if (!r.ok()) {
      return r.status();
    }
    t = std::max(t, r->completion);
    if (r->bloom_skipped) {
      stats_.bloom_skips++;
    }
    if (!r->found) {
      return false;
    }
    if (r->type == KvEntryType::kValue) {
      result.found = true;
      result.value = std::move(r->value);
      stats_.gets_found++;
    }
    return true;  // Found a definitive answer (value or tombstone).
  };

  // 2. L0, newest first.
  for (const TableMeta& meta : levels_[0]) {
    if (key < meta.smallest || key > meta.largest) {
      continue;
    }
    Result<bool> done = probe(meta);
    if (!done.ok()) {
      return done.status();
    }
    if (done.value()) {
      result.completion = t;
      span.End(t);
      return result;
    }
  }
  // 3. Sorted levels: at most one candidate table per level.
  for (std::uint32_t level = 1; level < config_.max_levels; ++level) {
    const auto& tables = levels_[level];
    auto candidate = std::upper_bound(
        tables.begin(), tables.end(), key,
        [](std::string_view k, const TableMeta& m) { return k < std::string_view(m.smallest); });
    if (candidate == tables.begin()) {
      continue;
    }
    --candidate;
    if (key < candidate->smallest || key > candidate->largest) {
      continue;
    }
    Result<bool> done = probe(*candidate);
    if (!done.ok()) {
      return done.status();
    }
    if (done.value()) {
      result.completion = t;
      span.End(t);
      return result;
    }
  }
  result.completion = t;
  span.End(t);
  return result;
}

Result<KvStore::ScanResult> KvStore::Scan(std::string_view start_key, std::size_t limit,
                                          SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kKv, ProfOp::kRead);
  ScanResult result;
  result.completion = now;
  if (limit == 0) {
    return result;
  }
  // Gather candidates per source with slack (tombstones and shadowed versions consume
  // candidates), then merge with newest-wins precedence. Sources are ranked newest-first:
  // memtable (rank 0), L0 newest..oldest, then deeper levels.
  const std::size_t fetch = limit + 64;
  struct Candidate {
    std::size_t rank;
    KvEntryType type;
    std::string value;
  };
  std::map<std::string, Candidate> merged;
  std::size_t rank = 0;

  auto absorb = [&merged](std::size_t source_rank, const std::string& key, KvEntryType type,
                          std::string value) {
    auto it = merged.find(key);
    if (it == merged.end() || source_rank < it->second.rank) {
      merged[key] = Candidate{source_rank, type, std::move(value)};
    }
  };

  std::size_t taken = 0;
  for (auto it = memtable_.lower_bound(start_key); it != memtable_.end() && taken < fetch;
       ++it, ++taken) {
    absorb(0, it->first,
           it->second.has_value() ? KvEntryType::kValue : KvEntryType::kTombstone,
           it->second.value_or(std::string()));
  }
  rank = 1;
  SimTime t = now;
  auto absorb_table = [&](const TableMeta& meta) -> Status {
    if (std::string_view(meta.largest) < start_key) {
      return Status::Ok();
    }
    SimTime completion = t;
    Result<std::vector<KvEntry>> entries = meta.reader->ScanFrom(start_key, fetch, t,
                                                                 &completion);
    if (!entries.ok()) {
      return entries.status();
    }
    t = std::max(t, completion);
    for (KvEntry& entry : entries.value()) {
      absorb(rank, entry.key, entry.type, std::move(entry.value));
    }
    ++rank;
    return Status::Ok();
  };
  for (const TableMeta& meta : levels_[0]) {
    BLOCKHEAD_RETURN_IF_ERROR(absorb_table(meta));
  }
  for (std::uint32_t level = 1; level < config_.max_levels; ++level) {
    // Sorted, non-overlapping tables: start at the first table that can contain start_key and
    // stop once this level has contributed enough candidates.
    const auto& tables = levels_[level];
    auto it = std::lower_bound(tables.begin(), tables.end(), start_key,
                               [](const TableMeta& m, std::string_view k) {
                                 return std::string_view(m.largest) < k;
                               });
    std::size_t level_candidates = 0;
    for (; it != tables.end() && level_candidates < fetch; ++it) {
      const std::size_t before = merged.size();
      BLOCKHEAD_RETURN_IF_ERROR(absorb_table(*it));
      level_candidates += merged.size() - before + 1;  // +1 guards zero-growth loops.
    }
  }

  for (auto& [key, candidate] : merged) {
    if (result.entries.size() >= limit) {
      break;
    }
    if (candidate.type == KvEntryType::kValue) {
      result.entries.emplace_back(key, std::move(candidate.value));
    }
  }
  result.completion = t;
  return result;
}

std::vector<std::uint32_t> KvStore::LevelTableCounts() const {
  std::vector<std::uint32_t> counts;
  counts.reserve(levels_.size());
  for (const auto& level : levels_) {
    counts.push_back(static_cast<std::uint32_t>(level.size()));
  }
  return counts;
}

KvStore::~KvStore() { AttachTelemetry(nullptr); }

void KvStore::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_);
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    provenance_ingress_ = nullptr;
    audit_memtable_ = nullptr;
    audit_manifest_ = nullptr;
    put_span_ = nullptr;
    get_span_ = nullptr;
    return;
  }
  put_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".put");
  get_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".get");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  provenance_ingress_ = telemetry_->provenance.RegisterDomain(metric_prefix_);
  audit_memtable_ = telemetry_->audit.Register(metric_prefix_ + ".memtable");
  audit_manifest_ = telemetry_->audit.Register(metric_prefix_ + ".manifest");
}

std::uint64_t KvStore::MemtableEntryHash(std::string_view key,
                                         const std::optional<std::string>& value) {
  return AuditHashWords({AuditHashBytes(key),
                         value.has_value() ? AuditHashBytes(*value) : 0,
                         value.has_value() ? 1u : 0u});
}

std::uint64_t KvStore::TableEntryHash(const TableMeta& meta) {
  return AuditHashWords({meta.file_number, meta.level, meta.bytes,
                         AuditHashBytes(meta.smallest), AuditHashBytes(meta.largest)});
}

void KvStore::PublishMetrics() {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = metric_prefix_;
  reg.GetCounter(p + ".puts")->Set(stats_.puts);
  reg.GetCounter(p + ".deletes")->Set(stats_.deletes);
  reg.GetCounter(p + ".gets")->Set(stats_.gets);
  reg.GetCounter(p + ".gets_found")->Set(stats_.gets_found);
  reg.GetCounter(p + ".user_bytes_written")->Set(stats_.user_bytes_written);
  reg.GetCounter(p + ".flushes")->Set(stats_.flushes);
  reg.GetCounter(p + ".compactions")->Set(stats_.compactions);
  reg.GetCounter(p + ".bytes_flushed")->Set(stats_.bytes_flushed);
  reg.GetCounter(p + ".bytes_compacted")->Set(stats_.bytes_compacted);
  reg.GetCounter(p + ".bloom_skips")->Set(stats_.bloom_skips);
  reg.GetCounter(p + ".stall_events")->Set(stats_.stall_events);
  reg.GetGauge(p + ".lsm_write_amplification")->Set(LsmWriteAmplification());
}

double KvStore::LsmWriteAmplification() const {
  if (stats_.user_bytes_written == 0) {
    return 1.0;
  }
  return static_cast<double>(stats_.bytes_flushed + stats_.bytes_compacted) /
         static_cast<double>(stats_.user_bytes_written);
}

}  // namespace blockhead
