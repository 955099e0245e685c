#include "src/kv/block_env.h"

#include <algorithm>

namespace blockhead {

BlockEnv::BlockEnv(BlockDevice* device)
    : device_(device),
      metadata_region_pages_(
          std::min<std::uint64_t>(kMetadataRegionPages, device->num_blocks() / 2)),
      free_map_(device->num_blocks()),
      core_(device->block_size()) {
  // Reserve the metadata region: those LBAs belong to inode tables / bitmaps / journal and
  // are never handed to file data.
  for (std::uint64_t p = 0; p < metadata_region_pages_; ++p) {
    free_map_.Set(p);
  }
  alloc_cursor_ = metadata_region_pages_;
}

Result<SimTime> BlockEnv::MetadataUpdate(std::uint32_t pages, SimTime now) {
  SimTime t = now;
  for (std::uint32_t i = 0; i < pages; ++i) {
    // Deterministic scatter over the region (golden-ratio walk): hot in-place overwrites.
    metadata_cursor_ += 0x9E3779B97F4A7C15ULL;
    const std::uint64_t lba = (metadata_cursor_ >> 16) % metadata_region_pages_;
    Result<SimTime> written = device_->WriteBlocks(Lba{lba}, 1, t);
    if (!written.ok()) {
      return written;
    }
    t = std::max(t, written.value());
  }
  return t;
}

BlockEnv::FileMeta* BlockEnv::Find(std::string_view name) {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

const BlockEnv::FileMeta* BlockEnv::Find(std::string_view name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

Result<Lba> BlockEnv::AllocatePage() {
  // First fit from a roving cursor (classic ext-style allocation: keeps churny workloads from
  // always reusing the lowest addresses, spreading fragmentation).
  std::size_t i = free_map_.FindFirstClear(alloc_cursor_);
  if (i == free_map_.size()) {
    i = free_map_.FindFirstClear(0);
    if (i >= alloc_cursor_) {
      return ErrorCode::kDeviceFull;
    }
  }
  free_map_.Set(i);
  alloc_cursor_ = (i + 1) % free_map_.size();
  return Lba{i};
}

Result<SimTime> BlockEnv::CreateFile(std::string_view name, Lifetime hint, SimTime now) {
  if (Find(name) != nullptr) {
    return ErrorCode::kAlreadyExists;
  }
  FileMeta meta;
  meta.hint = hint;  // Stored for introspection; the block path cannot act on it.
  files_.emplace(std::string(name), std::move(meta));
  return MetadataUpdate(kMetadataWritesPerOp, now);
}

Result<SimTime> BlockEnv::FlushTailPage(FileMeta& file, SimTime now) {
  std::optional<Lba> lba = core_.NextLba(file);
  if (lba.has_value() && lba->value() < free_map_.size() && !free_map_.Test(lba->value())) {
    free_map_.Set(lba->value());
  } else {
    Result<Lba> page = AllocatePage();
    if (!page.ok()) {
      return page.status();
    }
    lba = page.value();
  }
  Result<SimTime> done = device_->WriteBlocks(*lba, 1, now, core_.TailPage(file));
  if (!done.ok()) {
    free_map_.Clear(lba->value());
    return done;
  }
  core_.CommitTailPage(file, *lba, /*may_extend=*/true);
  if (++data_pages_since_metadata_ >= kDataPagesPerMetadataUpdate) {
    data_pages_since_metadata_ = 0;
    return MetadataUpdate(1, done.value());
  }
  return done;
}

Result<SimTime> BlockEnv::Append(std::string_view name, std::span<const std::uint8_t> data,
                                 SimTime now) {
  FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  return core_.Append(*file, data, now, [&](SimTime t) { return FlushTailPage(*file, t); });
}

Result<SimTime> BlockEnv::Read(std::string_view name, std::uint64_t offset,
                               std::span<std::uint8_t> out, SimTime now) {
  const FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  if (offset + out.size() > file->size) {
    return ErrorCode::kOutOfRange;
  }
  return core_.Read(*file, offset, out, now, [&](Lba lba, std::span<std::uint8_t> page) {
    return device_->ReadBlocks(lba, 1, now, page);
  });
}

Result<SimTime> BlockEnv::Sync(std::string_view name, SimTime now) {
  FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  SimTime t = now;
  if (!file->tail.empty()) {
    Result<SimTime> flushed = FlushTailPage(*file, now);
    if (!flushed.ok()) {
      return flushed;
    }
    t = flushed.value();
  }
  return MetadataUpdate(kMetadataWritesPerOp, t);
}

Result<SimTime> BlockEnv::DeleteFile(std::string_view name, SimTime now) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return ErrorCode::kNotFound;
  }
  SimTime t = now;
  for (const Extent& ext : it->second.extents) {
    for (std::uint32_t p = 0; p < ext.pages; ++p) {
      free_map_.Clear(ext.lba + p);
    }
    // Tell the device these pages are dead (discard).
    Result<SimTime> trimmed = device_->TrimBlocks(Lba{ext.lba}, ext.pages, t);
    if (!trimmed.ok()) {
      return trimmed;
    }
    t = trimmed.value();
  }
  files_.erase(it);
  return MetadataUpdate(kMetadataWritesPerOp, t);
}

Result<std::uint64_t> BlockEnv::FileSize(std::string_view name) const {
  const FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  return file->size;
}

bool BlockEnv::Exists(std::string_view name) const { return Find(name) != nullptr; }

std::vector<std::string> BlockEnv::ListFiles() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, meta] : files_) {
    out.push_back(name);
  }
  return out;
}

}  // namespace blockhead
