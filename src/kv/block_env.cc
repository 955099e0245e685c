#include "src/kv/block_env.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace blockhead {

BlockEnv::BlockEnv(BlockDevice* device)
    : device_(device),
      page_size_(device->block_size()),
      metadata_region_pages_(
          std::min<std::uint64_t>(kMetadataRegionPages, device->num_blocks() / 2)),
      free_map_(device->num_blocks()),
      page_buffer_(page_size_) {
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

Result<BlockEnv::Extent> BlockEnv::AllocateRun(std::uint32_t want) {
  want = std::min(want, kMaxExtentPages);
  // First fit, scanning from a roving cursor (classic ext-style allocation: keeps churny
  // workloads from always reusing the lowest addresses, spreading fragmentation).
  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t begin = pass == 0 ? alloc_cursor_ : 0;
    const std::size_t end = pass == 0 ? free_map_.size() : alloc_cursor_;
    std::size_t i = free_map_.FindFirstClear(begin);
    while (i < end) {
      // Measure the free run starting at i.
      std::size_t run = 1;
      while (run < want && i + run < end && !free_map_.Test(i + run)) {
        ++run;
      }
      // Take whatever contiguous space is here (even a single page).
      Extent ext;
      ext.lba = i;
      ext.pages = static_cast<std::uint32_t>(run);
      for (std::size_t p = i; p < i + run; ++p) {
        free_map_.Set(p);
      }
      alloc_cursor_ = (i + run) % free_map_.size();
      return ext;
    }
  }
  return ErrorCode::kDeviceFull;
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

Result<SimTime> BlockEnv::FlushTailPage(FileMeta& file, SimTime now, bool pad) {
  assert(pad ? !file.tail.empty() : file.tail.size() >= page_size_);
  const std::uint64_t bytes = pad ? file.tail.size() : page_size_;

  // Extend the last extent in place when the next page is free and adjacent.
  std::uint64_t lba;
  bool extended = false;
  if (!file.extents.empty()) {
    Extent& last = file.extents.back();
    const std::uint64_t next = last.lba + last.pages;
    if (last.bytes == static_cast<std::uint64_t>(last.pages) * page_size_ &&
        next < free_map_.size() && !free_map_.Test(next)) {
      free_map_.Set(next);
      last.pages += 1;
      last.bytes += bytes;
      lba = next;
      extended = true;
    }
  }
  if (!extended) {
    Result<Extent> run = AllocateRun(1);
    if (!run.ok()) {
      return run.status();
    }
    Extent ext = run.value();
    assert(ext.pages == 1 || ext.pages >= 1);
    // AllocateRun may hand back more than one page; trim to one and return the rest.
    for (std::uint32_t p = 1; p < ext.pages; ++p) {
      free_map_.Clear(ext.lba + p);
    }
    ext.pages = 1;
    ext.bytes = bytes;
    lba = ext.lba;
    file.extents.push_back(ext);
  }

  std::memcpy(page_buffer_.data(), file.tail.data(), static_cast<std::size_t>(bytes));
  std::memset(page_buffer_.data() + bytes, 0, page_size_ - static_cast<std::size_t>(bytes));
  Result<SimTime> done = device_->WriteBlocks(Lba{lba}, 1, now, page_buffer_);
  if (!done.ok()) {
    return done;
  }
  file.tail.erase(file.tail.begin(), file.tail.begin() + static_cast<std::ptrdiff_t>(bytes));
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
  file->size += data.size();
  SimTime done = now;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::size_t take =
        std::min<std::size_t>(page_size_ - file->tail.size(), data.size() - consumed);
    file->tail.insert(file->tail.end(), data.begin() + static_cast<std::ptrdiff_t>(consumed),
                      data.begin() + static_cast<std::ptrdiff_t>(consumed + take));
    consumed += take;
    if (file->tail.size() >= page_size_) {
      Result<SimTime> flushed = FlushTailPage(*file, done, /*pad=*/false);
      if (!flushed.ok()) {
        return flushed;
      }
      done = flushed.value();
    }
  }
  return done;
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
  SimTime done_all = now;
  std::uint64_t cur = offset;
  std::size_t out_pos = 0;
  for (const Extent& ext : file->extents) {
    if (out_pos == out.size()) {
      break;
    }
    if (cur >= ext.bytes) {
      cur -= ext.bytes;
      continue;
    }
    while (cur < ext.bytes && out_pos < out.size()) {
      const std::uint64_t page_index = cur / page_size_;
      const std::uint64_t byte_in_page = cur % page_size_;
      const std::uint64_t chunk = std::min<std::uint64_t>(
          {page_size_ - byte_in_page, ext.bytes - cur, out.size() - out_pos});
      // A whole page lands straight in `out`; part of one goes through page_buffer_.
      const bool whole_page = chunk == page_size_;
      Result<SimTime> done = device_->ReadBlocks(
          Lba{ext.lba + page_index}, 1, now,
          whole_page ? out.subspan(out_pos, page_size_) : std::span<std::uint8_t>(page_buffer_));
      if (!done.ok()) {
        return done;
      }
      done_all = std::max(done_all, done.value());
      if (!whole_page) {
        std::memcpy(out.data() + out_pos, page_buffer_.data() + byte_in_page,
                    static_cast<std::size_t>(chunk));
      }
      out_pos += static_cast<std::size_t>(chunk);
      cur += chunk;
    }
    cur = 0;
  }
  if (out_pos < out.size()) {
    const std::size_t chunk = out.size() - out_pos;
    assert(cur + chunk <= file->tail.size());
    std::memcpy(out.data() + out_pos, file->tail.data() + cur, chunk);
  }
  return done_all;
}

Result<SimTime> BlockEnv::Sync(std::string_view name, SimTime now) {
  FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  SimTime t = now;
  if (!file->tail.empty()) {
    Result<SimTime> flushed = FlushTailPage(*file, now, /*pad=*/true);
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
