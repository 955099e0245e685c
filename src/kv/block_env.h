// A minimal extent-allocating filesystem over the block interface, used as the conventional-
// SSD backend for the KV store.
//
// Files are lists of extents (the ExtentFile body zonefile uses too) carved page by page from
// a page-granular free bitmap with first-fit allocation. As files of different sizes are
// created and deleted, the free space fragments, so large SSTable writes scatter across the
// LBA space — and the conventional SSD's FTL, which cannot know which pages will die
// together, pays for it in garbage-collection write amplification. Deletions issue TRIM so
// the device learns about dead pages (being generous to the conventional baseline).
//
// Metadata is kept in memory only: the block path exists to measure data-path behaviour, and
// the paper's claims under reproduction here concern write amplification and latency, not
// block-filesystem crash consistency (zonefile demonstrates that part of the stack).

#ifndef BLOCKHEAD_SRC_KV_BLOCK_ENV_H_
#define BLOCKHEAD_SRC_KV_BLOCK_ENV_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/kv/env.h"
#include "src/util/bitmap.h"
#include "src/zonefile/extent_file.h"

namespace blockhead {

class BlockEnv final : public Env {
 public:
  // In-place metadata (inode tables, bitmaps, journal): hot small overwrites that share erasure
  // blocks with cold file data, which the FTL cannot separate (§4.1), a primary source of
  // conventional-SSD write amplification. They land in the first kMetadataRegionPages LBAs (at
  // most half the device): kMetadataWritesPerOp pages per create/delete/sync, and one page per
  // kDataPagesPerMetadataUpdate data pages.
  static constexpr std::uint32_t kMetadataRegionPages = 1024;
  static constexpr std::uint32_t kMetadataWritesPerOp = 2;
  static constexpr std::uint32_t kDataPagesPerMetadataUpdate = 16;

  // `device` must outlive the env.
  explicit BlockEnv(BlockDevice* device);

  Result<SimTime> CreateFile(std::string_view name, Lifetime hint, SimTime now) override;
  Result<SimTime> Append(std::string_view name, std::span<const std::uint8_t> data,
                         SimTime now) override;
  Result<SimTime> Read(std::string_view name, std::uint64_t offset,
                       std::span<std::uint8_t> out, SimTime now) override;
  Result<SimTime> Sync(std::string_view name, SimTime now) override;
  Result<SimTime> DeleteFile(std::string_view name, SimTime now) override;
  Result<std::uint64_t> FileSize(std::string_view name) const override;
  bool Exists(std::string_view name) const override;
  std::vector<std::string> ListFiles() const override;

  std::uint64_t FreePages() const { return free_map_.size() - free_map_.set_count(); }

 private:
  struct FileMeta : ExtentFile {
    Lifetime hint = Lifetime::kNone;  // Recorded but unused: the block interface drops it.
  };

  FileMeta* Find(std::string_view name);
  const FileMeta* Find(std::string_view name) const;
  // Takes the first free page at or after the roving cursor, wrapping once; kDeviceFull if
  // none is free.
  Result<Lba> AllocatePage();
  // Writes the tail's page behind the file's last extent if that page is free, else at the
  // next free page.
  Result<SimTime> FlushTailPage(FileMeta& file, SimTime now);
  // In-place metadata overwrites (inode/bitmap/journal model).
  Result<SimTime> MetadataUpdate(std::uint32_t pages, SimTime now);

  BlockDevice* device_;
  std::uint64_t metadata_region_pages_;  // LBAs [0, this) take the metadata traffic.
  Bitmap free_map_;  // Set bit = page in use.
  std::size_t alloc_cursor_ = 0;
  std::uint64_t metadata_cursor_ = 0;  // Pseudo-random walk over the metadata region.
  std::uint32_t data_pages_since_metadata_ = 0;
  std::map<std::string, FileMeta, std::less<>> files_;
  ExtentFileCore core_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_BLOCK_ENV_H_
