// The file body both KV file backends share: BlockEnv (free-LBA first fit on a block device)
// and ZoneFileSystem (lifetime-hinted zone frontiers on ZNS). A file is a list of page
// extents plus a partial-page tail held in host memory. The backends differ only in where a
// page goes; the tail-filling append loop, the tail-page handoff and the extent read walk
// live here once, so the LSM's two file layers cannot drift apart anywhere but placement.
//
// Each backend owns one ExtentFileCore (its page size and one reused page buffer) and calls
// it with a callback that does its device I/O for one page.

#ifndef BLOCKHEAD_SRC_ZONEFILE_EXTENT_FILE_H_
#define BLOCKHEAD_SRC_ZONEFILE_EXTENT_FILE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "src/core/strong_id.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

struct Extent {
  std::uint64_t lba = 0;
  std::uint32_t pages = 0;
  std::uint64_t bytes = 0;  // Logical bytes stored (== pages * page_size except after a pad).
};

struct ExtentFile {
  std::uint64_t size = 0;  // Extent bytes plus the tail.
  std::vector<Extent> extents;
  std::vector<std::uint8_t> tail;  // Bytes not yet on a page; at most one page.
};

class ExtentFileCore {
 public:
  explicit ExtentFileCore(std::uint32_t page_size) : page_size_(page_size), page_(page_size) {}

  // The reused page buffer; its contents last until the next call into the core.
  std::span<std::uint8_t> page() { return page_; }

  // Appends `data` to the tail and calls `flush_page(SimTime) -> Result<SimTime>` each time
  // the tail holds a whole page; the callback writes it (TailPage, then CommitTailPage).
  // `file.size` grows only by the bytes the tail took, so after a failed flush the file holds
  // exactly the accepted prefix of `data`.
  template <typename FlushPage>
  Result<SimTime> Append(ExtentFile& file, std::span<const std::uint8_t> data, SimTime now,
                         FlushPage&& flush_page) {
    SimTime done = now;
    std::size_t consumed = 0;
    while (consumed < data.size()) {
      const std::size_t take =
          std::min<std::size_t>(page_size_ - file.tail.size(), data.size() - consumed);
      file.tail.insert(file.tail.end(), data.begin() + static_cast<std::ptrdiff_t>(consumed),
                       data.begin() + static_cast<std::ptrdiff_t>(consumed + take));
      consumed += take;
      file.size += take;
      if (file.tail.size() == page_size_) {
        Result<SimTime> flushed = flush_page(done);
        if (!flushed.ok()) {
          return flushed;
        }
        done = flushed.value();
      }
    }
    return done;
  }

  // The tail as one page (zero-padded when it is short), built in page().
  std::span<const std::uint8_t> TailPage(const ExtentFile& file);
  // Hands the page TailPage built, now written at `lba`, to the file: empties the tail and
  // extends the last extent if `lba` is NextLba(file) and `may_extend`, else appends a new
  // extent. Returns the extended extent as it was before, or nullopt for a new extent.
  std::optional<Extent> CommitTailPage(ExtentFile& file, Lba lba, bool may_extend);
  // The LBA right behind the file's last extent, if that extent holds whole pages (a padded
  // page ends an extent); nullopt otherwise.
  std::optional<Lba> NextLba(const ExtentFile& file) const;

  // Reads out.size() bytes at `offset`, which must lie inside the file. Calls
  // `read_page(Lba, std::span<std::uint8_t>) -> Result<SimTime>` once per page: a whole page
  // lands straight in `out`, part of one goes through page(); bytes past the extents come
  // from the tail. Returns the latest completion, at least `now`.
  template <typename ReadPage>
  Result<SimTime> Read(const ExtentFile& file, std::uint64_t offset,
                       std::span<std::uint8_t> out, SimTime now, ReadPage&& read_page) {
    assert(offset + out.size() <= file.size);
    SimTime done_all = now;
    std::uint64_t cur = offset;  // Position within the remaining extents, then the tail.
    std::size_t out_pos = 0;
    for (const Extent& ext : file.extents) {
      if (out_pos == out.size()) {
        break;
      }
      if (cur >= ext.bytes) {
        cur -= ext.bytes;
        continue;
      }
      while (cur < ext.bytes && out_pos < out.size()) {
        const std::uint64_t byte_in_page = cur % page_size_;
        const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(
            {page_size_ - byte_in_page, ext.bytes - cur, out.size() - out_pos}));
        const bool whole_page = chunk == page_size_;
        Result<SimTime> done =
            read_page(Lba{ext.lba + cur / page_size_},
                      whole_page ? out.subspan(out_pos, page_size_) : std::span(page_));
        if (!done.ok()) {
          return done;
        }
        done_all = std::max(done_all, done.value());
        if (!whole_page) {
          std::memcpy(out.data() + out_pos, page_.data() + byte_in_page, chunk);
        }
        out_pos += chunk;
        cur += chunk;
      }
      cur = 0;
    }
    if (out_pos < out.size()) {
      assert(cur + (out.size() - out_pos) <= file.tail.size());
      std::memcpy(out.data() + out_pos, file.tail.data() + cur, out.size() - out_pos);
    }
    return done_all;
  }

 private:
  std::uint32_t page_size_;
  std::vector<std::uint8_t> page_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_ZONEFILE_EXTENT_FILE_H_
