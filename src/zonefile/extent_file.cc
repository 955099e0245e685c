#include "src/zonefile/extent_file.h"

namespace blockhead {

std::span<const std::uint8_t> ExtentFileCore::TailPage(const ExtentFile& file) {
  assert(!file.tail.empty() && file.tail.size() <= page_size_);
  std::memcpy(page_.data(), file.tail.data(), file.tail.size());
  std::memset(page_.data() + file.tail.size(), 0, page_size_ - file.tail.size());
  return page_;
}

std::optional<Extent> ExtentFileCore::CommitTailPage(ExtentFile& file, Lba lba,
                                                     bool may_extend) {
  const std::uint64_t bytes = file.tail.size();
  file.tail.clear();
  if (may_extend && NextLba(file) == lba) {
    Extent& last = file.extents.back();
    const Extent before = last;
    last.pages += 1;
    last.bytes += bytes;
    return before;
  }
  file.extents.push_back(Extent{lba.value(), 1, bytes});
  return std::nullopt;
}

std::optional<Lba> ExtentFileCore::NextLba(const ExtentFile& file) const {
  if (file.extents.empty()) {
    return std::nullopt;
  }
  const Extent& last = file.extents.back();
  if (last.bytes != static_cast<std::uint64_t>(last.pages) * page_size_) {
    return std::nullopt;
  }
  return Lba{last.lba + last.pages};
}

}  // namespace blockhead
