#include "src/ftl/page_map.h"

#include <cstdio>
#include <cstdlib>

namespace blockhead {

PageMap::PageMap(std::uint64_t logical_pages, std::uint64_t physical_pages) {
  // FlashGeometry::Validate() rejects such geometries; a page space built past it would be
  // silently truncated by every 4-byte store, so hard-stop instead.
  if (logical_pages >= kUnmapped || physical_pages >= kUnmapped) {
    std::fprintf(stderr, "blockhead: page map of %llu x %llu pages exceeds 4-byte entries\n",
                 static_cast<unsigned long long>(logical_pages),
                 static_cast<unsigned long long>(physical_pages));
    std::abort();
  }
  forward_.assign(logical_pages, kUnmapped);
  reverse_.assign(physical_pages, kUnmapped);
}

Status PageMap::Check() const {
  for (std::uint64_t lpn = 0; lpn < forward_.size(); ++lpn) {
    const Entry phys = forward_[lpn];
    if (phys != kUnmapped && (phys >= reverse_.size() || reverse_[phys] != lpn)) {
      return Status(ErrorCode::kCorruption, "forward entry without matching reverse entry");
    }
  }
  for (std::uint64_t phys = 0; phys < reverse_.size(); ++phys) {
    const Entry lpn = reverse_[phys];
    if (lpn != kUnmapped && (lpn >= forward_.size() || forward_[lpn] != phys)) {
      return Status(ErrorCode::kCorruption, "reverse entry without matching forward entry");
    }
  }
  return Status::Ok();
}

std::vector<std::uint32_t> PageMap::LiveCounts(std::uint64_t pages_per_unit) const {
  std::vector<std::uint32_t> live((reverse_.size() + pages_per_unit - 1) / pages_per_unit, 0);
  for (std::uint64_t phys = 0; phys < reverse_.size(); ++phys) {
    if (Live(phys)) {
      live[phys / pages_per_unit]++;
    }
  }
  return live;
}

}  // namespace blockhead
