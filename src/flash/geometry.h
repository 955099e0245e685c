// NAND flash geometry: the channel / plane / erasure-block / page hierarchy described in the
// paper's flash primer (§2.1).
//
// Planes subsume dies in this model: each plane is an independently schedulable unit of cell
// array parallelism, and each channel is an independently schedulable transfer bus.

#ifndef BLOCKHEAD_SRC_FLASH_GEOMETRY_H_
#define BLOCKHEAD_SRC_FLASH_GEOMETRY_H_

#include <cstdint>
#include <limits>

#include "src/core/strong_id.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

struct FlashGeometry {
  std::uint32_t channels = 8;
  std::uint32_t planes_per_channel = 4;
  std::uint32_t blocks_per_plane = 256;
  std::uint32_t pages_per_block = 512;
  std::uint32_t page_size = 4096;

  std::uint32_t total_planes() const { return channels * planes_per_channel; }
  std::uint64_t total_blocks() const {
    return static_cast<std::uint64_t>(total_planes()) * blocks_per_plane;
  }
  std::uint64_t pages_per_plane() const {
    return static_cast<std::uint64_t>(blocks_per_plane) * pages_per_block;
  }
  std::uint64_t total_pages() const { return total_blocks() * pages_per_block; }
  std::uint64_t block_bytes() const {
    return static_cast<std::uint64_t>(pages_per_block) * page_size;
  }
  std::uint64_t capacity_bytes() const { return total_pages() * page_size; }

  Status Validate() const {
    if (channels == 0 || planes_per_channel == 0 || blocks_per_plane == 0 ||
        pages_per_block == 0 || page_size == 0) {
      return Status(ErrorCode::kInvalidArgument, "all geometry dimensions must be nonzero");
    }
    // Flat page indices must fit the FTLs' 4-byte mapping entries, below the all-ones
    // sentinel (src/ftl/page_map.h). Partial products stay below 2^32, so none wraps.
    std::uint64_t pages = 1;
    for (const std::uint32_t dim :
         {channels, planes_per_channel, blocks_per_plane, pages_per_block}) {
      if ((pages *= dim) >= std::numeric_limits<std::uint32_t>::max()) {
        return Status(ErrorCode::kInvalidArgument, "total pages must be below 2^32 - 1");
      }
    }
    return Status::Ok();
  }

  // A small geometry for unit tests: 2 ch x 2 planes x 64 blocks x 32 pages x 4 KiB = 32 MiB.
  static FlashGeometry Small() {
    FlashGeometry g;
    g.channels = 2;
    g.planes_per_channel = 2;
    g.blocks_per_plane = 64;
    g.pages_per_block = 32;
    g.page_size = 4096;
    return g;
  }

  // A mid-size geometry for benchmarks: 8 ch x 4 planes x 128 blocks x 128 pages x 4 KiB = 2 GiB.
  static FlashGeometry Bench() {
    FlashGeometry g;
    g.channels = 8;
    g.planes_per_channel = 4;
    g.blocks_per_plane = 128;
    g.pages_per_block = 128;
    g.page_size = 4096;
    return g;
  }
};

// Physical page address within the hierarchy. Every coordinate is a strong type (see
// src/core/strong_id.h), so a swapped (plane, block) or an LBA smuggled into a physical
// coordinate is a compile error rather than a silent mis-address.
struct PhysAddr {
  ChannelId channel{0};
  PlaneId plane{0};
  BlockId block{0};
  PageId page{0};

  friend bool operator==(const PhysAddr& a, const PhysAddr& b) {
    return a.channel == b.channel && a.plane == b.plane && a.block == b.block && a.page == b.page;
  }
};

// Flat indices used by the FTLs for dense tables.
inline std::uint32_t PlaneIndex(const FlashGeometry& g, ChannelId channel, PlaneId plane) {
  return channel.value() * g.planes_per_channel + plane.value();
}

// Flat block index across the whole device: plane-major, then block.
inline std::uint64_t FlatBlockIndex(const FlashGeometry& g, const PhysAddr& a) {
  return static_cast<std::uint64_t>(PlaneIndex(g, a.channel, a.plane)) * g.blocks_per_plane +
         a.block.value();
}

// Flat physical page address across the whole device.
inline Ppa FlatPageIndex(const FlashGeometry& g, const PhysAddr& a) {
  return Ppa{FlatBlockIndex(g, a) * g.pages_per_block + a.page.value()};
}

// Inverse of FlatBlockIndex (page 0 of the block).
inline PhysAddr AddrFromFlatBlock(const FlashGeometry& g, std::uint64_t block_flat) {
  PhysAddr a;
  a.block = BlockId{static_cast<std::uint32_t>(block_flat % g.blocks_per_plane)};
  const std::uint64_t plane_flat = block_flat / g.blocks_per_plane;
  a.plane = PlaneId{static_cast<std::uint32_t>(plane_flat % g.planes_per_channel)};
  a.channel = ChannelId{static_cast<std::uint32_t>(plane_flat / g.planes_per_channel)};
  return a;
}

// Inverse of FlatPageIndex.
inline PhysAddr AddrFromFlatPage(const FlashGeometry& g, Ppa ppa) {
  PhysAddr a = AddrFromFlatBlock(g, ppa.value() / g.pages_per_block);
  a.page = PageId{static_cast<std::uint32_t>(ppa.value() % g.pages_per_block)};
  return a;
}

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_FLASH_GEOMETRY_H_
