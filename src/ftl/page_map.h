// The page-mapping table of both block-interface FTLs: the conventional SSD's firmware L2P
// (src/ftl) and the host FTL emulating a block device over ZNS (src/hostftl), where §2.3 says
// the table moves into host DRAM. Entries are 4 B, as in the paper's §2.2 DRAM model, so the
// mapping bytes the FTLs report are this table's allocation.
//
// The forward table maps logical pages to flat physical pages (flash pages in the conventional
// SSD, device LBAs in the host FTL); the reverse table maps each physical page to its owner.
// kUnmapped marks an empty entry on both sides; a physical page is live iff it has an owner.
// FlashGeometry::Validate() keeps every page space below 2^32 - 1 pages; the constructor
// re-checks and aborts rather than truncate. Mutations keep the optional "<prefix>.l2p" state
// digest in step: one (lpn, phys) entry per mapped logical page.

#ifndef BLOCKHEAD_SRC_FTL_PAGE_MAP_H_
#define BLOCKHEAD_SRC_FTL_PAGE_MAP_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/telemetry/audit/state_digest.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

class PageMap {
 public:
  using Entry = std::uint32_t;
  static constexpr Entry kUnmapped = std::numeric_limits<Entry>::max();
  static constexpr std::uint64_t kEntryBytes = sizeof(Entry);

  PageMap() = default;
  // Aborts if either page count does not fit an Entry below the sentinel.
  PageMap(std::uint64_t logical_pages, std::uint64_t physical_pages);

  std::uint64_t logical_pages() const { return forward_.size(); }
  std::uint64_t physical_pages() const { return reverse_.size(); }
  // Allocated table sizes: the DRAM the paper's model prices.
  std::uint64_t forward_bytes() const { return logical_pages() * kEntryBytes; }
  std::uint64_t reverse_bytes() const { return physical_pages() * kEntryBytes; }

  // Physical page holding `lpn`, or kUnmapped.
  Entry Lookup(std::uint64_t lpn) const { return forward_[lpn]; }
  // Logical page stored at `phys`, or kUnmapped.
  Entry Owner(std::uint64_t phys) const { return reverse_[phys]; }
  bool Live(std::uint64_t phys) const { return reverse_[phys] != kUnmapped; }

  // Maps an unmapped `lpn` to the unowned page `phys`.
  void Map(std::uint64_t lpn, std::uint64_t phys, SimTime now) {
    assert(forward_[lpn] == kUnmapped && reverse_[phys] == kUnmapped);
    forward_[lpn] = static_cast<Entry>(phys);
    reverse_[phys] = static_cast<Entry>(lpn);
    if (Audited()) {
      audit_->Insert(now, EntryHash(lpn, phys));
    }
  }

  // Unmaps `lpn` and returns the physical page it held (kUnmapped: it was not mapped).
  Entry Unmap(std::uint64_t lpn, SimTime now) {
    const Entry old = forward_[lpn];
    if (old == kUnmapped) {
      return old;
    }
    reverse_[old] = kUnmapped;
    forward_[lpn] = kUnmapped;
    if (Audited()) {
      audit_->Remove(now, EntryHash(lpn, old));
    }
    return old;
  }

  // Relocates the live page at `from` to the unowned page `to`; returns its logical page.
  Entry Move(std::uint64_t from, std::uint64_t to, SimTime now) {
    const Entry lpn = reverse_[from];
    assert(lpn != kUnmapped && reverse_[to] == kUnmapped);
    forward_[lpn] = static_cast<Entry>(to);
    reverse_[to] = lpn;
    reverse_[from] = kUnmapped;
    if (Audited()) {
      audit_->Replace(now, EntryHash(lpn, from), EntryHash(lpn, to));
    }
    return lpn;
  }

  // Routes mutations into `audit` (nullptr detaches).
  void AttachAudit(SubsystemDigest* audit) { audit_ = audit; }

  // Verifies that the two tables are exact inverses. For tests; O(capacity).
  Status Check() const;
  // Live pages per run of `pages_per_unit` physical pages (an erase block, a zone).
  std::vector<std::uint32_t> LiveCounts(std::uint64_t pages_per_unit) const;

 private:
  friend class PageMapTestPeer;  // Corrupts single entries to exercise Check().

  static std::uint64_t EntryHash(std::uint64_t lpn, std::uint64_t phys) {
    return AuditHashWords({lpn, phys});
  }
  bool Audited() const { return audit_ != nullptr && audit_->armed(); }

  std::vector<Entry> forward_;  // Logical page -> physical page.
  std::vector<Entry> reverse_;  // Physical page -> logical page.
  SubsystemDigest* audit_ = nullptr;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_FTL_PAGE_MAP_H_
