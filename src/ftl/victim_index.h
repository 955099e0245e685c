// Incremental GC victim index for the conventional FTL.
//
// Members are the device's closed, full, non-bad erase blocks: a block joins when its frontier
// retires full and leaves when GC picks it (rejoining if that cycle fails before its erase).
// Each member sits in the bucket of its valid-page count, one bitmap per bucket
// (0..pages_per_block), so the greedy pick is the lowest non-empty bucket's first member in
// rotating order. Two orderings serve the other pick kinds and are
// kept only when the device can make that kind of pick:
//   * by age: per bucket, (last_write, block) ascending, for cost-benefit;
//   * by wear: one member bitmap per erase count, in erase-count order, for wear-leveling
//     migration.
// A member's last write time and erase count cannot change while it is indexed (it is closed,
// and only an erase touches its wear, after GC has removed it), so neither key moves in place.
//
// Every pick returns exactly the block the linear scan over all blocks would: of the blocks
// with the best score, the first at or after `start` in cyclic block order (see DESIGN.md,
// "Fair victim scanning").

#ifndef BLOCKHEAD_SRC_FTL_VICTIM_INDEX_H_
#define BLOCKHEAD_SRC_FTL_VICTIM_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/util/bitmap.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

class VictimIndex {
 public:
  static constexpr std::uint64_t kNone = ~0ULL;

  VictimIndex() = default;
  VictimIndex(std::uint64_t blocks, std::uint32_t pages_per_block, bool by_age, bool by_wear);

  // Rosenblum/Ousterhout cost-benefit score, (1-u)/(2u) * age, of a block with `valid_pages`
  // of `pages_per_block` live, last written at `last_write`. Age is clamped to >= 1 ns; a
  // fully dead block scores the maximum double.
  static double CostBenefitScore(std::uint32_t valid_pages, std::uint32_t pages_per_block,
                                 SimTime now, SimTime last_write);

  bool Contains(std::uint64_t block) const { return members_[block].bucket != kAbsent; }
  // Adds a block whose frontier just retired full.
  void Insert(std::uint64_t block, std::uint32_t valid_pages, SimTime last_write,
              std::uint32_t erase_count);
  // Moves a member down one bucket: one of its pages was invalidated.
  void DropValidPage(std::uint64_t block);
  // Removes a member picked as a GC victim.
  void Remove(std::uint64_t block);

  // Fewest valid pages; kNone if every member is fully valid.
  std::uint64_t PickGreedy(std::uint64_t start) const;
  // Highest cost-benefit score at `now`; kNone if every member is fully valid.
  std::uint64_t PickCostBenefit(std::uint64_t start, SimTime now) const;
  // Least erase count over all members; kNone if there are none.
  std::uint64_t PickLeastWorn(std::uint64_t start) const;

  // Checks one block against its expected state: a member iff `member`, in bucket
  // `valid_pages`, with both keys in the orderings that are kept. O(log blocks).
  Status CheckBlock(std::uint64_t block, bool member, std::uint32_t valid_pages,
                    SimTime last_write, std::uint32_t erase_count) const;
  // Checks that bucket bitmaps and orderings hold exactly the members. O(blocks).
  Status CheckTotals() const;

 private:
  friend class VictimIndexTestPeer;  // Corrupts single entries to exercise CheckBlock().

  static constexpr std::uint32_t kAbsent = ~0U;
  using Key = std::pair<SimTime, std::uint64_t>;  // (last_write, block)

  struct Member {
    std::uint32_t bucket = kAbsent;  // Valid-page count, or kAbsent.
    std::uint32_t erase_count = 0;
    SimTime last_write = 0;
  };

  // First member of `bucket` at or after `start`, wrapping; the bucket must be non-empty.
  static std::uint64_t FirstFrom(const Bitmap& bucket, std::uint64_t start);
  // Position of `block` in the cyclic order that starts at `start`.
  std::uint64_t Rank(std::uint64_t block, std::uint64_t start) const {
    return block >= start ? block - start : block + members_.size() - start;
  }

  std::uint32_t pages_per_block_ = 0;
  std::vector<Member> members_;               // Per block.
  std::vector<Bitmap> buckets_;               // Per valid-page count: members.
  std::vector<std::set<Key>> by_age_;         // Per valid-page count; empty unless by_age.
  std::map<std::uint32_t, Bitmap> by_wear_;   // Erase count -> members, if by_wear_enabled_.
  bool by_wear_enabled_ = false;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_FTL_VICTIM_INDEX_H_
