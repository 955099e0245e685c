#include "src/ftl/victim_index.h"

#include <cassert>
#include <limits>

namespace blockhead {

VictimIndex::VictimIndex(std::uint64_t blocks, std::uint32_t pages_per_block, bool by_age,
                         bool by_wear)
    : pages_per_block_(pages_per_block),
      members_(blocks),
      buckets_(pages_per_block + 1, Bitmap(blocks)),
      by_wear_enabled_(by_wear) {
  if (by_age) {
    by_age_.resize(pages_per_block + 1);
  }
}

double VictimIndex::CostBenefitScore(std::uint32_t valid_pages, std::uint32_t pages_per_block,
                                     SimTime now, SimTime last_write) {
  const double u = static_cast<double>(valid_pages) / static_cast<double>(pages_per_block);
  if (u == 0.0) {
    return std::numeric_limits<double>::max();
  }
  const double age = static_cast<double>(now > last_write ? now - last_write : 0) + 1.0;
  return (1.0 - u) / (2.0 * u) * age;
}

void VictimIndex::Insert(std::uint64_t block, std::uint32_t valid_pages, SimTime last_write,
                         std::uint32_t erase_count) {
  assert(!Contains(block) && valid_pages <= pages_per_block_);
  members_[block] = Member{valid_pages, erase_count, last_write};
  buckets_[valid_pages].Set(block);
  if (!by_age_.empty()) {
    by_age_[valid_pages].insert({last_write, block});
  }
  if (by_wear_enabled_) {
    by_wear_.try_emplace(erase_count, members_.size()).first->second.Set(block);
  }
}

void VictimIndex::DropValidPage(std::uint64_t block) {
  Member& m = members_[block];
  assert(m.bucket != kAbsent && m.bucket > 0);
  buckets_[m.bucket].Clear(block);
  buckets_[m.bucket - 1].Set(block);
  if (!by_age_.empty()) {
    by_age_[m.bucket - 1].insert(by_age_[m.bucket].extract({m.last_write, block}));
  }
  m.bucket--;
}

void VictimIndex::Remove(std::uint64_t block) {
  Member& m = members_[block];
  assert(m.bucket != kAbsent);
  buckets_[m.bucket].Clear(block);
  if (!by_age_.empty()) {
    by_age_[m.bucket].erase({m.last_write, block});
  }
  if (by_wear_enabled_) {
    const auto wear = by_wear_.find(m.erase_count);
    wear->second.Clear(block);
    if (wear->second.set_count() == 0) {
      by_wear_.erase(wear);
    }
  }
  m.bucket = kAbsent;
}

std::uint64_t VictimIndex::FirstFrom(const Bitmap& bucket, std::uint64_t start) {
  const std::size_t at = bucket.FindFirstSet(start);
  return at < bucket.size() ? at : bucket.FindFirstSet(0);
}

std::uint64_t VictimIndex::PickGreedy(std::uint64_t start) const {
  // Score is pages_per_block - valid, so the lowest non-empty bucket holds every tied best.
  for (std::uint32_t v = 0; v < pages_per_block_; ++v) {
    if (buckets_[v].set_count() != 0) {
      return FirstFrom(buckets_[v], start);
    }
  }
  return kNone;  // Empty, or only fully valid members: GC would gain nothing.
}

std::uint64_t VictimIndex::PickCostBenefit(std::uint64_t start, SimTime now) const {
  assert(!by_age_.empty());
  if (buckets_[0].set_count() != 0) {
    return FirstFrom(buckets_[0], start);  // Dead blocks all score the maximum.
  }
  std::uint64_t best = kNone;
  double best_score = -1.0;
  // Within a bucket the score only grows with age, so the members tied for the bucket's best
  // are a prefix of its (last_write, block) order. Fully valid members score 0 and never win.
  for (std::uint32_t v = 1; v < pages_per_block_; ++v) {
    const std::set<Key>& order = by_age_[v];
    if (order.empty()) {
      continue;
    }
    const SimTime oldest = order.begin()->first;
    const double score = CostBenefitScore(v, pages_per_block_, now, oldest);
    if (score < best_score) {
      continue;
    }
    std::uint64_t winner = kNone;
    if (oldest >= now) {
      winner = FirstFrom(buckets_[v], start);  // Every member's age clamps to 1: all tie.
    } else {
      // Walk the tied prefix one equal-last_write run at a time; within a run the first
      // member at or after `start` wins, else the run's first.
      for (auto run = order.begin();
           run != order.end() && CostBenefitScore(v, pages_per_block_, now, run->first) == score;
           run = order.upper_bound({run->first, kNone})) {
        const auto from = order.lower_bound({run->first, start});
        const std::uint64_t pick =
            from != order.end() && from->first == run->first ? from->second : run->second;
        if (winner == kNone || Rank(pick, start) < Rank(winner, start)) {
          winner = pick;
        }
      }
    }
    if (score > best_score || Rank(winner, start) < Rank(best, start)) {
      best = winner;
      best_score = score;
    }
  }
  return best;
}

std::uint64_t VictimIndex::PickLeastWorn(std::uint64_t start) const {
  assert(by_wear_enabled_);
  return by_wear_.empty() ? kNone : FirstFrom(by_wear_.begin()->second, start);
}

Status VictimIndex::CheckBlock(std::uint64_t block, bool member, std::uint32_t valid_pages,
                               SimTime last_write, std::uint32_t erase_count) const {
  const Member& m = members_[block];
  if (!member) {
    if (m.bucket != kAbsent) {
      return Status(ErrorCode::kCorruption, "victim index holds a non-candidate block");
    }
    return Status::Ok();
  }
  if (m.bucket != valid_pages || !buckets_[valid_pages].Test(block)) {
    return Status(ErrorCode::kCorruption, "victim index bucket differs from valid pages");
  }
  if (!by_age_.empty() &&
      (m.last_write != last_write || !by_age_[valid_pages].contains({last_write, block}))) {
    return Status(ErrorCode::kCorruption, "victim index age order differs from last write");
  }
  const auto wear = by_wear_.find(erase_count);
  if (by_wear_enabled_ &&
      (m.erase_count != erase_count || wear == by_wear_.end() || !wear->second.Test(block))) {
    return Status(ErrorCode::kCorruption, "victim index wear order differs from erase count");
  }
  return Status::Ok();
}

Status VictimIndex::CheckTotals() const {
  std::uint64_t members = 0;
  for (std::uint64_t b = 0; b < members_.size(); ++b) {
    members += members_[b].bucket != kAbsent;
  }
  std::uint64_t in_buckets = 0;
  for (std::uint32_t v = 0; v <= pages_per_block_; ++v) {
    in_buckets += buckets_[v].set_count();
    if (!by_age_.empty() && by_age_[v].size() != buckets_[v].set_count()) {
      return Status(ErrorCode::kCorruption, "victim index age order size differs from bucket");
    }
  }
  std::uint64_t in_wear = 0;
  for (const auto& [erase_count, wear] : by_wear_) {
    in_wear += wear.set_count();
  }
  if (in_buckets != members || (by_wear_enabled_ && in_wear != members)) {
    return Status(ErrorCode::kCorruption, "victim index holds stale entries");
  }
  return Status::Ok();
}

}  // namespace blockhead
