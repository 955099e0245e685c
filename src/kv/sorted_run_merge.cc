#include "src/kv/sorted_run_merge.h"

#include <algorithm>
#include <string_view>

namespace blockhead {

void SortedRunMerge::Clear() {
  entries_.clear();
  runs_.clear();
  scratch_.clear();
}

std::size_t SortedRunMerge::EndRun(std::size_t rank) {
  const std::size_t begin = runs_.empty() ? 0 : runs_.back().end;
  const std::size_t end = entries_.size();
  // One cursor per earlier run whose keys overlap this run's key range.
  scratch_.clear();
  if (begin < end) {
    const std::string_view lo = entries_[begin].key;
    const std::string_view hi = entries_[end - 1].key;
    for (const Run& run : runs_) {
      const auto first = std::lower_bound(
          entries_.begin() + static_cast<std::ptrdiff_t>(run.begin),
          entries_.begin() + static_cast<std::ptrdiff_t>(run.end), lo,
          [](const KvEntryView& e, std::string_view k) { return e.key < k; });
      const auto pos = static_cast<std::size_t>(first - entries_.begin());
      if (pos < run.end && entries_[pos].key <= hi) {
        scratch_.push_back(Run{pos, run.end, run.rank});
      }
    }
  }
  std::size_t fresh = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::string_view key = entries_[i].key;
    bool held = false;
    for (Run& cursor : scratch_) {
      while (cursor.begin < cursor.end && entries_[cursor.begin].key < key) {
        ++cursor.begin;
      }
      if (cursor.begin < cursor.end && entries_[cursor.begin].key == key) {
        held = true;
        break;
      }
    }
    fresh += held ? 0 : 1;
  }
  runs_.push_back(Run{begin, end, rank});
  return fresh;
}

bool SortedRunMerge::After(const Run& a, const Run& b) const {
  const int order = entries_[a.begin].key.compare(entries_[b.begin].key);
  return order > 0 || (order == 0 && a.rank > b.rank);
}

void SortedRunMerge::PushHead(const Run& run) {
  scratch_.push_back(run);
  std::push_heap(scratch_.begin(), scratch_.end(),
                 [this](const Run& a, const Run& b) { return After(a, b); });
}

void SortedRunMerge::StartMerge() {
  scratch_.clear();
  for (const Run& run : runs_) {
    if (run.begin < run.end) {
      PushHead(run);
    }
  }
}

bool SortedRunMerge::Next(KvEntryView* out) {
  const auto after = [this](const Run& a, const Run& b) { return After(a, b); };
  if (scratch_.empty()) {
    return false;
  }
  std::pop_heap(scratch_.begin(), scratch_.end(), after);
  Run head = scratch_.back();
  scratch_.pop_back();
  *out = entries_[head.begin];
  // Every other run holding this key has lower precedence: step past its entry.
  while (!scratch_.empty() && entries_[scratch_.front().begin].key == out->key) {
    std::pop_heap(scratch_.begin(), scratch_.end(), after);
    Run shadowed = scratch_.back();
    scratch_.pop_back();
    if (++shadowed.begin < shadowed.end) {
      PushHead(shadowed);
    }
  }
  if (++head.begin < head.end) {
    PushHead(head);
  }
  return true;
}

}  // namespace blockhead
