// Merge of sorted runs of entry views: the one merge behind KvStore::Scan and compaction.
//
// Each run is a key-ascending list of entries from one source (the memtable or one SSTable).
// Where several runs hold a key, the run with the lowest rank wins: newest source first, as
// RocksDB's MergingIterator orders its children. Only host data structures are involved; the
// caller decides which blocks are read and when, so the merge cannot move a SimTime result.
//
// The entries live in one vector the merge owns and reuses from call to call; they are views,
// so whatever they point into (a BlockArena, memtable nodes) must outlive the merge's use.

#ifndef BLOCKHEAD_SRC_KV_SORTED_RUN_MERGE_H_
#define BLOCKHEAD_SRC_KV_SORTED_RUN_MERGE_H_

#include <cstddef>
#include <vector>

#include "src/kv/sstable.h"

namespace blockhead {

class SortedRunMerge {
 public:
  // Forgets every run and entry (keeps the storage).
  void Clear();

  // Entries appended here since the last EndRun() form the next run.
  std::vector<KvEntryView>* pending() { return &entries_; }

  // Closes the pending entries (keys strictly ascending) as a run of precedence `rank`, lower
  // wins. Returns how many of its keys no run closed before it holds.
  std::size_t EndRun(std::size_t rank);

  // Entries handed to the merge, over all runs.
  std::size_t entry_count() const { return entries_.size(); }

  // Starts the merged walk over the closed runs.
  void StartMerge();
  // The next key in ascending order, with the winning run's entry; false when done.
  bool Next(KvEntryView* out);

 private:
  struct Run {
    std::size_t begin = 0;  // [begin, end) in entries_; during the walk, begin is the cursor.
    std::size_t end = 0;
    std::size_t rank = 0;
  };

  // Heap order: true when run a's current entry comes after run b's.
  bool After(const Run& a, const Run& b) const;
  void PushHead(const Run& run);

  std::vector<KvEntryView> entries_;
  std::vector<Run> runs_;
  std::vector<Run> scratch_;  // EndRun's cursors into earlier runs; Next's heap of run heads.
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_SORTED_RUN_MERGE_H_
