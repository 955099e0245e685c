// YCSB-style core workloads (A–F) for the KV store, used to compare the conventional and ZNS
// backends under standard access patterns (the paper's §2.4 RocksDB claims are exactly this
// kind of comparison).
//
//   A: 50% read / 50% update, zipfian        B: 95% read / 5% update, zipfian
//   C: 100% read, zipfian                    D: 95% read-latest / 5% insert
//   E: 95% short scan / 5% insert            F: 50% read / 50% read-modify-write

#ifndef BLOCKHEAD_SRC_KV_YCSB_H_
#define BLOCKHEAD_SRC_KV_YCSB_H_

#include <cstdint>

#include "src/kv/kv_store.h"
#include "src/util/histogram.h"

namespace blockhead {

enum class YcsbWorkload { kA, kB, kC, kD, kE, kF };

const char* YcsbName(YcsbWorkload workload);

struct YcsbConfig {
  std::uint64_t record_count = 50000;
  std::uint64_t operation_count = 50000;
  std::size_t value_bytes = 120;
  double zipf_theta = 0.9;
  std::uint64_t seed = 77;
};

struct YcsbResult {
  Histogram read_latency;    // ns; covers reads, read-latest, and the read half of RMW.
  Histogram update_latency;  // ns; updates, inserts, and the write half of RMW.
  Histogram scan_latency;    // ns.
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t scans = 0;
  std::uint64_t scanned_entries = 0;
  std::uint64_t not_found = 0;  // Reads that missed (0 expected after a clean load).
  SimTime elapsed = 0;
  Status status;

  double OpsPerSecond() const {
    if (elapsed == 0) {
      return 0.0;
    }
    return static_cast<double>(reads + updates + inserts + scans) /
           (static_cast<double>(elapsed) / static_cast<double>(kSecond));
  }
};

// Loads record_count records (keys user0..user{n-1}). Returns the completion time.
Result<SimTime> YcsbLoad(KvStore& store, const YcsbConfig& config, SimTime start);

// Runs operation_count ops of the given workload. The store must already be loaded.
YcsbResult YcsbRun(KvStore& store, YcsbWorkload workload, const YcsbConfig& config,
                   SimTime start);

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_YCSB_H_
