// Synthetic I/O workload generators and a deterministic closed-loop driver.
//
// Generators produce logical block requests (uniform/zipfian random, sequential, mixed
// read/write); the driver replays them against any BlockDevice with a configurable queue
// depth, collecting per-class latency histograms and throughput. A periodic idle hook lets
// host-side stacks run background maintenance (GC pumps) the way a real I/O scheduler would.

#ifndef BLOCKHEAD_SRC_WORKLOAD_WORKLOAD_H_
#define BLOCKHEAD_SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/block/block_device.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

enum class IoType { kRead, kWrite, kTrim };

struct IoRequest {
  IoType type = IoType::kWrite;
  std::uint64_t lba = 0;
  std::uint32_t pages = 1;
};

// Abstract request stream.
class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;
  virtual IoRequest Next() = 0;
};

// Key-space distribution for random workloads.
enum class AddressDistribution { kUniform, kZipfian };

struct RandomWorkloadConfig {
  std::uint64_t lba_space = 0;  // Addresses drawn from [0, lba_space).
  double read_fraction = 0.0;   // 0.0 = pure writes, 1.0 = pure reads.
  std::uint32_t io_pages = 1;   // Request size in pages.
  AddressDistribution distribution = AddressDistribution::kUniform;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
};

// Random-address workload with a configurable read/write mix.
class RandomWorkload final : public WorkloadGenerator {
 public:
  explicit RandomWorkload(const RandomWorkloadConfig& config);
  IoRequest Next() override;

 private:
  RandomWorkloadConfig config_;
  Rng rng_;
  std::unique_ptr<ZipfGenerator> zipf_;
};

// YCSB core-workload op mixes (Cooper et al.), expressed at the block level so the standard
// cloud-serving request patterns can drive any BlockDevice or the fleet directly — without a
// KV store in between (src/kv/ycsb.h covers the KV-level variant).
enum class YcsbMix { kA, kB, kC, kD, kE, kF };

const char* YcsbMixName(YcsbMix mix);

struct YcsbBlockConfig {
  YcsbMix mix = YcsbMix::kA;
  std::uint64_t lba_space = 0;     // Records map onto [0, lba_space) in record_pages strides.
  std::uint32_t record_pages = 1;  // Pages per record; every op addresses whole records.
  double zipf_theta = 0.99;        // Record popularity skew (A/B/C/F).
  std::uint64_t seed = 1;
};

// Block-level YCSB generator: A 50/50 read-update, B 95/5 read-update, C read-only,
// D read-latest with 5% inserts, E short scans (multi-page reads) with 5% inserts, F
// read-modify-write (the write half follows as the next request on the same record).
// Inserts advance a frontier that wraps around the record space; read-latest draws from a
// recency-skewed window behind that frontier.
class YcsbBlockWorkload final : public WorkloadGenerator {
 public:
  explicit YcsbBlockWorkload(const YcsbBlockConfig& config);
  IoRequest Next() override;

 private:
  IoRequest RecordOp(std::uint64_t record, IoType type, std::uint32_t pages);

  YcsbBlockConfig config_;
  Rng rng_;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::uint64_t num_records_ = 0;
  std::uint64_t insert_frontier_ = 0;  // Next record an insert lands on (D/E).
  bool rmw_write_pending_ = false;     // F: emit the write half on the next call.
  std::uint64_t rmw_record_ = 0;
};

// Sequential full-space write pass (wraps around), for preconditioning and streaming loads.
class SequentialWorkload final : public WorkloadGenerator {
 public:
  SequentialWorkload(std::uint64_t lba_space, std::uint32_t io_pages, IoType type);
  IoRequest Next() override;

 private:
  std::uint64_t lba_space_;
  std::uint32_t io_pages_;
  IoType type_;
  std::uint64_t next_ = 0;
};

// Aggregated result of a driver run.
struct RunResult {
  Histogram read_latency;   // ns
  Histogram write_latency;  // ns
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t trims = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  SimTime start = 0;
  SimTime end = 0;
  Status status;  // First error encountered, if any (run stops there).

  SimTime elapsed() const { return end > start ? end - start : 0; }
  double TotalMiBps() const { return ToMiBPerSec(bytes_read + bytes_written, elapsed()); }
  double ReadMiBps() const { return ToMiBPerSec(bytes_read, elapsed()); }
  double WriteMiBps() const { return ToMiBPerSec(bytes_written, elapsed()); }
  double Iops() const {
    const SimTime e = elapsed();
    if (e == 0) {
      return 0.0;
    }
    return static_cast<double>(reads + writes + trims) /
           (static_cast<double>(e) / static_cast<double>(kSecond));
  }
};

struct DriverOptions {
  std::uint64_t ops = 10000;
  std::uint32_t queue_depth = 1;
  // Called every idle_interval requests with the current simulated time; host stacks hook
  // their GC pumps here. reads_pending reflects whether the next request is a read.
  std::function<void(SimTime now, bool reads_pending)> maintenance_hook;
  std::uint32_t maintenance_interval = 16;
  SimTime start_time = 0;
};

// Replays `ops` requests from `gen` against `device` closed-loop: a request is issued as soon
// as a queue slot frees (the completion of the (n - queue_depth)-th request). Returns latency
// and throughput aggregates. Stops early on the first device error (recorded in the result).
RunResult RunClosedLoop(BlockDevice& device, WorkloadGenerator& gen,
                        const DriverOptions& options);

// Open-loop replay: requests arrive by a Poisson process at `ops_per_second` regardless of
// completions (arrival-time clock), so queueing delay appears in the measured latencies. The
// standard way to draw latency-vs-offered-load curves; saturation shows up as exploding
// tails, not reduced throughput.
RunResult RunOpenLoop(BlockDevice& device, WorkloadGenerator& gen, const DriverOptions& options,
                      double ops_per_second, std::uint64_t seed = 1234);

// Convenience: sequentially writes `fraction` of the device's logical space (preconditioning).
// Returns the completion time of the last write.
Result<SimTime> SequentialFill(BlockDevice& device, double fraction, SimTime start,
                               std::uint32_t io_pages = 8);

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_WORKLOAD_WORKLOAD_H_
