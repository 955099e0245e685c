#include "src/workload/workload.h"

#include <algorithm>
#include <deque>

namespace blockhead {

RandomWorkload::RandomWorkload(const RandomWorkloadConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.distribution == AddressDistribution::kZipfian && config_.lba_space > 1) {
    zipf_ = std::make_unique<ZipfGenerator>(config_.lba_space, config_.zipf_theta,
                                            config_.seed + 1);
  }
}

IoRequest RandomWorkload::Next() {
  IoRequest req;
  req.type = rng_.NextBool(config_.read_fraction) ? IoType::kRead : IoType::kWrite;
  req.pages = config_.io_pages;
  const std::uint64_t lba =
      zipf_ != nullptr ? zipf_->Next() : rng_.NextBelow(config_.lba_space);
  const std::uint64_t max_start =
      config_.lba_space >= config_.io_pages ? config_.lba_space - config_.io_pages : 0;
  req.lba = std::min(lba, max_start);
  return req;
}

const char* YcsbMixName(YcsbMix mix) {
  switch (mix) {
    case YcsbMix::kA:
      return "A";
    case YcsbMix::kB:
      return "B";
    case YcsbMix::kC:
      return "C";
    case YcsbMix::kD:
      return "D";
    case YcsbMix::kE:
      return "E";
    case YcsbMix::kF:
      return "F";
  }
  return "?";
}

YcsbBlockWorkload::YcsbBlockWorkload(const YcsbBlockConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.record_pages == 0) {
    config_.record_pages = 1;
  }
  num_records_ = config_.lba_space / config_.record_pages;
  if (num_records_ == 0) {
    num_records_ = 1;
  }
  if (num_records_ > 1) {
    zipf_ = std::make_unique<ZipfGenerator>(num_records_, config_.zipf_theta,
                                            config_.seed + 1);
  }
}

IoRequest YcsbBlockWorkload::RecordOp(std::uint64_t record, IoType type, std::uint32_t pages) {
  IoRequest req{type, (record % num_records_) * config_.record_pages, pages};
  // Clamp multi-record scans at the end of the space rather than wrapping mid-request.
  const std::uint64_t max_start = config_.lba_space >= pages ? config_.lba_space - pages : 0;
  req.lba = std::min(req.lba, max_start);
  return req;
}

IoRequest YcsbBlockWorkload::Next() {
  const std::uint32_t pages = config_.record_pages;
  if (rmw_write_pending_) {
    rmw_write_pending_ = false;
    return RecordOp(rmw_record_, IoType::kWrite, pages);
  }
  const std::uint64_t popular = zipf_ != nullptr ? zipf_->Next() : 0;
  switch (config_.mix) {
    case YcsbMix::kA:
      return RecordOp(popular, rng_.NextBool(0.5) ? IoType::kRead : IoType::kWrite, pages);
    case YcsbMix::kB:
      return RecordOp(popular, rng_.NextBool(0.95) ? IoType::kRead : IoType::kWrite, pages);
    case YcsbMix::kC:
      return RecordOp(popular, IoType::kRead, pages);
    case YcsbMix::kD: {
      if (rng_.NextBool(0.05)) {
        return RecordOp(insert_frontier_++, IoType::kWrite, pages);
      }
      // Read-latest: skew toward the most recent inserts (popularity by recency, so reuse the
      // zipf rank as "records behind the frontier").
      const std::uint64_t behind = popular;
      return RecordOp(insert_frontier_ + num_records_ - 1 - (behind % num_records_),
                      IoType::kRead, pages);
    }
    case YcsbMix::kE: {
      if (rng_.NextBool(0.05)) {
        return RecordOp(insert_frontier_++, IoType::kWrite, pages);
      }
      constexpr std::uint32_t kMaxScanPages = 32;  // Scans are uniform in [pages, cap].
      const std::uint32_t cap = std::max<std::uint32_t>(kMaxScanPages, pages);
      const std::uint32_t scan_pages = static_cast<std::uint32_t>(
          rng_.NextInRange(pages, cap));
      return RecordOp(popular, IoType::kRead, scan_pages);
    }
    case YcsbMix::kF: {
      if (rng_.NextBool(0.5)) {
        return RecordOp(popular, IoType::kRead, pages);
      }
      rmw_write_pending_ = true;
      rmw_record_ = popular;
      return RecordOp(rmw_record_, IoType::kRead, pages);
    }
  }
  return RecordOp(popular, IoType::kRead, pages);
}

SequentialWorkload::SequentialWorkload(std::uint64_t lba_space, std::uint32_t io_pages,
                                       IoType type)
    : lba_space_(lba_space), io_pages_(io_pages), type_(type) {}

IoRequest SequentialWorkload::Next() {
  if (next_ + io_pages_ > lba_space_) {
    next_ = 0;
  }
  IoRequest req{type_, next_, io_pages_};
  next_ += io_pages_;
  return req;
}

RunResult RunClosedLoop(BlockDevice& device, WorkloadGenerator& gen,
                        const DriverOptions& options) {
  RunResult result;
  result.start = options.start_time;
  result.end = options.start_time;
  // Completion times of the outstanding window, oldest first. With queue depth Q, request n
  // issues at the completion of request n-Q (or at start_time while the queue is filling).
  std::deque<SimTime> outstanding;

  for (std::uint64_t n = 0; n < options.ops; ++n) {
    const IoRequest req = gen.Next();
    SimTime issue = options.start_time;
    if (outstanding.size() >= options.queue_depth) {
      issue = std::max(issue, outstanding.front());
      outstanding.pop_front();
    }

    if (options.maintenance_hook && options.maintenance_interval != 0 &&
        n % options.maintenance_interval == 0) {
      options.maintenance_hook(issue, req.type == IoType::kRead);
    }

    Result<SimTime> done = 0;
    switch (req.type) {
      case IoType::kRead:
        done = device.ReadBlocks(Lba{req.lba}, req.pages, issue);
        break;
      case IoType::kWrite:
        done = device.WriteBlocks(Lba{req.lba}, req.pages, issue);
        break;
      case IoType::kTrim:
        done = device.TrimBlocks(Lba{req.lba}, req.pages, issue);
        break;
    }
    if (!done.ok()) {
      result.status = done.status();
      break;
    }
    const SimTime completion = done.value();
    outstanding.push_back(completion);
    result.end = std::max(result.end, completion);
    const SimTime latency = completion > issue ? completion - issue : 0;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(req.pages) * device.block_size();
    switch (req.type) {
      case IoType::kRead:
        result.read_latency.Record(latency);
        result.reads++;
        result.bytes_read += bytes;
        break;
      case IoType::kWrite:
        result.write_latency.Record(latency);
        result.writes++;
        result.bytes_written += bytes;
        break;
      case IoType::kTrim:
        result.trims++;
        break;
    }
  }
  return result;
}

RunResult RunOpenLoop(BlockDevice& device, WorkloadGenerator& gen, const DriverOptions& options,
                      double ops_per_second, std::uint64_t seed) {
  RunResult result;
  result.start = options.start_time;
  result.end = options.start_time;
  Rng arrivals(seed);
  const double mean_gap_ns = static_cast<double>(kSecond) / ops_per_second;
  double clock = static_cast<double>(options.start_time);

  for (std::uint64_t n = 0; n < options.ops; ++n) {
    clock += arrivals.NextExponential(mean_gap_ns);
    const SimTime issue = static_cast<SimTime>(clock);
    const IoRequest req = gen.Next();

    if (options.maintenance_hook && options.maintenance_interval != 0 &&
        n % options.maintenance_interval == 0) {
      options.maintenance_hook(issue, req.type == IoType::kRead);
    }

    Result<SimTime> done = 0;
    switch (req.type) {
      case IoType::kRead:
        done = device.ReadBlocks(Lba{req.lba}, req.pages, issue);
        break;
      case IoType::kWrite:
        done = device.WriteBlocks(Lba{req.lba}, req.pages, issue);
        break;
      case IoType::kTrim:
        done = device.TrimBlocks(Lba{req.lba}, req.pages, issue);
        break;
    }
    if (!done.ok()) {
      result.status = done.status();
      break;
    }
    const SimTime completion = done.value();
    result.end = std::max(result.end, completion);
    const SimTime latency = completion > issue ? completion - issue : 0;
    const std::uint64_t bytes = static_cast<std::uint64_t>(req.pages) * device.block_size();
    switch (req.type) {
      case IoType::kRead:
        result.read_latency.Record(latency);
        result.reads++;
        result.bytes_read += bytes;
        break;
      case IoType::kWrite:
        result.write_latency.Record(latency);
        result.writes++;
        result.bytes_written += bytes;
        break;
      case IoType::kTrim:
        result.trims++;
        break;
    }
  }
  return result;
}

Result<SimTime> SequentialFill(BlockDevice& device, double fraction, SimTime start,
                               std::uint32_t io_pages) {
  const std::uint64_t pages =
      static_cast<std::uint64_t>(fraction * static_cast<double>(device.num_blocks()));
  SimTime t = start;
  for (std::uint64_t lba = 0; lba + io_pages <= pages; lba += io_pages) {
    Result<SimTime> done = device.WriteBlocks(Lba{lba}, io_pages, t);
    if (!done.ok()) {
      return done;
    }
    t = done.value();
  }
  return t;
}

}  // namespace blockhead
