#include "src/queue/persistent_queue.h"

#include <algorithm>
#include <cassert>

#include "src/telemetry/telemetry.h"

namespace blockhead {

PersistentQueue::PersistentQueue(ZnsDevice* device, const QueueConfig& config)
    : device_(device), config_(config) {
  assert(config_.record_pages > 0);
  records_per_zone_ = device_->zone_size_pages() / config_.record_pages;
  for (std::uint32_t z = 0; z < device_->num_zones(); ++z) {
    free_zones_.push_back(z);
  }
}

std::uint64_t PersistentQueue::FreeRecordSlots() const {
  std::uint64_t slots = free_zones_.size() * records_per_zone_;
  if (tail_zone_ != kNoZone) {
    const ZoneDescriptor d = device_->zone(ZoneId{tail_zone_});
    slots += (d.capacity_pages - d.write_pointer) / config_.record_pages;
  }
  return slots;
}

Status PersistentQueue::EnsureTailZone(SimTime now) {
  if (tail_zone_ != kNoZone) {
    const ZoneDescriptor d = device_->zone(ZoneId{tail_zone_});
    if (d.state != ZoneState::kOffline &&
        d.write_pointer + config_.record_pages <= d.capacity_pages) {
      return Status::Ok();
    }
    // No room for a whole record: seal the remainder and rotate.
    if (d.state != ZoneState::kFull) {
      (void)device_->FinishZone(ZoneId{tail_zone_}, now);
    }
    tail_zone_ = kNoZone;
  }
  while (!free_zones_.empty()) {
    const std::uint32_t z = free_zones_.front();
    free_zones_.pop_front();
    const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state != ZoneState::kEmpty || d.capacity_pages < config_.record_pages) {
      continue;  // Worn out or shrunk below one record; drop it.
    }
    tail_zone_ = z;
    live_zones_.push_back(z);
    return Status::Ok();
  }
  return Status(ErrorCode::kDeviceFull, "queue ring exhausted");
}

Result<SimTime> PersistentQueue::Enqueue(std::span<const std::uint8_t> payload, SimTime now) {
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(device_->telemetry()),
                                            RequestContext{config_.tenant, ReqOp::kWrite}, now);
  BLOCKHEAD_RETURN_IF_ERROR(EnsureTailZone(now));
  SimTime done = 0;
  if (config_.use_append) {
    Result<AppendResult> r =
      device_->Append(ZoneId{tail_zone_}, config_.record_pages, now, payload);
    if (!r.ok()) {
      return r.status();
    }
    done = r->completion;
  } else {
    const ZoneDescriptor d = device_->zone(ZoneId{tail_zone_});
    Result<SimTime> r =
        device_->Write(ZoneId{tail_zone_}, d.write_pointer, config_.record_pages, now, payload);
    if (!r.ok()) {
      return r;
    }
    done = r.value();
  }
  stats_.enqueued++;
  req_scope.Complete(done);
  return done;
}

Result<PersistentQueue::DequeueResult> PersistentQueue::Dequeue(std::span<std::uint8_t> out,
                                                                SimTime now) {
  if (Depth() == 0) {
    return ErrorCode::kNotFound;
  }
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(device_->telemetry()),
                                            RequestContext{config_.tenant, ReqOp::kRead}, now);
  // Drop fully-consumed head zones (never the live tail).
  while (!live_zones_.empty()) {
    const std::uint32_t head_zone = live_zones_.front();
    const ZoneDescriptor d = device_->zone(ZoneId{head_zone});
    const std::uint64_t records_in_zone =
        (head_zone == tail_zone_ ? d.write_pointer : d.capacity_pages) / config_.record_pages;
    if (head_record_ < records_in_zone) {
      break;
    }
    if (head_zone == tail_zone_) {
      // Tail not rotated yet but everything in it is consumed; wait for new records.
      return ErrorCode::kNotFound;
    }
    Result<SimTime> reset = device_->ResetZone(ZoneId{head_zone}, now);
    live_zones_.pop_front();
    head_record_ = 0;
    if (reset.ok() && device_->zone(ZoneId{head_zone}).state == ZoneState::kEmpty) {
      free_zones_.push_back(head_zone);
      stats_.zones_recycled++;
    }
  }
  assert(!live_zones_.empty());
  const std::uint32_t head_zone = live_zones_.front();
  const Lba lba = device_->zone(ZoneId{head_zone}).start_lba +
                  head_record_ * config_.record_pages;
  Result<SimTime> r = device_->Read(lba, config_.record_pages, now, out);
  if (!r.ok()) {
    return r.status();
  }
  head_record_++;
  stats_.dequeued++;
  req_scope.Complete(r.value());
  return DequeueResult{r.value(), lba.value()};
}

}  // namespace blockhead
