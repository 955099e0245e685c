// Benchmark-owned host-time spans and the pass-through wrappers that record them.
//
// The benchmark times the simulator's layers from outside: every public call the benchmark makes
// (and every call a layer makes through an Env or BlockDevice boundary the benchmark can
// interpose on) runs inside a span with a name, wall-clock start and end, and the span that
// caused it. Spans stay in memory; the benchmark aggregates them into per-layer metrics and
// writes them out at exit. Nothing here changes what the wrapped layer does, so SimTime
// results are identical with or without the wrappers (the traced run checks this).

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/block/block_device.h"
#include "src/kv/env.h"

namespace perfbench {

inline std::uint64_t WallNowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Span names, one per (layer, public call). The layer part matches the module names in src/.
enum class SpanName : std::uint8_t {
  kFtlRead,
  kFtlWrite,
  kFtlTrim,
  kHostFtlRead,
  kHostFtlWrite,
  kHostFtlTrim,
  kHostFtlPump,
  kEnvCreate,
  kEnvAppend,
  kEnvRead,
  kEnvSync,
  kEnvDelete,
  kEnvQuery,  // FileSize / Exists / ListFiles.
  kEnvMaintain,
  kKvPut,
  kKvGet,
  kKvScan,
  kCount,
};

const char* SpanNameString(SpanName name);

class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = kNoParent;  // Index into spans().
    SpanName name = SpanName::kCount;
    bool flagged = false;  // ftl/hostftl writes: GC ran inside the call.
  };

  // RAII span; stack discipline (the simulator is single-threaded).
  class Scope {
   public:
    Scope(SpanLog* log, SpanName name) : log_(log) {
      if (log_ != nullptr) {
        index_ = static_cast<std::int32_t>(log_->spans_.size());
        log_->spans_.push_back(Span{WallNowNs(), 0, log_->open_, name, false});
        log_->open_ = index_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) {
        Span& s = log_->spans_[static_cast<std::size_t>(index_)];
        s.end_ns = WallNowNs();
        log_->open_ = s.parent;
      }
    }
    void Flag() {
      if (log_ != nullptr) {
        log_->spans_[static_cast<std::size_t>(index_)].flagged = true;
      }
    }

   private:
    SpanLog* log_;
    std::int32_t index_ = kNoParent;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one CSV row per span: index,name,start_ns,end_ns,parent,gc (times relative to the
  // first span; gc is the flag). Returns false if the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = kNoParent;
};

// BlockDevice pass-through that records one span per call. `gc_counter` points at the wrapped
// device's GC-cycle tally; a write during which it advanced is flagged as a GC write.
class TimedBlockDevice final : public blockhead::BlockDevice {
 public:
  enum class Layer { kFtl, kHostFtl };

  TimedBlockDevice(blockhead::BlockDevice* inner, Layer layer, const std::uint64_t* gc_counter)
      : inner_(inner), layer_(layer), gc_counter_(gc_counter) {}

  blockhead::Result<blockhead::SimTime> ReadBlocks(blockhead::Lba lba, std::uint32_t count,
                                                   blockhead::SimTime issue,
                                                   std::span<std::uint8_t> out = {}) override {
    SpanLog::Scope s(log_, layer_ == Layer::kFtl ? SpanName::kFtlRead : SpanName::kHostFtlRead);
    return inner_->ReadBlocks(lba, count, issue, out);
  }
  blockhead::Result<blockhead::SimTime> WriteBlocks(
      blockhead::Lba lba, std::uint32_t count, blockhead::SimTime issue,
      std::span<const std::uint8_t> data = {}) override {
    SpanLog::Scope s(log_, layer_ == Layer::kFtl ? SpanName::kFtlWrite : SpanName::kHostFtlWrite);
    const std::uint64_t gc_before = *gc_counter_;
    auto r = inner_->WriteBlocks(lba, count, issue, data);
    if (*gc_counter_ != gc_before) {
      s.Flag();
    }
    return r;
  }
  blockhead::Result<blockhead::SimTime> TrimBlocks(blockhead::Lba lba, std::uint32_t count,
                                                   blockhead::SimTime issue) override {
    SpanLog::Scope s(log_, layer_ == Layer::kFtl ? SpanName::kFtlTrim : SpanName::kHostFtlTrim);
    return inner_->TrimBlocks(lba, count, issue);
  }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  std::uint32_t block_size() const override { return inner_->block_size(); }

  // Spans are recorded only while a log is set (the benchmark sets it for the measured phase).
  void set_log(SpanLog* log) { log_ = log; }

 private:
  blockhead::BlockDevice* inner_;
  Layer layer_;
  const std::uint64_t* gc_counter_;
  SpanLog* log_ = nullptr;
};

// Env pass-through that records one span per call: the kv -> env boundary.
class TimedEnv final : public blockhead::Env {
 public:
  explicit TimedEnv(blockhead::Env* inner) : inner_(inner) {}

  blockhead::Result<blockhead::SimTime> CreateFile(std::string_view name,
                                                   blockhead::Lifetime hint,
                                                   blockhead::SimTime now) override {
    SpanLog::Scope s(log_, SpanName::kEnvCreate);
    return inner_->CreateFile(name, hint, now);
  }
  blockhead::Result<blockhead::SimTime> Append(std::string_view name,
                                               std::span<const std::uint8_t> data,
                                               blockhead::SimTime now) override {
    SpanLog::Scope s(log_, SpanName::kEnvAppend);
    return inner_->Append(name, data, now);
  }
  blockhead::Result<blockhead::SimTime> Read(std::string_view name, std::uint64_t offset,
                                             std::span<std::uint8_t> out,
                                             blockhead::SimTime now) override {
    SpanLog::Scope s(log_, SpanName::kEnvRead);
    return inner_->Read(name, offset, out, now);
  }
  blockhead::Result<blockhead::SimTime> Sync(std::string_view name,
                                             blockhead::SimTime now) override {
    SpanLog::Scope s(log_, SpanName::kEnvSync);
    return inner_->Sync(name, now);
  }
  blockhead::Result<blockhead::SimTime> DeleteFile(std::string_view name,
                                                   blockhead::SimTime now) override {
    SpanLog::Scope s(log_, SpanName::kEnvDelete);
    return inner_->DeleteFile(name, now);
  }
  blockhead::Result<std::uint64_t> FileSize(std::string_view name) const override {
    SpanLog::Scope s(log_, SpanName::kEnvQuery);
    return inner_->FileSize(name);
  }
  bool Exists(std::string_view name) const override {
    SpanLog::Scope s(log_, SpanName::kEnvQuery);
    return inner_->Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    SpanLog::Scope s(log_, SpanName::kEnvQuery);
    return inner_->ListFiles();
  }
  void Maintain(blockhead::SimTime now, bool reads_pending) override {
    SpanLog::Scope s(log_, SpanName::kEnvMaintain);
    inner_->Maintain(now, reads_pending);
  }

  // Spans are recorded only while a log is set (the benchmark sets it for the measured phase).
  void set_log(SpanLog* log) { log_ = log; }

 private:
  blockhead::Env* inner_;
  SpanLog* log_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
