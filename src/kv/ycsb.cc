#include "src/kv/ycsb.h"

#include <algorithm>
#include <cstdio>

#include "src/util/rng.h"

namespace blockhead {

namespace {

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(n));
  return buf;
}

std::string ValueOf(std::uint64_t n, std::size_t bytes) {
  std::string v = "v" + std::to_string(n) + "-";
  while (v.size() < bytes) {
    v += static_cast<char>('a' + (n + v.size()) % 26);
  }
  v.resize(bytes);
  return v;
}

}  // namespace

const char* YcsbName(YcsbWorkload workload) {
  switch (workload) {
    case YcsbWorkload::kA:
      return "A (50r/50u zipf)";
    case YcsbWorkload::kB:
      return "B (95r/5u zipf)";
    case YcsbWorkload::kC:
      return "C (100r zipf)";
    case YcsbWorkload::kD:
      return "D (95r-latest/5i)";
    case YcsbWorkload::kE:
      return "E (95scan/5i)";
    case YcsbWorkload::kF:
      return "F (50r/50rmw)";
  }
  return "?";
}

Result<SimTime> YcsbLoad(KvStore& store, const YcsbConfig& config, SimTime start) {
  SimTime t = start;
  for (std::uint64_t i = 0; i < config.record_count; ++i) {
    Result<SimTime> p = store.Put(KeyOf(i), ValueOf(i, config.value_bytes), t);
    if (!p.ok()) {
      return p;
    }
    t = std::max(t, p.value());
  }
  Result<SimTime> f = store.Flush(t);
  if (!f.ok()) {
    return f;
  }
  return std::max(t, f.value());
}

YcsbResult YcsbRun(KvStore& store, YcsbWorkload workload, const YcsbConfig& config,
                   SimTime start) {
  YcsbResult result;
  Rng rng(config.seed);
  ZipfGenerator zipf(config.record_count, config.zipf_theta, config.seed + 1);
  std::uint64_t next_insert = config.record_count;
  SimTime t = start;

  auto pick_key = [&]() -> std::uint64_t {
    if (workload == YcsbWorkload::kD) {
      // Read-latest: skew toward the most recently inserted keys.
      const std::uint64_t recency = zipf.Next();  // 0 = hottest.
      return next_insert > 1 + recency ? next_insert - 1 - recency : 0;
    }
    return zipf.Next();
  };

  auto do_read = [&]() -> Status {
    auto g = store.Get(KeyOf(pick_key()), t);
    if (!g.ok()) {
      return g.status();
    }
    result.read_latency.Record(g->completion > t ? g->completion - t : 0);
    result.reads++;
    if (!g->found) {
      result.not_found++;
    }
    t = std::max(t, g->completion);
    return Status::Ok();
  };

  auto do_update = [&](std::uint64_t key) -> Status {
    auto p = store.Put(KeyOf(key), ValueOf(key + result.updates, config.value_bytes), t);
    if (!p.ok()) {
      return p.status();
    }
    result.update_latency.Record(p.value() > t ? p.value() - t : 0);
    result.updates++;
    t = std::max(t, p.value());
    return Status::Ok();
  };

  auto do_insert = [&]() -> Status {
    auto p = store.Put(KeyOf(next_insert), ValueOf(next_insert, config.value_bytes), t);
    if (!p.ok()) {
      return p.status();
    }
    result.update_latency.Record(p.value() > t ? p.value() - t : 0);
    result.inserts++;
    next_insert++;
    t = std::max(t, p.value());
    return Status::Ok();
  };

  auto do_scan = [&]() -> Status {
    constexpr std::uint32_t kMaxScanLength = 50;  // Scans are uniform in [1, 50] entries.
    const std::size_t len = 1 + rng.NextBelow(kMaxScanLength);
    auto s = store.Scan(KeyOf(pick_key()), len, t);
    if (!s.ok()) {
      return s.status();
    }
    result.scan_latency.Record(s->completion > t ? s->completion - t : 0);
    result.scans++;
    result.scanned_entries += s->entries.size();
    t = std::max(t, s->completion);
    return Status::Ok();
  };

  for (std::uint64_t op = 0; op < config.operation_count; ++op) {
    Status status;
    const double roll = rng.NextDouble();
    switch (workload) {
      case YcsbWorkload::kA:
        status = roll < 0.5 ? do_read() : do_update(zipf.Next());
        break;
      case YcsbWorkload::kB:
        status = roll < 0.95 ? do_read() : do_update(zipf.Next());
        break;
      case YcsbWorkload::kC:
        status = do_read();
        break;
      case YcsbWorkload::kD:
        status = roll < 0.95 ? do_read() : do_insert();
        break;
      case YcsbWorkload::kE:
        status = roll < 0.95 ? do_scan() : do_insert();
        break;
      case YcsbWorkload::kF: {
        if (roll < 0.5) {
          status = do_read();
        } else {
          // Read-modify-write: the read half feeds the write half.
          const std::uint64_t key = zipf.Next();
          auto g = store.Get(KeyOf(key), t);
          if (!g.ok()) {
            status = g.status();
            break;
          }
          result.read_latency.Record(g->completion > t ? g->completion - t : 0);
          result.reads++;
          t = std::max(t, g->completion);
          status = do_update(key);
        }
        break;
      }
    }
    if (!status.ok()) {
      result.status = status;
      break;
    }
  }
  result.elapsed = t > start ? t - start : 0;
  return result;
}

}  // namespace blockhead
