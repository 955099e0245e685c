// Unified metrics registry: the one place every layer of the stack reports through.
//
// Instruments are identified by hierarchical dot-separated names ("flash.host_pages_read",
// "ftl.gc.pages_moved", "zns.append.latency_ns") and come in three kinds:
//
//   * Counter   — monotonically meaningful u64 (events, pages, bytes);
//   * Gauge     — instantaneous double (write amplification, free fraction, DRAM bytes);
//   * Histogram — the log-bucketed latency histogram from src/util (values in nanoseconds;
//                 by convention such metric names end in "_ns").
//
// Layers may either hold instrument pointers and update them inline (hot-path histograms), or
// register a *provider* — a callback, run before every snapshot, that refreshes registry
// instruments from the layer's internal stats struct. Providers keep the simulation hot paths
// untouched while still making every per-layer stat reachable under one namespace.
//
// Determinism: instruments and providers are stored sorted by name, snapshots iterate in
// lexicographic name order, and nothing here reads the wall clock — so two same-seed
// simulation runs serialize to byte-identical output (see sink.h).

#ifndef BLOCKHEAD_SRC_TELEMETRY_METRIC_REGISTRY_H_
#define BLOCKHEAD_SRC_TELEMETRY_METRIC_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/histogram.h"

namespace blockhead {

class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  void Set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Get-or-create. Returns the existing instrument when `name` is already registered with the
  // same kind, and nullptr when `name` is registered with a *different* kind (the collision is
  // also counted in collisions()). Returned pointers stay valid for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // True (and sets *kind) if `name` is registered.
  bool Lookup(std::string_view name, MetricKind* kind = nullptr) const;

  std::size_t size() const { return metrics_.size(); }
  std::uint64_t collisions() const { return collisions_; }

  // Registers (or replaces, by id) a refresh callback run before every Snapshot. Layers use
  // their metric prefix as the id, so re-attaching a layer does not double-register.
  void AddProvider(std::string_view id, std::function<void()> fn);

  // Unregisters a provider. Layers call this when detached or destroyed, so a registry may
  // outlive the layers that reported into it (their last-published values remain).
  void RemoveProvider(std::string_view id);

  // One serializable metric value. `histogram` points into the registry and is valid until the
  // registry is destroyed or the instrument mutated.
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    const Histogram* histogram = nullptr;
  };

  // Runs all providers (in id order), then returns every instrument sorted by name.
  std::vector<Entry> Snapshot();

 private:
  struct Metric {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::map<std::string, Metric, std::less<>> metrics_;
  std::map<std::string, std::function<void()>, std::less<>> providers_;
  std::uint64_t collisions_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_METRIC_REGISTRY_H_
