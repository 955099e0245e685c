// Active-zone budget management for multi-tenant ZNS devices (§4.2 of the paper).
//
// ZNS devices cap the number of simultaneously active zones (each consumes device write-buffer
// resources). When several kernel-bypass applications share one device, that cap becomes a
// scarce schedulable resource. The paper: "A simple strategy is to assign a fixed number of
// zones to each application together with a fixed active zone budget. However, this approach
// does not scale for typical bursty workloads as it does not allow multiplexing of this scarce
// resource."
//
// Two allocators implement one interface:
//   * StaticPartitionBudget — every tenant owns max_active/T slots, idle slots cannot move;
//   * DemandBudget          — slots are granted from a shared pool first-come-first-served,
//                             with an optional per-tenant guaranteed minimum.
//
// RunMultiTenantSim drives bursty tenants over a real ZnsDevice through a budget manager and
// reports per-tenant throughput and acquisition stalls (bench_active_zones / E8).

#ifndef BLOCKHEAD_SRC_ALLOC_ZONE_BUDGET_H_
#define BLOCKHEAD_SRC_ALLOC_ZONE_BUDGET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/status.h"
#include "src/util/types.h"
#include "src/zns/zns_device.h"

namespace blockhead {

class ZoneBudgetManager {
 public:
  virtual ~ZoneBudgetManager() = default;

  // Attempts to grant `tenant` one active-zone slot. Returns kBusy when the tenant must wait.
  virtual Status Acquire(std::uint32_t tenant) = 0;
  // Returns a slot previously granted to `tenant`.
  virtual void Release(std::uint32_t tenant) = 0;
  // Slots currently held by `tenant`.
  virtual std::uint32_t Held(std::uint32_t tenant) const = 0;
  virtual const char* name() const = 0;
};

// Fixed per-tenant partition of the device's active-zone budget.
class StaticPartitionBudget final : public ZoneBudgetManager {
 public:
  StaticPartitionBudget(std::uint32_t total_slots, std::uint32_t tenants);

  Status Acquire(std::uint32_t tenant) override;
  void Release(std::uint32_t tenant) override;
  std::uint32_t Held(std::uint32_t tenant) const override { return held_[tenant]; }
  const char* name() const override { return "static-partition"; }

 private:
  std::uint32_t per_tenant_;
  std::vector<std::uint32_t> held_;
};

// Shared pool with an optional guaranteed minimum per tenant: a tenant can always reach its
// guarantee; beyond that it competes for the surplus.
class DemandBudget final : public ZoneBudgetManager {
 public:
  DemandBudget(std::uint32_t total_slots, std::uint32_t tenants,
               std::uint32_t guaranteed_min = 1);

  Status Acquire(std::uint32_t tenant) override;
  void Release(std::uint32_t tenant) override;
  std::uint32_t Held(std::uint32_t tenant) const override { return held_[tenant]; }
  const char* name() const override { return "demand-based"; }

 private:
  std::uint32_t total_;
  std::uint32_t guaranteed_;
  std::vector<std::uint32_t> held_;
  std::uint32_t granted_ = 0;
};

struct TenantConfig {
  // Bursty on/off demand: while ON the tenant writes as fast as its zones allow.
  SimTime on_duration = 2 * kMillisecond;
  SimTime off_duration = 14 * kMillisecond;
  // Concurrent zones the tenant wants while bursting.
  std::uint32_t desired_zones = 4;
  std::uint64_t seed = 1;
};

struct TenantResult {
  std::uint64_t pages_written = 0;
  std::uint64_t acquire_failures = 0;   // Budget said kBusy.
  SimTime stalled_time = 0;             // Time spent waiting for a slot while bursting.
};

struct MultiTenantResult {
  std::vector<TenantResult> tenants;
  SimTime duration = 0;
  std::uint64_t total_pages = 0;
  double SlotUtilization() const { return slot_utilization; }
  double slot_utilization = 0.0;  // Mean fraction of budget slots held during the run.
};

// Simulates `tenant_configs.size()` bursty tenants sharing `device` under `budget` for
// `duration` of model time. Each tenant writes 4-page chunks round-robin across the zones it
// holds; full zones are finished and their slots released.
MultiTenantResult RunMultiTenantSim(ZnsDevice& device, ZoneBudgetManager& budget,
                                    const std::vector<TenantConfig>& tenant_configs,
                                    SimTime duration);

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_ALLOC_ZONE_BUDGET_H_
