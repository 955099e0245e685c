#include "src/telemetry/provenance.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace blockhead {

namespace {

constexpr double kNsPerDay = 86400.0 * 1e9;

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<std::size_t>(n) < sizeof(buf) ? static_cast<std::size_t>(n)
                                                               : sizeof(buf) - 1);
  }
}

}  // namespace

const char* WriteCauseName(WriteCause cause) {
  switch (cause) {
    case WriteCause::kHostWrite:
      return "host_write";
    case WriteCause::kDeviceGC:
      return "device_gc";
    case WriteCause::kWearMigration:
      return "wear_migration";
    case WriteCause::kBlockEmulationReclaim:
      return "block_emulation_reclaim";
    case WriteCause::kZoneCompaction:
      return "zone_compaction";
    case WriteCause::kLsmFlush:
      return "lsm_flush";
    case WriteCause::kLsmCompaction:
      return "lsm_compaction";
    case WriteCause::kCacheEviction:
      return "cache_eviction";
    case WriteCause::kPadding:
      return "padding";
    case WriteCause::kFleetMigration:
      return "fleet_migration";
  }
  return "unknown";
}

const char* StackLayerName(StackLayer layer) {
  switch (layer) {
    case StackLayer::kHost:
      return "host";
    case StackLayer::kKv:
      return "kv";
    case StackLayer::kCache:
      return "cache";
    case StackLayer::kZoneFs:
      return "zonefs";
    case StackLayer::kHostFtl:
      return "hostftl";
    case StackLayer::kFtl:
      return "ftl";
    case StackLayer::kZns:
      return "zns";
    case StackLayer::kFlash:
      return "flash";
    case StackLayer::kFleet:
      return "fleet";
  }
  return "unknown";
}

WriteProvenance::DeviceLedger* WriteProvenance::RegisterDevice(std::string_view device,
                                                               std::uint64_t total_blocks,
                                                               std::uint64_t endurance_cycles,
                                                               Bytes page_size) {
  DeviceLedger& ledger = devices_[std::string(device)];
  ledger.total_blocks = total_blocks;
  ledger.endurance_cycles = endurance_cycles;
  ledger.page_size = page_size;
  return &ledger;
}

Bytes* WriteProvenance::RegisterDomain(std::string_view domain) {
  return &domains_[std::string(domain)];
}

const WriteProvenance::DeviceLedger* WriteProvenance::FindDevice(
    std::string_view device) const {
  const auto it = devices_.find(device);
  return it == devices_.end() ? nullptr : &it->second;
}

Bytes WriteProvenance::DomainBytes(std::string_view domain) const {
  const auto it = domains_.find(domain);
  return it == domains_.end() ? Bytes{0} : it->second;
}

std::uint64_t WriteProvenance::ProgramCount(const DeviceLedger& ledger, WriteCause cause) {
  std::uint64_t sum = 0;
  for (int l = 0; l < kStackLayerCount; ++l) {
    sum += ledger.programs[static_cast<int>(cause)][l];
  }
  return sum;
}

std::uint64_t WriteProvenance::EraseCount(const DeviceLedger& ledger, WriteCause cause) {
  std::uint64_t sum = 0;
  for (int l = 0; l < kStackLayerCount; ++l) {
    sum += ledger.erases[static_cast<int>(cause)][l];
  }
  return sum;
}

WriteProvenance::FactorizedWa WriteProvenance::Factorize(
    const std::vector<std::string>& domains, std::string_view device) const {
  FactorizedWa wa;
  // Node values along the chain: each domain's bytes_in, then the device's host-interface
  // bytes, then its physical (programmed) bytes.
  std::vector<std::string> labels;
  std::vector<double> bytes;
  for (const std::string& d : domains) {
    labels.push_back(d);
    bytes.push_back(static_cast<double>(DomainBytes(d).value()));
  }
  const DeviceLedger* ledger = FindDevice(device);
  const double page = ledger == nullptr ? 0.0 : static_cast<double>(ledger->page_size.value());
  labels.push_back(std::string(device) + ":host");
  bytes.push_back(ledger == nullptr ? 0.0 : static_cast<double>(ledger->host_pages) * page);
  labels.push_back(std::string(device) + ":phys");
  bytes.push_back(ledger == nullptr ? 0.0 : static_cast<double>(ledger->total_pages) * page);

  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    WaFactor f;
    f.from = labels[i];
    f.to = labels[i + 1];
    f.factor = bytes[i] > 0.0 ? bytes[i + 1] / bytes[i] : 1.0;
    wa.product *= f.factor;
    wa.factors.push_back(std::move(f));
  }
  wa.end_to_end = bytes.front() > 0.0 ? bytes.back() / bytes.front() : wa.product;
  return wa;
}

WriteProvenance::EnduranceProjection WriteProvenance::ProjectEndurance(
    std::string_view device) const {
  EnduranceProjection p;
  const DeviceLedger* ledger = FindDevice(device);
  if (ledger == nullptr || ledger->total_blocks == 0) {
    return p;
  }
  p.pe_budget = static_cast<double>(ledger->endurance_cycles);
  p.mean_erase_count =
      static_cast<double>(ledger->total_erases) / static_cast<double>(ledger->total_blocks);
  const double days = static_cast<double>(ledger->last_time) / kNsPerDay;
  if (days <= 0.0 || p.mean_erase_count <= 0.0) {
    return p;  // No observed churn: nothing to extrapolate.
  }
  p.erases_per_block_per_day = p.mean_erase_count / days;
  const double headroom = p.pe_budget - p.mean_erase_count;
  p.projected_days = headroom > 0.0 ? headroom / p.erases_per_block_per_day : 0.0;
  p.valid = true;
  return p;
}

void WriteProvenance::PublishTo(MetricRegistry* registry) const {
  for (const auto& [name, ledger] : devices_) {
    const std::string prefix = "provenance." + name;
    registry->GetCounter(prefix + ".programs.total")->Set(ledger.total_pages);
    registry->GetCounter(prefix + ".programs.host")->Set(ledger.host_pages);
    registry->GetCounter(prefix + ".erases.total")->Set(ledger.total_erases);
    for (int c = 0; c < kWriteCauseCount; ++c) {
      const WriteCause cause = static_cast<WriteCause>(c);
      const std::uint64_t programs = ProgramCount(ledger, cause);
      if (programs > 0) {
        registry->GetCounter(prefix + ".programs." + WriteCauseName(cause))->Set(programs);
      }
      const std::uint64_t erases = EraseCount(ledger, cause);
      if (erases > 0) {
        registry->GetCounter(prefix + ".erases." + WriteCauseName(cause))->Set(erases);
      }
    }
    const EnduranceProjection p = ProjectEndurance(name);
    registry->GetCounter(prefix + ".endurance.pe_budget")->Set(ledger.endurance_cycles);
    registry->GetGauge(prefix + ".endurance.mean_erase_count")->Set(p.mean_erase_count);
    registry->GetGauge(prefix + ".endurance.erases_per_block_per_day")
        ->Set(p.erases_per_block_per_day);
    registry->GetGauge(prefix + ".endurance.projected_days")->Set(p.projected_days);
  }
  for (const auto& [name, bytes] : domains_) {
    registry->GetCounter("provenance.domain." + name + ".bytes_in")->Set(bytes.value());
  }
}

std::string WriteProvenance::Dump() const {
  std::string out = "# blockhead write-provenance ledger v1\n";
  for (const auto& [name, ledger] : devices_) {
    AppendF(&out, "device %s\n", name.c_str());
    AppendF(&out,
            "  geometry blocks=%" PRIu64 " pe_budget=%" PRIu64 " page_size=%" PRIu64 "\n",
            ledger.total_blocks, ledger.endurance_cycles, ledger.page_size.value());
    AppendF(&out,
            "  programs total=%" PRIu64 " host=%" PRIu64 "\n", ledger.total_pages,
            ledger.host_pages);
    for (int c = 0; c < kWriteCauseCount; ++c) {
      for (int l = 0; l < kStackLayerCount; ++l) {
        if (ledger.programs[c][l] > 0) {
          AppendF(&out, "  program %s %s %" PRIu64 "\n",
                  WriteCauseName(static_cast<WriteCause>(c)),
                  StackLayerName(static_cast<StackLayer>(l)), ledger.programs[c][l]);
        }
      }
    }
    AppendF(&out, "  erases total=%" PRIu64 "\n", ledger.total_erases);
    for (int c = 0; c < kWriteCauseCount; ++c) {
      for (int l = 0; l < kStackLayerCount; ++l) {
        if (ledger.erases[c][l] > 0) {
          AppendF(&out, "  erase %s %s %" PRIu64 "\n",
                  WriteCauseName(static_cast<WriteCause>(c)),
                  StackLayerName(static_cast<StackLayer>(l)), ledger.erases[c][l]);
        }
      }
    }
    const EnduranceProjection p = ProjectEndurance(name);
    AppendF(&out,
            "  endurance mean_erase=%.6f erases_per_block_per_day=%.6f projected_days=%.6f\n",
            p.mean_erase_count, p.erases_per_block_per_day, p.projected_days);
  }
  for (const auto& [name, bytes] : domains_) {
    AppendF(&out, "domain %s bytes_in=%" PRIu64 "\n", name.c_str(), bytes.value());
  }
  return out;
}

void PublishFactorizedWa(MetricRegistry* registry, std::string_view prefix,
                         const WriteProvenance::FactorizedWa& wa) {
  const std::string p(prefix);
  for (std::size_t i = 0; i < wa.factors.size(); ++i) {
    registry->GetGauge(p + ".wa.factor" + std::to_string(i))->Set(wa.factors[i].factor);
  }
  registry->GetGauge(p + ".wa.product")->Set(wa.product);
  registry->GetGauge(p + ".wa.end_to_end")->Set(wa.end_to_end);
}

std::string FormatFactorizedWa(const WriteProvenance::FactorizedWa& wa) {
  std::string out;
  for (std::size_t i = 0; i < wa.factors.size(); ++i) {
    if (i > 0) {
      out += " x ";
    }
    AppendF(&out, "%s->%s %.4f", wa.factors[i].from.c_str(), wa.factors[i].to.c_str(),
            wa.factors[i].factor);
  }
  AppendF(&out, " = %.4f (end-to-end %.4f)", wa.product, wa.end_to_end);
  return out;
}

}  // namespace blockhead
