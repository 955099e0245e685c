// E3 — §2.2: on-board DRAM for address translation. Paper: a page-mapped conventional SSD
// needs ~4 B per 4 KiB page (~1 GB per TB); a ZNS SSD maps zones to erasure blocks at ~4 B per
// 16 MiB block (~256 KB per TB).
//
// Reports both the analytic model at datacenter capacities and the *actual* mapping-table
// accounting of instantiated devices at simulator scale, so model and implementation can be
// cross-checked.
//
// Every table cell is also published as a registry row: the model under
// "dram.model.<n>tib.{conventional_bytes,zns_bytes,ratio}" and the instantiated devices under
// "<device>.dram.{capacity,mapping,gc_metadata,write_buffer,total}_bytes".

#include <cstdio>
#include <string>

#include "bench/bench_main.h"
#include "src/core/matched_pair.h"
#include "src/cost/cost_model.h"
#include "src/telemetry/telemetry.h"

using namespace blockhead;

int RunBench(const BenchOptions& opts, Telemetry& tel) {
  MetricRegistry& reg = tel.registry;
  std::printf("=== E3: On-board DRAM for address translation, conventional vs ZNS ===\n");
  std::printf(
      "Paper claim: ~1 GB/TB (4 B per 4 KiB page) vs ~256 KB/TB (4 B per 16 MiB block).\n\n");

  const CostModelConfig cfg;
  TablePrinter model({"capacity", "conventional DRAM", "ZNS DRAM", "ratio"});
  for (const std::uint64_t tib : {1ull, 2ull, 4ull, 8ull, 16ull}) {
    const DramEstimate conv = ConventionalMappingDram(tib * kTiB, cfg);
    const DramEstimate zns = ZnsMappingDram(tib * kTiB, cfg);
    const double ratio = static_cast<double>(conv.bytes) / static_cast<double>(zns.bytes);
    model.AddRow({std::to_string(tib) + " TiB", TablePrinter::FmtBytes(conv.bytes),
                  TablePrinter::FmtBytes(zns.bytes), TablePrinter::Fmt(ratio, 0) + "x"});
    const std::string p = "dram.model." + std::to_string(tib) + "tib";
    reg.GetCounter(p + ".conventional_bytes")->Set(conv.bytes);
    reg.GetCounter(p + ".zns_bytes")->Set(zns.bytes);
    reg.GetGauge(p + ".ratio")->Set(ratio);
  }
  std::printf("Analytic model (paper's constants):\n%s\n", model.Render().c_str());

  // Cross-check against the devices' own accounting at simulator scale. The simulated
  // geometry uses smaller erasure blocks than the paper's 16 MiB example, so the ratio is
  // block_bytes/page_size for that geometry.
  TablePrinter devices(
      {"simulated device", "capacity", "mapping", "GC metadata", "write buffer", "total"});
  for (const char* which : {"conventional", "zns"}) {
    MatchedConfig mcfg = MatchedConfig::Bench();
    MatchedPair pair = MakeMatchedPair(mcfg);
    const bool conv = std::string(which) == "conventional";
    const DramUsage usage =
        conv ? pair.conventional->ComputeDramUsage() : pair.zns->ComputeDramUsage();
    const std::uint64_t capacity = mcfg.flash.geometry.capacity_bytes();
    devices.AddRow({which, TablePrinter::FmtBytes(capacity),
                    TablePrinter::FmtBytes(usage.mapping_bytes),
                    TablePrinter::FmtBytes(usage.gc_metadata_bytes),
                    TablePrinter::FmtBytes(usage.write_buffer_bytes),
                    TablePrinter::FmtBytes(usage.total())});
    const std::string p = std::string(which) + ".dram";
    reg.GetCounter(p + ".capacity_bytes")->Set(capacity);
    reg.GetCounter(p + ".mapping_bytes")->Set(usage.mapping_bytes);
    reg.GetCounter(p + ".gc_metadata_bytes")->Set(usage.gc_metadata_bytes);
    reg.GetCounter(p + ".write_buffer_bytes")->Set(usage.write_buffer_bytes);
    reg.GetCounter(p + ".total_bytes")->Set(usage.total());
  }
  std::printf("Instantiated devices (2 GiB simulated flash, %u KiB pages, %u-page blocks):\n%s\n",
              4, FlashGeometry::Bench().pages_per_block, devices.Render().c_str());

  std::printf("Shape check: conventional mapping DRAM scales with pages (~1 GiB/TiB);\n"
              "ZNS mapping DRAM scales with erasure blocks (~4096x less at 16 MiB blocks).\n");
  return FinishBench(opts, "bench_dram_overhead", tel);
}

int main(int argc, char** argv) {
  return RunBenchMain(argc, argv, "bench_dram_overhead", RunBench);
}
