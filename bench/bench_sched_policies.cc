// E11 — §4.1: "the host is in full control and can precisely schedule zone erasures and
// maintenance operations. This flexibility enables new policies to prioritize one goal over
// the other, e.g., read latency over write latency and write amplification."
//
// Setup: the block-on-ZNS host FTL under a mixed read/write workload, sweeping the GC
// scheduling policy (inline / background / read-priority / rate-limited). On a conventional
// SSD this knob does not exist — the device decides. Reported: read tail latencies, write
// latency, throughput, and forced-GC stalls per policy.
//
// Each policy's host FTL is attached under "hostftl.<policy>", and the table's latency and
// throughput cells are published next to its rows as "hostftl.<policy>.run.*".

#include <cstdio>
#include <string>

#include "bench/bench_main.h"
#include "src/core/matched_pair.h"
#include "src/hostftl/host_ftl.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/workload.h"

using namespace blockhead;

namespace {

struct PolicyResult {
  RunResult run;
  std::uint64_t forced_stalls = 0;
  std::uint64_t gc_cycles = 0;
  std::uint64_t gc_pages = 0;
};

// Metric-prefix-safe policy key ("read-priority" -> "read_priority").
std::string PolicyKey(GcSchedPolicy policy) {
  std::string key = GcSchedPolicyName(policy);
  for (char& c : key) {
    if (c == '-') {
      c = '_';
    }
  }
  return key;
}

PolicyResult Run(GcSchedPolicy policy, Telemetry* tel) {
  const std::string prefix = "hostftl." + PolicyKey(policy);
  MatchedConfig cfg = MatchedConfig::Bench();
  ZnsDevice dev(cfg.flash, cfg.zns);
  HostFtlConfig hcfg;
  hcfg.sched.policy = policy;
  hcfg.sched.low_free_fraction = 0.12;  // Below the steady-state free fraction for 20% host OP.
  HostFtlBlockDevice ftl(&dev, hcfg);
  ftl.AttachTelemetry(tel, prefix);

  auto fill = SequentialFill(ftl, 1.0, 0);
  RandomWorkloadConfig wl;
  wl.lba_space = ftl.num_blocks();
  wl.read_fraction = 0.6;
  wl.seed = 17;
  RandomWorkload gen(wl);
  DriverOptions opts;
  opts.ops = 2 * ftl.num_blocks();
  opts.queue_depth = 2;
  opts.start_time = fill.value_or(0) + 10 * kMillisecond;
  opts.maintenance_interval = 8;
  opts.maintenance_hook = [&ftl](SimTime now, bool reads) { ftl.Pump(now, reads, 1); };

  PolicyResult result;
  result.run = RunClosedLoop(ftl, gen, opts);
  result.forced_stalls = ftl.stats().forced_gc_stalls;
  result.gc_cycles = ftl.stats().gc_cycles;
  result.gc_pages = ftl.stats().gc_pages_copied;

  MetricRegistry& reg = tel->registry;
  reg.GetCounter(prefix + ".run.read_p99_ns")->Set(result.run.read_latency.Percentile(0.99));
  reg.GetCounter(prefix + ".run.read_p999_ns")->Set(result.run.read_latency.Percentile(0.999));
  reg.GetCounter(prefix + ".run.write_p99_ns")->Set(result.run.write_latency.Percentile(0.99));
  reg.GetCounter(prefix + ".run.write_max_ns")->Set(result.run.write_latency.max());
  reg.GetGauge(prefix + ".run.total_mibps")->Set(result.run.TotalMiBps());
  return result;
}

}  // namespace

int RunBench(const BenchOptions& opts, Telemetry& tel) {
  MaybeEnableTimeline(opts, tel);

  std::printf("=== E11: Host GC scheduling policies (block-on-ZNS, 60/40 R/W mix) ===\n");
  std::printf("Paper claim (§4.1): host-scheduled reclamation lets policy trade read tails\n"
              "against write headroom — a choice conventional SSDs make opaquely in firmware.\n\n");

  TablePrinter table({"policy", "read p99 (us)", "read p99.9 (us)", "write p99 (us)",
                      "write max (ms)", "MiB/s", "forced stalls", "GC pages copied"});
  for (const GcSchedPolicy policy :
       {GcSchedPolicy::kInline, GcSchedPolicy::kBackground, GcSchedPolicy::kReadPriority,
        GcSchedPolicy::kRateLimited}) {
    const PolicyResult r = Run(policy, &tel);
    table.AddRow(
        {GcSchedPolicyName(policy),
         TablePrinter::Fmt(static_cast<double>(r.run.read_latency.Percentile(0.99)) /
                           kMicrosecond),
         TablePrinter::Fmt(static_cast<double>(r.run.read_latency.Percentile(0.999)) /
                           kMicrosecond),
         TablePrinter::Fmt(static_cast<double>(r.run.write_latency.Percentile(0.99)) /
                           kMicrosecond),
         TablePrinter::Fmt(static_cast<double>(r.run.write_latency.max()) / kMillisecond),
         TablePrinter::Fmt(r.run.TotalMiBps()), std::to_string(r.forced_stalls),
         std::to_string(r.gc_pages)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Shape check: every policy trades differently. Inline (lazy) reclamation copies\n"
              "the least (deadest victims) and keeps steady-state tails low, but its emergency\n"
              "reclamation shows up as rare, enormous write stalls (write max). The\n"
              "opportunistic policies bound worst-case stalls at the price of more relocation\n"
              "and a steady mid-tail tax. On a conventional SSD this dial does not exist --\n"
              "the device picks one policy for everyone (\u00a74.1).\n");
  return FinishBench(opts, "bench_sched_policies", tel);
}

int main(int argc, char** argv) {
  return RunBenchMain(argc, argv, "bench_sched_policies", RunBench);
}
