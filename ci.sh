#!/usr/bin/env bash
# CI entry point: tier-1 verify plus a sanitizer pass.
#
#   ./ci.sh            # tier-1 (default build + full test suite + perfbench tests +
#                      # trace/audit smokes,
#                      # including the golden-digest fast subset and a negative test that a
#                      # perturbed GC decision is caught and bisected), then ASan/UBSan tests
#                      # (timeline determinism included) and three benches whose ASan/UBSan
#                      # Debug stdout must match the Release build's
#   ./ci.sh --tier1    # tier-1 only
#   ./ci.sh --asan     # sanitizer pass only
#   ./ci.sh --tsan     # ThreadSanitizer pass only
#   ./ci.sh --lint     # static analysis only: tools/check.sh --strict (lint.py +
#                      # clang-format + clang-tidy, missing tools are an error) and a
#                      # -Werror strict build
#   ./ci.sh --suite    # tier-1 build, then the bench suite checked against BENCH_baseline.json
#   ./ci.sh --perf     # Release build, self-profiled bench subset (--perf --repeat 5) gated
#                      # against BENCH_perf_baseline.json, plus a deliberate-slowdown check
#                      # that proves the gate can fail (see bench/run_suite.sh for tolerance)
#
# The sanitizer passes build the whole tree (tests and benches) into build-asan/ or
# build-tsan/ with -fsanitize=address,undefined (resp. thread) and run the test suite under
# it; any leak, UB, out-of-bounds access, or data race fails the script.

set -euo pipefail
cd "$(dirname "$0")"

run_tier1=1
run_asan=1
run_tsan=0
run_lint=0
run_suite=0
run_perf=0
case "${1:-}" in
  --tier1)
    run_asan=0
    ;;
  --asan)
    run_tier1=0
    ;;
  --tsan)
    run_tier1=0
    run_asan=0
    run_tsan=1
    ;;
  --lint)
    run_tier1=0
    run_asan=0
    run_lint=1
    ;;
  --suite)
    run_asan=0
    run_suite=1
    ;;
  --perf)
    run_tier1=0
    run_asan=0
    run_perf=1
    ;;
  "") ;;
  *)
    echo "usage: $0 [--tier1|--asan|--tsan|--lint|--suite|--perf]" >&2
    exit 2
    ;;
esac

jobs=$(nproc 2>/dev/null || echo 4)

if [[ "$run_lint" == 1 ]]; then
  echo "=== lint: project rules + clang tooling (--strict: missing tools fail) ==="
  tools/check.sh --strict

  echo "=== lint: -Werror strict build ==="
  cmake -B build-werror -S . -DBLOCKHEAD_WERROR=ON
  cmake --build build-werror -j "$jobs"
fi

if [[ "$run_tier1" == 1 ]]; then
  echo "=== tier-1: configure + build + ctest ==="
  cmake -B build -S .
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")

  echo "=== perfbench: pinned seed-1 fingerprints, untraced = traced = detached ==="
  python3 perfbench/test_perfbench.py

  echo "=== smoke: timeline trace + time-series export ==="
  smoke_dir=$(mktemp -d)
  trap 'rm -rf "$smoke_dir"' EXIT
  build/bench/bench_read_latency --trace "$smoke_dir/trace.json" \
    --timeseries "$smoke_dir/timeseries.csv" > /dev/null
  python3 - "$smoke_dir/trace.json" "$smoke_dir/timeseries.csv" <<'PY'
import json, sys

# Chrome-trace schema: top-level object, traceEvents[], the three named processes, and at
# least three tracks with duration slices on them.
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert trace["displayTimeUnit"] == "ns", "unexpected displayTimeUnit"
procs = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
assert {"host ops", "device maintenance", "utilization"} <= procs, procs
tracks = {(e["pid"], e["tid"]) for e in events
          if e["ph"] == "M" and e["name"] == "thread_name"}
assert len(tracks) >= 3, f"expected >=3 tracks, got {len(tracks)}"
slices = [e for e in events if e["ph"] == "X"]
assert slices, "no duration slices in trace"
for s in slices[:100]:
    float(s["ts"]), float(s["dur"])  # Parseable microsecond stamps.
counters = [e for e in events if e["ph"] == "C"]
assert counters, "no counter samples in trace"

# Time-series CSV schema: header then series,t_ns,value rows with non-decreasing t_ns
# per series.
with open(sys.argv[2]) as f:
    header = f.readline().strip()
    assert header == "series,t_ns,value", header
    last = {}
    rows = 0
    for line in f:
        series, t_ns, value = line.rsplit(",", 2)
        t = int(t_ns)
        float(value)
        assert last.get(series, -1) <= t, f"time went backwards in {series}"
        last[series] = t
        rows += 1
    assert rows > 0, "empty time-series"
print(f"smoke: trace ok ({len(slices)} slices, {len(counters)} samples, "
      f"{len(tracks)} tracks); time-series ok ({rows} rows)")
PY

  echo "=== smoke: write-provenance JSON rows + ledger dump ==="
  build/bench/bench_lifetime_hints --json "$smoke_dir/prov.json" \
    --ledger "$smoke_dir/ledger.txt" > /dev/null
  python3 - "$smoke_dir/prov.json" "$smoke_dir/ledger.txt" <<'PY'
import json, sys
from collections import defaultdict

# --json schema: every provenance.<device>.programs.<cause> row must sum back to the
# device's programs.total row (same for erases), the endurance projection rows must be
# present, and each published factorized-WA chain must multiply to its end-to-end gauge.
values = {}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if "value" in rec:
            values[rec["metric"]] = rec["value"]

causes = ("host_write", "device_gc", "wear_migration", "block_emulation_reclaim",
          "zone_compaction", "lsm_flush", "lsm_compaction", "cache_eviction", "padding",
          "fleet_migration")
devices = {m[len("provenance."):-len(".programs.total")]
           for m in values if m.startswith("provenance.") and m.endswith(".programs.total")}
assert devices, "no provenance.<device>.programs.total rows in --json output"
for dev in devices:
    p = f"provenance.{dev}"
    for op in ("programs", "erases"):
        total = values[f"{p}.{op}.total"]
        by_cause = sum(values.get(f"{p}.{op}.{c}", 0) for c in causes)
        assert by_cause == total, f"{dev} {op}: per-cause sum {by_cause} != total {total}"
    for metric in ("endurance.pe_budget", "endurance.mean_erase_count",
                   "endurance.erases_per_block_per_day", "endurance.projected_days"):
        assert f"{p}.{metric}" in values, f"missing {p}.{metric}"

wa_prefixes = {m[:-len(".wa.end_to_end")] for m in values if m.endswith(".wa.end_to_end")}
assert wa_prefixes, "no factorized-WA rows in --json output"
for prefix in wa_prefixes:
    product = 1.0
    i = 0
    while f"{prefix}.wa.factor{i}" in values:
        product *= values[f"{prefix}.wa.factor{i}"]
        i += 1
    assert i > 0, f"{prefix}: no wa.factor<i> rows"
    end_to_end = values[f"{prefix}.wa.end_to_end"]
    # Gauges are rounded when serialized; the exact 1e-9 identity is asserted on the
    # unrounded doubles in tests/provenance_test.cc.
    assert abs(product - end_to_end) <= 1e-4 * max(1.0, end_to_end), \
        f"{prefix}: factor product {product} != end-to-end {end_to_end}"

# Ledger dump format: versioned header, per-device geometry/programs/erases sections whose
# per-cause cells sum to the section totals, and domain bytes_in lines.
with open(sys.argv[2]) as f:
    lines = f.read().splitlines()
assert lines[0] == "# blockhead write-provenance ledger v1", lines[0]
sums = defaultdict(lambda: defaultdict(int))
totals = {}
dev = None
saw_domain = False
for line in lines[1:]:
    parts = line.split()
    if parts[0] == "device":
        dev = parts[1]
    elif parts[0] in ("programs", "erases"):
        totals[(dev, parts[0])] = int(parts[1].split("=")[1])
    elif parts[0] in ("program", "erase"):
        assert parts[1] in causes, f"unknown cause {parts[1]!r}"
        sums[dev][parts[0] + "s"] += int(parts[3])
    elif parts[0] == "domain":
        saw_domain = True
        int(parts[2].split("=")[1])
for (d, op), total in totals.items():
    assert sums[d][op] == total, f"ledger {d} {op}: {sums[d][op]} != {total}"
assert totals, "no device sections in ledger dump"
assert saw_domain, "no domain lines in ledger dump"
print(f"smoke: provenance ok ({len(devices)} devices, {len(wa_prefixes)} WA chains, "
      f"ledger {len(lines)} lines)")
PY

  echo "=== smoke: fleet bench JSON schema + same-seed determinism ==="
  build/bench/bench_fleet --json "$smoke_dir/fleet.json" > /dev/null
  build/bench/bench_fleet --json "$smoke_dir/fleet_again.json" > /dev/null
  cmp "$smoke_dir/fleet.json" "$smoke_dir/fleet_again.json"
  python3 - "$smoke_dir/fleet.json" <<'PY'
import json, sys

# bench_fleet --json schema: per-configuration fleet rows (admission, migration, wear, the
# three WA gauges), merged cross-device latency histograms, and per-shard tail gauges. The
# factorization identity e2e = replication x device WA must hold on the serialized gauges.
values = {}
hists = {}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if "value" in rec:
            values[rec["metric"]] = rec["value"]
        else:
            hists[rec["metric"]] = rec

prefixes = {m[:-len(".end_to_end_wa")] for m in values if m.endswith(".end_to_end_wa")}
assert prefixes, "no fleet end_to_end_wa rows in --json output"
for p in sorted(prefixes):
    for metric in ("device_wa", "replication_factor", "wear.skew",
                   "admission.admitted", "migration.pages_copied"):
        assert f"{p}.{metric}" in values, f"missing {p}.{metric}"
    e2e = values[f"{p}.end_to_end_wa"]
    product = values[f"{p}.replication_factor"] * values[f"{p}.device_wa"]
    assert abs(product - e2e) <= 1e-3 * max(1.0, e2e), \
        f"{p}: replication x device WA = {product} != end-to-end {e2e}"
    assert f"{p}.read.latency_ns" in hists, f"missing merged {p}.read.latency_ns"
    assert f"{p}.shard00.p99_ns" in values, f"missing per-shard tails for {p}"

eight = [p for p in prefixes if p == "wa.n08"]
assert eight, "no 8-device fleet configuration in --json output"
rebalanced = [p for p in prefixes if p.endswith(".rb1")]
assert rebalanced, "no rebalancing-on ablation rows in --json output"
assert any(values[f"{p}.migration.completed"] > 0 for p in rebalanced), \
    "rebalancing-on ablations completed no migrations"
print(f"smoke: fleet ok ({len(prefixes)} configurations, byte-identical reruns)")
PY

  echo "=== smoke: request-path exemplars + SLO report schema + determinism ==="
  build/bench/bench_interference --exemplars "$smoke_dir/exemplars.json" \
    --slo "$smoke_dir/slo.json" > /dev/null
  build/bench/bench_interference --exemplars "$smoke_dir/exemplars_again.json" \
    --slo "$smoke_dir/slo_again.json" > /dev/null
  cmp "$smoke_dir/exemplars.json" "$smoke_dir/exemplars_again.json"
  cmp "$smoke_dir/slo.json" "$smoke_dir/slo_again.json"
  python3 - "$smoke_dir/exemplars.json" "$smoke_dir/slo.json" <<'PY'
import json, sys

# --exemplars schema: {"exemplars": [...]} worst-k per op class, each with the full
# exclusive segment breakdown summing exactly to the end-to-end latency (the attribution
# identity on serialized rows), ordered worst-first within an op class.
with open(sys.argv[1]) as f:
    dump = json.load(f)
exemplars = dump["exemplars"]
assert exemplars, "no exemplars captured"
SEGMENTS = ("admission_queue", "device_queue", "flash_busy", "gc_stall",
            "compaction_stall", "migration_stall", "replication", "host_other")
by_op = {}
for e in exemplars:
    assert e["op"] in ("read", "write", "trim"), e["op"]
    seg_sum = sum(e["segments"][s + "_ns"] for s in SEGMENTS)
    assert seg_sum == e["latency_ns"], \
        f"identity broken: segments {seg_sum} != latency {e['latency_ns']}"
    assert e["completion_ns"] - e["issue_ns"] == e["latency_ns"]
    by_op.setdefault(e["op"], []).append(e["latency_ns"])
    assert e["top_interference"]["cause"] and e["top_interference"]["layer"]
    if e["interferer"]["track"]:
        assert e["interferer"]["cause"] and e["interferer"]["layer"]
        assert e["interferer"]["end_ns"] >= e["interferer"]["begin_ns"]
for op, lats in by_op.items():
    assert lats == sorted(lats, reverse=True), f"{op} exemplars not worst-first"

# --slo schema: per objective the target, rolling quantile, violation tallies, and both
# burn rates; breached only when both windows burn above budget.
with open(sys.argv[2]) as f:
    report = json.load(f)
slos = report["slo"]
assert slos, "no SLO objectives in report"
for s in slos:
    assert s["quantile"] > 0 and s["target_ns"] > 0 and s["window_ns"] > 0
    assert s["window_violations"] <= s["window_total"]
    float(s["burn_short"]), float(s["burn_long"])
    if s["breached"]:
        assert s["burn_short"] > 1.0 and s["burn_long"] > 1.0
print(f"smoke: reqpath ok ({len(exemplars)} exemplars over {len(by_op)} op classes, "
      f"{len(slos)} SLOs, byte-identical reruns)")
PY

  echo "=== smoke: self-profiler --perf --repeat + dual-clock trace ==="
  # The binary itself asserts SimTime-domain byte-identity across the two repeats (exit 3 on
  # divergence — a wall-clock leak into simulation state); the python below checks the
  # published perf schema and the host-clock process track in the Chrome trace.
  build/bench/bench_read_latency --perf --repeat 2 --json "$smoke_dir/perf.json" \
    --trace "$smoke_dir/perf_trace.json" > /dev/null
  python3 - "$smoke_dir/perf.json" "$smoke_dir/perf_trace.json" <<'PY'
import json, sys

values = {}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if "value" in rec:
            values[rec["metric"]] = rec["value"]
for metric in ("wall_elapsed_ns", "total_events", "flash_events", "repeats"):
    assert values.get(f"selfprof.host.{metric}", 0) > 0, f"missing selfprof.host.{metric}"
assert values["selfprof.host.repeats"] == 2, values["selfprof.host.repeats"]
assert values["selfprof.host.ns_per_simulated_op"] > 0, "ns_per_simulated_op not derived"
assert values["selfprof.host.sim_speedup"] > 0, "sim_speedup not derived"
breakdown = [m for m in values if m.startswith("selfprof.host.") and m.endswith(".self_ns")]
assert any(".flash." in m or m.endswith("flash.self_ns") for m in breakdown), breakdown
# Exclusive attribution: per-cell self_ns must sum to no more than the wall total.
self_sum = sum(v for m, v in values.items()
               if m.startswith("selfprof.host.") and m.endswith(".self_ns")
               and m.count(".") == 3)  # per-(subsystem, op) cells only
assert self_sum <= values["selfprof.host.wall_elapsed_ns"], \
    f"self_ns sum {self_sum} exceeds wall {values['selfprof.host.wall_elapsed_ns']}"

with open(sys.argv[2]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
procs = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
assert "self-profile (host clock)" in procs, procs
host_slices = [e for e in events if e.get("cat") == "selfprof"]
assert host_slices, "no host-clock slices in dual-clock trace"
for s in host_slices[:50]:
    assert s["pid"] == 3 and s["ph"] == "X"
    float(s["ts"]), float(s["dur"])
sim_slices = [e for e in events if e.get("cat") in ("span", "maintenance")]
assert sim_slices, "SimTime-domain slices missing from dual-clock trace"
print(f"smoke: self-profile ok (ns/op {values['selfprof.host.ns_per_simulated_op']:.0f}, "
      f"speedup {values['selfprof.host.sim_speedup']:.1f}x, "
      f"{len(host_slices)} host slices alongside {len(sim_slices)} sim slices)")
PY

  echo "=== smoke: state-digest audit — schema, determinism, zero perturbation ==="
  # Two same-seed --audit runs must produce byte-identical digest timelines, and enabling
  # the audit must not change simulation results (the --json dump with auditing on must
  # equal the dump with auditing off) or add registry rows.
  build/bench/bench_read_latency --audit "$smoke_dir/audit_a.jsonl" \
    --events "$smoke_dir/events_a.jsonl" --json "$smoke_dir/audit_on.json" > /dev/null
  build/bench/bench_read_latency --audit "$smoke_dir/audit_b.jsonl" > /dev/null
  build/bench/bench_read_latency --json "$smoke_dir/audit_off.json" > /dev/null
  cmp "$smoke_dir/audit_a.jsonl" "$smoke_dir/audit_b.jsonl"
  cmp "$smoke_dir/audit_on.json" "$smoke_dir/audit_off.json"
  build/tools/digest_bisect "$smoke_dir/audit_a.jsonl" "$smoke_dir/audit_b.jsonl" > /dev/null
  python3 - "$smoke_dir/audit_a.jsonl" <<'PY'
import json, re, sys

# blockhead-audit-v1 schema: header first, checkpoint rows sorted by (epoch, subsystem)
# with 16+16 hex-digit digests and monotone t_ns = (epoch+1)*epoch_ns, then per-subsystem
# finals closed by the __run__ composite on the last line.
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f]
assert lines[0]["schema"] == "blockhead-audit-v1", lines[0]
epoch_ns = lines[0]["epoch_ns"]
assert epoch_ns > 0
rows = [l for l in lines[1:] if "epoch" in l]
finals = [l for l in lines[1:] if l.get("final")]
assert rows and finals, "audit dump has no checkpoint rows or no finals"
assert len(lines) == 1 + len(rows) + len(finals), "unexpected line kinds in audit dump"
digest_re = re.compile(r"^[0-9a-f]{16}\.[0-9a-f]{16}$")
last_key = (-1, "")
for r in rows:
    assert digest_re.match(r["digest"]), r["digest"]
    assert r["t_ns"] == (r["epoch"] + 1) * epoch_ns, r
    assert r["mutations"] >= 1, f"checkpoint without mutations: {r}"
    key = (r["epoch"], r["subsystem"])
    assert last_key <= key, f"rows not sorted: {last_key} then {key}"
    last_key = key
assert finals[-1]["subsystem"] == "__run__", "missing __run__ composite"
subsystems = {f["subsystem"] for f in finals}
for expected in ("conv.flash.blocks", "conv.ftl.l2p", "zns.zones", "zns.flash.blocks"):
    assert expected in subsystems, f"missing audited subsystem {expected}"
print(f"smoke: audit ok ({len(rows)} checkpoint cells, {len(finals) - 1} subsystems, "
      f"epoch {epoch_ns} ns)")
PY

  echo "=== smoke: golden final digests on the fast bench subset ==="
  build/bench/bench_wear_leveling --audit "$smoke_dir/wear.audit.jsonl" > /dev/null
  build/bench/bench_fleet --audit "$smoke_dir/fleet.audit.jsonl" > /dev/null
  build/bench/bench_zone_append --audit "$smoke_dir/zone.audit.jsonl" > /dev/null
  python3 - BENCH_digest_baseline.json "$smoke_dir" <<'PY'
import json, sys

# Every committed golden digest of the fast subset must reproduce. This is the cheap CI
# proxy for `bench/run_suite.sh --check`, which enforces the full suite.
SUBSET = {"bench_read_latency": "audit_a.jsonl", "bench_wear_leveling": "wear.audit.jsonl",
          "bench_fleet": "fleet.audit.jsonl", "bench_zone_append": "zone.audit.jsonl"}
golden = {}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if rec["name"] in SUBSET:
            golden[(rec["name"], rec["subsystem"])] = rec["digest"]
assert golden, "BENCH_digest_baseline.json has no rows for the fast subset"
mismatches = []
for bench, dump in SUBSET.items():
    got = {}
    with open(f"{sys.argv[2]}/{dump}") as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("final"):
                got[rec["subsystem"]] = rec["digest"]
    for (b, sub), want in golden.items():
        if b == bench and got.get(sub) != want:
            mismatches.append((bench, sub, want, got.get(sub)))
for bench, sub, want, have in mismatches:
    print(f"golden digest mismatch: {bench} {sub}: committed {want} != {have}",
          file=sys.stderr)
assert not mismatches, f"{len(mismatches)} golden digests drifted"
print(f"smoke: golden digests ok ({len(golden)} committed finals reproduced)")
PY

  echo "=== smoke: perturbed GC decision must be caught and bisected ==="
  # Flip one GC victim selection at SimTime 50ms (second-best instead of best). The digest
  # timeline must diverge from the clean run, and digest_bisect must localize the first
  # divergent cell to the conventional-SSD stack and exit 1.
  BLOCKHEAD_AUDIT_PERTURB_GC_AT=50000000 build/bench/bench_read_latency \
    --audit "$smoke_dir/audit_p.jsonl" --events "$smoke_dir/events_p.jsonl" > /dev/null
  if cmp -s "$smoke_dir/audit_a.jsonl" "$smoke_dir/audit_p.jsonl"; then
    echo "ci.sh: FAIL — perturbed GC decision left the digest timeline unchanged" >&2
    exit 1
  fi
  bisect_rc=0
  build/tools/digest_bisect "$smoke_dir/audit_a.jsonl" "$smoke_dir/audit_p.jsonl" \
    --events "$smoke_dir/events_p.jsonl" > "$smoke_dir/bisect.txt" || bisect_rc=$?
  if [[ "$bisect_rc" != 1 ]]; then
    echo "ci.sh: FAIL — digest_bisect exited $bisect_rc on divergent timelines (want 1)" >&2
    exit 1
  fi
  grep -q "FIRST DIVERGENT CELL" "$smoke_dir/bisect.txt"
  grep -q "subsystem: conv\." "$smoke_dir/bisect.txt"
  echo "smoke: bisect ok — $(grep 'subsystem:' "$smoke_dir/bisect.txt" | head -1 | xargs)"
fi

if [[ "$run_suite" == 1 ]]; then
  echo "=== bench suite vs committed baseline ==="
  bench/run_suite.sh --check
fi

if [[ "$run_perf" == 1 ]]; then
  echo "=== perf: Release build ==="
  # Wall-clock baselines are only comparable at a fixed optimization level, so the perf
  # stage always measures a Release tree (the default build's numbers are ~4x slower and
  # would either trip the gate or need their own baseline).
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf -j "$jobs"

  echo "=== perf: self-profiled suite vs BENCH_perf_baseline.json ==="
  BENCH_BUILD_DIR=build-perf bench/run_suite.sh --check-perf

  echo "=== perf: deliberate flash-layer slowdown must trip the gate ==="
  # Busy-wait 2000ns per flash scope — wall time only, SimTime untouched — which more than
  # doubles ns_per_simulated_op. If the gate still passes, it isn't gating anything.
  if BENCH_BUILD_DIR=build-perf PERF_BENCHES=bench_read_latency PERF_REPEATS=2 \
     BLOCKHEAD_SELFPROF_SPIN_FLASH_NS=2000 bench/run_suite.sh --check-perf; then
    echo "ci.sh: FAIL — perf gate did not catch the injected flash-layer slowdown" >&2
    exit 1
  fi
  echo "ci.sh: OK — injected slowdown correctly failed the perf gate"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "=== sanitizers: ASan + UBSan build + ctest ==="
  san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$san_flags" \
    -DCMAKE_EXE_LINKER_FLAGS="$san_flags"
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --output-on-failure -j "$jobs")

  echo "=== sanitizers: assert-enabled benches print what the Release build prints ==="
  # The Release tree compiles asserts out, so a contract only an assert checks would go
  # unexercised by every bench run; three benches run here with asserts, ASan and UBSan on
  # (bench_tail_latency runs the LSM on both KV file backends).
  cmake -B build -S .
  cmake --build build -j "$jobs" --target bench_fleet bench_read_latency bench_tail_latency
  san_out=$(mktemp -d)
  trap 'rm -rf "${smoke_dir:-}" "$san_out"' EXIT
  for bench in bench_fleet bench_read_latency bench_tail_latency; do
    build/bench/$bench > "$san_out/$bench.release"
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
      build-asan/bench/$bench > "$san_out/$bench.asan"
    cmp "$san_out/$bench.release" "$san_out/$bench.asan"
  done
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== sanitizers: TSan build + ctest ==="
  tsan_flags="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$tsan_flags" \
    -DCMAKE_EXE_LINKER_FLAGS="$tsan_flags"
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j "$jobs")
fi

echo "ci.sh: all requested checks passed"
