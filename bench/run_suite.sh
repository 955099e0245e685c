#!/usr/bin/env bash
# Runs every --json-wired bench and aggregates the registry dumps into one regression
# baseline, BENCH_baseline.json (repo root): one JSON object per line with the schema
#
#   {"name": "<bench>", "metric": "<metric name>", "value": <number>, "seed": <workload seed>}
#
# Every bench is seed-pinned, so the suite output is byte-stable: a value that differs from
# the committed baseline is a real behaviour change (perf regression, WA shift, accounting
# bug), never noise. The check is add-tolerant: NEW metrics may appear without failing (a PR
# that adds instrumentation doesn't have to regenerate the baseline in the same commit), but
# any committed row that drifts or disappears fails.
#
#   bench/run_suite.sh                        # run suite, write BENCH_baseline.json.new, diff
#   bench/run_suite.sh --update               # run suite and overwrite BENCH_baseline.json
#   bench/run_suite.sh --check                # run suite, fail on drift/removal vs baseline
#
# The suite also runs every bench with --audit and maintains BENCH_digest_baseline.json
# (repo root): the golden per-subsystem FINAL state digests, one row per line with schema
# {"name", "subsystem", "digest", "seed"}. --update rewrites it, --check enforces it with
# the same add-tolerant contract as the metric baseline. On a digest mismatch, rerun the
# named bench with --audit under both builds and feed the two timelines to
# build/tools/digest_bisect to find the first divergent (epoch, subsystem) cell.
#
# Perf modes drive the self-profiler (--perf --repeat N) over the PERF SUBSET below and
# gate the wall-clock cost of simulation against BENCH_perf_baseline.json (repo root, same
# row schema, no seed field):
#
#   bench/run_suite.sh --check-perf           # gate ns_per_simulated_op vs perf baseline
#   bench/run_suite.sh --update-perf-baseline # lower BENCH_perf_baseline.json rows, never raise
#
# The perf gate compares ONLY ns_per_simulated_op (median across repeats), and only against
# regression: new <= baseline * tolerance. Tolerance must absorb both run-to-run noise the
# median doesn't kill and machine-to-machine variation; the default 1.5x is documented in
# DESIGN.md §11. Other perf rows (events_per_sec, sim_speedup, memory) are recorded for
# trend-reading, never gated.
#
# Environment:
#   BENCH_BUILD_DIR            build tree to run from (default: build; ci.sh --perf passes
#                              its Release tree here — wall-clock baselines are meaningless
#                              across optimization levels)
#   PERF_REPEATS               --repeat count for perf modes (default 5)
#   PERF_BENCHES               whitespace-separated bench subset override for perf modes
#   BLOCKHEAD_PERF_TOLERANCE   relative gate tolerance (default 1.5)
#
# Assumes an existing build tree (ci.sh tier-1 provides one).

set -euo pipefail
cd "$(dirname "$0")/.."

mode="diff"
case "${1:-}" in
  --update) mode="update" ;;
  --check) mode="check" ;;
  --check-perf) mode="check-perf" ;;
  --update-perf-baseline) mode="update-perf" ;;
  "") ;;
  *)
    echo "usage: $0 [--update|--check|--check-perf|--update-perf-baseline]" >&2
    exit 2
    ;;
esac

build_dir="${BENCH_BUILD_DIR:-build}"
if [[ ! -d "$build_dir/bench" ]]; then
  echo "run_suite.sh: no $build_dir/bench directory; build first (cmake --build $build_dir)" >&2
  exit 1
fi

# bench -> primary workload seed (matches the constant hard-coded in each bench source;
# 0 = the bench is deterministic with no top-level RNG).
benches=(
  "bench_tail_latency 11"
  "bench_gc_policy 21"
  "bench_read_latency 7"
  "bench_cache_buffers 37"
  "bench_simple_copy 13"
  "bench_wa_overprovisioning 42"
  "bench_ycsb 0"
  "bench_zone_append 0"
  "bench_wear_leveling 11"
  "bench_lifetime_hints 3"
  "bench_multistream 3"
  "bench_block_emulation 23"
  "bench_fleet 42"
  "bench_interference 7"
  "bench_sched_policies 17"
  "bench_dram_overhead 0"
)

# Perf subset: the gate reruns each bench PERF_REPEATS times, so only the fast benches
# qualify (the heavyweight ones — bench_gc_policy, bench_ycsb, bench_wa_overprovisioning —
# run 10+ seconds each and would make the stage minutes-long for no extra signal; the subset
# covers the conventional-FTL, ZNS-fleet, and wear-leveling hot paths, and bench_multistream
# is dominated by conventional-FTL GC victim picks).
perf_benches=(
  "bench_read_latency 7"
  "bench_wear_leveling 11"
  "bench_fleet 42"
  "bench_zone_append 0"
  "bench_multistream 3"
)
if [[ -n "${PERF_BENCHES:-}" ]]; then
  read -r -a perf_benches <<< "$PERF_BENCHES"
  mapfile -t perf_benches < <(
    for b in "${perf_benches[@]}"; do
      for entry in "${benches[@]}"; do
        read -r name _ <<< "$entry"
        [[ "$name" == "$b" ]] && echo "$entry"
      done
    done)
fi
perf_repeats="${PERF_REPEATS:-5}"

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

run_set=("${benches[@]}")
if [[ "$mode" == "check-perf" || "$mode" == "update-perf" ]]; then
  run_set=("${perf_benches[@]}")
fi

# Fail fast with a clear message when a bench binary is missing (a stale build tree would
# otherwise die mid-suite on a confusing exec error, or silently drop metrics from the
# baseline if the loop were ever made lenient).
for entry in "${run_set[@]}"; do
  read -r bench _ <<< "$entry"
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "run_suite.sh: FAIL — missing bench binary $build_dir/bench/$bench;" \
         "rebuild first (cmake --build $build_dir)" >&2
    exit 1
  fi
done

if [[ "$mode" == "check-perf" || "$mode" == "update-perf" ]]; then
  for entry in "${run_set[@]}"; do
    read -r bench seed <<< "$entry"
    echo "run_suite.sh: $bench --perf --repeat $perf_repeats (seed $seed)"
    "$build_dir/bench/$bench" --perf --repeat "$perf_repeats" \
      --json "$tmp_dir/$bench.json" > /dev/null
  done

  out="$tmp_dir/BENCH_perf_baseline.json"
  python3 - "$tmp_dir" "$out" "${run_set[@]}" <<'PY'
import json, sys
tmp_dir, out_path = sys.argv[1], sys.argv[2]
KEEP = ("ns_per_simulated_op", "events_per_sec", "sim_speedup", "wall_elapsed_ns",
        "flash_events", "total_events", "peak_rss_bytes", "repeats")
rows = []
for entry in sys.argv[3:]:
    bench, _ = entry.rsplit(" ", 1)
    values = {}
    with open(f"{tmp_dir}/{bench}.json") as f:
        for line in f:
            rec = json.loads(line)
            if "value" in rec:
                values[rec["metric"]] = rec["value"]
    for metric in KEEP:
        name = f"selfprof.host.{metric}"
        assert name in values, f"{bench}: missing {name} in --perf output"
        rows.append({"name": bench, "metric": metric, "value": values[name]})
with open(out_path, "w") as f:
    for row in rows:
        f.write(json.dumps(row, separators=(",", ":")) + "\n")

# Perf columns: the human-readable view of what was just measured.
print(f"{'bench':<24} {'ns/op':>10} {'Mevents/s':>10} {'sim_speedup':>12} {'wall_ms':>9}")
by_bench = {}
for row in rows:
    by_bench.setdefault(row["name"], {})[row["metric"]] = row["value"]
for bench, v in by_bench.items():
    print(f"{bench:<24} {v['ns_per_simulated_op']:>10.1f} "
          f"{v['events_per_sec'] / 1e6:>10.3f} {v['sim_speedup']:>12.2f} "
          f"{v['wall_elapsed_ns'] / 1e6:>9.1f}")
PY

  if [[ "$mode" == "update-perf" ]]; then
    # Ratchet only: a bench's rows are replaced when its measured ns_per_simulated_op is
    # below the committed one, and kept otherwise (so a slow host cannot loosen the gate).
    # Raising a row is a hand edit, recorded in CHANGES.md.
    python3 - BENCH_perf_baseline.json "$out" <<'PY'
import json, os, sys
baseline_path, new_path = sys.argv[1], sys.argv[2]

def load(path):
    rows = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                rows.setdefault(rec["name"], []).append(rec)
    return rows

committed, measured = load(baseline_path), load(new_path)

def ns_per_op(rows):
    return next(r["value"] for r in rows if r["metric"] == "ns_per_simulated_op")

merged = dict(committed)
for bench, rows in measured.items():
    if bench not in committed:
        merged[bench] = rows
        continue
    old, new = ns_per_op(committed[bench]), ns_per_op(rows)
    if new < old:
        merged[bench] = rows
        print(f"run_suite.sh: lowered {bench} ns_per_simulated_op {old:.1f} -> {new:.1f}")
    else:
        print(f"run_suite.sh: declined to raise {bench} ns_per_simulated_op "
              f"{old:.1f} -> {new:.1f}; kept the committed rows")
with open(baseline_path, "w") as f:
    for rows in merged.values():
        for row in rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")
PY
    echo "run_suite.sh: wrote BENCH_perf_baseline.json" \
         "($(wc -l < BENCH_perf_baseline.json) rows, repeat=$perf_repeats)"
    exit 0
  fi

  python3 - BENCH_perf_baseline.json "$out" "${BLOCKHEAD_PERF_TOLERANCE:-1.5}" <<'PY'
import json, sys
baseline_path, new_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            rows[(rec["name"], rec["metric"])] = rec["value"]
    return rows

try:
    baseline = load(baseline_path)
except FileNotFoundError:
    print(f"run_suite.sh: FAIL — no {baseline_path}; create it with "
          "bench/run_suite.sh --update-perf-baseline", file=sys.stderr)
    sys.exit(1)
new = load(new_path)

# Gate: ns_per_simulated_op only, regression only. A faster run passes (and prints a hint
# to refresh the baseline); anything slower than tolerance fails.
failures = []
for (bench, metric), base in sorted(baseline.items()):
    if metric != "ns_per_simulated_op":
        continue
    if (bench, metric) not in new:
        continue  # Perf subset shrank for this invocation (PERF_BENCHES override).
    got = new[(bench, metric)]
    limit = base * tol
    verdict = "OK" if got <= limit else "FAIL"
    print(f"perf-gate: {bench}: ns_per_simulated_op {got:.1f} vs baseline {base:.1f} "
          f"(limit {limit:.1f}, tolerance {tol}x) {verdict}")
    if got > limit:
        failures.append(bench)
    elif got < base / tol:
        print(f"perf-gate: note — {bench} is now >{tol}x faster than baseline; consider "
              "bench/run_suite.sh --update-perf-baseline")
if failures:
    print(f"run_suite.sh: FAIL — perf regression gate tripped for: {', '.join(failures)}",
          file=sys.stderr)
    sys.exit(1)
print("run_suite.sh: OK — perf within tolerance of BENCH_perf_baseline.json")
PY
  exit 0
fi

for entry in "${run_set[@]}"; do
  read -r bench seed <<< "$entry"
  echo "run_suite.sh: $bench (seed $seed)"
  "$build_dir/bench/$bench" --json "$tmp_dir/$bench.json" \
    --audit "$tmp_dir/$bench.audit.jsonl" > /dev/null
done

# Golden state digests: the per-subsystem FINAL digests of every bench, one row per line.
# Unlike the metric baseline (aggregates), these commit to the exact final content of every
# audited state table — any behaviour change that moves even one page mapping flips a digest.
# tools/digest_bisect localizes a mismatch to its first divergent epoch.
digests_out="$tmp_dir/BENCH_digest_baseline.json"
python3 - "$tmp_dir" "$digests_out" "${run_set[@]}" <<'PY'
import json, sys
tmp_dir, out_path = sys.argv[1], sys.argv[2]
rows = []
for entry in sys.argv[3:]:
    bench, seed = entry.rsplit(" ", 1)
    with open(f"{tmp_dir}/{bench}.audit.jsonl") as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("final"):
                rows.append({"name": bench, "subsystem": rec["subsystem"],
                             "digest": rec["digest"], "seed": int(seed)})
with open(out_path, "w") as f:
    for row in rows:
        f.write(json.dumps(row, separators=(",", ":")) + "\n")
PY

out="$tmp_dir/BENCH_baseline.json"
python3 - "$out" "${run_set[@]}" <<'PY'
import json, sys
out_path = sys.argv[1]
rows = []
for entry in sys.argv[2:]:
    bench, seed = entry.rsplit(" ", 1)
    with open(f"{sys.argv[1].rsplit('/', 1)[0]}/{bench}.json") as f:
        for line in f:
            rec = json.loads(line)
            if "value" in rec:  # counter / gauge
                rows.append({"name": rec["bench"], "metric": rec["metric"],
                             "value": rec["value"], "seed": int(seed)})
            else:  # histogram: one row per summary stat
                for stat in ("count", "min", "max", "mean", "p50", "p90", "p95",
                             "p99", "p999"):
                    rows.append({"name": rec["bench"],
                                 "metric": f"{rec['metric']}.{stat}",
                                 "value": rec[stat], "seed": int(seed)})
with open(out_path, "w") as f:
    for row in rows:
        f.write(json.dumps(row, separators=(",", ":")) + "\n")
PY

case "$mode" in
  update)
    cp "$out" BENCH_baseline.json
    cp "$digests_out" BENCH_digest_baseline.json
    echo "run_suite.sh: wrote BENCH_baseline.json ($(wc -l < BENCH_baseline.json) metrics)"
    echo "run_suite.sh: wrote BENCH_digest_baseline.json" \
         "($(wc -l < BENCH_digest_baseline.json) digests)"
    ;;
  check)
    # Add-tolerant comparison: every committed row must reproduce exactly (drift or removal
    # fails); rows only present in the new run are reported but pass.
    python3 - BENCH_baseline.json "$out" <<'PY'
import json, sys
baseline_path, new_path = sys.argv[1], sys.argv[2]

def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            rows[(rec["name"], rec["metric"], rec["seed"])] = rec["value"]
    return rows

baseline = load(baseline_path)
new = load(new_path)
drifted = [(k, v, new[k]) for k, v in baseline.items() if k in new and new[k] != v]
removed = [k for k in baseline if k not in new]
added = [k for k in new if k not in baseline]
for key, want, got in drifted[:20]:
    print(f"run_suite.sh: DRIFT {key[0]} {key[1]} (seed {key[2]}): "
          f"baseline {want} != {got}", file=sys.stderr)
for key in removed[:20]:
    print(f"run_suite.sh: REMOVED {key[0]} {key[1]} (seed {key[2]})", file=sys.stderr)
if drifted or removed:
    print(f"run_suite.sh: FAIL — {len(drifted)} drifted, {len(removed)} removed "
          f"vs BENCH_baseline.json", file=sys.stderr)
    sys.exit(1)
suffix = f"; {len(added)} new metrics not yet in the baseline (OK)" if added else ""
print(f"run_suite.sh: OK — {len(baseline)} baseline metrics match{suffix}")
PY
    # Golden digest check, same add-tolerant contract: every committed (bench, subsystem,
    # seed) digest must reproduce exactly; subsystems audited for the first time pass with a
    # note. A mismatch names the bench so the developer can rerun it with --audit twice
    # (committed build vs theirs) and hand both timelines to tools/digest_bisect.
    python3 - BENCH_digest_baseline.json "$digests_out" <<'PY'
import json, sys
baseline_path, new_path = sys.argv[1], sys.argv[2]

def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            rows[(rec["name"], rec["subsystem"], rec["seed"])] = rec["digest"]
    return rows

try:
    baseline = load(baseline_path)
except FileNotFoundError:
    print(f"run_suite.sh: FAIL — no {baseline_path}; create it with "
          "bench/run_suite.sh --update", file=sys.stderr)
    sys.exit(1)
new = load(new_path)
drifted = [(k, v, new[k]) for k, v in baseline.items() if k in new and new[k] != v]
removed = [k for k in baseline if k not in new]
added = [k for k in new if k not in baseline]
for key, want, got in drifted[:20]:
    print(f"run_suite.sh: DIGEST DRIFT {key[0]} {key[1]} (seed {key[2]}): "
          f"baseline {want} != {got} — bisect with: build/bench/{key[0]} --audit a.jsonl "
          f"(per build), then build/tools/digest_bisect a.jsonl b.jsonl", file=sys.stderr)
for key in removed[:20]:
    print(f"run_suite.sh: DIGEST REMOVED {key[0]} {key[1]} (seed {key[2]})",
          file=sys.stderr)
if drifted or removed:
    print(f"run_suite.sh: FAIL — {len(drifted)} digests drifted, {len(removed)} removed "
          f"vs BENCH_digest_baseline.json", file=sys.stderr)
    sys.exit(1)
suffix = f"; {len(added)} new digests not yet in the baseline (OK)" if added else ""
print(f"run_suite.sh: OK — {len(baseline)} golden digests match{suffix}")
PY
    ;;
  diff)
    cp "$out" BENCH_baseline.json.new
    cp "$digests_out" BENCH_digest_baseline.json.new
    if [[ -f BENCH_baseline.json ]]; then
      diff BENCH_baseline.json BENCH_baseline.json.new || true
    fi
    if [[ -f BENCH_digest_baseline.json ]]; then
      diff BENCH_digest_baseline.json BENCH_digest_baseline.json.new || true
    fi
    echo "run_suite.sh: wrote BENCH_baseline.json.new and BENCH_digest_baseline.json.new" \
         "(use --update to commit them)"
    ;;
esac
