#!/usr/bin/env bash
# Writes the exact end-to-end counters of every e2ebench workload to a JSON
# file, so a change that moves one shows as a diff of that file.
#
#   scripts/e2e_counts.sh [outfile]     # default: BENCH_e2e.json at the repository root
#
# Builds e2ebench and runs `e2ebench measure --trace 0 --seconds 1` for each
# workload in BENCHMARK.json at seeds 1, 2 and 3. Per run it records the
# sim_digest, the operation counts (`attempted`, `failed`) and the metrics that
# count rather than time: allocs_per_op, alloc_bytes_per_op, sim_events_per_op
# and the simulated-latency quantiles. Host-clock metrics (ops_per_s, setup_s,
# peak_rss_mb) stay out, so two runs of one build write identical files,
# whatever the run length or machine load. Heap-call counts depend on the
# compiler and std, so compare files written by one toolchain (CI pins it).
# Exits 1 when a run fails its output check. About 30 s after the build.
set -euo pipefail
REPO=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
OUT=$(realpath -m "${1:-$REPO/BENCH_e2e.json}")
cd "$REPO"
export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet -p e2ebench
BIN=$(realpath "${CARGO_TARGET_DIR:-target}/release/e2ebench")
WORKLOADS=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
for w in $WORKLOADS; do
  for seed in 1 2 3; do
    (cd "$runs" && "$BIN" measure --workload "$w" --seed "$seed" --seconds 1 --trace 0 > "$w.$seed")
  done
done

python3 - "$runs" "$OUT" $WORKLOADS <<'EOF'
import json, re, sys
runs, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
COUNTED = ("allocs_per_op", "alloc_bytes_per_op", "sim_events_per_op", "sim_latency_p50_ms", "sim_latency_p99_ms")
rows, bad = [], []
for w in workloads:
    for seed in (1, 2, 3):
        text = open(f"{runs}/{w}.{seed}").read()
        result = json.loads(text.strip().splitlines()[-1])
        if not result["correct"]:
            bad.append(f"{w} seed {seed}")
        row = {"workload": w, "seed": seed, "sim_digest": re.search(r"sim_digest (\w+)", text).group(1),
               "attempted": result["attempted"], "failed": result["failed"]}
        row.update((m, result["metrics"][m]["value"]) for m in COUNTED)
        rows.append(row)
with open(out, "w") as f:
    f.write('{\n  "bench": "e2e",\n  "command": "e2ebench measure --trace 0 --seconds 1",\n  "runs": [\n')
    f.write(",\n".join("    " + json.dumps(r) for r in rows))
    f.write("\n  ]\n}\n")
print(f"wrote {out}: {len(rows)} runs")
if bad:
    sys.exit("output check failed: " + ", ".join(bad))
EOF
