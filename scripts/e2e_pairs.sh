#!/usr/bin/env bash
# Paired end-to-end measurement of a speed claim: this working tree against a
# parent commit, on the e2ebench workloads.
#
#   scripts/e2e_pairs.sh <parent-sha> [workload...]
#
# The box drifts by 20-40 % over minutes, so only alternating pairs resolve a
# claim. Both sides are built once under $SCRATCH (default /root/scratch) and
# each runs where cargo wrote it (a copied binary reads a different
# peak_rss_mb), so rebuild neither side while a series runs. Per workload
# (default: all four) and per seed in $SEEDS (default 1..10; pass a seed never
# used while developing to check the claim holds on it) one `measure` runs on
# each side, odd seeds parent first, even seeds change first, each for
# BENCHMARK.json's run_seconds. Printed per workload: every pair's ops_per_s
# and ratio, wins, both medians, the parent's inter-quartile range, the other
# end-to-end metrics' medians, and whether sim_digest, the sim_* metrics and
# the operation counts matched in every pair. A gain counts when the change
# wins >= 9 of 10 pairs and the medians differ by more than the parent's IQR. 4
# workloads x 10 seeds x 2 sides x 25 s is about 35 minutes.
#
#   scripts/e2e_pairs.sh --fine <parent-sha|self> [workload...]
#
# The box's slow stretches last 15-60 s, so a pair of 25 s runs routinely
# straddles two of them. `--fine` alternates single `e2ebench rep`
# repetitions (about a second each, one seed: $SEED, default 1) in ABBA
# blocks - parent, change, change, parent - $FINE_N per side (default 60),
# and prints per workload: the median over blocks of log(change / parent)
# as a ratio, a sign test over the blocks, a bootstrap 95 % interval of that
# median (2000 resamples of the blocks, fixed seed), every block's ratio, and
# the exact counters of each side, which must not vary within a side. It
# resolves what the 25 s pairs cannot; it is not the acceptance rule - a
# claimed gain still needs the pairs above. `self` as the parent runs the
# working tree's one binary on both sides: the A/A check that says what this
# method reads when nothing differs (1.00 ideally; on bulk_transfer it has
# read 1.09 [1.00, 1.12]).
# 4 workloads x 120 repetitions is about six minutes.
set -euo pipefail

FINE=0
if [ "${1:-}" = "--fine" ]; then FINE=1; shift; fi
[ $# -ge 1 ] || { sed -n '2,5p;21p' "$0"; exit 2; }
PARENT_SHA=$1; shift
WORKLOADS=${*:-flow_churn bulk_transfer deploy_churn handover_storm}
SEEDS=${SEEDS:-1 2 3 4 5 6 7 8 9 10}
SCRATCH=${SCRATCH:-/root/scratch}
REPO=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
RUN_SECONDS=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$REPO/BENCHMARK.json")
export CARGO_NET_OFFLINE=true

mkdir -p "$SCRATCH/pairs/out"
(cd "$REPO" && CARGO_TARGET_DIR="$SCRATCH/pairs/change-target" cargo build --release --offline --quiet -p e2ebench)
declare -A BIN=([change]="$SCRATCH/pairs/change-target/release/e2ebench")
if [ "$PARENT_SHA" = self ]; then
  BIN[parent]=${BIN[change]}
else
  if [ ! -d "$SCRATCH/pairs/parent-src" ]; then
    git clone -q "$REPO" "$SCRATCH/pairs/parent-src"
  fi
  git -C "$SCRATCH/pairs/parent-src" fetch -q origin
  git -C "$SCRATCH/pairs/parent-src" checkout -q "$PARENT_SHA"
  (cd "$SCRATCH/pairs/parent-src" && cargo build --release --offline --quiet -p e2ebench)
  BIN[parent]="$SCRATCH/pairs/parent-src/target/release/e2ebench"
fi

cd "$SCRATCH/pairs"   # e2ebench writes its artifacts under ./target/e2ebench
if [ "$FINE" -eq 1 ]; then
  SEED=${SEED:-1}
  BLOCKS=$(( (${FINE_N:-60} + 1) / 2 ))
  for W in $WORKLOADS; do
    : > "out/$W.fine"
    for B in $(seq 1 "$BLOCKS"); do
      for SIDE in parent change change parent; do
        echo "$B $SIDE $("${BIN[$SIDE]}" rep --workload "$W" --seed "$SEED" | grep '^REP ')" >> "out/$W.fine"
      done
    done
    python3 - "$W" "$PARENT_SHA" "$SEED" <<'FINE_EOF'
import math, random, statistics, sys
w, parent, seed = sys.argv[1:4]
EXACT = ("attempted", "failed", "digest", "allocs_per_op", "alloc_bytes_per_op", "sim_events_per_op",
         "sim_latency_p50_ms", "sim_latency_p99_ms")
blocks, exact = {}, {"parent": set(), "change": set()}
for line in open(f"out/{w}.fine"):
    block, side, _rep, *fields = line.split()
    run = dict(f.split("=", 1) for f in fields)
    blocks.setdefault(int(block), {"parent": [], "change": []})[side].append(float(run["ops_per_s"]))
    exact[side].add(tuple(run[k] for k in EXACT))
logs = [statistics.fmean(map(math.log, b["change"])) - statistics.fmean(map(math.log, b["parent"]))
        for _, b in sorted(blocks.items())]
up, down = sum(x > 0 for x in logs), sum(x < 0 for x in logs)
n = up + down
tail = sum(math.comb(n, k) for k in range(max(up, down), n + 1)) / 2 ** n if n else 0.5
rng = random.Random(20241004)
boot = sorted(statistics.median(rng.choices(logs, k=len(logs))) for _ in range(2000))
print(f"\n== {w}: ops_per_s, change / {parent}, seed {seed}, {len(logs)} ABBA blocks of single repetitions "
      f"({2 * len(logs)} per side) ==")
print(f"median block ratio {math.exp(statistics.median(logs)):.4f}, bootstrap 95 % "
      f"[{math.exp(boot[49]):.4f}, {math.exp(boot[1949]):.4f}], sign test: change ahead in {up} of {n} blocks "
      f"(two-sided p = {min(1.0, 2 * tail):.4f})")
print("block ratios: " + " ".join(f"{math.exp(x):.3f}" for x in logs))
for side in ("parent", "change"):
    runs = [r for b in blocks.values() for r in b[side]]
    q = statistics.quantiles(runs, n=4, method="inclusive")
    print(f"  {side}: ops_per_s median {q[1]:.0f} (quartiles {q[0]:.0f}..{q[2]:.0f}, range {min(runs):.0f}..{max(runs):.0f})")
    if len(exact[side]) != 1:
        print(f"  {side}: EXACT COUNTERS VARY within the side: {sorted(exact[side])}")
if all(len(v) == 1 for v in exact.values()):
    (p,), (c,) = exact["parent"], exact["change"]
    for k, a, b in zip(EXACT, p, c):
        print(f"  {k:<20} {a} -> {b}" + ("" if a == b else "   (differs)"))
FINE_EOF
  done
  exit 0
fi
for W in $WORKLOADS; do
  for S in $SEEDS; do
    ORDER="parent change"
    [ $((S % 2)) -eq 0 ] && ORDER="change parent"
    for SIDE in $ORDER; do
      "${BIN[$SIDE]}" measure --workload "$W" --seed "$S" --seconds "$RUN_SECONDS" --trace 0 \
        | grep -E 'sim_digest|^\{' > "out/$W.$S.$SIDE"
    done
  done
  python3 - "$W" $SEEDS <<'EOF'
import json, re, statistics, sys
w, seeds = sys.argv[1], sys.argv[2:]
def load(seed, side):
    head, body = open(f"out/{w}.{seed}.{side}").read().strip().split("\n")
    run = json.loads(body)
    run["digest"] = re.search(r"sim_digest (\w+)", head).group(1)
    return run
def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]
pairs = [(s, load(s, "parent"), load(s, "change")) for s in seeds]
val = lambda run, m: run["metrics"][m]["value"]
print(f"\n== {w}: ops_per_s, {len(pairs)} alternating pairs ==")
print(f"{'seed':>5} {'parent':>10} {'change':>10} {'ratio':>7}  sim")
wins, same_everywhere = 0, True
for s, p, c in pairs:
    same = (p["digest"] == c["digest"] and (p["attempted"], p["failed"]) == (c["attempted"], c["failed"])
            and all(val(p, m) == val(c, m) for m in p["metrics"] if m.startswith("sim_")))
    same_everywhere &= same
    a, b = val(p, "ops_per_s"), val(c, "ops_per_s")
    wins += b > a
    print(f"{s:>5} {a:>10.0f} {b:>10.0f} {b / a:>7.3f}  {'same' if same else 'DIFFERS'}")
pq, cq = (quartiles([val(r, "ops_per_s") for r in side]) for side in zip(*[(p, c) for _, p, c in pairs]))
iqr = pq[2] - pq[0]
print(f"median {pq[1]:.0f} -> {cq[1]:.0f} ({cq[1] / pq[1]:.3f}x), change wins {wins}/{len(pairs)}, "
      f"parent IQR {iqr:.0f} ({pq[0]:.0f}..{pq[2]:.0f}), difference {cq[1] - pq[1]:+.0f}")
print(f"failed: parent {sum(p['failed'] for _, p, _ in pairs)}, change {sum(c['failed'] for _, _, c in pairs)}; "
      f"sim_digest, sim_* metrics and operation counts: {'identical in every pair' if same_everywhere else 'DIFFER'}")
for m in pairs[0][1]["metrics"]:
    if m != "ops_per_s":
        a = statistics.median(val(p, m) for _, p, _ in pairs)
        b = statistics.median(val(c, m) for _, _, c in pairs)
        print(f"  {m:<20} median {a:.6g} -> {b:.6g}" + (f" ({b / a:.3f}x)" if a else ""))
EOF
done
