#!/usr/bin/env bash
# Paired end-to-end measurement of a speed claim: this working tree against a
# parent commit, on the e2ebench workloads.
#
#   scripts/e2e_pairs.sh <parent-sha> [workload...]
#
# The box drifts by 20-40 % over minutes, so only alternating pairs resolve a
# claim. Both sides are built once under $SCRATCH (default /root/scratch) and
# the binaries copied, so a later rebuild cannot swap one under a running
# series. Per workload (default: all four) and per seed in $SEEDS (default
# 1..10; pass a seed never used while developing to check the claim holds on
# it) one `measure` runs on each side, odd seeds parent first, even seeds
# change first, each for BENCHMARK.json's run_seconds. Printed per workload:
# every pair's ops_per_s and ratio, wins, both medians, the parent's
# inter-quartile range, the other end-to-end metrics' medians, and whether
# sim_digest, the sim_* metrics and the operation counts matched in every
# pair. A gain counts when the change wins >= 9 of 10 pairs and the medians
# differ by more than the parent's IQR. 4 workloads x 10 seeds x 2 sides x
# 25 s is about 35 minutes.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,6p' "$0"; exit 2; }
PARENT_SHA=$1; shift
WORKLOADS=${*:-flow_churn bulk_transfer deploy_churn handover_storm}
SEEDS=${SEEDS:-1 2 3 4 5 6 7 8 9 10}
SCRATCH=${SCRATCH:-/root/scratch}
REPO=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
RUN_SECONDS=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$REPO/BENCHMARK.json")
export CARGO_NET_OFFLINE=true

mkdir -p "$SCRATCH/pairs/parent" "$SCRATCH/pairs/change" "$SCRATCH/pairs/out"
if [ ! -d "$SCRATCH/pairs/parent-src" ]; then
  git clone -q "$REPO" "$SCRATCH/pairs/parent-src"
fi
git -C "$SCRATCH/pairs/parent-src" fetch -q origin
git -C "$SCRATCH/pairs/parent-src" checkout -q "$PARENT_SHA"
(cd "$SCRATCH/pairs/parent-src" && cargo build --release --offline --quiet -p e2ebench)
cp "$SCRATCH/pairs/parent-src/target/release/e2ebench" "$SCRATCH/pairs/parent/e2ebench"
(cd "$REPO" && CARGO_TARGET_DIR="$SCRATCH/pairs/change-target" cargo build --release --offline --quiet -p e2ebench)
cp "$SCRATCH/pairs/change-target/release/e2ebench" "$SCRATCH/pairs/change/e2ebench"

cd "$SCRATCH/pairs"   # e2ebench writes its artifacts under ./target/e2ebench
for W in $WORKLOADS; do
  for S in $SEEDS; do
    ORDER="parent change"
    [ $((S % 2)) -eq 0 ] && ORDER="change parent"
    for SIDE in $ORDER; do
      "$SIDE/e2ebench" measure --workload "$W" --seed "$S" --seconds "$RUN_SECONDS" --trace 0 \
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
