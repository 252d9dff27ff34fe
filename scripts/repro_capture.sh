#!/usr/bin/env bash
# Captures what `repro` prints and writes, for a byte-for-byte comparison of a
# refactor against its parent commit.
#
#   scripts/repro_capture.sh <repro-binary> <outdir>
#
# Runs every bench subcommand at `--smoke --seed 7` (chaos / mobility /
# recovery also with `--telemetry` and `--csv`, chaos and recovery at CI's
# fault rates), plus `fig11`, `summary`, `list` and an unknown id, and saves
# per run: stdout (`<name>.out`), stderr (`.err`), exit status (`.status`) and
# the artifact it wrote (`<name>.BENCH_x.json`). The committed artifacts are
# restored (`git checkout`) before and after every run, so `summary` always
# reads the committed ones. A binary writes its artifacts into the checkout
# it was built in (the path is compiled in), so capture the parent with the
# copy of this script in the parent's clone, the change with this one, then
#
#   diff -r <parent-outdir> <change-outdir>
#
# Expect differences only in wall-clock fields: `replay_wall_ns` /
# `replay_events_per_sec` (ha), every `*_per_sec` / `wall_s` / `peak_rss_mb`
# (scale, engine) and the `telemetry` bench's timings.
set -u
[ $# -eq 2 ] || { sed -n '2,6p' "$0"; exit 2; }
bin=$(realpath "$1"); out=$(realpath -m "$2"); mkdir -p "$out"
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

run() { # <name> <artifact or ''> <repro args...>
  local name=$1 artifact=$2; shift 2
  git checkout -q -- 'BENCH_*.json'
  "$bin" "$@" > "$out/$name.out" 2> "$out/$name.err"
  echo $? > "$out/$name.status"
  [ -n "$artifact" ] && cp "$artifact" "$out/$name.$artifact"
  git checkout -q -- 'BENCH_*.json'
}

run chaos '' chaos --smoke --seed 7
run chaos-ci '' chaos --smoke --fault-rate 0.15 --seed 7
run chaos-ci-telemetry '' chaos --smoke --fault-rate 0.15 --seed 7 --telemetry
run chaos-csv '' chaos --smoke --seed 7 --csv
run mobility BENCH_mobility.json mobility --smoke --seed 7
run mobility-telemetry BENCH_mobility.json mobility --smoke --seed 7 --telemetry
run mobility-csv BENCH_mobility.json mobility --smoke --seed 7 --csv
run recovery BENCH_recovery.json recovery --smoke --seed 7
run recovery-ci-telemetry BENCH_recovery.json recovery --smoke --fault-rate 1.0 --seed 7 --telemetry
run recovery-csv BENCH_recovery.json recovery --smoke --seed 7 --csv
run migrate BENCH_migrate.json migrate --smoke --seed 7
run tournament BENCH_tournament.json tournament --smoke --seed 7
run scale BENCH_scale.json scale --smoke --seed 7
run ha BENCH_ha.json ha --smoke --seed 7
run engine BENCH_engine.json engine --smoke --seed 7
run telemetry '' telemetry
run fig11 '' fig11
run fig11-csv '' fig11 --csv
run summary '' summary
run list '' list
run unknown '' no-such-figure
