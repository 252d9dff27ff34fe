#!/usr/bin/env bash
# Captures what `repro` prints and writes, for a byte-for-byte comparison of a
# refactor against its parent commit.
#
#   scripts/repro_capture.sh <repro-binary> <outdir>
#
# Runs every bench subcommand at `--smoke --seed 7` (fastpath has no smoke
# size; chaos / mobility / recovery also with `--telemetry` and `--csv`, chaos
# and recovery at CI's fault rates), plus `fig11`, `summary`, `list` and an
# unknown id, and saves per run: stdout (`<name>.out`), stderr (`.err`), exit
# status (`.status`) and the artifact it wrote (`<name>.BENCH_x.json`). The
# committed artifacts are restored (`git checkout`) before and after every
# run, so `summary` always reads the committed ones. A binary writes its
# artifacts into the checkout it was built in (the path is compiled in), so
# capture the parent with the copy of this script in the parent's clone, the
# change with this one.
#
# Beside every `.out` and artifact, `<outdir>/masked/` holds a copy with the
# checkout path replaced by `<checkout>` and the value of every field named in
# WALL_CLOCK replaced by `MASKED`. For a pure refactor
#
#   diff -r <parent-outdir>/masked <change-outdir>/masked
#
# is empty; `diff -r` over the raw trees shows the wall-clock values.
set -u
[ $# -eq 2 ] || { sed -n '2,6p' "$0"; exit 2; }
bin=$(realpath "$1"); out=$(realpath -m "$2"); mkdir -p "$out/masked"
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Fields whose values are wall-clock measurements, in any artifact or in the
# `telemetry-bench` line: ha, scale, engine, fastpath, telemetry.
WALL_CLOCK='replay_wall_ns|replay_events_per_sec|wall_s|packet_ins_per_sec|peak_rss_mb'
WALL_CLOCK+='|calendar_events_per_sec|naive_events_per_sec|speedup|mixed_speedup|floor_met'
WALL_CLOCK+='|naive_lookup_ns|indexed_lookup_ns|switch_hit_ns|indexed_100k_over_10_ratio'
WALL_CLOCK+='|disabled_request_ns|recording_request_ns|overhead_pct'

mask() { # <file under $out>
  sed -E -e "s#$PWD#<checkout>#g" -e "s/(\"($WALL_CLOCK)\": ?)[^,}]*/\1MASKED/g" \
    "$out/$1" > "$out/masked/$1"
}

run() { # <name> <artifact or ''> <repro args...>
  local name=$1 artifact=$2; shift 2
  git checkout -q -- 'BENCH_*.json'
  "$bin" "$@" > "$out/$name.out" 2> "$out/$name.err"
  echo $? > "$out/$name.status"
  mask "$name.out"
  if [ -n "$artifact" ]; then
    cp "$artifact" "$out/$name.$artifact"
    mask "$name.$artifact"
  fi
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
run fastpath BENCH_flowtable.json fastpath
run telemetry '' telemetry
run fig11 '' fig11
run fig11-csv '' fig11 --csv
run summary '' summary
run list '' list
run unknown '' no-such-figure
