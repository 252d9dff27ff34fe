#!/usr/bin/env bash
# Captures what `repro` prints and writes, for a byte-for-byte comparison of a
# refactor against its parent commit.
#
#   scripts/repro_capture.sh <repro-binary> <outdir>
#
# Runs every bench subcommand with the flags it reads, at `--smoke --seed 7`
# (engine reads no seed; chaos / mobility / recovery also
# with `--telemetry`, chaos also with `--csv`, chaos and recovery at CI's
# fault rates), plus every figure (`all`, as text and as CSV), `fig11`,
# `summary`, `list`, an unknown id and a refused flag, and saves
# per run: stdout (`<name>.out`), stderr (`.err`), exit status (`.status`)
# and the artifact it wrote (`<name>.BENCH_x.json`). The artifacts in the
# working tree, committed or not, are copied once at the start and restored
# from that copy before and after every run, so `summary` always reads them
# and the capture leaves them as it found them. A binary writes its
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

# Fields whose values are wall-clock measurements, in any artifact: scale,
# engine.
WALL_CLOCK='wall_s|packet_ins_per_sec|peak_rss_mb|calendar_events_per_sec'

saved=$(mktemp -d)
cp BENCH_*.json "$saved"
restore() { cp "$saved"/BENCH_*.json .; }
trap 'restore; rm -rf "$saved"' EXIT

mask() { # <file under $out>
  sed -E -e "s#$PWD#<checkout>#g" -e "s/(\"($WALL_CLOCK)\": ?)[^,}]*/\1MASKED/g" \
    "$out/$1" > "$out/masked/$1"
}

run() { # <name> <artifact or ''> <repro args...>
  local name=$1 artifact=$2; shift 2
  restore
  "$bin" "$@" > "$out/$name.out" 2> "$out/$name.err"
  echo $? > "$out/$name.status"
  mask "$name.out"
  if [ -n "$artifact" ]; then
    cp "$artifact" "$out/$name.$artifact"
    mask "$name.$artifact"
  fi
  restore
}

run chaos '' chaos --smoke --seed 7
run chaos-ci '' chaos --smoke --fault-rate 0.15 --seed 7
run chaos-ci-telemetry '' chaos --smoke --fault-rate 0.15 --seed 7 --telemetry
run chaos-csv '' chaos --smoke --seed 7 --csv
run mobility BENCH_mobility.json mobility --smoke --seed 7
run mobility-telemetry BENCH_mobility.json mobility --smoke --seed 7 --telemetry
run recovery BENCH_recovery.json recovery --smoke --seed 7
run recovery-ci-telemetry BENCH_recovery.json recovery --smoke --fault-rate 1.0 --seed 7 --telemetry
run migrate BENCH_migrate.json migrate --smoke --seed 7
run tournament BENCH_tournament.json tournament --smoke --seed 7
run scale BENCH_scale.json scale --smoke --seed 7
run ha BENCH_ha.json ha --smoke --seed 7
run engine BENCH_engine.json engine --smoke
run all '' all --seed 7
run all-csv '' all --seed 7 --csv
run fig11 '' fig11
run fig11-csv '' fig11 --csv
run summary '' summary
run list '' list
run unknown '' no-such-figure
run refused '' table1 --seed 7
