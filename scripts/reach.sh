#!/usr/bin/env bash
# Execution census: which library functions does a run enter?
#
#   scripts/reach.sh            # ~8 min on two cores
#   REACH_DIR=/path scripts/reach.sh
#
# `tests/public_surface.rs` asks whether a function is *named* outside the
# tests; this asks whether any run *enters* it. In a copy of the working tree
# (tracked and untracked files, under $REACH_DIR, default ${TMPDIR:-/tmp}/reach;
# the checkout itself is never touched) it puts a once-per-process probe at the
# top of every non-test `fn` body under `crates/*/src`: an `AtomicBool` read and
# swap and one `eprintln!` of `file:line:name`. `const fn`s and items under
# `#[cfg(test)]` (a test module, a test-only `mod x;` file) get none, and
# neither does `crates/e2ebench`, which is the benchmark's own harness. It
# builds the copy once, runs the fixed list below (what CI runs, every bench at
# full size, a refused command line, the six examples and e2ebench's smoke
# commands) and prints every probed function no run entered, except
#   - a method of a std-trait impl (`Display`, `PartialEq`, `Sub`, `FromIterator`,
#     ...; the list is in the Perl below): the trait decides its name, and the
#     language reaches it through `{}`, `==`, `-` or `collect`;
#   - a function `tests/public_surface.rs` keeps for tests: its `KEPT` list
#     gives the reason, and a function of that name in that crate is kept here;
#   - a `file::fn` line of REACH_KEPT below, which says why it stays.
# A REACH_KEPT line no longer needed (the function is gone or a run reaches it)
# is printed too. Exit status 1 when either list is non-empty.
#
# The probes slow the hot paths, so a run may fail a timing gate (`repro
# engine`'s events/s floor is the one at risk); the script says which runs
# failed and goes on: a failed run still reached what it reached. It is not a
# CI step.
set -uo pipefail

# file::fn — why the function stays although no run enters it. One key covers
# every function of that name in the file. A function public_surface's `KEPT`
# already names needs no line here.
REACH_KEPT=$(cat <<'EOF'
crates/containerd/src/node.rs::container_count — k8ssim's multinode test counts the containers a worker holds
crates/containerd/src/node.rs::state — the lifecycle tests and props read each container's state
crates/desim/src/calendar.rs::is_empty — clippy pairs it with the reached len
crates/desim/src/fault.rs::partial_fraction — a failed layer pull's progress; no run fails a pull (item 22)
crates/desim/src/queue.rs::is_empty — the reference queue's reader; clippy pairs it with len
crates/desim/src/queue.rs::len — the reference queue's reader; the calendar tests compare it with the calendar's after every step
crates/desim/src/queue.rs::peek_time — the reference queue's reader; the calendar tests compare it with the calendar's after every step
crates/desim/src/stats.rs::min — the telemetry test pins that a histogram's min starts above every observation
crates/desim/src/timers.rs::heap_bytes — the state sizes of items 1 and 22 (state_stats)
crates/dockersim/src/lib.rs::node_mut — the cluster and controller tests re-arm a node's fault injector mid-run
crates/dockersim/src/lib.rs::remove — the Remove phase (PAPER.md step 5; ROADMAP item 19); no run sets ControllerConfig::remove_after
crates/edgectl/src/autoscale.rs::unfile_base — no run removes or re-anchors an autoscaled pool; autoscale's pools_at test does
crates/edgectl/src/cluster.rs::remove — the Remove phase (PAPER.md step 5; ROADMAP item 19); no run sets ControllerConfig::remove_after
crates/edgectl/src/cluster.rs::telemetry_stats — e2ebench's tracing cluster wrapper forwards it
crates/edgectl/src/controller.rs::control_errors — no run meets a control-plane inconsistency; the controller tests provoke them (item 22)
crates/edgectl/src/controller.rs::note_error — no run meets a control-plane inconsistency; the controller tests provoke them (item 22)
crates/edgectl/src/controller.rs::state_stats — item 1's invariant reads; the soak tests bound the bookkeeping
crates/edgectl/src/dispatch.rs::give_up — item 22: no run exhausts a deployment's retries
crates/edgectl/src/flowmemory.rs::apply — item 22: journal replay of flow ops; no run's replayed tail holds them
crates/edgectl/src/flowmemory.rs::flows_for — a deferred scale-down re-checks that the service is still idle; no run defers one
crates/edgectl/src/flowmemory.rs::heap_bytes — item 1's state sizes (state_stats)
crates/edgectl/src/flowmemory.rs::is_empty — clippy pairs it with the reached len
crates/edgectl/src/flowmemory.rs::touch — a same-ingress re-key and a replayed touch refresh a flow's idle timer (item 22)
crates/edgectl/src/health.rs::apply — item 22: journal replay of breaker ops
crates/edgectl/src/journal.rs::encode — item 22's crash oracle (state_digest)
crates/edgectl/src/journal.rs::scaled_down — the Remove phase's wait list (PAPER.md step 5); no run sets remove_after
crates/edgectl/src/journal.rs::state_stats — item 1's state sizes (state_stats)
crates/edgectl/src/migrate.rs::abort — item 22: no run loses a target zone mid-transfer
crates/edgectl/src/migrate.rs::active — the migration tests check that an aborted migration lifts its pin
crates/edgectl/src/migrate.rs::label — span details, written only when a run records spans through a migration
crates/edgectl/src/migrate.rs::ledger — the migration props check that session state is conserved
crates/edgectl/src/migrate.rs::total — the migration props and harness tests check that session state is conserved
crates/edgectl/src/rules.rs::drop_buffered — safety: frees a switch buffer when a packet-in is dropped
crates/edgectl/src/scheduler.rs::choose — CloudOnlyScheduler, the cloud-only baseline (ROADMAP item 5 decides it)
crates/edgectl/src/scheduler.rs::name — CloudOnlyScheduler, the cloud-only baseline (ROADMAP item 5 decides it)
crates/edgectl/src/service.rs::work — work_ledger reads the registry's lookups by address and walks per decision
crates/k8ssim/src/cluster.rs::delete_deployment — the Remove phase (PAPER.md step 5) on Kubernetes
crates/k8ssim/src/cluster.rs::delete_service — the Remove phase (PAPER.md step 5) on Kubernetes
crates/k8ssim/src/cluster.rs::endpoints — reconcile_props and the full-recompute oracle compare Endpoints objects
crates/k8ssim/src/cluster.rs::remove — the Remove phase: a deleted service leaves the selector index
crates/k8ssim/src/cluster.rs::worker — multinode counts the containers on the worker a pod was placed on
crates/mobility/src/lib.rs::name — the model trait's label; e2ebench's recorded model implements it
crates/netsim/src/frame.rs::held — wire_props and the harness tests check that frame buffers are recycled
crates/netsim/src/pcap.rs::is_empty — clippy pairs it with the reached len
crates/openflow/src/messages.rs::from_u16 — decode-error path: no run receives an OpenFlow ERROR (item 1's fuzzing)
crates/openflow/src/oxm.rs::matches — the naive flow table the diff tests compare against matches this way
crates/openflow/src/table.rs::is_empty — clippy pairs it with the reached len
crates/openflow/src/table.rs::peek — the diff tests compare a read-only lookup against the naive table (ROADMAP item 2)
crates/telemetry/src/metrics.rs::is_empty — the metrics test and frame_allocs check that spans-off telemetry records nothing
crates/telemetry/src/trace.rs::into_log — the trait method of telemetry::Off, the zero-sized recorder; spans-off runs never ask for a log
crates/telemetry/src/trace.rs::spans — the span tests read every recorded span
crates/testbed/src/topology.rs::client_ip — the handover tests and frame_allocs look up a client's flows by its address
crates/testbed/src/topology.rs::client_port — the Net trait's handover hook; only multi-gNB runs hand over, and C3 has one switch
crates/yamlite/src/error.rs::new — decode-error path: no run reads malformed YAML (item 1's fuzzing)
crates/yamlite/src/parser.rs::too_deep — decode-error path: no run reads YAML nested past MAX_DEPTH
EOF
)

root=$(cd "$(dirname "$0")/.." && pwd)
dir=${REACH_DIR:-${TMPDIR:-/tmp}/reach}
src=$dir/src
mkdir -p "$dir"
rm -rf "$src" "$dir/logs"
mkdir -p "$src" "$dir/logs"

# The working tree as it is, without build outputs.
(cd "$root" && git ls-files -z -co --exclude-standard | tar --null -T - -cf -) | tar -xf - -C "$src"

# Instrument. The Perl below reads Rust at the token level (comments, strings,
# raw strings, char literals and lifetimes are skipped), so a `{` in a string
# or a `fn` in a comment is never taken for code. It writes one manifest line,
# `file:line:name`, per probe, followed by ` std` for a method of a std-trait impl.
(cd "$src" && find crates/*/src -name '*.rs' | sort \
  | grep -v '^crates/e2ebench/' | perl -e '
use strict;
use warnings;

sub tokens {
    my ($s) = @_;
    my @t;
    pos($s) = 0;
    while (pos($s) < length $s) {
        if ($s =~ /\G\s+/gc) { next }
        if ($s =~ /\G\/\/[^\n]*/gc) { next }
        if ($s =~ /\G\/\*/gc) {
            my $depth = 1;
            while ($depth > 0 && pos($s) < length $s) {
                if ($s =~ /\G\/\*/gc) { $depth++ }
                elsif ($s =~ /\G\*\//gc) { $depth-- }
                else { $s =~ /\G[^\/*]+|\G./gcs }
            }
            next;
        }
        if ($s =~ /\Gb?r(#*)"/gc) {
            my $close = "\"" . $1;
            my $at = index($s, $close, pos($s));
            pos($s) = $at < 0 ? length $s : $at + length $close;
            next;
        }
        if ($s =~ /\Gb?"(?:[^"\\]|\\.)*"/gcs) { next }
        if ($s =~ /\Gb?\x27(?:[^\x27\\\n]|\\[^\n]*?)\x27/gc) { next }
        if ($s =~ /\G\x27[A-Za-z_][A-Za-z0-9_]*/gc) { next }
        if ($s =~ /\G(?:r#)?([A-Za-z_][A-Za-z0-9_]*)/gc) {
            push @t, [$1, $-[0]];
            next;
        }
        if ($s =~ /\G[0-9][0-9A-Za-z_]*/gc) { next }
        $s =~ /\G(.)/gcs;
        push @t, [$1, $-[0]];
    }
    return @t;
}

# From token $k, the index of the first of the wanted tokens outside ( ) and [ ].
sub scan {
    my ($t, $k, %want) = @_;
    my $depth = 0;
    for (my $i = $k; $i < @$t; $i++) {
        my $x = $t->[$i][0];
        if ($x eq "(" || $x eq "[") { $depth++ }
        elsif ($x eq ")" || $x eq "]") { $depth-- }
        elsif ($depth == 0 && $want{$x}) { return $i }
    }
    return scalar @$t;
}

sub close_brace {
    my ($t, $k) = @_;
    my $depth = 0;
    for (my $i = $k; $i < @$t; $i++) {
        my $x = $t->[$i][0];
        $depth++ if $x eq "{";
        $depth-- if $x eq "}";
        return $i if $depth == 0;
    }
    return scalar @$t;
}

# The trait an `impl` at token $k implements, or "" for an inherent impl;
# and the index of the `{` that opens its body.
sub impl_trait {
    my ($t, $k) = @_;
    my ($angle, $path) = (0, "");
    for (my $i = $k + 1; $i < @$t; $i++) {
        my $x = $t->[$i][0];
        if ($x eq "<") { $angle++ }
        elsif ($x eq ">" && $t->[$i - 1][0] ne "-") { $angle-- }
        elsif ($angle == 0 && $x eq "for") { return ($path, scan($t, $i, "{" => 1)) }
        elsif ($angle == 0 && $x =~ /^[A-Za-z_]/) { $path = $x }
        elsif ($x eq "{" || $x eq "where") { return ("", scan($t, $i, "{" => 1)) }
    }
    return ("", scalar @$t);
}

sub is_cfg_test {
    my ($t, $k) = @_;
    return $k + 6 < @$t && join("", map { $t->[$_][0] } $k .. $k + 6) eq "#[cfg(test)]";
}

# Traits whose methods the language or std calls for the caller (`{}`, `==`,
# `-`, `collect`, `?`, ...): a method of such an impl is exempt.
my %std = map { $_ => 1 } qw(Display Debug PartialEq Eq PartialOrd Ord Hash Hasher
    Default From TryFrom FromStr FromIterator Extend IntoIterator Iterator Add Sub Mul
    Div Neg AddAssign SubAssign MulAssign DivAssign Index IndexMut Deref DerefMut Drop
    Clone Error AsRef Borrow Write Sum);
my @files = map { chomp; $_ } <STDIN>;
my (%text, %toks, %test_only);
for my $f (@files) {
    open my $fh, "<", $f or die "$f: $!";
    local $/;
    $text{$f} = <$fh>;
    $toks{$f} = [tokens($text{$f})];
}
# `#[cfg(test)] mod x;` makes the file of x test code.
for my $f (@files) {
    my $t = $toks{$f};
    (my $base = $f) =~ s/\.rs$//;
    $base =~ s{/(lib|main|mod)$}{};
    for my $k (0 .. $#$t - 9) {
        next unless is_cfg_test($t, $k);
        my $j = $k + 7;
        $j += 3 if $t->[$j][0] eq "pub" && $t->[$j + 1][0] eq "(";
        $j++ if $t->[$j][0] eq "pub";
        next unless $t->[$j][0] eq "mod" && $t->[$j + 2][0] eq ";";
        $test_only{"$base/$t->[$j + 1][0].rs"} = 1;
        $test_only{"$base/$t->[$j + 1][0]/mod.rs"} = 1;
    }
}
for my $f (@files) {
    next if $test_only{$f};
    my $t = $toks{$f};
    my $s = $text{$f};
    my (@at, @impls);
    for (my $k = 0; $k < @$t; $k++) {
        if ($t->[$k][0] eq "impl" && ($k == 0 || $t->[$k - 1][0] =~ /^[;{}\]]$|^(pub|unsafe|default)$/)) {
            my ($trait, $open) = impl_trait($t, $k);
            push @impls, [$open, close_brace($t, $open), $trait] if $open < @$t;
        }
        if (is_cfg_test($t, $k)) {
            # Skip the item the attribute guards: to its block end, or to its `;` or `,`.
            my $j = scan($t, $k + 7, "{" => 1, ";" => 1, "," => 1);
            $k = $j < @$t && $t->[$j][0] eq "{" ? close_brace($t, $j) : $j;
            next;
        }
        next unless $t->[$k][0] eq "fn" && $k + 1 < @$t && $t->[$k + 1][0] =~ /^[A-Za-z_]/;
        my $b = $k - 1;
        $b-- while $b >= 0 && $t->[$b][0] =~ /^(unsafe|extern|async|default)$/;
        next if $b >= 0 && $t->[$b][0] eq "const";
        my $j = scan($t, $k + 2, "{" => 1, ";" => 1);
        next unless $j < @$t && $t->[$j][0] eq "{";
        my $line = 1 + (substr($s, 0, $t->[$k][1]) =~ tr/\n//);
        my $id = "$f:$line:$t->[$k + 1][0]";
        push @at, [$t->[$j][1] + 1, $id];
        my ($in) = grep { $_->[0] < $k && $k < $_->[1] } reverse @impls;
        print $in && $std{$in->[2]} ? "$id std\n" : "$id\n";
    }
    next unless @at;
    for my $p (reverse @at) {
        my ($pos, $id) = @$p;
        substr($s, $pos, 0) = " static REACH_PROBE: ::std::sync::atomic::AtomicBool = "
            . "::std::sync::atomic::AtomicBool::new(false); "
            . "if !REACH_PROBE.load(::std::sync::atomic::Ordering::Relaxed) "
            . "&& !REACH_PROBE.swap(true, ::std::sync::atomic::Ordering::Relaxed) "
            . "{ eprintln!(\"REACH_PROBE $id\"); }";
    }
    open my $out, ">", $f or die "$f: $!";
    print $out $s;
}
') > "$dir/probes" || exit 1
echo "probes: $(wc -l < "$dir/probes") functions, $(grep -c ' std$' "$dir/probes") of them in std-trait impls" >&2

export CARGO_TARGET_DIR=$dir/target CARGO_NET_OFFLINE=true
(cd "$src" && cargo build --release --offline --quiet --workspace --bins --examples) || exit 1
bin=$CARGO_TARGET_DIR/release

# The fixed list: CI's runs, every bench at full size, the figures, a
# command line `repro` refuses, the examples and e2ebench's smoke commands.
runs=(
  "repro engine --smoke" "repro engine"
  "repro chaos --smoke --fault-rate 0.15 --seed 7" "repro chaos --smoke --fault-rate 0.15 --seed 7 --telemetry"
  "repro chaos" "repro chaos --csv"
  "repro mobility --smoke --seed 7 --telemetry" "repro mobility --seed 7"
  "repro recovery --smoke --fault-rate 1.0 --seed 7 --telemetry" "repro recovery --fault-rate 1.0 --seed 7" "repro recovery"
  "repro scale --smoke --seed 7" "repro scale"
  "repro tournament --smoke --seed 7" "repro tournament --seed 7"
  "repro migrate --smoke --seed 7" "repro migrate --seed 7"
  "repro ha --smoke --seed 7" "repro ha --seed 7"
  "repro all" "repro all --csv" "repro summary" "repro check" "repro list"
  "! repro engine --seed 7"
  "examples/quickstart" "examples/custom_scheduler" "examples/hybrid_cluster"
  "examples/image_offloading" "examples/mobility" "examples/trace_replay"
  "e2ebench run --smoke" "e2ebench trace --smoke" "e2ebench selfcheck --smoke" "e2ebench manifest"
)
n=0
for run in "${runs[@]}"; do
  n=$((n + 1))
  start=$SECONDS
  # A leading `!` marks a command line `repro` must refuse.
  want=0
  [ "${run#! }" != "$run" ] && run=${run#! } && want=1
  (cd "$src" && $bin/$run > "$dir/logs/$n.out" 2> "$dir/logs/$n.err")
  status=$?
  verdict=ok
  if [ "$want" -eq 1 ]; then
    [ "$status" -ne 0 ] && verdict="refused, as it should be" || verdict="FAILED (accepted a flag it does not read)"
  elif [ "$status" -ne 0 ]; then
    verdict="FAILED (exit $status; $dir/logs/$n.out, $n.err)"
  fi
  echo "run $n: $run: $verdict, $((SECONDS - start)) s" >&2
done

sed -n 's/^REACH_PROBE //p' "$dir"/logs/*.err | sort -u > "$dir/reached"
cut -d' ' -f1 "$dir/probes" | sort -u | comm -23 - "$dir/reached" > "$dir/unreached"
sed -n 's/ std$//p' "$dir/probes" | sort -u > "$dir/std"
kept=$(echo "$REACH_KEPT" | sed -n 's/^\([^ ]*::[A-Za-z_0-9]*\) — .*/\1/p' | sort -u)
# public_surface's KEPT keys (`crate::name`, `crate::Type::name`) as `crate name`.
surface=$(sed -n '/^const KEPT/,/^];/p' "$src/tests/public_surface.rs" \
  | sed -n 's/^ *("\([a-z_0-9]*\)::\([A-Za-z_0-9]*::\)\{0,1\}\([A-Za-z_0-9]*\)", .*/\1 \3/p')
keyed() { sed -E 's/^([^:]*):[0-9]+:(.*)$/\1::\2/' "$@"; }
listed=$(awk -v kept="$kept" -v surface="$surface" -v std="$dir/std" '
  BEGIN { n = split(kept, k, "\n"); for (i = 1; i <= n; i++) keep[k[i]] = 1
          n = split(surface, k, "\n"); for (i = 1; i <= n; i++) named[k[i]] = 1
          while ((getline id < std) > 0) exempt[id] = 1 }
  { key = $0; sub(/:[0-9]+:/, "::", key)
    split($0, part, "/"); name = $0; sub(/.*:/, "", name) }
  !($0 in exempt) && !(key in keep) && !((part[2] " " name) in named)' "$dir/unreached")
stale=$(comm -23 <(echo "$kept" | grep -v '^$') <(keyed "$dir/unreached" | sort -u))

echo "probed $(wc -l < "$dir/probes"), reached $(wc -l < "$dir/reached"), unreached $(wc -l < "$dir/unreached") ($(echo "$kept" | grep -c .) REACH_KEPT keys, $(echo "$surface" | grep -c .) public_surface KEPT names)"
echo "unreached, neither a std-trait method nor in REACH_KEPT: $(echo "$listed" | grep -c .)"
[ -n "$listed" ] && echo "$listed" | sed 's/^/  /'
echo "REACH_KEPT keys that are gone or reached: $(echo "$stale" | grep -c .)"
[ -n "$stale" ] && echo "$stale" | sed 's/^/  /'
[ -z "$listed" ] && [ -z "$stale" ]
