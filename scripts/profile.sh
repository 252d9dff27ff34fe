#!/usr/bin/env bash
# Sampling profile of one e2ebench workload, for boxes without `perf`.
#
#   scripts/profile.sh <workload> [runs]
#
# `e2ebench trace` prices whole calls at the layer boundaries; this says
# where inside them the time goes. It profiles the unmodified program: a
# small LD_PRELOAD library arms ITIMER_PROF and, on every SIGPROF, records
# the interrupted instruction and the frame-pointer chain above it; at exit it
# dumps the addresses and /proc/self/maps. The only difference from the
# benchmark's build is that this one keeps frame pointers and line tables
# (built into its own target dir, so the ordinary build is not disturbed).
# The kernel delivers ITIMER_PROF on its own tick, about 190 samples per
# `rep` run, so [runs] (default 40) repetitions are pooled. Printed: self
# time by innermost (inlined) function, self time by physical function,
# inclusive time (one row per function, however many ways it was inlined,
# every function on the stack of >= 0.5 % of the samples),
# and the self time spent outside the binary — libc's allocator and mem*
# internals, which the stripped library gives no names for — by nearest
# exported symbol and by first caller inside the binary. Everything is
# written under $SCRATCH (default /root/scratch)/profile.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,5p' "$0"; exit 2; }
WORKLOAD=$1
RUNS=${2:-40}
SEED=${SEED:-1}
SCRATCH=${SCRATCH:-/root/scratch}
REPO=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
OUT="$SCRATCH/profile"
export CARGO_NET_OFFLINE=true
mkdir -p "$OUT/samples"
rm -f "$OUT"/samples/*

cat > "$OUT/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (1 << 22) /* 32 MiB of addresses, far more than a run takes */
#define MAX_DEPTH 48
static uint64_t words[MAX_WORDS]; /* per sample: frame count, then the frames */
static volatile size_t used;
static uintptr_t stack_lo, stack_hi; /* the main thread's stack mapping */

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig; (void)info;
    ucontext_t *uc = uc_;
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    if (used + MAX_DEPTH + 1 > MAX_WORDS) return;
    size_t head = used, n = 0;
    words[head + 1 + n++] = pc;
    /* Walk saved-rbp links only while they stay inside the main stack and
       climb: code without frame pointers (libc) leaves garbage in rbp. */
    while (n < MAX_DEPTH && sp >= stack_lo && fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret < 4096) break;
        words[head + 1 + n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    words[head] = n;
    used = head + 1 + n;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (size_t i = 0; i < used; i += 1 + words[i]) {
        for (size_t k = 1; k <= words[i]; k++) fprintf(out, "%s%lx", k > 1 ? " " : "S ", words[i + k]);
        fputc('\n', out);
    }
    char line[1024];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    char line[1024];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}}; /* asks for 1 ms; the kernel rounds up to its tick */
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
EOF
gcc -O2 -shared -fPIC -o "$OUT/sampler.so" "$OUT/sampler.c"

(cd "$REPO" && CARGO_TARGET_DIR="$OUT/target" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet -p e2ebench)
BIN="$OUT/target/release/e2ebench"
# binutils' addr2line names the innermost inlined function after the physical
# one at some addresses; LLVM's does not. Same options, same output format.
export ADDR2LINE=$(command -v llvm-addr2line || command -v addr2line)

cd "$OUT"   # e2ebench writes its artifacts under ./target/e2ebench
for i in $(seq "$RUNS"); do
  PROFILE_OUT="$OUT/samples/$i" LD_PRELOAD="$OUT/sampler.so" \
    "$BIN" rep --workload "$WORKLOAD" --seed "$SEED" > /dev/null
done

python3 - "$BIN" "$OUT"/samples/* <<'EOF'
import bisect, collections, os, re, subprocess, sys
exe, files = os.path.realpath(sys.argv[1]), sys.argv[2:]
stacks = []   # per sample: [(module path, address within the module)], innermost first
for f in files:
    samples, maps = [], []
    for line in open(f):
        if line.startswith("S "):
            samples.append([int(x, 16) for x in line.split()[1:]])
        elif line.startswith("M "):
            m = re.match(r"M (\w+)-(\w+) \S+ \w+ \S+ \d+\s+(\S.*)?$", line.rstrip())
            if m and m.group(3):
                maps.append((int(m.group(1), 16), int(m.group(2), 16), m.group(3)))
    base = {}   # a module's load address is the start of its first mapping
    for lo, _, path in maps:
        base.setdefault(path, lo)
    def locate(pc):
        for lo, hi, path in maps:
            if lo <= pc < hi:
                return path, pc - base[path]
        return "?", pc
    # A return address belongs to the call before it: step back into the call.
    stacks += [[locate(pc - (k > 0)) for k, pc in enumerate(s)] for s in samples]

# Physical functions come from the symbol tables (the dynamic one for shared
# libraries, which are stripped): an address inside no sized symbol — libc's
# internal functions — is named after its module only.
symtabs, dyntabs = {}, {}
def physical(path, a):
    if path not in symtabs:
        nm = ["nm", "-C", "-S", "-n", "--defined-only"] + ([] if path == exe else ["-D"]) + [path]
        rows = (l.split(None, 3) for l in subprocess.run(nm, text=True, capture_output=True).stdout.splitlines())
        symtabs[path] = [(int(r[0], 16), int(r[1], 16), r[3]) for r in rows if len(r) == 4 and r[2] in "TtWw"]
    tab = symtabs[path]
    i = bisect.bisect_right(tab, (a, 1 << 62, "")) - 1
    if i >= 0 and a < tab[i][0] + tab[i][1]:
        return re.sub(r"::h[0-9a-f]{16}$|@.*$", "", tab[i][2])   # legacy-mangling hash, glibc symbol version
    return f"[{os.path.basename(path)}]"
# For an address in a stripped shared object: the nearest exported symbol at
# or below it, sized or not, and the distance. Past the end of that symbol
# the address is in some internal function that happens to follow it — the
# name and offset say where in the library, the reader judges what it is.
def nearest_export(path, a):
    if path not in dyntabs:
        rows = (l.split() for l in subprocess.run(["nm", "-D", "-n", "--defined-only", path],
                                                  text=True, capture_output=True).stdout.splitlines())
        dyntabs[path] = [(int(r[0], 16), r[2].split("@")[0]) for r in rows if len(r) == 3]
    tab = dyntabs[path]
    i = bisect.bisect_right(tab, (a, "\x7f")) - 1
    return (tab[i][1], a - tab[i][0]) if i >= 0 else ("?", a)
# Inside the benchmark binary, addr2line adds the functions inlined at the
# address, innermost first, each by its short DWARF name and the source file
# its code is in; the last entry is the physical function again.
addrs = sorted({a for s in stacks for path, a in s if path == exe})
out = subprocess.run([os.environ["ADDR2LINE"], "-a", "-f", "-C", "-i", "-e", exe], text=True, capture_output=True,
                     input="".join(f"{a:#x}\n" for a in addrs), check=True).stdout.split("\n")
inlined, cur = {}, None
for i, line in enumerate(out):
    if re.fullmatch(r"0x[0-9a-f]+", line):
        cur, first = inlined.setdefault(int(line, 16), []), i + 1
    elif cur is not None and (i - first) % 2 == 0 and line:
        cur.append((line, out[i + 1].rsplit(":", 1)[0]))
# One function has many spellings: its symbol-table name where it is a
# physical function, and wherever it was inlined its short DWARF name, once
# per instantiation (`handle<C3Topology>`, `handle<MultiGnbTopology>`). All of
# them share the last path segment without generic arguments and the source
# file; that pair is the function's identity here (closures keep their
# arguments: a file has many `{closure#0}`). It is shown under the
# symbol-table name if the function is physical anywhere, else as
# `name [file]`.
def short(name):
    if name.startswith("{"):
        return name
    depth, kept = 0, []
    for c in name.replace("->", "  "):   # the arrow of an `fn() -> T` argument closes nothing
        depth += c == "<"
        kept.append(c if depth == 0 else "")
        depth -= c == ">"
    return "".join(kept).rstrip(":").rsplit("::", 1)[-1]   # `catch_unwind::<..>` ends in its turbofish
full_name = {}
for a, chain in inlined.items():
    if chain and chain[-1][1] != "??" and not physical(exe, a).startswith("["):
        full_name[short(physical(exe, a)), chain[-1][1]] = physical(exe, a)
def shown(func, source):
    return full_name.get((short(func), source)) or f"{short(func)} [{os.path.basename(source)}]"
def names(frame):   # innermost inlined function first, the physical one last
    path, a = frame
    if path != exe or not inlined.get(a) or inlined[a][-1][0] == "??":
        return [physical(path, a)]
    return [shown(*f) for f in inlined[a][:-1]] + [physical(path, a)]
# Who asked libc: the nearest frame inside the binary, named by its innermost
# function that is neither std's nor an allocator shim.
SHIMS = re.compile(r"(alloc|alloc_zeroed|dealloc|realloc|__r[a-z]*_\w+)$")
def first_caller(stack):
    for path, a in stack[1:]:
        if path == exe:
            own = [shown(*f) for f in inlined.get(a, [])[:-1] if "/library/" not in f[1] and not SHIMS.match(short(f[0]))]
            return own[0] if own else physical(path, a)
    return "(frame-pointer chain lost before the binary)"

self_inl, self_phys, incl = collections.Counter(), collections.Counter(), collections.Counter()
outside = collections.defaultdict(lambda: [0, 1 << 62, 0, collections.Counter()])   # count, offsets lo..hi, callers
for s in stacks:
    top = names(s[0])
    self_inl[top[0]] += 1
    self_phys[top[-1]] += 1
    incl.update({n for frame in s for n in names(frame)})
    path, a = s[0]
    if path not in (exe, "?"):
        symbol, off = nearest_export(path, a)
        row = outside[f"{os.path.basename(path)} {symbol}"]
        row[0], row[1], row[2] = row[0] + 1, min(row[1], off), max(row[2], off)
        row[3][first_caller(s)] += 1
total = len(stacks)
print(f"{total} samples over {len(files)} runs ({total / len(files):.0f} per run)")
for title, table in [("self time, by innermost (inlined) function", self_inl),
                     ("self time, by physical function", self_phys),
                     ("inclusive time (a function counts once per sample it is on the stack of)", incl)]:
    print(f"\n== {title} ==")
    # Every inclusive row at >= 0.5 % of the samples: a fixed row count cuts
    # at a share that moves with the number of runs.
    rows = [r for r in table.most_common() if 200 * r[1] >= total] if table is incl else table.most_common(30)
    for name, n in rows:
        print(f"{100 * n / total:6.2f} %  {n:6d}  {name}")
n_outside = sum(row[0] for row in outside.values())
print(f"\n== self time outside the benchmark binary ({100 * n_outside / total:.2f} %): nearest exported symbol at or "
      "below the address, offsets seen; beneath it the first callers inside the binary ==")
for name, (n, lo, hi, callers) in sorted(outside.items(), key=lambda kv: -kv[1][0])[:20]:
    print(f"{100 * n / total:6.2f} %  {n:6d}  {name}+{lo:#x}..{hi:#x}")
    for caller, k in callers.most_common(4):
        print(f"{'':18}{k:6d}  {caller}")
EOF
