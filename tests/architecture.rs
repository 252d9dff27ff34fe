//! The layout rules that keep the control path small, over the tree's raw
//! text. A rule scopes files, cuts each, picks lines and checks them: a line
//! limit, a pinned count (an anchor is a pin at one) or forbidden needles.
//! Each needle has a fixture the rule must reject, and each limit passes at its
//! value and fails one past it. A new rule goes here, not into CI.
//!
//! A needle is literal, but a space is any run of blanks or none, `…` any
//! text, `\b` a word boundary, `^` and `$` at its ends the line's ends, and
//! a leading `(?i)` ignores case.

mod support;

use std::{borrow::Cow, fs, path::Path, sync::OnceLock};
use support::{files, strip_literals};
use {Check::*, Cut::*, Pick::*};

/// The controller family may shrink; it may not quietly regrow.
const CONTROLLER_FAMILY: usize = 2833;
/// controller.rs is the request path; a new subsystem goes in a child module.
const CONTROLLER_RS: usize = 1245;
/// dispatch.rs decides where a request goes.
const DISPATCH_RS: usize = 757;
/// Four build a redirect or pick a phase; the fifth is `Dispatcher::serving`.
const READY_MENTIONS: usize = 5;
/// A value is settable only when two runs outside the tests set it differently.
const KNOBS: usize = 41;
/// One event loop for both testbeds.
const HARNESS: usize = 1843;
/// Scenario to gated artifact, each value written once.
const BENCH_PIPELINE: usize = 3237;
/// One `enum Ev` and one `fn handle(`: the loop does not fork.
const EVENT_LOOPS: usize = 2;
/// One heap of copies (the wheel it replaced was 278 lines).
const TIMERS_RS: usize = 100;
/// Two rings in one block arena.
const CALENDAR_RS: usize = 419;
/// The switch reaches its indexed table through lookup alone.
const SWITCH_AND_TABLE: usize = 923;
/// The message types a run sends.
const MESSAGE_TYPES: usize = 8;
/// Add and Delete.
const FLOW_MOD_COMMANDS: usize = 2;
/// What changed, the archetype, the claim and where the evidence is.
const ENTRY_BYTES: usize = 600;

const CONTROLLER: &[&str] =
    &["crates/edgectl/src/controller.rs", "crates/edgectl/src/controller/*.rs", "crates/edgectl/src/dispatch.rs"];
const EDGECTL: &[&str] = &["crates/edgectl/src/*.rs", "crates/edgectl/src/controller/*.rs"];
const K8SSIM: &[&str] = &["crates/k8ssim/src/*.rs"];
const TIMERS: &[&str] = &["crates/desim/src/timers.rs"];
const CALENDAR: &[&str] = &["crates/desim/src/calendar.rs"];

/// The part of each file a rule reads.
#[derive(Clone, Copy)]
enum Cut {
    /// Up to the first column-0 `#[cfg(test)]`; each item after it needs its own.
    Lib,
    /// Up to the first line starting with this.
    Until(&'static str),
    Whole,
}

/// The lines a rule judges, its files in path order.
#[derive(Clone, Copy)]
enum Pick {
    All,
    /// From each line holding the needle through a column-0 `}`; one must exist.
    Block(&'static str),
    /// From each line holding the needle through one holding `{`, joined; one must exist.
    Sig(&'static str),
    /// The `pub` fields of these structs (each must exist) typed none of them.
    Fields(&'static [&'static str]),
    /// Each CI step holding a needle, as one line.
    Steps(&'static [&'static str]),
}

/// A needle and a fixture line holding it.
type Fix = (&'static str, &'static str);

#[derive(Clone, Copy, Debug)]
enum Check {
    /// At most this many lines.
    Lines(usize),
    /// Exactly this many lines hold a needle.
    Pinned(&'static [Fix], usize),
    /// No line holds a needle, unless it holds one of the second list.
    Forbid(&'static [Fix], &'static [&'static str]),
    /// No line is longer than this many bytes.
    Width(usize),
}

/// Files (`*` a name or part of one, `**` any directories, a directory all
/// below it, `!` an exclusion), cut, pick and check.
type Rule = (&'static [&'static str], Cut, Pick, Check);

macro_rules! groups {
    ($($test:ident $cites:literal [$($rule:expr,)*])*) => {$(
        #[test]
        fn $test() {
            holds(stringify!($test), $cites, &[$($rule),*]);
        }
    )*};
}

groups! {
    controller_ratchet "DESIGN.md \"Controller map\"" [
        (CONTROLLER, Lib, All, Lines(CONTROLLER_FAMILY)),
        (&CONTROLLER[..1], Lib, All, Lines(CONTROLLER_RS)),
        (&CONTROLLER[2..], Lib, All, Lines(DISPATCH_RS)),
        (CONTROLLER, Lib, All, Pinned(&[("InstanceState::Ready", "InstanceState::Ready => 1,")], READY_MENTIONS)),
    ]
    one_way_out "DESIGN.md \"Frame lifecycle\"" [
        (&["**/*.rs"], Whole, All, Forbid(&[("recycle_messages", "c.recycle_messages(o);")], &[])),
        (&CONTROLLER[..2], Lib, Sig("^ pub fn "), Forbid(&[("->…OutboundMessage", "pub fn f() -> Vec<(u8, OutboundMessage)> {")],
            &["fn handle_switch_message_from(", "fn handle_attachment_change("])),
    ]
    knob_ratchet "DESIGN.md \"Configuration\"" [
        (&["crates/*/src/*.rs", "crates/*/src/*/*.rs"], Whole, Fields(&["ControllerConfig", "MigrationConfig",
            "JournalConfig", "FaultPlan", "TestbedConfig", "MobilityConfig", "SwitchConfig"]), Lines(KNOBS)),
    ]
    no_deep_service_copies "DESIGN.md \"Control-channel encoding\"" [
        (EDGECTL, Lib, All, Forbid(&[("services.get(…).clone()", "services.get(a).clone()"),
            ("services.get(…)?.clone()", "services.get(a)?.clone()"), ("services.get(…).cloned()", "services.get(a).cloned()"),
            ("services.get(…)?.cloned()", "services.get(a)?.cloned()"), ("services.iter().cloned()", "services.iter().cloned()")], &[])),
        (&["crates/edgectl/src/scheduler.rs"], Whole, Block("^pub struct ClusterView"),
            Forbid(&[(": String", "name:String,"), (r"\bload:", "load: u32,")], &[])),
        (&["crates/edgectl/src/cluster.rs"], Lib, All, Forbid(&[("BTreeMap<String, DockerEntry>", "m: BTreeMap<String, DockerEntry>,"),
            ("BTreeMap<String, K8sEntry>", "m: BTreeMap<String,K8sEntry>,")], &[])),
    ]
    spans_off_by_type "DESIGN.md \"Observability\"" [
        (&["crates/telemetry/src"], Whole, All, Forbid(&[(": Option<SpanLog>", "l: Option<SpanLog>,"), (r"fn enabled\b", "fn enabled() {}")], &[])),
        (&["crates/testbed/src"], Whole, All, Forbid(&[("pub telemetry: bool", "pub telemetry: bool,")], &[])),
    ]
    no_tombstones "DESIGN.md \"A pair lives exactly as long as its forward flow\"" [
        (&["crates/edgectl/src"], Whole, All, Forbid(&[("dead: bool", "dead: bool,"), ("PairDead", "PairDead(u64),")], &[])),
    ]
    k8ssim_by_handle "DESIGN.md \"The k8ssim object store\"" [
        (K8SSIM, Until("mod tests {"), Block("enum Work {"), Forbid(&[("String", "Scale(String),")], &[])),
        (K8SSIM, Until("mod tests {"), Block("enum ClusterEvent {"), Forbid(&[("String", "Ready { pod: String },")], &[])),
        (K8SSIM, Until("mod tests {"), Sig("fn settle("), Forbid(&[(") -> Vec", "fn settle(\n    &mut self,\n)->Vec<Ev> {")], &[])),
        (&["crates/registry/src/*.rs"], Until("mod tests {"), Block("^pub struct RegistryProfile"),
            Forbid(&[(": String", "host: String,")], &[])),
    ]
    a_pair_is_its_spec "DESIGN.md \"The rule table\"" [
        (&["crates/edgectl/src/rules.rs"], Whole, Block("^pub(crate) struct InstalledPair {"),
            Forbid(&[(r"\bInstalledFlow\b", "f: [InstalledFlow; 2],"), (r"\bMatch\b", "m: Option<Match>,"), (r"\bActions\b", "a: Actions,")], &[])),
    ]
    a_record_is_its_key "DESIGN.md \"The request log\" and \"Timer heap\"" [
        (&["crates/edgectl/src/requests.rs"], Whole, Block("^pub struct RequestRecord {"), Forbid(&[(r"\bPhaseTimes\b", "p: PhaseTimes,"),
            ("Option<usize>", "c: Option<usize>,"), ("Option<SimTime>", "t: Option<SimTime>,")], &[])),
        (TIMERS, Until("mod tests {"), All, Pinned(&[("fn expired_into", "fn expired_into() {}")], 1)),
        (TIMERS, Until("mod tests {"), All,
            Forbid(&[(r"\bFastMap\b", "m: FastMap<u64, u64>,"), (r"\bHashMap\b", "use std::collections::HashMap;")], &[])),
    ]
    one_timer_structure "DESIGN.md \"Timer heap\"" [
        (&["crates/desim/src"], Whole, All, Forbid(&[("TimerWheel", "TimerWheel"), ("occup…: [u64; LEVELS", "occupied: [u64;LEVELS],"),
            (r"\bconst LEVELS\b", "const LEVELS: u8 = 4;"), (r"\bconst SLOTS\b", "const SLOTS: u8 = 64;"),
            (r"\bconst SLOT_BITS\b", "const SLOT_BITS: u8 = 6;"), (r"\bconst TICK_BITS\b", "const TICK_BITS: u8 = 9;"),
            ("slot_min", "slot_min")], &[])),
        (TIMERS, Lib, All, Lines(TIMERS_RS)),
    ]
    one_event_store "DESIGN.md \"Engine internals\"" [
        (CALENDAR, Lib, All, Pinned(&[("fn unlink_all", "fn unlink_all() {}")], 1)),
        (CALENDAR, Lib, All, Forbid(&[("(?i)Vec<Vec<", "Vec<Vec<u64>>"), ("(?i)overlay", "OverlayHeap")], &[])),
        (CALENDAR, Lib, All, Lines(CALENDAR_RS)),
    ]
    seedless_controller_maps "crates/desim/src/hash.rs" [
        (EDGECTL, Lib, All, Forbid(&[(r"\bHashMap\b", "use std::collections::{BTreeMap, HashMap};")],
            &["^use std::collections::HashMap;$", "^    pub cluster_ports: HashMap<String, u32>,$"])),
    ]
    harness_ratchet "DESIGN.md \"The harness\"" [
        (&["crates/testbed/src/harness.rs", "crates/testbed/src/harness/*.rs"], Lib, All, Lines(HARNESS)),
        (&["crates/testbed/src/harness.rs"], Until("mod tests"), All, Forbid(&[(r"\bscan(", "scan(c, ip, port)")], &[])),
        (&["crates/testbed/src"], Whole, All,
            Pinned(&[(r"^ enum Ev\b", "enum Ev {"), (r"^ pub enum Ev\b", "pub enum Ev {"), ("^ fn handle(", "  fn handle() {}")], EVENT_LOOPS)),
        (&["crates/testbed/src/harness.rs", "crates/testbed/src/harness/*.rs", "crates/bench/src/*.rs", "crates/bench/src/bin/*.rs"],
            Until("mod tests"), All, Forbid(&[(".handle_frame(", "s.handle_frame(p, f)"), (".handle_controller(", "s.handle_controller(m)"),
                (".expire_flows(", "s.expire_flows(t)"), (".handle_switch_message_from(", "c.handle_switch_message_from(m)"),
                (".handle_attachment_change(", "c.handle_attachment_change(g)")], &[])),
    ]
    bench_pipeline_ratchet "ROADMAP item 7" [
        (&["crates/bench/src/*.rs", "crates/bench/src/bin/repro.rs", "crates/testbed/src/experiments.rs"], Lib, All, Lines(BENCH_PIPELINE)),
        (&["crates/bench/src"], Whole, All, Forbid(&[("fn render(&self", "fn render(&self) {}"), ("struct Report", "struct Report;"),
            ("TRAJECTORY", "TRAJECTORY"), ("perf_trajectory", "perf_trajectory()"), ("_at_largest", "p99_at_largest: 0"),
            ("\"gate_", "\"gate_p99\""), ("\"total_", "\"total_requests\"")], &[])),
        (&["crates/telemetry/src", "crates/desim/src/stats.rs"], Whole, All,
            Forbid(&[(r"fn absorb\b", "fn absorb(&mut self) {}"), (r"fn merge\b", "fn merge(&mut self) {}")], &[])),
    ]
    one_driver "ROADMAP item 5" [
        (&["crates/bench/src/*.rs", "crates/bench/src/bin/*.rs", "!crates/bench/src/scale.rs"], Whole, All,
            Forbid(&[("handle_switch_message", "c.handle_switch_message_into(m, o);"), ("autoscale_sweep", "c.autoscale_sweep(t);"),
                ("Controller::new", "Controller::new(s, p, c)")], &[])),
        (EDGECTL, Lib, All, Forbid(&[("PredictiveScheduler", "PredictiveScheduler"), ("\"predictive\"", "\"predictive\" => 1,")], &[])),
    ]
    no_probe_ships "DESIGN.md \"Crate surface\"" [
        (&["crates/*/src"], Whole, All, Forbid(&[("REACH_PROBE", "REACH_PROBE(7);")], &[])),
    ]
    no_oracle_ships "ROADMAP items 7 and 17 (b)" [
        (&["crates/*/src"], Whole, All, Forbid(&[("NaiveFlowTable", "NaiveFlowTable"), ("check_seed", "check_seed()"),
            (r"pub mod naive\b", "pub mod naive;"), (r"pub mod diff\b", "pub mod diff {")], &[])),
        (&["crates/bench/src"], Whole, All, Forbid(&[("speedup", "let speedup = a / b;")], &[])),
    ]
    one_timing_loop "ROADMAP item 8" [
        (&["**/Cargo.toml", "**/Cargo.lock"], Whole, All, Forbid(&[("criterion", "criterion = 1"), ("^[[bench]]", "[[bench]]")], &[])),
        (&["**/*.rs", "!crates/bench/src/runner.rs"], Whole, All, Forbid(&[("artifact::write(", "artifact::write(&p, &d)?;")], &[])),
        (&["crates", "scripts"], Whole, All, Forbid(&[("BENCH_flowtable", "\"BENCH_flowtable.json\"")], &[])),
    ]
    one_classifier "DESIGN.md \"Why there is no flow cache\"" [
        (&["crates/ovs/src/switch.rs", "crates/openflow/src/table.rs"], Lib, All, Lines(SWITCH_AND_TABLE)),
        (&["crates/ovs/src", "crates/openflow/src"], Whole, All, Forbid(&[("FastMap<MatchView", "FastMap<MatchView, u32>"),
            ("fn revision", "fn revision()"), ("residual", "residual"), ("Vec<OxmField>", "Vec<OxmField>"),
            ("enum Instruction", "enum Instruction {"), ("ShapeKey", "ShapeKey"), ("rest: Vec<FlowId>", "rest: Vec<FlowId>,")], &[])),
        (&["crates/openflow/src", "crates/ovs/src", "crates/edgectl/src"], Whole, All, Forbid(&[("Vec<Action>", "a: Vec<Action>,")], &[])),
    ]
    one_vocabulary "DESIGN.md \"Control-channel vocabulary\"" [
        (&["crates/openflow/src/messages.rs"], Whole, All, Pinned(&[("^const T_…: u8 = …;", "const T_ECHO: u8 = 2;")], MESSAGE_TYPES)),
        (&["crates/openflow/src/messages.rs"], Whole, Block("^pub enum FlowModCommand"), Pinned(&[(",$", "    Modify,")], FLOW_MOD_COMMANDS)),
        (&["crates/openflow/src/table.rs"], Whole, All, Forbid(&[("hard_timeout", "hard_timeout: u16,")], &[])),
    ]
    one_line_per_pr "ROADMAP item 6" [
        (&["CHANGES.md"], Whole, All, Width(ENTRY_BYTES)),
    ]
    guards_stay_in_one_place "ROADMAP item 27" [
        (&[".github/workflows/ci.yml"], Whole, Steps(&[r"\bgrep\b", r"\bawk\b"]), Forbid(&[
            (r"\bcrates\b", "- name: no probe ships\n  run: grep -rn REACH_PROBE crates"), (r"\bsrc\b", "- run: |\n    awk '/x/' src/lib.rs"),
            (r"\btests\b", "- run: grep -c fn tests/t.rs"), (r"\bscripts\b", "- run: grep -q x scripts/a.sh")], &[])),
    ]
}

/// Runs each rule on the tree and on its fixtures.
fn holds(test: &str, cites: &str, rules: &[Rule]) {
    let faults: Vec<_> = rules.iter().flat_map(|r| [violations(r, tree()), fixture_faults(r)]).flatten().collect();
    assert!(faults.is_empty(), "{test} ({cites}):\n{}", faults.join("\n"));
}

/// The tree's files by relative path, but this one, which states the needles.
fn tree() -> &'static [(String, String)] {
    static TREE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths = Vec::new();
        files(root, &|p| !p.ends_with("tests/architecture.rs"), &mut paths);
        paths.iter().filter_map(|p| Some((p.strip_prefix(root).ok()?.to_str()?.into(), fs::read_to_string(p).ok()?))).collect()
    })
}

/// What `rule` finds wrong in `tree`, one message per fault.
fn violations(rule: &Rule, tree: &[(String, String)]) -> Vec<String> {
    let lines = match picked(rule, tree) {
        Ok(lines) => lines,
        Err(e) => return vec![e],
    };
    let holds_one = |fixes: &[Fix], l: &Line| fixes.iter().any(|(n, _)| hold(&l.2, n));
    let count = |fixes: &[Fix]| lines.iter().filter(|l| holds_one(fixes, l)).count();
    let at = |(f, i, l): &Line| format!("{f}:{i}: {l}");
    let (k, ok) = match rule.3 {
        Lines(max) => (lines.len(), lines.len() <= max),
        Pinned(fixes, n) => (count(fixes), count(fixes) == n),
        Forbid(fixes, but) => {
            return lines.iter().filter(|l| holds_one(fixes, l) && !but.iter().any(|n| hold(&l.2, n))).map(at).collect()
        }
        Width(max) => return lines.iter().filter(|l| l.2.len() > max).map(at).collect(),
    };
    if ok { vec![] } else { vec![format!("{:?}: {k} lines for {:?}", rule.0, rule.3)] }
}

/// The faults in `rule`'s fixtures: a needle its fixture misses, a fixture
/// the rule passes, or a limit that is not exactly where it says.
fn fixture_faults(rule: &Rule) -> Vec<String> {
    let path = rule.0[0].replace("**/", "").replace('*', "x");
    let path = if path.contains('.') { path } else { path + "/x.rs" };
    let passes = |body: &String| {
        let file = match rule.2 {
            Block(start) => format!("{}\n{body}\n}}\n", start.trim_start_matches('^')),
            Fields(all) => all.iter().map(|s| format!("pub struct {s} {{\n{}}}\n", [body, ""][(s != &all[0]) as usize])).collect(),
            _ => body.clone(),
        };
        violations(rule, &[(path.clone(), file)]).is_empty()
    };
    let times = |line: &str, n: usize| format!("{line}\n").repeat(n);
    // A field the rule counts in each shape it can take.
    let fields: &[&str] = &["    pub f: u8,", "    pub(crate) f: u8,", "    pub(super) f: u8,", "    pub(in crate::a) f: u8,", "    pub f:\n        Option<u8>,"];
    let fillers = if let Fields(_) = rule.2 { fields } else { &["fn f() {}"] };
    let (pass, fail): (Vec<String>, Vec<String>) = match rule.3 {
        Lines(n) => fillers.iter().fold((vec![], vec![]), |(mut pass, mut fail), filler| {
            let tests = times(filler, n) + "#[cfg(test)]\nfn t() {}\n";
            let late = [times(filler, n + 1), tests.clone() + "fn shipped() {}\n"];
            fail.extend_from_slice(&late[..1 + matches!(rule.1, Lib) as usize]);
            pass.push(tests);
            (pass, fail)
        }),
        Width(n) => (vec!["x".repeat(n)], vec!["x".repeat(n + 1)]),
        Pinned(fixes, n) => (fixes.iter().map(|f| times(f.1, n)).collect(), fixes.iter().flat_map(|f| [times(f.1, n + 1), times(f.1, n - 1)]).collect()),
        Forbid(fixes, _) => (vec![], fixes.iter().map(|f| f.1.into()).collect()),
    };
    let mut faults: Vec<_> = pass.iter().filter(|b| !passes(b)).map(|b| format!("{:?} rejects {b:?}", rule.0)).collect();
    faults.extend(fail.iter().filter(|b| passes(b)).map(|b| format!("{:?} passes {b:?}", rule.0)));
    if let Pinned(fixes, _) | Forbid(fixes, _) = rule.3 {
        faults.extend(fixes.iter().filter(|(n, f)| !hold(&f.replace('\n', " "), n)).map(|f| format!("{f:?} misses")));
    }
    faults
}

/// A file, a line number there and the line.
type Line<'a> = (&'a str, usize, Cow<'a, str>);

/// The lines `rule` judges in `tree`.
fn picked<'a>(&(files, cut, pick, _): &Rule, tree: &'a [(String, String)]) -> Result<Vec<Line<'a>>, String> {
    let covers = |f: &str, path: &str| covers(&f.split('/').collect::<Vec<_>>(), &path.split('/').collect::<Vec<_>>());
    let mut lines: Vec<Line> = Vec::new();
    for (path, text) in tree {
        if files.iter().any(|f| covers(f, path)) && !files.iter().any(|f| f.strip_prefix('!').is_some_and(|f| covers(f, path))) {
            let n = match cut {
                Lib => shipped(path, text)?,
                Until(marker) => text.lines().position(|l| l.starts_with(marker)).unwrap_or(usize::MAX),
                Whole => usize::MAX,
            };
            lines.extend(text.lines().take(n).enumerate().map(|(i, l)| (path.as_str(), i + 1, Cow::Borrowed(l))));
        }
    }
    let block = |start: &str| {
        let mut open = false;
        let keep = |l: &&Line| (open || hold(&l.2, start)) && { open = !(open && l.2.starts_with('}')); true };
        let block: Vec<Line> = lines.iter().filter(keep).cloned().collect();
        if block.is_empty() { Err(format!("{files:?}: no {start:?}")) } else { Ok(block) }
    };
    // Lines a..b as one.
    let join = |a: usize, b: usize| (lines[a].0, lines[a].1, Cow::Owned(lines[a..b].iter().map(|l| &*l.2).collect::<Vec<_>>().join(" ")));
    Ok(match pick {
        All => lines.clone(),
        Block(start) => block(start)?,
        Fields(all) => {
            let blocks: Result<Vec<_>, _> = all.iter().map(|s| block(&format!("^pub struct {s} {{"))).collect();
            let fields = blocks?.concat();
            // Line `k`'s field name and type (read on the next line when it
            // wraps), under any `pub` visibility.
            let field = |k: usize| {
                let vis = fields[k].2.strip_prefix("    pub")?;
                let (name, ty) = vis.strip_prefix(' ').or(vis.strip_prefix('(').and_then(|v| Some(v.split_once(") ")?.1)))?.split_once(':')?;
                Some((name, if ty.trim().is_empty() { &*fields.get(k + 1)?.2 } else { ty }))
            };
            let knob = |k: &usize| {
                field(*k).is_some_and(|(name, ty)| {
                    name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                        && !all.contains(&ty.trim_end().trim_end_matches(',').trim())
                })
            };
            (0..fields.len()).filter(knob).map(|k| fields[k].clone()).collect()
        }
        Sig(start) => {
            let end = |k: usize| lines[k..].iter().position(|l| l.2.contains('{')).map_or(lines.len(), |e| k + e + 1);
            let sigs: Vec<_> = (0..lines.len()).filter(|&k| hold(&lines[k].2, start)).map(|k| join(k, end(k))).collect();
            if sigs.is_empty() { Err(format!("{files:?}: no {start:?}"))? } else { sigs }
        }
        Steps(needles) => {
            let heads = (0..lines.len()).filter(|&k| k == 0 || lines[k].2.trim_start().starts_with("- "));
            let heads: Vec<usize> = heads.chain([lines.len()]).collect();
            heads.windows(2).map(|w| join(w[0], w[1])).filter(|s| needles.iter().any(|n| hold(&s.2, n))).collect()
        }
    })
}

/// Whether the path's components are under the pattern's.
fn covers(pattern: &[&str], path: &[&str]) -> bool {
    match (pattern.split_first(), path.split_first()) {
        (None, _) => true,
        (Some((&"**", rest)), _) => (0..path.len()).any(|k| covers(rest, &path[k..])),
        (Some((p, rest)), Some((name, tail))) => hold(name, &format!("^{}$", p.replace('*', "…"))) && covers(rest, tail),
        (Some(_), None) => false,
    }
}

/// The lines before `text`'s first column-0 `#[cfg(test)]`, its shipped code
/// when every item after that line has a `#[cfg(test)]` of its own.
fn shipped(path: &str, text: &str) -> Result<usize, String> {
    let code = strip_literals(text);
    let lines: Vec<&str> = code.lines().collect();
    let Some(first) = lines.iter().position(|l| l.starts_with("#[cfg(test)]")) else {
        return Ok(lines.len());
    };
    for i in (first..lines.len()).filter(|&i| lines[i].starts_with(char::is_alphabetic)) {
        let mut attrs = lines[..i].iter().rev().take_while(|l| l.starts_with("#[") || l.trim().is_empty());
        if !attrs.any(|l| l.starts_with("#[cfg(test)]")) {
            return Err(format!("{path}:{}: shipped code after the first #[cfg(test)]", i + 1));
        }
    }
    Ok(first)
}

/// Whether `line` holds `needle` (the module docs give the syntax).
fn hold(line: &str, needle: &str) -> bool {
    if let Some(needle) = needle.strip_prefix("(?i)") {
        return hold(&line.to_lowercase(), &needle.to_lowercase());
    }
    match (needle.strip_prefix('^'), needle.chars().next()) {
        (Some(needle), _) => matches_at(line, 0, needle),
        (_, Some(c)) if !"\\… ".contains(c) => line.match_indices(c).any(|(i, _)| matches_at(line, i, needle)),
        _ => (0..=line.len()).any(|i| line.is_char_boundary(i) && matches_at(line, i, needle)),
    }
}

/// Whether `needle` matches from `line[i..]` on.
fn matches_at(line: &str, i: usize, needle: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    if let Some(rest) = needle.strip_prefix(r"\b") {
        let before = line[..i].chars().next_back().is_some_and(word);
        return before != line[i..].starts_with(word) && matches_at(line, i, rest);
    }
    if let Some(rest) = needle.strip_prefix('…') {
        return (i..=line.len()).any(|j| line.is_char_boundary(j) && matches_at(line, j, rest));
    }
    match needle.chars().next() {
        None => true,
        Some('$') if needle.len() == 1 => i == line.len(),
        Some(' ') => matches_at(line, line.len() - line[i..].trim_start().len(), &needle[1..]),
        Some(c) => line[i..].starts_with(c) && matches_at(line, i + c.len_utf8(), &needle[c.len_utf8()..]),
    }
}
