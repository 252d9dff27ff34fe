//! The libraries ship only what is called. Every `pub fn` defined in
//! `crates/*/src` outside test code (the `e2ebench` binary aside) must have a
//! caller in non-test source — the crates, `src/` or `examples/` — or a line
//! in [`KEPT`] saying which tests need it. A caller is any other occurrence of
//! the name as a word in code: comments, string literals, `#[cfg(test)]` items
//! and `#[cfg(test)] mod x;` files do not count, and neither does a
//! definition `fn name`. So a new uncalled function fails here, and so does a
//! kept one that gains a caller and is still listed.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions only tests call, keyed `crate::name`, each with the tests
/// that need it.
#[rustfmt::skip]
const KEPT: &[(&str, &str)] = &[
    ("openflow::check_seed", "table_diff replays seeds of the naive-vs-indexed differential"),
    ("edgectl::journal_rebuild_digest", "journal_oracle, recovery_props and transcript compare a rebuilt state"),
    ("edgectl::state_digest", "journal_oracle, recovery_props and transcript digest the live state"),
    ("k8ssim::store_stats", "reconcile_props bounds the object store"),
    ("k8ssim::live_pods", "reconcile_props and the full-recompute oracle count pods"),
    ("k8ssim::ready_endpoints", "reconcile_props and the full-recompute oracle read endpoints"),
    ("k8ssim::has_deployment", "reconcile_props and the full-recompute oracle check Deployments"),
    ("k8ssim::worker_mut", "multinode pre-pulls images onto one worker"),
    ("netsim::from_bytes", "the pcap and C3 harness tests read a capture back"),
    ("netsim::record_frame", "the pcap tests build a capture"),
    ("netsim::write_to", "the pcap tests write a capture to disk"),
    ("netsim::path_latency", "the topology tests and wire_props price paths"),
    ("netsim::port_toward", "the topology tests check next hops"),
    ("netsim::rewrite_dst", "the frame tests and wire_props rewrite a destination"),
    ("edgectl::engine_mut", "the cluster tests reach the Docker engine to inject faults"),
    ("registry::insert_image", "the layer-cache tests seed a cache"),
    ("mobility::round_robin", "the harness and frame_allocs tests place clients on gNBs"),
    ("ovs::buffered", "switch_props, work_ledger, frame_allocs and end_to_end check buffer slots drain"),
    ("desim::schedule_now", "the engine and calendar tests schedule same-instant events"),
    ("edgectl::bootstrap", "the controller tests check the switch bootstrap messages"),
    ("edgectl::request_flow_stats", "the controller tests poll flow statistics"),
    ("edgectl::feed", "the predictor tests feed the oracle predictor"),
    ("edgectl::flows_removed", "journal_oracle, transcript, work_ledger and frame_allocs count FLOW_REMOVEDs"),
    ("telemetry::histogram", "the metrics, controller, harness and frame_allocs tests read one histogram"),
];

#[test]
fn every_public_function_has_a_caller_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .collect();
    crates.sort();

    let mut defined: BTreeSet<String> = BTreeSet::new();
    let mut calls: BTreeMap<String, usize> = BTreeMap::new();
    for dir in crates
        .iter()
        .map(|c| c.join("src"))
        .chain([root.join("src"), root.join("examples")])
    {
        let library =
            dir.starts_with(root.join("crates")) && !dir.starts_with(root.join("crates/e2ebench"));
        let krate = dir
            .parent()
            .and_then(Path::file_name)
            .and_then(|n| n.to_str())
            .unwrap_or("");
        for code in non_test_code(&dir) {
            let tokens = tokens(&code);
            for (i, t) in tokens.iter().enumerate() {
                if i > 0 && tokens[i - 1] == "fn" {
                    continue;
                }
                if t.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                    *calls.entry(t.to_string()).or_default() += 1;
                }
            }
            if library {
                defined.extend(public_fns(&tokens).map(|name| format!("{krate}::{name}")));
            }
        }
    }

    let uncalled: BTreeSet<&str> = defined
        .iter()
        .filter(|key| !calls.contains_key(key.rsplit("::").next().unwrap_or(key)))
        .map(String::as_str)
        .collect();
    let kept: BTreeSet<&str> = KEPT.iter().map(|(key, _)| *key).collect();
    let new: Vec<_> = uncalled.difference(&kept).collect();
    let stale: Vec<_> = kept.difference(&uncalled).collect();
    assert!(
        new.is_empty() && stale.is_empty(),
        "public functions nothing outside tests calls, not in KEPT (delete them, or add a reason): {new:?}\n\
         KEPT entries that are gone or now have a caller (drop them from KEPT): {stale:?}"
    );
}

/// Each `.rs` file under `dir`, with comments, literals and test code blanked.
fn non_test_code(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    let stripped: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let src = fs::read_to_string(&f).expect("source file is readable");
            (f, strip_literals(&src))
        })
        .collect();
    // `#[cfg(test)] mod name;` makes `name.rs` (and anything under `name/`) test code.
    let mut test_files: Vec<PathBuf> = Vec::new();
    for (file, code) in &stripped {
        let mut rest = code.as_str();
        while let Some(at) = rest.find("#[cfg(test)]") {
            rest = &rest[at + "#[cfg(test)]".len()..];
            let t = tokens_of(rest, 3);
            if t.len() == 3 && t[0] == "mod" && t[2] == ";" {
                let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                let parent = file.parent().expect("file has a directory");
                let base = if matches!(stem, "lib" | "main" | "mod") {
                    parent.to_path_buf()
                } else {
                    parent.join(stem)
                };
                test_files.push(base.join(format!("{}.rs", t[1])));
                test_files.push(base.join(t[1]));
            }
        }
    }
    stripped
        .into_iter()
        .filter(|(f, _)| !test_files.iter().any(|t| f == t || f.starts_with(t)))
        .map(|(_, code)| blank_test_items(&code))
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Names defined `pub fn` (optionally `const`, `unsafe` or `async`); `pub(crate)` is not public.
fn public_fns<'a>(tokens: &'a [&'a str]) -> impl Iterator<Item = &'a str> + 'a {
    (0..tokens.len()).filter_map(move |i| {
        if tokens[i] != "pub" {
            return None;
        }
        let mut k = i + 1;
        while matches!(tokens.get(k), Some(&("const" | "unsafe" | "async"))) {
            k += 1;
        }
        (tokens.get(k) == Some(&"fn"))
            .then(|| tokens.get(k + 1).copied())
            .flatten()
    })
}

/// Words and single punctuation characters.
fn tokens(code: &str) -> Vec<&str> {
    tokens_of(code, usize::MAX)
}

fn tokens_of(code: &str, limit: usize) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut rest = code.trim_start();
    while !rest.is_empty() && out.len() < limit {
        let len = match rest.find(|c: char| !word(c)) {
            Some(0) => rest.chars().next().map_or(1, char::len_utf8),
            Some(n) => n,
            None => rest.len(),
        };
        out.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    out
}

/// Blanks comments, string literals and char literals, keeping newlines, so
/// that what remains is code.
fn strip_literals(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let blank = |out: &mut String, s: &str| {
        out.extend(s.chars().map(|c| if c == '\n' { '\n' } else { ' ' }))
    };
    let mut i = 0;
    while i < b.len() {
        let ident_before = out
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let rest = &src[i..];
        let end = if rest.starts_with("//") {
            rest.find('\n').unwrap_or(rest.len())
        } else if rest.starts_with("/*") {
            rest.find("*/").map_or(rest.len(), |e| e + 2)
        } else if !ident_before
            && ["b\"", "b'", "br\"", "br#"]
                .iter()
                .any(|p| rest.starts_with(p))
        {
            1
        } else if !ident_before
            && rest.starts_with('r')
            && rest[1..].trim_start_matches('#').starts_with('"')
        {
            let hashes = rest[1..].len() - rest[1..].trim_start_matches('#').len();
            let close = format!("\"{}", "#".repeat(hashes));
            let body = 2 + hashes;
            rest[body..]
                .find(&close)
                .map_or(rest.len(), |e| body + e + close.len())
        } else if rest.starts_with('"') {
            let mut k = 1;
            while k < rest.len() && b[i + k] != b'"' {
                k += if b[i + k] == b'\\' { 2 } else { 1 };
            }
            (k + 1).min(rest.len())
        } else if let Some(quoted) = rest.strip_prefix('\'') {
            let mut chars = quoted.chars();
            match (chars.next(), chars.next()) {
                (Some('\\'), _) => rest[3..].find('\'').map_or(rest.len(), |e| 3 + e + 1),
                (Some(c), Some('\'')) => 1 + c.len_utf8() + 1,
                _ => 0, // a lifetime
            }
        } else {
            0
        };
        if end == 0 {
            let c = rest.chars().next().expect("non-empty");
            out.push(c);
            i += c.len_utf8();
        } else {
            blank(&mut out, &rest[..end]);
            i += end;
        }
    }
    out
}

/// Blanks each item, field or statement that follows `#[cfg(test)]`.
fn blank_test_items(code: &str) -> String {
    let mut out = code.to_string();
    let mut from = 0;
    while let Some(at) = out[from..].find("#[cfg(test)]").map(|a| from + a) {
        let b = out.as_bytes();
        let (mut depth, mut angle, mut k) = (0i32, 0i32, at + "#[cfg(test)]".len());
        while k < b.len() {
            match b[k] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' if depth == 0 => break,
                b'}' if depth == 1 => {
                    k += 1;
                    break;
                }
                b'}' | b')' | b']' => depth -= 1,
                b'<' => angle += 1,
                b'>' if !matches!(b[k - 1], b'-' | b'=') => angle -= 1,
                b';' if depth == 0 => {
                    k += 1;
                    break;
                }
                b',' if depth == 0 && angle <= 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let blanked: String = out[at..k]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        out.replace_range(at..k, &blanked);
        from = at + blanked.len();
    }
    out
}
