//! The libraries ship only what is called, and only what crosses a crate
//! boundary is `pub`. Two word-match checks over `crates/*/src` (the
//! `e2ebench` binary aside) keep it so.
//!
//! 1. Every `pub fn` outside test code must have a caller in non-test source —
//!    the crates, `src/` or `examples/` — or a line in [`KEPT`] saying which
//!    tests need it. A caller is any other occurrence of the name as a word in
//!    code: comments, string literals, `#[cfg(test)]` items and
//!    `#[cfg(test)] mod x;` files do not count, and neither does a definition
//!    `fn name`. A function of an `impl` block that takes no `self` is called
//!    only where a path names it outside its own body: `Type::name`,
//!    `Type::<..>::name`, `Alias::name` for a `type Alias = Type<..>`, or
//!    `Self::name`. So a new uncalled function fails here, and so does a kept
//!    one that gains a caller and is still listed.
//! 2. Every `pub fn`, `pub const`, `pub static`, `pub` field and `pub use` name
//!    of a library must appear in code outside that library: another crate
//!    (test code included), the crate's own `src/bin/*`, `tests/*` or doc
//!    tests, the root package, `examples/` or `crates/e2ebench` (whose
//!    README lists the items the benchmark depends on). A struct built with
//!    `..base` out there names all of its fields. An item named only inside
//!    its own crate is `pub(crate)`, and for those rustc's `dead_code` lint
//!    judges whether anything calls them.
//!
//! A word match cannot tell two items with one name apart: a method or free
//! `pub fn` whose name another crate uses for something else (a field, a
//! method of another type, `u64::saturating_add`) passes both checks. The compiler sees those
//! only once the item is `pub(crate)`.

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use support::{blank_test_items, read_sources, rust_files, strip_literals, tokens, tokens_of};

/// Public functions only tests call, keyed `crate::name` (`crate::Type::name`
/// for one that takes no `self`), each with the tests that need it.
#[rustfmt::skip]
const KEPT: &[(&str, &str)] = &[
    ("edgectl::journal_rebuild_digest", "journal_oracle, recovery_props and transcript compare a rebuilt state"),
    ("edgectl::state_digest", "journal_oracle, recovery_props and transcript digest the live state"),
    ("k8ssim::store_stats", "reconcile_props bounds the object store"),
    ("k8ssim::live_pods", "reconcile_props and the full-recompute oracle count pods"),
    ("k8ssim::ready_endpoints", "reconcile_props and the full-recompute oracle read endpoints"),
    ("k8ssim::has_deployment", "reconcile_props and the full-recompute oracle check Deployments"),
    ("k8ssim::worker_mut", "multinode pre-pulls images onto one worker"),
    ("k8ssim::pod_name", "multinode and reconcile_props check pods by the name a handle renders"),
    ("netsim::rewrite_dst", "the frame tests and wire_props rewrite a destination"),
    ("desim::SimTime::from_millis", "tests across the workspace write instants in milliseconds"),
    ("telemetry::MetricsRegistry::new", "frame_allocs and e2ebench's tests build an empty registry"),
    ("ovs::buffered", "switch_props, work_ledger, frame_allocs and end_to_end check buffer slots drain"),
    ("telemetry::histogram", "the metrics, controller, harness and frame_allocs tests read one histogram"),
    ("edgectl::flows_removed", "journal_oracle, transcript, work_ledger and frame_allocs count FLOW_REMOVEDs"),
];

#[test]
fn every_public_function_has_a_caller_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .collect();
    crates.sort();
    let sources = crates
        .iter()
        .map(|c| c.join("src"))
        .chain([root.join("src"), root.join("examples")])
        .flat_map(|dir| read_sources(&dir))
        .collect();

    let uncalled = uncalled(root, sources);
    let kept: BTreeSet<String> = KEPT.iter().map(|(key, _)| key.to_string()).collect();
    let new: Vec<_> = uncalled.difference(&kept).collect();
    let stale: Vec<_> = kept.difference(&uncalled).collect();
    assert!(
        new.is_empty() && stale.is_empty(),
        "public functions nothing outside tests calls, not in KEPT (delete them, or add a reason): {new:?}\n\
         KEPT entries that are gone or now have a caller (drop them from KEPT): {stale:?}"
    );
}

#[test]
fn the_caller_check_wants_a_path_for_an_associated_function() {
    let root = Path::new("/fixture");
    let file = |path: &str, src: &str| (root.join(path), strip_literals(src));
    let library = file(
        "crates/alpha/src/lib.rs",
        "pub struct Thing<T = u8>(T);\n\
         pub type Bytes = Thing<u8>;\n\
         impl<T: Copy> Thing<T> {\n\
             pub fn only_tests() {}\n\
             pub fn only_itself(n: u32) { if n > 0 { Thing::only_itself(n - 1) } }\n\
             pub fn by_path() {}\n\
             pub fn by_turbofish() {}\n\
             pub fn by_alias() {}\n\
             pub fn by_self() {}\n\
             pub fn get(&self) -> T { Self::by_self(); self.0 }\n\
         }\n\
         pub fn free() {}\n\
         #[cfg(test)]\n\
         mod tests { fn t() { super::Thing::<u8>::only_tests(); } }\n",
    );
    // Each name is also a word here; only a path to the type is a call.
    let caller = file(
        "examples/demo.rs",
        "fn main() {\n\
             let (only_tests, only_itself) = (1, 2);\n\
             alpha::Thing::by_path();\n\
             alpha::Thing::<u8>::by_turbofish();\n\
             alpha::Bytes::by_alias();\n\
             alpha::Thing(1).get();\n\
             alpha::free();\n\
         }\n",
    );
    assert_eq!(
        uncalled(root, vec![library.clone(), caller]),
        BTreeSet::from([
            "alpha::Thing::only_itself".into(),
            "alpha::Thing::only_tests".into()
        ])
    );
    // Without the caller, a method and a free function are judged by their name
    // alone, and `by_self` still has `get`.
    let named = file("src/lib.rs", "fn f() { let (get, free) = (1, 2); }");
    let by = [
        "only_itself",
        "only_tests",
        "by_alias",
        "by_path",
        "by_turbofish",
    ];
    assert_eq!(
        uncalled(root, vec![library, named]),
        by.iter()
            .map(|name| format!("alpha::Thing::{name}"))
            .collect()
    );
}

/// The `pub fn`s of the libraries under `root/crates` (`e2ebench` aside) that
/// no code in `stripped` calls outside tests, keyed `crate::name`, or
/// `crate::Type::name` for a function of an `impl` block with no `self`
/// receiver. Such a function is called only where a path names it:
/// `Type::name`, `Type::<..>::name`, `Alias::name` for a `type Alias = Type<..>`,
/// or `Self::name`, outside the function's own body. Any other function is
/// called wherever its name is a word of code other than its definition.
fn uncalled(root: &Path, stripped: Vec<(PathBuf, String)>) -> BTreeSet<String> {
    let library = |file: &Path| -> Option<String> {
        match file
            .strip_prefix(root.join("crates"))
            .ok()?
            .iter()
            .next()?
            .to_str()?
        {
            "e2ebench" => None,
            krate => Some(krate.to_string()),
        }
    };
    let code = non_test_code(stripped);
    let files: Vec<_> = code
        .iter()
        .map(|(f, c)| {
            let tokens = tokens(c);
            let impls = impl_blocks(&tokens);
            (f.as_path(), tokens, impls)
        })
        .collect();

    let mut aliases: BTreeMap<&str, &str> = BTreeMap::new();
    for (_, tokens, impls) in &files {
        // An associated type (`type Target = [Action];`) is no alias of a path's type.
        aliases.extend(
            type_aliases(tokens)
                .into_iter()
                .filter(|&(i, _, _)| enclosing(impls, i).is_none())
                .map(|(_, alias, ty)| (alias, ty)),
        );
    }
    let mut words: BTreeSet<&str> = BTreeSet::new();
    // Each `(Type, name)` path, with the file and token index it is at.
    let mut paths: BTreeMap<(&str, &str), Vec<(&Path, usize)>> = BTreeMap::new();
    for (file, tokens, impls) in &files {
        for (i, t) in tokens.iter().enumerate() {
            if t.starts_with(|c: char| c.is_alphabetic() || c == '_')
                && (i == 0 || tokens[i - 1] != "fn")
            {
                words.insert(t);
            }
            let Some(mut ty) = path_type(tokens, i) else {
                continue;
            };
            if ty == "Self" {
                match enclosing(impls, i) {
                    Some(own) => ty = own,
                    None => continue,
                }
            }
            let ty = aliases.get(ty).copied().unwrap_or(ty);
            paths.entry((ty, t)).or_default().push((file, i));
        }
    }

    let mut out = BTreeSet::new();
    for (file, tokens, impls) in &files {
        let Some(krate) = library(file) else {
            continue;
        };
        for (at, name) in public_fn_sites(tokens) {
            let ty = enclosing(impls, at).filter(|_| !has_receiver(tokens, at));
            let called = match ty {
                None => words.contains(name),
                Some(ty) => {
                    let body = item_span(tokens, at);
                    paths.get(&(ty, name)).is_some_and(|sites| {
                        sites.iter().any(|&(f, i)| f != *file || !body.contains(&i))
                    })
                }
            };
            if !called {
                out.insert(match ty {
                    None => format!("{krate}::{name}"),
                    Some(ty) => format!("{krate}::{ty}::{name}"),
                });
            }
        }
    }
    out
}

/// The index of each `type Alias = Type<..>;`, with the alias and the type it
/// names (the last word of its path).
fn type_aliases<'a>(tokens: &[&'a str]) -> Vec<(usize, &'a str, &'a str)> {
    let mut out = Vec::new();
    for i in (0..tokens.len()).filter(|&i| tokens[i] == "type") {
        let Some(&alias) = tokens.get(i + 1) else {
            continue;
        };
        let mut k = i + 2;
        if tokens.get(k) == Some(&"<") {
            k = close_angle(tokens, k) + 1;
        }
        if tokens.get(k) != Some(&"=") {
            continue;
        }
        let end = (k..tokens.len()).find(|&e| matches!(tokens[e], "<" | ";"));
        if let Some(&target) = end.and_then(|e| tokens[k + 1..e].last()) {
            out.push((i, alias, target));
        }
    }
    out
}

/// Each inherent or trait `impl` block: the type it is for and its token span.
fn impl_blocks<'a>(tokens: &[&'a str]) -> Vec<(&'a str, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // An `impl` in argument or return position is not an item.
        let item = i == 0 || matches!(tokens[i - 1], "{" | "}" | ";" | "]" | "unsafe");
        if tokens[i] != "impl" || !item {
            continue;
        }
        let mut k = i + 1;
        if tokens.get(k) == Some(&"<") {
            k = close_angle(tokens, k) + 1;
        }
        let mut ty = None;
        while k < tokens.len() && !matches!(tokens[k], "{" | "where") {
            match tokens[k] {
                "<" => k = close_angle(tokens, k),
                "for" => ty = None,
                t if t.starts_with(|c: char| c.is_alphabetic() || c == '_') => ty = Some(t),
                _ => {}
            }
            k += 1;
        }
        if let Some(ty) = ty {
            out.push((ty, i..item_span(tokens, i).end));
        }
    }
    out
}

/// The type of the innermost `impl` block around token `i`.
fn enclosing<'a>(impls: &[(&'a str, std::ops::Range<usize>)], i: usize) -> Option<&'a str> {
    impls
        .iter()
        .rev()
        .find(|(_, span)| span.contains(&i))
        .map(|(ty, _)| *ty)
}

/// The index of each `pub fn`'s `fn` token, with the function's name.
fn public_fn_sites<'a>(tokens: &[&'a str]) -> Vec<(usize, &'a str)> {
    (0..tokens.len())
        .filter(|&i| tokens[i] == "pub")
        .filter_map(|i| {
            let mut k = i + 1;
            while matches!(tokens.get(k), Some(&("const" | "unsafe" | "async"))) {
                k += 1;
            }
            if tokens.get(k) != Some(&"fn") {
                return None;
            }
            Some((k, *tokens.get(k + 1)?))
        })
        .collect()
}

/// Whether the function whose `fn` token is at `at` takes `self`.
fn has_receiver(tokens: &[&str], at: usize) -> bool {
    let Some(open) = (at..tokens.len()).find(|&k| tokens[k] == "(") else {
        return false;
    };
    tokens[open + 1..]
        .iter()
        .take_while(|t| !matches!(**t, "," | ")"))
        .any(|t| *t == "self")
}

/// The type of a path `Type::name` or `Type::<..>::name` whose `name` is at `i`.
fn path_type<'a>(tokens: &[&'a str], i: usize) -> Option<&'a str> {
    let colons = |k: usize| k >= 2 && tokens[k - 1] == ":" && tokens[k - 2] == ":";
    if !colons(i) {
        return None;
    }
    let mut k = i - 2;
    if k > 0 && tokens[k - 1] == ">" {
        // Back to the `<` that opens the turbofish.
        let mut depth = 0;
        k = (0..k).rev().find(|&j| {
            depth += match tokens[j] {
                ">" if j == 0 || tokens[j - 1] != "-" => 1,
                "<" => -1,
                _ => 0,
            };
            depth == 0
        })?;
        if !colons(k) {
            return None;
        }
        k -= 2;
    }
    let ty = *tokens.get(k.checked_sub(1)?)?;
    ty.starts_with(|c: char| c.is_ascii_uppercase())
        .then_some(ty)
}

/// The index of the `>` that closes the `<` at `open` (`->` inside does not count).
fn close_angle(tokens: &[&str], open: usize) -> usize {
    let mut depth = 0;
    for k in open..tokens.len() {
        match tokens[k] {
            "<" => depth += 1,
            ">" if tokens[k - 1] != "-" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// From the item starting at `at` to the `}` closing its body, or to its `;`.
fn item_span(tokens: &[&str], at: usize) -> std::ops::Range<usize> {
    let mut depth = 0;
    for (k, t) in tokens.iter().enumerate().skip(at) {
        match *t {
            ";" if depth == 0 => return at..k + 1,
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return at..k + 1;
                }
            }
            _ => {}
        }
    }
    at..tokens.len()
}

#[test]
fn every_public_item_crosses_a_crate_boundary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        // The tests that read the sources as text name items without using them.
        let readers = ["tests/public_surface.rs", "tests/architecture.rs", "tests/support"];
        for file in files
            .into_iter()
            .filter(|f| !readers.iter().any(|r| f.starts_with(root.join(r))))
        {
            let src = fs::read_to_string(&file).expect("source file is readable");
            // rustdoc builds each doc test as a crate of its own: file its code outside.
            let rel = file.strip_prefix(root).expect("under the root");
            sources.push((
                root.join("doc").join(rel),
                strip_literals(&doc_test_code(&src)),
            ));
            sources.push((file, strip_literals(&src)));
        }
    }
    // The items e2ebench's README promises stay `pub` count as named there.
    let readme = root.join("crates/e2ebench/README.md");
    let readme_text = fs::read_to_string(&readme).expect("e2ebench's README is readable");
    sources.push((readme, frozen_names(&readme_text)));
    let own = own_crate_only(root, sources);
    assert!(
        own.is_empty(),
        "public items named nowhere outside their own crate (make them pub(crate), \
         then delete what rustc reports dead): {own:#?}"
    );
}

#[test]
fn the_boundary_check_fails_on_each_kind_and_accepts_each_caller() {
    let root = Path::new("/fixture");
    let file = |path: &str, src: &str| (root.join(path), strip_literals(src));
    let library = file(
        "crates/alpha/src/lib.rs",
        "mod inner { pub struct Lonely; }\n\
         pub use inner::Lonely;\n\
         pub struct Wide { pub lonely_field: u32, pub(crate) narrow: u32 }\n\
         pub fn lonely_fn() -> Wide { Wide { lonely_field: 0, narrow: 0 } }\n\
         pub(crate) fn narrow_fn() {}\n\
         #[cfg(test)]\n\
         mod tests { fn t() { super::lonely_fn(); } }\n",
    );
    // Another library names all three only in a comment and a literal: that is no use.
    let other = file(
        "crates/beta/src/lib.rs",
        "// lonely_fn lonely_field Lonely\nfn f() -> &'static str { \"lonely_fn\" }\n",
    );
    let all = [
        "alpha::Lonely (crates/alpha/src/lib.rs:2)",
        "alpha::lonely_field (crates/alpha/src/lib.rs:3)",
        "alpha::lonely_fn (crates/alpha/src/lib.rs:4)",
    ];
    assert_eq!(
        own_crate_only(root, vec![library.clone(), other.clone()]),
        all
    );

    let callers = [
        "crates/beta/tests/t.rs",
        "crates/alpha/src/bin/tool.rs",
        "crates/alpha/tests/t.rs",
        "crates/e2ebench/src/main.rs",
        "crates/beta/src/lib.rs",
        "examples/demo.rs",
        "src/lib.rs",
    ];
    // Each use names one of the three; a literal built with `..base` needs
    // every field of its struct visible, so it names them all.
    let uses = [
        ("fn main() { let w = alpha::lonely_fn(); }", 2),
        ("fn main() { let _ = w.lonely_field; }", 1),
        (
            "fn f(w: alpha::Wide) -> alpha::Wide { alpha::Wide { ..w } }",
            1,
        ),
        ("use alpha::Lonely;", 0),
    ];
    // A doc test is compiled as a crate of its own; a `text` block is not.
    let documented = "/// ```\n/// let w = alpha::lonely_fn();\n/// ```\n\
                      /// ```text\n/// w.lonely_field\n/// ```\npub fn f() {}\n";
    let doc = file("doc/crates/alpha/src/lib.rs", &doc_test_code(documented));
    assert_eq!(own_crate_only(root, vec![library.clone(), doc]), all[..2]);
    // A name e2ebench's README lists as one it depends on counts; one elsewhere in it does not.
    let readme = "## Public items the benchmark depends on\n\n* `alpha::lonely_fn`\n\n\
                  ## Findings\n\n`lonely_field`\n";
    let frozen = (root.join("crates/e2ebench/README.md"), frozen_names(readme));
    assert_eq!(
        own_crate_only(root, vec![library.clone(), frozen]),
        all[..2]
    );

    for caller in callers {
        for (code, named) in uses {
            let sources = vec![library.clone(), other.clone(), file(caller, code)];
            let mut expected = all.to_vec();
            expected.remove(named);
            assert_eq!(own_crate_only(root, sources), expected, "{caller}: {code}");
        }
    }
}

/// `crate::name (file:line)` of each `pub fn`, `pub const`, `pub static`, `pub`
/// field and `pub use` name of a library under `root/crates` that no code
/// outside that library names. `stripped` holds every source file under `root`
/// with its comments and literals blanked.
fn own_crate_only(root: &Path, stripped: Vec<(PathBuf, String)>) -> Vec<String> {
    // The library a file belongs to; `None` for everything outside every library.
    let library = |file: &Path| -> Option<String> {
        let rel = file.strip_prefix(root).ok()?;
        let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
        match parts.as_slice() {
            ["crates", krate, "src", next, ..] if *krate != "e2ebench" && *next != "bin" => {
                Some(krate.to_string())
            }
            _ => None,
        }
    };
    // The units each word is named in, and those each struct is built in with `..base`.
    let mut named_in: BTreeMap<&str, BTreeSet<Option<String>>> = BTreeMap::new();
    let mut built_in: BTreeMap<&str, BTreeSet<Option<String>>> = BTreeMap::new();
    for (file, code) in &stripped {
        let tokens = tokens(code);
        for (i, t) in tokens.iter().enumerate() {
            if (i == 0 || tokens[i - 1] != "fn")
                && t.starts_with(|c: char| c.is_alphabetic() || c == '_')
            {
                named_in.entry(t).or_default().insert(library(file));
            }
        }
        for name in built_with_base(&tokens) {
            built_in.entry(name).or_default().insert(library(file));
        }
    }
    fn elsewhere(
        units: &BTreeMap<&str, BTreeSet<Option<String>>>,
        name: &str,
        krate: &Option<String>,
    ) -> bool {
        units
            .get(name)
            .is_some_and(|units| units.iter().any(|u| u != krate))
    }

    let mut own = Vec::new();
    let libraries: Vec<(PathBuf, String)> = stripped
        .iter()
        .filter(|(f, _)| library(f).is_some())
        .cloned()
        .collect();
    for (file, code) in non_test_code(libraries) {
        let krate = library(&file);
        let tokens = tokens(&code);
        for (name, owner) in public_names(&tokens) {
            let crosses = elsewhere(&named_in, name, &krate)
                || owner.is_some_and(|s| elsewhere(&built_in, s, &krate));
            if !crosses {
                let line = code[..name.as_ptr() as usize - code.as_ptr() as usize]
                    .matches('\n')
                    .count()
                    + 1;
                let rel = file.strip_prefix(root).unwrap_or(&file).display();
                own.push(format!(
                    "{}::{name} ({rel}:{line})",
                    krate.as_deref().unwrap_or("")
                ));
            }
        }
    }
    own.sort();
    own
}

/// The code of the doc tests in `src`: fenced blocks in `///` and `//!`
/// comments that rustdoc compiles (plain, `rust`, `no_run`, `should_panic`),
/// with their hidden `# ` lines shown.
fn doc_test_code(src: &str) -> String {
    let mut out = String::new();
    // Inside a fence: whether rustdoc compiles it.
    let mut fence: Option<bool> = None;
    for line in src.lines() {
        let line = line.trim_start();
        let Some(doc) = line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        else {
            fence = None;
            continue;
        };
        let doc = doc.strip_prefix(' ').unwrap_or(doc);
        if let Some(info) = doc.trim_start().strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(
                    info.split(',')
                        .all(|w| matches!(w.trim(), "" | "rust" | "no_run" | "should_panic")),
                ),
            };
        } else if fence == Some(true) {
            out.push_str(doc.strip_prefix("# ").unwrap_or(doc));
            out.push('\n');
        }
    }
    out
}

/// The code spans of `readme`'s "Public items the benchmark depends on"
/// section, one after another.
fn frozen_names(readme: &str) -> String {
    let section = readme
        .split("## ")
        .find(|s| s.starts_with("Public items the benchmark depends on"))
        .expect("e2ebench's README lists the public items it depends on");
    section
        .split('`')
        .skip(1)
        .step_by(2)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The files that are not test modules, with their test items blanked.
fn non_test_code(stripped: Vec<(PathBuf, String)>) -> Vec<(PathBuf, String)> {
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
        .map(|(f, code)| (f, blank_test_items(&code)))
        .collect()
}

/// Names defined `pub fn` (optionally `const`, `unsafe` or `async`); `pub(crate)` is not public.
fn public_fns<'a>(tokens: &[&'a str]) -> Vec<&'a str> {
    public_fn_sites(tokens)
        .into_iter()
        .map(|(_, name)| name)
        .collect()
}

/// Names made visible by `pub fn`, `pub const`, `pub static`, a named `pub`
/// field (with the struct it belongs to) and `pub use` (the last segment or its
/// `as` alias; globs name nothing).
fn public_names<'a>(tokens: &[&'a str]) -> Vec<(&'a str, Option<&'a str>)> {
    let word = |t: &str| t.starts_with(|c: char| c.is_alphabetic() || c == '_');
    let at = |k: usize| tokens.get(k).copied().unwrap_or("");
    let mut out: Vec<_> = public_fns(tokens).into_iter().map(|n| (n, None)).collect();
    for i in (0..tokens.len()).filter(|&i| tokens[i] == "pub") {
        match at(i + 1) {
            "use" => {
                let end = (i..tokens.len())
                    .find(|&k| tokens[k] == ";")
                    .unwrap_or(tokens.len());
                out.extend(
                    (i + 2..end)
                        .filter(|&k| word(tokens[k]) && tokens[k] != "self")
                        .filter(|&k| matches!(at(k + 1), "," | "}" | ";"))
                        .map(|k| (tokens[k], None)),
                );
            }
            "const" | "static" => {
                let k = if at(i + 2) == "mut" { i + 3 } else { i + 2 };
                if at(k + 1) == ":" {
                    out.push((tokens[k], None));
                }
            }
            name if word(name) && at(i + 2) == ":" && at(i + 3) != ":" => {
                // Structs do not nest, so a named field belongs to the nearest `struct` before it.
                let owner = (0..i)
                    .rev()
                    .find(|&k| tokens[k] == "struct")
                    .map(|k| at(k + 1));
                out.push((tokens[i + 1], owner));
            }
            _ => {}
        }
    }
    out
}

/// Structs built with `Name { field: x, ..base }`, where every field must be
/// visible even though only some are named.
fn built_with_base<'a>(tokens: &[&'a str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    for i in 1..tokens.len().saturating_sub(2) {
        let rest = tokens[i] == "."
            && tokens[i + 1] == "."
            && matches!(tokens[i - 1], "," | "{")
            && !matches!(tokens[i + 2], "}" | ")" | "]" | "=" | ".");
        if !rest {
            continue;
        }
        // The name before the `{` that opens this literal.
        let mut depth = 0;
        for k in (0..i).rev() {
            match tokens[k] {
                "}" | ")" | "]" => depth += 1,
                "{" | "(" | "[" if depth > 0 => depth -= 1,
                "{" => {
                    out.extend(k.checked_sub(1).map(|j| tokens[j]));
                    break;
                }
                "(" | "[" => break,
                _ => {}
            }
        }
    }
    out
}
