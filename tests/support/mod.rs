//! The source reader both tree tests share: `public_surface.rs` judges names
//! in the code, `architecture.rs` the layout rules over the raw text.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};

/// Each `.rs` file under `dir` with its comments and literals blanked.
pub fn read_sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    files
        .into_iter()
        .map(|f| {
            let src = fs::read_to_string(&f).expect("source file is readable");
            (f, strip_literals(&src))
        })
        .collect()
}

pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    files(dir, &|p| p.extension().is_some_and(|e| e == "rs"), out);
}

/// Each file under `dir` that `keep` accepts, in path order. Build output
/// (`target/`) and hidden directories other than `.github/` are not read.
pub fn files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !p.is_dir() {
            if keep(&p) {
                out.push(p);
            }
        } else if name != "target" && (name == ".github" || !name.starts_with('.')) {
            files(&p, keep, out);
        }
    }
}

/// Words and single punctuation characters.
pub fn tokens(code: &str) -> Vec<&str> {
    tokens_of(code, usize::MAX)
}

pub fn tokens_of(code: &str, limit: usize) -> Vec<&str> {
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
pub fn strip_literals(src: &str) -> String {
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
pub fn blank_test_items(code: &str) -> String {
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
