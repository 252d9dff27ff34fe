//! Indentation-based recursive-descent parser for the YAML subset.

use crate::error::{ParseError, Result};
use crate::value::Value;

/// Parses a single-document YAML string.
///
/// A leading `---` marker is allowed; an empty (or comment-only) input parses
/// to [`Value::Null`].
pub fn parse_str(input: &str) -> Result<Value> {
    let mut docs = parse_documents(input)?;
    match docs.len() {
        0 => Ok(Value::Null),
        1 => Ok(docs.pop().expect("len checked")),
        n => Err(ParseError::new(
            1,
            format!("expected a single document, found {n}"),
        )),
    }
}

/// Parses a multi-document stream separated by `---` lines.
pub fn parse_documents(input: &str) -> Result<Vec<Value>> {
    let mut docs = Vec::new();
    let mut chunk: Vec<(usize, &str)> = Vec::new(); // (1-based line no, raw line)
    let mut saw_separator = false;
    let flush = |chunk: &mut Vec<(usize, &str)>, docs: &mut Vec<Value>, force: bool| -> Result<()> {
        let has_content = chunk
            .iter()
            .any(|(_, l)| !strip_comment(l).trim().is_empty());
        if has_content {
            docs.push(parse_chunk(chunk)?);
        } else if force {
            docs.push(Value::Null);
        }
        chunk.clear();
        Ok(())
    };
    for (i, raw) in input.lines().enumerate() {
        let trimmed = raw.trim_end();
        if trimmed == "---" {
            // `---` after content (or after another separator) terminates the
            // current document; a leading one is just a stream header.
            flush(&mut chunk, &mut docs, saw_separator)?;
            saw_separator = true;
        } else if trimmed == "..." {
            flush(&mut chunk, &mut docs, false)?;
            saw_separator = false;
        } else {
            chunk.push((i + 1, raw));
        }
    }
    flush(&mut chunk, &mut docs, false)?;
    Ok(docs)
}

struct Line {
    number: usize,
    indent: usize,
    /// Structural content: comment-stripped, right-trimmed.
    content: String,
    /// Raw line text (needed verbatim inside block scalars).
    raw: String,
}

fn parse_chunk(lines: &[(usize, &str)]) -> Result<Value> {
    let mut structured = Vec::new();
    for &(number, raw) in lines {
        if raw.contains('\t') && raw[..raw.len() - raw.trim_start().len()].contains('\t') {
            return Err(ParseError::new(number, "tabs are not allowed in indentation"));
        }
        let stripped = strip_comment(raw);
        let content = stripped.trim_end();
        let indent = raw.len() - raw.trim_start().len();
        structured.push(Line {
            number,
            indent,
            content: content.trim_start().to_owned(),
            raw: raw.to_owned(),
        });
    }
    let mut p = Parser {
        lines: structured,
        pos: 0,
        depth: 0,
    };
    p.skip_blank();
    if p.eof() {
        return Ok(Value::Null);
    }
    let base = p.peek().indent;
    let v = p.parse_node(base)?;
    p.skip_blank();
    if !p.eof() {
        let line = p.peek();
        return Err(ParseError::new(
            line.number,
            format!("unexpected content after document (indent {})", line.indent),
        ));
    }
    Ok(v)
}

/// The bytes of `s` outside quoted scalars, with their offsets (the quote
/// characters themselves are skipped too): what structural scanning —
/// comments, `key:` splits, flow brackets — has to look at.
fn unquoted(s: &str) -> impl Iterator<Item = (usize, u8)> + '_ {
    let (mut in_single, mut in_double, mut escaped) = (false, false, false);
    s.bytes().enumerate().filter(move |&(_, b)| {
        if in_double {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_double = false;
            }
            false
        } else if in_single {
            in_single = b != b'\'';
            false
        } else {
            in_double = b == b'"';
            in_single = b == b'\'';
            !(in_double || in_single)
        }
    })
}

/// Removes a trailing `#` comment, respecting quoted strings. A `#` only
/// starts a comment at the beginning of the content or after whitespace.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let hash = unquoted(line)
        .find(|&(i, b)| b == b'#' && (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t'));
    hash.map_or(line, |(i, _)| &line[..i])
}

/// Flow brackets `content` opens minus those it closes.
fn flow_balance(content: &str) -> i32 {
    unquoted(content).fold(0, |depth, (_, b)| match b {
        b'[' | b'{' => depth + 1,
        b']' | b'}' => depth - 1,
        _ => depth,
    })
}

/// Deepest nesting either parser accepts — block (indentation, `- - -`) or
/// flow (`[[[`). Both recurse once per level, so unbounded input would
/// overflow the stack: an abort, not an error. 64 is several times what any
/// manifest or bench artifact in this repository needs.
pub const MAX_DEPTH: usize = 64;

fn too_deep(line: usize) -> ParseError {
    ParseError::new(line, format!("nesting deeper than {MAX_DEPTH} levels"))
}

struct Parser {
    lines: Vec<Line>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn eof(&self) -> bool {
        self.pos >= self.lines.len()
    }

    fn peek(&self) -> &Line {
        &self.lines[self.pos]
    }

    fn skip_blank(&mut self) {
        while !self.eof() && self.peek().content.is_empty() {
            self.pos += 1;
        }
    }

    /// Parses the node starting at the current line, which must be indented
    /// exactly `indent`.
    fn parse_node(&mut self, indent: usize) -> Result<Value> {
        self.skip_blank();
        if self.eof() || self.peek().indent < indent {
            return Ok(Value::Null);
        }
        if self.depth == MAX_DEPTH {
            return Err(too_deep(self.peek().number));
        }
        self.depth += 1;
        let node = self.parse_block_node(indent);
        self.depth -= 1;
        node
    }

    fn parse_block_node(&mut self, indent: usize) -> Result<Value> {
        let line = self.peek();
        if let Some(style) = block_scalar_header(&line.content) {
            let number = line.number;
            self.pos += 1;
            return self.parse_block_scalar(indent, style, number);
        }
        if is_seq_entry(&line.content) {
            self.parse_sequence(indent)
        } else if split_key(&line.content).is_some() {
            self.parse_mapping(indent)
        } else {
            // Bare scalar document / node.
            let number = line.number;
            let content = std::mem::take(&mut self.lines[self.pos].content);
            self.pos += 1;
            parse_scalar_or_flow(&self.join_flow(content), number)
        }
    }

    /// A flow collection may continue on the following lines: appends them
    /// to `text` until its brackets balance. If the input ends first, the
    /// flow parser reports it unterminated, at the line it started on.
    fn join_flow(&mut self, mut text: String) -> String {
        if text.starts_with(['[', '{']) {
            let mut open = flow_balance(&text);
            while open > 0 && !self.eof() {
                let next = &self.lines[self.pos].content;
                open += flow_balance(next);
                text.push(' ');
                text.push_str(next);
                self.pos += 1;
            }
        }
        text
    }

    fn parse_sequence(&mut self, indent: usize) -> Result<Value> {
        let mut items = Vec::new();
        loop {
            self.skip_blank();
            if self.eof() {
                break;
            }
            let line = self.peek();
            if line.indent != indent || !is_seq_entry(&line.content) {
                if line.indent > indent {
                    return Err(ParseError::new(
                        line.number,
                        format!(
                            "bad indentation: expected sequence entry at column {indent}, got {}",
                            line.indent
                        ),
                    ));
                }
                break;
            }
            let number = line.number;
            let rest = line.content[1..].trim_start().to_owned();
            let rest_offset = line.content.len() - rest.len(); // width of "- " prefix
            if rest.is_empty() {
                // `- ` alone: nested node on the following deeper lines.
                self.pos += 1;
                self.skip_blank();
                if !self.eof() && self.peek().indent > indent {
                    let child_indent = self.peek().indent;
                    items.push(self.parse_node(child_indent)?);
                } else {
                    items.push(Value::Null);
                }
            } else if let Some(style) = block_scalar_header(&rest) {
                // `- |` — block scalar item; its body only needs to be deeper
                // than the dash itself.
                self.pos += 1;
                items.push(self.parse_block_scalar(indent, style, number)?);
            } else {
                // Rewrite the entry in place as if the payload were its own
                // line at the dash-adjusted indent; `key: value` payloads may
                // continue as a mapping on the following lines.
                let item_indent = indent + rest_offset;
                {
                    let slot = &mut self.lines[self.pos];
                    slot.indent = item_indent;
                    slot.content = rest;
                    slot.raw = format!("{}{}", " ".repeat(item_indent), slot.content);
                    let _ = number;
                }
                items.push(self.parse_node(item_indent)?);
            }
        }
        Ok(Value::Seq(items))
    }

    fn parse_mapping(&mut self, indent: usize) -> Result<Value> {
        let mut map: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_blank();
            if self.eof() {
                break;
            }
            let line = self.peek();
            if line.indent != indent {
                if line.indent > indent {
                    return Err(ParseError::new(
                        line.number,
                        format!(
                            "bad indentation: expected key at column {indent}, got {}",
                            line.indent
                        ),
                    ));
                }
                break;
            }
            let number = line.number;
            let Some((key_raw, rest)) = split_key(&line.content) else {
                return Err(ParseError::new(number, "expected `key: value`"));
            };
            let key = parse_key(key_raw, number)?;
            if map.iter().any(|(k, _)| *k == key) {
                return Err(ParseError::new(number, format!("duplicate key `{key}`")));
            }
            let rest = rest.trim().to_owned();
            self.pos += 1;
            let value = if rest.is_empty() {
                // Nested block (mapping/sequence/scalar) or null.
                self.skip_blank();
                if !self.eof() && self.peek().indent > indent {
                    let child = self.peek().indent;
                    self.parse_node(child)?
                } else if !self.eof()
                    && self.peek().indent == indent
                    && is_seq_entry(&self.peek().content)
                {
                    // K8s style allows sequences at the same indent as the key.
                    self.parse_sequence(indent)?
                } else {
                    Value::Null
                }
            } else if let Some(style) = block_scalar_header(&rest) {
                self.parse_block_scalar(indent, style, number)?
            } else {
                parse_scalar_or_flow(&self.join_flow(rest), number)?
            };
            map.push((key, value));
        }
        Ok(Value::Map(map))
    }

    fn parse_block_scalar(
        &mut self,
        key_indent: usize,
        style: BlockStyle,
        header_line: usize,
    ) -> Result<Value> {
        // Collect raw lines strictly deeper than the key, preserving blanks.
        let mut raw_lines: Vec<String> = Vec::new();
        let mut body_indent: Option<usize> = None;
        while !self.eof() {
            let line = &self.lines[self.pos];
            let raw_trim_len = line.raw.trim_end().len();
            if raw_trim_len == 0 {
                raw_lines.push(String::new());
                self.pos += 1;
                continue;
            }
            let ind = line.raw.len() - line.raw.trim_start().len();
            if ind <= key_indent {
                break;
            }
            let bi = *body_indent.get_or_insert(ind);
            if ind < bi {
                return Err(ParseError::new(
                    line.number,
                    "block scalar line under-indented",
                ));
            }
            raw_lines.push(line.raw.trim_end()[bi.min(raw_trim_len)..].to_owned());
            self.pos += 1;
        }
        if body_indent.is_none() {
            return Err(ParseError::new(header_line, "empty block scalar"));
        }
        // Drop trailing blank lines (clip/strip chomping both remove them).
        while raw_lines.last().is_some_and(String::is_empty) {
            raw_lines.pop();
        }
        let mut text = match style.folded {
            false => raw_lines.join("\n"),
            true => {
                // Folded: single newlines become spaces, blank lines become newlines.
                let mut out = String::new();
                let mut pending_blank = 0usize;
                for (i, l) in raw_lines.iter().enumerate() {
                    if l.is_empty() {
                        pending_blank += 1;
                        continue;
                    }
                    if i > 0 {
                        if pending_blank > 0 {
                            out.extend(std::iter::repeat_n('\n', pending_blank));
                        } else {
                            out.push(' ');
                        }
                    }
                    pending_blank = 0;
                    out.push_str(l);
                }
                out
            }
        };
        if !style.strip {
            text.push('\n');
        }
        Ok(Value::Str(text))
    }
}

#[derive(Clone, Copy)]
struct BlockStyle {
    folded: bool,
    strip: bool,
}

fn block_scalar_header(rest: &str) -> Option<BlockStyle> {
    match rest {
        "|" => Some(BlockStyle { folded: false, strip: false }),
        "|-" => Some(BlockStyle { folded: false, strip: true }),
        ">" => Some(BlockStyle { folded: true, strip: false }),
        ">-" => Some(BlockStyle { folded: true, strip: true }),
        _ => None,
    }
}

fn is_seq_entry(content: &str) -> bool {
    content == "-" || content.starts_with("- ")
}

/// Splits `key: rest` at the first top-level colon. Returns `None` if the
/// line is not a mapping entry.
fn split_key(content: &str) -> Option<(&str, &str)> {
    let bytes = content.as_bytes();
    let mut depth = 0i32; // flow brackets in keys are unusual but harmless
    for (i, b) in unquoted(content) {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b':' if depth == 0 => {
                let after = bytes.get(i + 1);
                if after.is_none() || after == Some(&b' ') {
                    return Some((&content[..i], &content[i + 1..]));
                }
            }
            _ => {}
        }
    }
    None
}

fn parse_key(raw: &str, line: usize) -> Result<String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(ParseError::new(line, "empty mapping key"));
    }
    match parse_scalar_or_flow(raw, line)? {
        Value::Str(s) => Ok(s),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Int(i) => Ok(i.to_string()),
        Value::Float(f) => Ok(f.to_string()),
        Value::Null => Ok("null".to_owned()),
        _ => Err(ParseError::new(line, "collection keys are not supported")),
    }
}

/// Parses a trailing value: a flow collection, a quoted string or a plain scalar.
fn parse_scalar_or_flow(s: &str, line: usize) -> Result<Value> {
    let s = s.trim();
    if s.starts_with('[') || s.starts_with('{') {
        let mut fp = FlowParser {
            chars: s.char_indices().collect(),
            pos: 0,
            depth: 0,
            line,
            src: s,
        };
        let v = fp.parse_value()?;
        fp.skip_ws();
        if fp.pos != fp.chars.len() {
            return Err(ParseError::new(line, "trailing characters after flow collection"));
        }
        return Ok(v);
    }
    if let Some(stripped) = s.strip_prefix('"') {
        let (v, used) = parse_double_quoted(stripped, line)?;
        if used != stripped.len() {
            return Err(ParseError::new(line, "trailing characters after quoted scalar"));
        }
        return Ok(v);
    }
    if let Some(stripped) = s.strip_prefix('\'') {
        let (v, used) = parse_single_quoted(stripped, line)?;
        if used != stripped.len() {
            return Err(ParseError::new(line, "trailing characters after quoted scalar"));
        }
        return Ok(v);
    }
    Ok(resolve_plain(s))
}

fn parse_double_quoted(rest: &str, line: usize) -> Result<(Value, usize)> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), i + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '0')) => out.push('\0'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => {
                    return Err(ParseError::new(line, format!("unknown escape `\\{other}`")))
                }
                None => return Err(ParseError::new(line, "dangling escape")),
            },
            other => out.push(other),
        }
    }
    Err(ParseError::new(line, "unterminated double-quoted string"))
}

fn parse_single_quoted(rest: &str, line: usize) -> Result<(Value, usize)> {
    let mut out = String::new();
    let chars: Vec<(usize, char)> = rest.char_indices().collect();
    let mut idx = 0;
    while idx < chars.len() {
        let (i, c) = chars[idx];
        if c == '\'' {
            // `''` is an escaped quote inside single-quoted style.
            if chars.get(idx + 1).map(|&(_, c2)| c2) == Some('\'') {
                out.push('\'');
                idx += 2;
                continue;
            }
            return Ok((Value::Str(out), i + 1));
        }
        out.push(c);
        idx += 1;
    }
    Err(ParseError::new(line, "unterminated single-quoted string"))
}

/// YAML 1.2 core-schema-ish plain scalar resolution.
fn resolve_plain(s: &str) -> Value {
    match s {
        "" | "~" | "null" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    if looks_numeric(s) {
        if let Ok(i) = s.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(s.to_owned())
}

pub(crate) fn looks_numeric(s: &str) -> bool {
    let t = s.strip_prefix(['+', '-']).unwrap_or(s);
    !t.is_empty() && t.starts_with(|c: char| c.is_ascii_digit() || c == '.')
}

struct FlowParser<'a> {
    chars: Vec<(usize, char)>,
    pos: usize,
    depth: usize,
    line: usize,
    src: &'a str,
}

impl FlowParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.pos)
            .is_some_and(|&(_, c)| c == ' ' || c == '\t')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError::new(self.line, msg.to_owned())
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(open @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(too_deep(self.line));
                }
                self.depth += 1;
                let v = if open == '[' {
                    self.parse_seq()
                } else {
                    self.parse_map()
                };
                self.depth -= 1;
                v
            }
            Some('"') => {
                self.pos += 1;
                let start = self.byte_offset();
                let (v, used) = parse_double_quoted(&self.src[start..], self.line)?;
                self.advance_bytes(used);
                Ok(v)
            }
            Some('\'') => {
                self.pos += 1;
                let start = self.byte_offset();
                let (v, used) = parse_single_quoted(&self.src[start..], self.line)?;
                self.advance_bytes(used);
                Ok(v)
            }
            Some(_) => {
                let start = self.byte_offset();
                while let Some(c) = self.peek() {
                    if matches!(c, ',' | ']' | '}' | ':') {
                        break;
                    }
                    self.pos += 1;
                }
                let end = self.byte_offset();
                Ok(resolve_plain(self.src[start..end].trim()))
            }
            None => Err(self.err("unexpected end of flow value")),
        }
    }

    fn byte_offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(i, _)| i)
            .unwrap_or(self.src.len())
    }

    fn advance_bytes(&mut self, n: usize) {
        let target = self.byte_offset() + n;
        while self.pos < self.chars.len() && self.chars[self.pos].0 < target {
            self.pos += 1;
        }
    }

    fn parse_seq(&mut self) -> Result<Value> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                None => return Err(self.err("unterminated flow sequence")),
                _ => {}
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some(']') => {}
                _ => return Err(self.err("expected `,` or `]` in flow sequence")),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value> {
        self.pos += 1; // consume '{'
        let mut map = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('}') => {
                    self.pos += 1;
                    return Ok(Value::Map(map));
                }
                None => return Err(self.err("unterminated flow mapping")),
                _ => {}
            }
            let key = match self.parse_value()? {
                Value::Str(s) => s,
                Value::Int(i) => i.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Float(f) => f.to_string(),
                Value::Null => "null".to_owned(),
                _ => return Err(self.err("collection keys are not supported")),
            };
            self.skip_ws();
            if self.peek() != Some(':') {
                return Err(self.err("expected `:` in flow mapping"));
            }
            self.pos += 1;
            let value = self.parse_value()?;
            map.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some('}') => {}
                _ => return Err(self.err("expected `,` or `}` in flow mapping")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_mapping() {
        let v = parse_str("a: 1\nb: two\nc: true\nd: 2.5\ne: ~").unwrap();
        assert_eq!(v["a"].as_i64(), Some(1));
        assert_eq!(v["b"].as_str(), Some("two"));
        assert_eq!(v["c"].as_bool(), Some(true));
        assert_eq!(v["d"].as_f64(), Some(2.5));
        assert!(v["e"].is_null());
    }

    #[test]
    fn nested_blocks() {
        let v = parse_str("outer:\n  inner:\n    leaf: 7\n  other: x\ntop: y").unwrap();
        assert_eq!(v["outer"]["inner"]["leaf"].as_i64(), Some(7));
        assert_eq!(v["outer"]["other"].as_str(), Some("x"));
        assert_eq!(v["top"].as_str(), Some("y"));
    }

    #[test]
    fn sequences_block_and_flow() {
        let v = parse_str("items:\n  - 1\n  - 2\nflow: [3, 4, five]").unwrap();
        assert_eq!(v["items"][0].as_i64(), Some(1));
        assert_eq!(v["items"][1].as_i64(), Some(2));
        assert_eq!(v["flow"][2].as_str(), Some("five"));
    }

    #[test]
    fn sequence_at_key_indent() {
        // Kubernetes style: sequence dashes at the same column as the key.
        let v = parse_str("containers:\n- name: a\n- name: b").unwrap();
        assert_eq!(v["containers"].as_seq().unwrap().len(), 2);
        assert_eq!(v["containers"][1]["name"].as_str(), Some("b"));
    }

    #[test]
    fn compact_mapping_in_sequence() {
        let v = parse_str("ports:\n  - containerPort: 80\n    protocol: TCP").unwrap();
        assert_eq!(v["ports"][0]["containerPort"].as_i64(), Some(80));
        assert_eq!(v["ports"][0]["protocol"].as_str(), Some("TCP"));
    }

    #[test]
    fn nested_sequences() {
        let v = parse_str("m:\n  - - 1\n    - 2\n  - - 3").unwrap();
        assert_eq!(v["m"][0][1].as_i64(), Some(2));
        assert_eq!(v["m"][1][0].as_i64(), Some(3));
    }

    #[test]
    fn quoted_strings() {
        let v = parse_str(
            "a: \"hello: world # not comment\"\nb: 'it''s'\nc: \"tab\\there\"",
        )
        .unwrap();
        assert_eq!(v["a"].as_str(), Some("hello: world # not comment"));
        assert_eq!(v["b"].as_str(), Some("it's"));
        assert_eq!(v["c"].as_str(), Some("tab\there"));
    }

    #[test]
    fn comments_and_blanks() {
        let v = parse_str("# header\n\na: 1 # trailing\n\n# middle\nb: 2\n").unwrap();
        assert_eq!(v["a"].as_i64(), Some(1));
        assert_eq!(v["b"].as_i64(), Some(2));
    }

    #[test]
    fn flow_mapping() {
        let v = parse_str("limits: {cpu: 2, memory: 4Gi, debug: true}").unwrap();
        assert_eq!(v["limits"]["cpu"].as_i64(), Some(2));
        assert_eq!(v["limits"]["memory"].as_str(), Some("4Gi"));
        assert_eq!(v["limits"]["debug"].as_bool(), Some(true));
    }

    #[test]
    fn nested_flow() {
        let v = parse_str("x: {a: [1, {b: 2}], c: []}").unwrap();
        assert_eq!(v["x"]["a"][1]["b"].as_i64(), Some(2));
        assert_eq!(v["x"]["c"].as_seq().unwrap().len(), 0);
    }

    #[test]
    fn empty_flow_collections() {
        let v = parse_str("a: {}\nb: []").unwrap();
        assert_eq!(v["a"], Value::Map(vec![]));
        assert_eq!(v["b"], Value::Seq(vec![]));
    }

    #[test]
    fn literal_block_scalar() {
        let v = parse_str("script: |\n  line one\n  line two\nafter: 1").unwrap();
        assert_eq!(v["script"].as_str(), Some("line one\nline two\n"));
        assert_eq!(v["after"].as_i64(), Some(1));
    }

    #[test]
    fn literal_block_scalar_strip() {
        let v = parse_str("script: |-\n  just this").unwrap();
        assert_eq!(v["script"].as_str(), Some("just this"));
    }

    #[test]
    fn folded_block_scalar() {
        let v = parse_str("msg: >\n  folded into\n  one line\n\n  second para").unwrap();
        assert_eq!(v["msg"].as_str(), Some("folded into one line\nsecond para\n"));
    }

    #[test]
    fn multi_document() {
        let docs = parse_documents("---\na: 1\n---\nb: 2\n").unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0]["a"].as_i64(), Some(1));
        assert_eq!(docs[1]["b"].as_i64(), Some(2));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse_str("").unwrap(), Value::Null);
        assert_eq!(parse_str("# only a comment\n").unwrap(), Value::Null);
        assert_eq!(parse_documents("").unwrap().len(), 0);
    }

    #[test]
    fn values_with_colons_in_urls() {
        let v = parse_str("image: gcr.io/tensorflow-serving/resnet:latest").unwrap();
        // `:` not followed by space is part of the scalar.
        assert_eq!(v["image"].as_str(), Some("gcr.io/tensorflow-serving/resnet:latest"));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let e = parse_str("a: 1\na: 2").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn bad_indent_rejected() {
        assert!(parse_str("a: 1\n   b: 2").is_err());
    }

    #[test]
    fn tabs_in_indent_rejected() {
        assert!(parse_str("a:\n\tb: 1").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse_str("a: \"oops").is_err());
        assert!(parse_str("a: 'oops").is_err());
    }

    #[test]
    fn negative_and_signed_numbers() {
        let v = parse_str("a: -3\nb: +4\nc: -2.5e2").unwrap();
        assert_eq!(v["a"].as_i64(), Some(-3));
        assert_eq!(v["b"].as_i64(), Some(4));
        assert_eq!(v["c"].as_f64(), Some(-250.0));
    }

    #[test]
    fn version_like_strings_stay_strings() {
        let v = parse_str("tag: 1.23.2\nport: 80").unwrap();
        assert_eq!(v["tag"].as_str(), Some("1.23.2"));
        assert_eq!(v["port"].as_i64(), Some(80));
    }

    #[test]
    fn full_k8s_deployment() {
        let text = r#"
apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
  labels:
    app: nginx
    edge.service: "_demo.example.com:80"
spec:
  replicas: 0
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      schedulerName: edge-scheduler
      containers:
        - name: nginx
          image: nginx:1.23.2
          ports:
            - containerPort: 80
          volumeMounts:
            - name: content
              mountPath: /usr/share/nginx/html
      volumes:
        - name: content
          hostPath:
            path: /srv/edge/content
"#;
        let v = parse_str(text).unwrap();
        assert_eq!(v["kind"].as_str(), Some("Deployment"));
        assert_eq!(v["metadata"]["labels"]["edge.service"].as_str(), Some("_demo.example.com:80"));
        assert_eq!(v["spec"]["replicas"].as_i64(), Some(0));
        let c = &v["spec"]["template"]["spec"]["containers"][0];
        assert_eq!(c["image"].as_str(), Some("nginx:1.23.2"));
        assert_eq!(c["ports"][0]["containerPort"].as_i64(), Some(80));
        assert_eq!(
            v.path("spec/template/spec/volumes/0/hostPath/path").and_then(Value::as_str),
            Some("/srv/edge/content")
        );
    }
}
