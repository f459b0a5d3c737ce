//! Canonical JSON artifacts and structural golden verification.
//!
//! Every sweep artifact the bench suite emits goes through this module so
//! the bytes are a pure function of the data: object keys sort, floats
//! serialize at a fixed nine decimal places, indentation is fixed, and the
//! document ends in exactly one newline. Identical inputs therefore produce
//! byte-identical artifacts at any pool width and any job order — which is
//! what lets CI diff them meaningfully and lets goldens pin *structure*
//! instead of one opaque hash over stdout.
//!
//! The three pieces:
//!
//! * [`Json`] + [`canonical_document`] — the canonical writer;
//! * [`parse_document`] — a dependency-free parser (the vendored-shims
//!   policy forbids serde) that also reports whether the input's object
//!   keys were already sorted;
//! * [`first_divergence`] — the structural differ: on mismatch it names
//!   the first divergent path and both values
//!   (`c16.survivability.jobs[1].metrics.outcome: "bit-exact" != …`)
//!   instead of "hash mismatch".

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a 64 — the repo's standard cheap digest. The golden tests, the
/// sweep engine's plan/config hashes, and the RunBook artifact hashes all
/// share this one definition instead of re-deriving it per test file.
pub use ckpt_storage::fnv1a64;

/// FNV-1a 64 rendered the way artifacts embed it: 16 lowercase hex digits.
pub(crate) fn fnv1a64_hex(data: &[u8]) -> String {
    format!("{:016x}", fnv1a64(data))
}

/// A JSON value with canonical serialization. Objects are [`BTreeMap`]s,
/// so key order is sorted by construction and cannot drift.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Negative integers (serialized exactly).
    Int(i64),
    /// Non-negative integers (serialized exactly).
    UInt(u64),
    /// Finite floats; canonical form is fixed nine-decimal rounding.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from `(key, value)` pairs (keys sort themselves).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for the object this value is, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Public for ckptbench (`benchmark/src/metrics.rs`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Fetch `path` below an object value (`"a.b.c"`, object keys only).
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.as_obj()?.get(seg)?;
        }
        Some(cur)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::UInt(v as u64)
        } else {
            Json::Int(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Canonical scalar rendering — also what the differ compares, so two
/// floats are "equal" exactly when their canonical bytes are.
fn write_scalar(out: &mut String, j: &Json) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Json::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Json::Float(v) => {
            debug_assert!(v.is_finite(), "canonical JSON forbids NaN/inf");
            let _ = write!(out, "{v:.9}");
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(_) | Json::Obj(_) => unreachable!("write_scalar on container"),
    }
}

fn write_value(out: &mut String, j: &Json, indent: usize) {
    match j {
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                write_value(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                write_scalar(&mut *out, &Json::Str(k.clone()));
                out.push_str(": ");
                write_value(out, v, indent + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        scalar => write_scalar(out, scalar),
    }
}

/// One value rendered compactly (scalars verbatim, containers summarized)
/// for diff messages.
fn render_short(j: &Json) -> String {
    match j {
        Json::Arr(items) => format!("[…{} items]", items.len()),
        Json::Obj(map) => format!("{{…{} keys}}", map.len()),
        scalar => {
            let mut s = String::new();
            write_scalar(&mut s, scalar);
            s
        }
    }
}

/// Canonical document: pretty-printed with two-space indentation, sorted
/// keys, nine-decimal floats, and a trailing newline. This is the byte
/// form every artifact is written in and every golden pins.
pub fn canonical_document(j: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, j, 0);
    out.push('\n');
    out
}

/// What [`parse_document`] returns: the value plus whether every object in
/// the input already had its keys in sorted order (the canonical-form
/// check the schema tests assert).
pub struct Parsed {
    pub value: Json,
    pub keys_sorted: bool,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    keys_sorted: bool,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                let mut last_key: Option<String> = None;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    if let Some(prev) = &last_key {
                        if *prev >= key {
                            self.keys_sorted = false;
                        }
                    }
                    last_key = Some(key.clone());
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b't' => self.parse_lit("true", Json::Bool(true)),
            b'f' => self.parse_lit("false", Json::Bool(false)),
            b'n' => self.parse_lit("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' => {
                    float = true;
                    self.pos += 1;
                }
                b'-' if float => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("bad number at byte {start}"));
        }
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad float '{text}': {e}"))
        } else if let Some(neg) = text.strip_prefix('-') {
            neg.parse::<i64>()
                .map(|v| Json::Int(-v))
                .map_err(|e| format!("bad int '{text}': {e}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|e| format!("bad int '{text}': {e}"))
        }
    }
}

/// Parse a JSON document (any whitespace style). Errors carry the byte
/// offset, which is all a deterministic artifact needs.
pub fn parse_document(text: &str) -> Result<Parsed, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        keys_sorted: true,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(Parsed {
        value,
        keys_sorted: p.keys_sorted,
    })
}

/// The first structural divergence between two documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Dotted path from the given root, array indices in brackets:
    /// `c16.survivability.jobs[1].metrics.outcome`.
    pub(crate) path: String,
    pub(crate) expected: String,
    pub(crate) actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} != {}", self.path, self.expected, self.actual)
    }
}

/// Structural diff: walk both trees in canonical order and report the
/// first place they disagree — the named path and both values — or `None`
/// when the trees are canonically identical.
pub fn first_divergence(root: &str, expected: &Json, actual: &Json) -> Option<Divergence> {
    fn walk(path: &str, e: &Json, a: &Json) -> Option<Divergence> {
        match (e, a) {
            (Json::Obj(em), Json::Obj(am)) => {
                let keys: std::collections::BTreeSet<&String> =
                    em.keys().chain(am.keys()).collect();
                for k in keys {
                    let sub = format!("{path}.{k}");
                    match (em.get(k), am.get(k)) {
                        (Some(ev), Some(av)) => {
                            if let Some(d) = walk(&sub, ev, av) {
                                return Some(d);
                            }
                        }
                        (Some(ev), None) => {
                            return Some(Divergence {
                                path: sub,
                                expected: render_short(ev),
                                actual: "<absent>".into(),
                            })
                        }
                        (None, Some(av)) => {
                            return Some(Divergence {
                                path: sub,
                                expected: "<absent>".into(),
                                actual: render_short(av),
                            })
                        }
                        (None, None) => unreachable!(),
                    }
                }
                None
            }
            (Json::Arr(ea), Json::Arr(aa)) => {
                for (i, (ev, av)) in ea.iter().zip(aa.iter()).enumerate() {
                    if let Some(d) = walk(&format!("{path}[{i}]"), ev, av) {
                        return Some(d);
                    }
                }
                if ea.len() != aa.len() {
                    let i = ea.len().min(aa.len());
                    return Some(Divergence {
                        path: format!("{path}[{i}]"),
                        expected: ea.get(i).map(render_short).unwrap_or_else(|| "<absent>".into()),
                        actual: aa.get(i).map(render_short).unwrap_or_else(|| "<absent>".into()),
                    });
                }
                None
            }
            (e, a) => {
                // Scalars (or scalar-vs-container): equal iff the canonical
                // bytes are.
                let es = render_short(e);
                let as_ = render_short(a);
                if es != as_ {
                    return Some(Divergence {
                        path: path.to_string(),
                        expected: es,
                        actual: as_,
                    });
                }
                None
            }
        }
    }
    walk(root, expected, actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::obj(vec![
            ("zeta", Json::from(1u64)),
            ("alpha", Json::from("x")),
            (
                "nested",
                Json::obj(vec![
                    ("pi", Json::from(std::f64::consts::PI)),
                    ("flag", Json::from(true)),
                ]),
            ),
            ("arr", Json::Arr(vec![Json::from(-4i64), Json::Null])),
        ])
    }

    #[test]
    fn canonical_keys_sort_and_floats_round() {
        let text = canonical_document(&doc());
        // Keys in sorted order regardless of construction order.
        let alpha = text.find("\"alpha\"").unwrap();
        let arr = text.find("\"arr\"").unwrap();
        let nested = text.find("\"nested\"").unwrap();
        let zeta = text.find("\"zeta\"").unwrap();
        assert!(alpha < arr && arr < nested && nested < zeta);
        // Nine-decimal float rounding.
        assert!(text.contains("\"pi\": 3.141592654"), "{text}");
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn parse_is_canonical_fixed_point() {
        let text = canonical_document(&doc());
        let parsed = parse_document(&text).expect("parse");
        assert!(parsed.keys_sorted);
        assert_eq!(canonical_document(&parsed.value), text);
    }

    #[test]
    fn parser_flags_unsorted_keys() {
        let parsed = parse_document("{\"b\": 1, \"a\": 2}").expect("parse");
        assert!(!parsed.keys_sorted);
    }

    #[test]
    fn diff_names_first_divergent_path_and_both_values() {
        let mut a = doc();
        let b = doc();
        if let Json::Obj(m) = &mut a {
            if let Some(Json::Obj(n)) = m.get_mut("nested") {
                n.insert("pi".into(), Json::from(2.5));
            }
        }
        let d = first_divergence("root", &b, &a).expect("divergence");
        assert_eq!(d.path, "root.nested.pi");
        assert_eq!(d.expected, "3.141592654");
        assert_eq!(d.actual, "2.500000000");
        assert!(first_divergence("root", &b, &b).is_none());
    }

    #[test]
    fn diff_reports_length_mismatch_and_missing_keys() {
        let short = Json::obj(vec![("a", Json::Arr(vec![Json::from(1u64)]))]);
        let long = Json::obj(vec![(
            "a",
            Json::Arr(vec![Json::from(1u64), Json::from(2u64)]),
        )]);
        let d = first_divergence("r", &short, &long).expect("divergence");
        assert_eq!(d.path, "r.a[1]");
        assert_eq!(d.expected, "<absent>");
        let gone = Json::obj(vec![]);
        let d = first_divergence("r", &short, &gone).expect("divergence");
        assert_eq!(d.path, "r.a");
        assert_eq!(d.actual, "<absent>");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_hex(b"a"), format!("{:016x}", fnv1a64(b"a")));
    }
}
