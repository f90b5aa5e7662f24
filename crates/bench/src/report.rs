//! The one report path of the `BENCH_*.json` binaries (`hotpath`, `chaos`,
//! `report`): the repetition count ([`MEASURE_REPS`]), a [`Json`] value
//! with one renderer — what a bin prints is what it writes — the
//! [`machine`] fingerprint, and [`run_bin`], which every bin's `main`
//! calls.

use std::fmt::Write as _;

use looplynx_tensor::simd;

/// Timed repetitions of every measured cell. A cell reports their median
/// and its min / max, so a reader sees the spread the median came from.
pub const MEASURE_REPS: usize = 5;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A count: printed without a fraction.
    Int(u64),
    /// A measurement: printed with six significant digits (fixed decimals
    /// would print a 166 µs wall as `0.000`). JSON has no NaN/inf: a value
    /// that was never captured prints as `null`, so consumers can tell
    /// "absent" from "zero".
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

/// The named fields of `$from` (each a `Copy` type [`Json`] converts from)
/// as object fields under their own names, so a key is spelled once:
/// `fields![p; nodes, wall_s]` is
/// `vec![("nodes", p.nodes.into()), ("wall_s", p.wall_s.into())]`.
macro_rules! fields {
    ($from:expr; $($field:ident),+ $(,)?) => {
        vec![$((stringify!($field), $crate::report::Json::from($from.$field))),+]
    };
}
pub(crate) use fields;

impl Json {
    /// An array of `items` mapped through `f`.
    pub fn arr<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(f).collect())
    }

    /// The document as text: a container of scalars on one line, anything
    /// deeper one child per line at two spaces a level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                write_children(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Obj(fields) => {
                let children = fields.iter().map(|(k, v)| (Some(*k), v));
                write_children(out, depth, ['{', '}'], children);
            }
        }
    }

    /// Field `key` of an object.
    #[cfg(test)]
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A container whose children are all scalars stays on one line (an empty
/// one too); any other puts each child on a line of its own.
fn write_children<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    children: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = children
        .clone()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, value)) in children.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !inline {
            newline(out, depth + 1);
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !inline {
        newline(out, depth);
    }
    out.push(close);
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == 0.0 {
        out.push('0');
    } else {
        let magnitude = x.abs().log10().floor() as i32;
        let decimals = (5 - magnitude).max(0) as usize;
        let _ = write!(out, "{x:.decimals$}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What a report was measured on: core count, the widest int8 path the
/// kernels actually dispatch to on this CPU, and the build profile.
pub fn machine() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut int8_path = "scalar";
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        int8_path = "avx2";
    }
    if simd::vnni512_available() {
        int8_path = "avx512-vnni";
    }
    if simd::amx_int8_live() {
        int8_path = "amx-int8";
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![
        ("cores", cores.into()),
        ("int8_path", int8_path.into()),
        ("profile", profile.into()),
    ])
}

/// The `main` of a report binary, `<bin> [--quick] [output.json]`:
/// measures, then prints the JSON object — the [`machine`] it ran on in
/// front — and writes the same text to the output path (default
/// `default_out`). Hands the report back for a verdict.
///
/// # Panics
///
/// Panics if the output cannot be written or `to_json` is not an object.
pub fn run_bin<R>(
    bin: &str,
    default_out: &str,
    measure: impl FnOnce(bool) -> R,
    to_json: impl FnOnce(&R) -> Json,
) -> R {
    let mut quick = false;
    let mut out_path = default_out.to_owned();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; usage: {bin} [--quick] [output.json]");
                std::process::exit(2);
            }
            other => out_path = other.to_owned(),
        }
    }
    let report = measure(quick);
    let Json::Obj(mut fields) = to_json(&report) else {
        panic!("a report is a JSON object");
    };
    fields.insert(0, ("machine", machine()));
    let text = Json::Obj(fields).render();
    print!("{text}");
    std::fs::write(&out_path, text).expect("write benchmark JSON");
    println!("wrote {out_path}");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_nests_escapes_and_rounds() {
        struct Cell {
            n: usize,
            ok: bool,
        }
        let doc = Json::Obj(vec![
            ("name", "a\"b\\c\n\u{1}".into()),
            ("empty", Json::Arr(Vec::new())),
            (
                "cells",
                Json::arr([(1usize, true), (2, false)], |(n, ok)| {
                    let cell = Cell { n, ok };
                    Json::Obj(fields![cell; n, ok])
                }),
            ),
            (
                "walls",
                Json::arr(
                    [1.66e-4, 277.9, 144_972.4, 0.0, f64::NAN, f64::INFINITY],
                    Json::Num,
                ),
            ),
        ]);
        assert_eq!(
            doc.render(),
            r#"{
  "name": "a\"b\\c\n\u0001",
  "empty": [],
  "cells": [
    {"n": 1, "ok": true},
    {"n": 2, "ok": false}
  ],
  "walls": [0.000166000, 277.900, 144972, 0, null, null]
}
"#
        );
        assert!(matches!(doc.get("cells"), Some(Json::Arr(cells)) if cells.len() == 2));
        assert_eq!(doc.get("absent"), None);
    }

    #[test]
    fn machine_names_cores_path_and_profile() {
        let m = machine();
        assert!(matches!(m.get("cores"), Some(Json::Int(n)) if *n >= 1));
        assert!(matches!(m.get("int8_path"), Some(Json::Str(_))));
        assert!(matches!(m.get("profile"), Some(Json::Str(_))));
    }
}
