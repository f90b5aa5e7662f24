//! # looplynx-lint — workspace invariant checker
//!
//! The repo's reliability contract ("bit-exact under any schedule, no
//! request lost") is enforced dynamically by the test wall; this crate
//! enforces the *conventions* that keep it true statically, so the next
//! PR cannot sneak an `unwrap()` into the gateway drain loop, an
//! undocumented `unsafe` into a kernel, or a `HashMap` iteration into a
//! bit-exact path. Offline build, so the parser is hand-rolled
//! ([`lexer`]) rather than `syn`.
//!
//! Rules ([`rules`]):
//!
//! * `panic_free` — no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`
//!   in non-test code of `serve::{gateway,batcher}` (the serving loop and
//!   its presets) and `core::{backend,engine,pool}`; use `BackendError`.
//! * `safety_comment` — every `unsafe` workspace-wide carries an
//!   adjacent `// SAFETY:` comment (or `/// # Safety` section).
//! * `determinism` — no `Instant`/`SystemTime`, `HashMap`/`HashSet`, or
//!   entropy-seeded RNG in the bit-exact crates (`model`,
//!   `core::backend`).
//! * `bounded_channel` — no unbounded `channel()` in `serve`.
//!
//! Per-site waivers: `// lint: allow(<rule>) — <reason>` on the
//! offending line or the line above (reason mandatory). The catalogue
//! and waiver policy live in `docs/INVARIANTS.md`.
//!
//! Run as a binary (`cargo run -p looplynx-lint`, exits non-zero on
//! findings) and as a tier-1 test (`cargo test -p looplynx-lint`, which
//! asserts the workspace is clean *and* that every rule still fires on
//! its negative fixtures).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, Finding};

/// The source roots the workspace check walks: every member crate's
/// `src` tree plus the facade crate's. Integration-test and bench trees
/// are test code by definition; `vendor/` is third-party; the lint
/// crate's `fixtures/` are deliberately violating inputs.
fn source_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates"))? {
        let dir = entry?.path().join("src");
        if dir.is_dir() {
            roots.push(dir);
        }
    }
    roots.sort();
    Ok(roots)
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic reports.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace source file under `root` (the repo root) and
/// returns the surviving findings, sorted by file and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for dir in source_roots(root)? {
        rust_files(&dir, &mut files)?;
    }
    let mut findings = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &source));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// The repo root, resolved from this crate's manifest directory
/// (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
