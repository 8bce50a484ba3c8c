//! `palermo-audit` — a determinism & invariant lint pass over the workspace.
//!
//! Every PR since the seed has staked correctness on one invariant:
//! byte-identical `RunMetrics` across `SerialExecutor`/`ThreadPoolExecutor`
//! and `CalendarStepper`/`ReferenceStepper`. Nothing enforced that *statically*:
//! a `HashMap` iteration or a wall-clock read deep in the simulator silently
//! breaks reproducibility, and the failure only surfaces (if ever) as a flaky
//! equivalence test. This crate makes the determinism contract a checked,
//! source-attributed property: a dependency-free token scanner walks every
//! non-vendor workspace crate and enforces the repo-specific lints described
//! in [`lints`], with [`baseline`] pinning accepted pre-existing findings.
//!
//! The binary is wired into CI as
//! `cargo run -p palermo-audit -- check --baseline audit-baseline.txt`.

pub mod baseline;
pub mod lexer;
pub mod lints;

use lints::Finding;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories the workspace walk never descends into: build output, VCS
/// state, vendored shims (not our code), and test/bench/example/fixture
/// trees (the lints target library code; the in-file `#[cfg(test)]`
/// exemption handles unit-test modules).
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "examples", "fixtures",
];

/// Collects `(relative_path, contents)` for every `.rs` file under `root`,
/// in sorted order (the walk itself must be deterministic — read_dir order
/// is not).
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut rs_files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_dir() {
                if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                rs_files.push(path);
            }
        }
    }
    rs_files.sort();
    let mut out = Vec::with_capacity(rs_files.len());
    for path in rs_files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, fs::read_to_string(&path)?));
    }
    Ok(out)
}

/// Walks the workspace at `root` and returns every finding, sorted.
pub fn audit_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = collect_files(root)?;
    Ok(lints::scan_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_vendor_test_and_hidden_dirs() {
        let dir = std::env::temp_dir().join("palermo_audit_walker_test");
        let _ = fs::remove_dir_all(&dir);
        for sub in [
            "crates/a/src",
            "crates/vendor/x/src",
            "crates/a/tests",
            "crates/a/benches",
            "examples",
            ".git",
            "target/debug",
        ] {
            fs::create_dir_all(dir.join(sub)).expect("mkdir");
        }
        let touch = |p: &str| fs::write(dir.join(p), "fn f() {}\n").expect("write");
        touch("crates/a/src/lib.rs");
        touch("crates/vendor/x/src/lib.rs");
        touch("crates/a/tests/t.rs");
        touch("crates/a/benches/b.rs");
        touch("examples/e.rs");
        touch(".git/g.rs");
        touch("target/debug/out.rs");
        touch("build.rs");
        let files = collect_files(&dir).expect("walk");
        let names: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(names, vec!["build.rs", "crates/a/src/lib.rs"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
