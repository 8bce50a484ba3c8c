//! Workspace smoke test: every `examples/` target must keep compiling, and
//! the environment knobs they share must reject what they cannot read.
//!
//! The 19 examples are the user-facing entry points: the paper's figures
//! and the application demos. This test makes `cargo test` fail fast if any
//! of them rots, without having to execute their (much longer) full runs.

use std::process::Command;

#[path = "../examples/support/mod.rs"]
mod support;

#[test]
fn all_example_targets_compile() {
    let status = Command::new(env!("CARGO"))
        .args(["build", "--examples", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("failed to spawn cargo");
    assert!(status.success(), "cargo build --examples failed");
}

#[test]
fn request_budget_is_a_count_or_a_named_error() {
    assert_eq!(support::parse_request_budget(None), Ok(None));
    assert_eq!(support::parse_request_budget(Some("20")), Ok(Some(20)));
    for bad in ["20ms", "", " 20", "-5", "2e1", "40k"] {
        let err = support::parse_request_budget(Some(bad)).unwrap_err();
        assert!(err.contains(&format!("{bad:?}")), "{err}");
    }
}

#[test]
fn serial_check_is_one_or_a_named_error() {
    assert_eq!(support::parse_serial_check(None), Ok(false));
    assert_eq!(support::parse_serial_check(Some("1")), Ok(true));
    for bad in ["0", "", "true", " 1"] {
        let err = support::parse_serial_check(Some(bad)).unwrap_err();
        assert!(err.contains(&format!("{bad:?}")), "{err}");
    }
}
