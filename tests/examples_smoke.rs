//! Workspace smoke test: every `examples/` target must keep compiling.
//!
//! The 20 examples are the user-facing entry points: the paper's figures,
//! the application demos and the bench checker. This test makes
//! `cargo test` fail fast if any of them rots, without having to execute
//! their (much longer) full runs.

use std::process::Command;

#[test]
fn all_example_targets_compile() {
    let status = Command::new(env!("CARGO"))
        .args(["build", "--examples", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("failed to spawn cargo");
    assert!(status.success(), "cargo build --examples failed");
}
