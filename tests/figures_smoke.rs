//! Fast regression coverage for every `sim::figures::*` runner.
//!
//! Each figure runner is executed on a heavily shrunken configuration so
//! that a regression anywhere in the figure pipelines (workload generation,
//! scheme wiring, table rendering) is caught by the tier-1 test suite in
//! seconds rather than only by a full-size run of the figure's example.

use palermo::sim::experiment::SerialExecutor;
use palermo::sim::figures::{fig03, fig04, fig09, fig10, fig11, fig12, fig13, fig14, fig15};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::workload::Workload;

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 30;
    cfg.warmup_requests = 8;
    cfg
}

#[test]
fn fig03_runner_produces_rows() {
    let rows = fig03::run(&tiny(), &SerialExecutor).expect("fig03 run");
    assert!(!rows.is_empty());
    assert!(!fig03::table(&rows).to_text().is_empty());
}

#[test]
fn fig04_runner_produces_rows() {
    let rows = fig04::run(&tiny(), &[1, 4], &SerialExecutor).expect("fig04 run");
    assert!(!rows.is_empty());
    assert!(!fig04::table(&rows).to_text().is_empty());
}

#[test]
fn fig09_runner_produces_rows() {
    let rows = fig09::run(&tiny(), &SerialExecutor).expect("fig09 run");
    assert!(!rows.is_empty());
    assert!(!fig09::table(&rows).to_text().is_empty());
}

#[test]
fn fig10_runner_produces_report() {
    let report = fig10::run(
        &tiny(),
        &[Workload::Random],
        &[Scheme::PathOram, Scheme::Palermo],
        &SerialExecutor,
    )
    .expect("fig10 run");
    assert!(!fig10::table(&report).to_text().is_empty());
}

#[test]
fn fig11_runner_produces_rows() {
    let rows = fig11::run(&tiny(), &SerialExecutor).expect("fig11 run");
    assert!(!rows.is_empty());
    assert!(!fig11::table(&rows).to_text().is_empty());
}

#[test]
fn fig12_runner_produces_rows() {
    let rows = fig12::run(&tiny(), &SerialExecutor).expect("fig12 run");
    assert!(!rows.is_empty());
    assert!(!fig12::table(&rows).to_text().is_empty());
}

#[test]
fn fig13_runner_produces_rows() {
    let rows = fig13::run(&tiny(), &[1, 4], &SerialExecutor).expect("fig13 run");
    assert!(!rows.is_empty());
    assert!(!fig13::table(&rows).to_text().is_empty());
}

#[test]
fn fig14_runners_produce_points() {
    let cfg = tiny();
    let z_points = fig14::run_z_sweep(&cfg, &[8], &SerialExecutor).expect("fig14 z sweep");
    let pe_points = fig14::run_pe_sweep(&cfg, &[4], &SerialExecutor).expect("fig14 pe sweep");
    assert!(!z_points.is_empty());
    assert!(!pe_points.is_empty());
    let (zt, pt) = fig14::tables(&z_points, &pe_points);
    assert!(!zt.to_text().is_empty());
    assert!(!pt.to_text().is_empty());
}

#[test]
fn fig15_runner_produces_estimate() {
    let est = fig15::run(&tiny());
    assert!(!fig15::table(&est).to_text().is_empty());
}
