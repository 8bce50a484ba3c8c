//! Integration tests for the security-relevant properties of the protocol
//! layer: leaf-selection uniformity, address remapping on every access, and
//! the isolation of response latencies (mutual information ≈ 0).

use palermo::analysis::mutual_info::estimate_from_samples;
use palermo::oram::crypto::Payload;
use palermo::oram::hierarchy::{HierarchicalOram, HierarchyConfig, ProtocolFlavor};
use palermo::oram::params::{HierarchyParams, OramParams};
use palermo::oram::types::{OramOp, PhysAddr, SubOram};
use palermo::oram::validate::{leaf_uniformity, plan_addresses_within, request_ids_monotonic};
use palermo::oram::PhaseKind;
use palermo::sim::runner::run_workload_spec;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;

fn small_oram(flavor: ProtocolFlavor) -> HierarchicalOram {
    let data = OramParams::builder()
        .z(8)
        .s(12)
        .a(8)
        .num_blocks(1 << 14)
        .build()
        .unwrap();
    let params = HierarchyParams::derive(data, 2).unwrap();
    HierarchicalOram::new(HierarchyConfig::new(params, flavor)).unwrap()
}

#[test]
fn repeated_accesses_to_one_address_touch_uniform_leaves() {
    // The DRAM-visible addresses of the data-level ReadPath depend only on
    // the (re)mapped leaf; hammering a single PA must therefore produce a
    // leaf-level bucket sequence indistinguishable from uniform. The
    // leaf-level bucket is recovered from the deepest address of each
    // ReadPath using the known bucket layout (metadata block + Z+S slots).
    let mut oram = small_oram(ProtocolFlavor::Palermo);
    let params = oram.config().params.data;
    let num_leaves = params.num_leaves;
    let bucket_stride = params.bucket_bytes();
    let first_leaf_node = num_leaves - 1; // level-order id of the first leaf-level node
    let mut observed = Vec::new();
    for _ in 0..6000 {
        let res = oram
            .access(PhysAddr::new(0x40), OramOp::Read, None)
            .unwrap();
        let rp = res.plan.node(SubOram::Data, PhaseKind::ReadPath).unwrap();
        let deepest = *rp.reads.iter().max().unwrap();
        let node = deepest / bucket_stride; // data tree starts at DRAM base 0
        let leaf = node.saturating_sub(first_leaf_node) % num_leaves;
        // Bin into 256 groups so every chi-square bin has a healthy expected
        // count; a uniform leaf distribution stays uniform under `% 256`.
        observed.push(palermo::oram::LeafId(leaf % 256));
    }
    let report = leaf_uniformity(&observed, 256);
    assert!(
        report.looks_uniform(),
        "leaf selection is biased: chi2 = {:.1} over 256 bins",
        report.chi_square
    );
}

#[test]
fn address_is_remapped_on_every_access() {
    // Accessing the same PA twice must not read the same data-level path
    // (except with probability 1/num_leaves).
    let mut oram = small_oram(ProtocolFlavor::RingOram);
    let mut identical = 0;
    let mut previous: Option<Vec<u64>> = None;
    for _ in 0..200 {
        let res = oram
            .access(PhysAddr::new(0x1000), OramOp::Read, None)
            .unwrap();
        let reads = res
            .plan
            .node(SubOram::Data, PhaseKind::ReadPath)
            .unwrap()
            .reads
            .clone();
        if previous.as_ref() == Some(&reads) {
            identical += 1;
        }
        previous = Some(reads);
    }
    assert!(
        identical < 10,
        "path repeated {identical}/200 times; remapping is broken"
    );
}

#[test]
fn plans_stay_within_the_tree_regions_and_are_ordered() {
    let mut oram = small_oram(ProtocolFlavor::Palermo);
    let total_footprint = oram.config().params.total_tree_bytes() * 4;
    let mut plans = Vec::new();
    for i in 0..100u64 {
        let res = oram
            .access(PhysAddr::new((i * 64) % (1 << 20)), OramOp::Read, None)
            .unwrap();
        assert!(
            plan_addresses_within(&res.plan, 0, total_footprint),
            "plan {i} escapes the DRAM region"
        );
        assert!(res.plan.is_well_formed());
        plans.push(res.plan);
    }
    assert!(request_ids_monotonic(&plans));
}

#[test]
fn write_data_is_unreadable_without_the_protocol() {
    // The payload stored for a block is only returned through the protocol;
    // a different address must never alias it.
    let mut oram = small_oram(ProtocolFlavor::Palermo);
    oram.access(
        PhysAddr::new(0x2000),
        OramOp::Write,
        Some(Payload::from_u64(777)),
    )
    .unwrap();
    let other = oram
        .access(PhysAddr::new(0x4000), OramOp::Read, None)
        .unwrap();
    assert!(other.value.is_none());
    let same = oram
        .access(PhysAddr::new(0x2000), OramOp::Read, None)
        .unwrap();
    assert_eq!(same.value.unwrap().as_u64(), 777);
}

#[test]
fn timing_channel_mutual_information_is_small_end_to_end() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 120;
    cfg.warmup_requests = 30;
    let m = run_workload_spec(Scheme::Palermo, &Workload::Redis.into(), &cfg).unwrap();
    let samples: Vec<(bool, f64)> = m
        .behaviour_latency
        .iter()
        .map(|&(b, l)| (b, l as f64))
        .collect();
    if let Some((_, mi)) = estimate_from_samples(&samples) {
        assert!(mi < 0.25, "timing channel leaks {mi} bits at small scale");
    }
}
