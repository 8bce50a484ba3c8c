//! Property-based tests (proptest) for the core ORAM data structures and
//! protocol invariants.

use palermo_oram::crypto::Payload;
use palermo_oram::hierarchy::{HierarchicalOram, HierarchyConfig, PrefetchMode, ProtocolFlavor};
use palermo_oram::params::{HierarchyParams, OramParams};
use palermo_oram::tree::TreeGeometry;
use palermo_oram::types::{BlockId, LeafId, OramOp, PhysAddr};
use proptest::prelude::*;
use std::collections::HashMap;

fn small_hierarchy(flavor: ProtocolFlavor, blocks: u64, seed: u64) -> HierarchicalOram {
    let data = OramParams::builder()
        .z(4)
        .s(6)
        .a(4)
        .num_blocks(blocks)
        .build()
        .unwrap();
    let params = HierarchyParams::derive(data, 1).unwrap();
    HierarchicalOram::new(HierarchyConfig {
        seed,
        ..HierarchyConfig::new(params, flavor)
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ORAM behaves exactly like a plain memory: an arbitrary interleaved
    /// sequence of reads and writes returns, for every read, the value of the
    /// most recent write to that address (or nothing if never written).
    #[test]
    fn oram_is_linearisable_memory(
        ops in prop::collection::vec((0u64..512, any::<bool>(), any::<u64>()), 1..150),
        seed in any::<u64>(),
        flavor_idx in 0usize..3,
    ) {
        let flavor = [ProtocolFlavor::PathOram, ProtocolFlavor::RingOram, ProtocolFlavor::Palermo][flavor_idx];
        let mut oram = small_hierarchy(flavor, 1024, seed);
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for (block, is_write, value) in ops {
            let pa = PhysAddr::new(block * 64);
            if is_write {
                oram.access(pa, OramOp::Write, Some(Payload::from_u64(value))).unwrap();
                shadow.insert(block, value);
            } else {
                let res = oram.access(pa, OramOp::Read, None).unwrap();
                match shadow.get(&block) {
                    Some(&expected) => prop_assert_eq!(res.value.unwrap().as_u64(), expected),
                    None => prop_assert!(res.value.is_none()),
                }
            }
        }
    }

    /// The stash never exceeds its hardware capacity for the Ring/Palermo
    /// protocols on arbitrary request mixes.
    #[test]
    fn stash_never_overflows(
        blocks in prop::collection::vec(0u64..2048, 50..300),
        seed in any::<u64>(),
        hoist in any::<bool>(),
    ) {
        let flavor = if hoist { ProtocolFlavor::Palermo } else { ProtocolFlavor::RingOram };
        let mut oram = small_hierarchy(flavor, 2048, seed);
        for (i, &b) in blocks.iter().enumerate() {
            let op = if i % 3 == 0 { OramOp::Write } else { OramOp::Read };
            let payload = (op == OramOp::Write).then(|| Payload::from_u64(i as u64));
            oram.access(PhysAddr::new(b * 64), op, payload).unwrap();
        }
        prop_assert_eq!(oram.stash_overflow_events(), 0);
        prop_assert!(oram.stash_high_water() <= 256);
    }

    /// Every access plan is structurally well formed and all of its DRAM
    /// addresses fall inside the hierarchy's tree regions.
    #[test]
    fn plans_are_well_formed_for_arbitrary_accesses(
        blocks in prop::collection::vec(0u64..4096, 1..80),
        prefetch in prop::sample::select(vec![1u32, 2, 4, 8]),
    ) {
        let data = OramParams::builder().z(8).s(10).a(6).num_blocks(4096).build().unwrap();
        let params = HierarchyParams::derive(data, 2).unwrap();
        let mut cfg = HierarchyConfig::new(params, ProtocolFlavor::Palermo);
        cfg.prefetch = if prefetch > 1 { PrefetchMode::WideBlock { length: prefetch } } else { PrefetchMode::None };
        let mut oram = HierarchicalOram::new(cfg).unwrap();
        let bound = oram.config().params.total_tree_bytes() * 8;
        for &b in &blocks {
            let res = oram.access(PhysAddr::new(b * 64), OramOp::Read, None).unwrap();
            prop_assert!(res.plan.is_well_formed());
            prop_assert!(res.plan.total_reads() > 0);
            prop_assert!(palermo_oram::validate::plan_addresses_within(&res.plan, 0, bound));
        }
    }

    /// Tree geometry: every node on a leaf's path is an ancestor-or-self of
    /// the leaf node, paths have exactly `levels` nodes, and the common-path
    /// depth is consistent with the two paths' shared prefix.
    #[test]
    fn tree_geometry_invariants(levels in 1u32..15, a in any::<u64>(), b in any::<u64>()) {
        let geometry = TreeGeometry::new(1u64 << (levels - 1));
        let leaf_a = LeafId(a % geometry.num_leaves());
        let leaf_b = LeafId(b % geometry.num_leaves());
        let path_a = geometry.path(leaf_a);
        prop_assert_eq!(path_a.len(), levels as usize);
        for (depth, node) in path_a.iter().enumerate() {
            prop_assert_eq!(geometry.level_of(*node), depth as u32);
            prop_assert!(geometry.is_on_path(*node, leaf_a));
        }
        let shared = geometry
            .path(leaf_a)
            .iter()
            .zip(geometry.path(leaf_b))
            .take_while(|(x, y)| **x == *y)
            .count() as u32;
        prop_assert_eq!(geometry.common_path_depth(leaf_a, leaf_b), shared);
    }

    /// The eviction-leaf sequence visits every leaf exactly once per period.
    #[test]
    fn eviction_order_is_a_permutation(levels in 1u32..12) {
        let geometry = TreeGeometry::new(1u64 << (levels - 1));
        let mut seen = vec![false; geometry.num_leaves() as usize];
        for g in 0..geometry.num_leaves() {
            let leaf = geometry.eviction_leaf(g);
            prop_assert!(!seen[leaf.0 as usize], "leaf visited twice");
            seen[leaf.0 as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// The parameter builder always produces a tree large enough to hold the
    /// requested number of blocks in its real slots.
    #[test]
    fn params_builder_capacity(num_blocks in 1u64..1_000_000, z in 1u16..64) {
        let p = OramParams::builder().num_blocks(num_blocks).z(z).build().unwrap();
        prop_assert!(p.num_leaves.is_power_of_two());
        let real_capacity = p.num_nodes() * u64::from(p.z);
        prop_assert!(real_capacity >= num_blocks);
        // ...but not absurdly larger (within 4x of the minimum power of two).
        prop_assert!(p.num_leaves <= (num_blocks.div_ceil(u64::from(z))).next_power_of_two().max(1));
    }

    /// Grouped prefetch reports exactly the other members of the group, and
    /// they are always adjacent cache lines of the accessed block.
    #[test]
    fn prefetched_lines_are_group_neighbours(block in 0u64..4096, length in prop::sample::select(vec![2u32, 4, 8])) {
        let data = OramParams::builder().z(8).s(10).a(6).num_blocks(4096).build().unwrap();
        let params = HierarchyParams::derive(data, 1).unwrap();
        let mut cfg = HierarchyConfig::new(params, ProtocolFlavor::Palermo);
        cfg.prefetch = PrefetchMode::WideBlock { length };
        let mut oram = HierarchicalOram::new(cfg).unwrap();
        let res = oram.access(PhysAddr::new(block * 64), OramOp::Read, None).unwrap();
        let group = block / u64::from(length);
        prop_assert_eq!(res.prefetched.len() as u64, u64::from(length) - 1);
        for line in &res.prefetched {
            prop_assert_eq!(line.0 / u64::from(length), group);
            prop_assert_ne!(*line, BlockId(block));
        }
    }
}
