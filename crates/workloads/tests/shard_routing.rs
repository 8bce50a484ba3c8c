//! Property tests for shard-routing soundness: every router must be a
//! *total, collision-free partition* of the workload footprint — no
//! address maps to two shards, no shard receives an address outside its
//! own partition, and the per-shard footprints tile the global one — for
//! arbitrary footprints and shard counts, not just the unit-test points.

use palermo_workloads::trace::{AccessStream, TraceEntry};
use palermo_workloads::{ShardRouter, ShardRouterKind, WorkloadSpec};
use proptest::prelude::*;

/// A stream stub with a configurable footprint: hash/range routers only
/// consult the footprint, so this gives the properties precise control
/// over the partition size.
#[derive(Clone)]
struct FixedFootprint {
    bytes: u64,
}

impl AccessStream for FixedFootprint {
    fn next_access(&mut self) -> TraceEntry {
        TraceEntry::read(0)
    }

    fn footprint_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Walks every cache line of the footprint through the router and checks
/// the partition properties exhaustively.
fn assert_total_collision_free_partition(router: &ShardRouter, footprint: u64) {
    let k = router.shards();
    let lines = footprint.div_ceil(64);
    let shard_lines: Vec<u64> = (0..k)
        .map(|s| router.shard_footprint_bytes(s) / 64)
        .collect();
    // The per-shard footprints tile the global one exactly.
    assert_eq!(shard_lines.iter().sum::<u64>(), lines);
    assert!(shard_lines.iter().all(|&n| n > 0), "a shard owns no lines");

    let mut seen: Vec<Vec<bool>> = shard_lines
        .iter()
        .map(|&n| vec![false; n as usize])
        .collect();
    for line in 0..lines {
        let addr = line * 64;
        let (shard, local) = router.route(addr);
        // Total: every address lands on a real shard, inside its partition.
        assert!(
            shard < k,
            "address {addr} routed to out-of-range shard {shard}"
        );
        assert_eq!(local % 64, 0, "line base lost its offset");
        let local_line = (local / 64) as usize;
        assert!(
            local_line < seen[shard as usize].len(),
            "address {addr} mapped outside shard {shard}'s partition"
        );
        // Collision-free: no two global lines share a (shard, local) slot.
        assert!(
            !seen[shard as usize][local_line],
            "two lines collided at shard {shard} local line {local_line}"
        );
        seen[shard as usize][local_line] = true;
        // Sub-line offsets ride along unchanged.
        for off in [1u64, 33, 63] {
            assert_eq!(router.route(addr + off), (shard, local + off));
        }
    }
    // Exhaustive totality + collision-freedom over L lines into exactly L
    // slots means every slot was hit: the map is a bijection.
    assert!(seen.iter().all(|s| s.iter().all(|&b| b)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hash and range routers partition any footprint with at least K
    /// cache lines, for any K.
    #[test]
    fn hash_and_range_routers_partition_arbitrary_footprints(
        lines in 1u64..2048,
        k in 1u32..17,
        tail in 0u64..64,
        kind_idx in 0usize..2,
    ) {
        // The vendored proptest shim has no prop_assume; clamp K into the
        // valid range (a router needs at least one line per shard).
        let k = k.min(u32::try_from(lines).unwrap_or(u32::MAX));
        let kind = [ShardRouterKind::Hash, ShardRouterKind::Range][kind_idx];
        // A ragged tail exercises the partial-last-line rounding.
        let footprint = (lines - 1) * 64 + tail.max(1);
        let stream = FixedFootprint { bytes: footprint };
        let router = ShardRouter::new(kind, k, &stream).unwrap();
        assert_total_collision_free_partition(&router, footprint);
    }

    /// Footprints with fewer lines than shards are rejected instead of
    /// silently producing empty shards (an empty shard would starve its
    /// stream filter forever).
    #[test]
    fn undersized_footprints_are_rejected(
        lines in 1u64..16,
        extra in 1u32..16,
        kind_idx in 0usize..2,
    ) {
        let kind = [ShardRouterKind::Hash, ShardRouterKind::Range][kind_idx];
        let k = u32::try_from(lines).unwrap() + extra;
        let stream = FixedFootprint { bytes: lines * 64 };
        prop_assert!(ShardRouter::new(kind, k, &stream).is_err());
    }

    /// The tenant-affine router pins every tenant's whole contiguous
    /// partition to one shard (tenant t -> shard t mod K) and is a total,
    /// collision-free partition of the mix footprint at *byte* granularity
    /// (tenant partitions need not be cache-line aligned).
    #[test]
    fn tenant_affine_router_partitions_real_mixes(
        k in 1u32..4,
        hint_mib in 1u64..5,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::from_name("mix:rr:mcf+random+redis").unwrap();
        let stream = spec.build(hint_mib << 20, seed).unwrap();
        let router = ShardRouter::new(ShardRouterKind::TenantAffine, k, stream.as_ref()).unwrap();
        let footprint = stream.footprint_bytes();
        // Byte tiling: per-shard footprints sum to the global one.
        let shard_bytes: Vec<u64> =
            (0..k).map(|s| router.shard_footprint_bytes(s)).collect();
        prop_assert_eq!(shard_bytes.iter().sum::<u64>(), footprint);
        // Each tenant's whole partition maps affinely onto one shard, and
        // the per-shard local bases tile [0, shard_footprint) exactly —
        // which makes the byte-level map a bijection.
        let mut next_local = vec![0u64; k as usize];
        for t in 0..stream.tenant_count() {
            let (base, size) = stream.tenant_partition(t).unwrap();
            let expected = u32::try_from(t).unwrap() % k;
            let local_base = next_local[expected as usize];
            for off in [0, 1, size / 2, size - 1] {
                let (shard, local) = router.route(base + off);
                prop_assert_eq!(shard, expected, "tenant {} split across shards", t);
                prop_assert_eq!(local, local_base + off, "tenant {} not affine", t);
                prop_assert!(local < shard_bytes[shard as usize]);
            }
            next_local[expected as usize] += size;
        }
        prop_assert_eq!(next_local, shard_bytes);
    }
}
