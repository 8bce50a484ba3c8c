//! Sharded partitioning of the protected address space.
//!
//! A sharded workload splits one access stream across `K` independent ORAM
//! instances. The split is defined by a [`ShardRouter`]: a total,
//! collision-free mapping from every global byte address in the inner
//! stream's footprint to a `(shard, shard-local address)` pair. Because the
//! routing is a pure function of the address (and, for the tenant-affine
//! router, of the stream's static tenant partition table), every shard can
//! filter the *same* deterministic inner stream and observe exactly the
//! subsequence destined for it — which is what makes serial and pooled
//! shard stepping byte-identical.
//!
//! Three router policies are provided:
//!
//! | name     | policy                                                      |
//! |----------|-------------------------------------------------------------|
//! | `hash`   | Feistel-scrambled line index modulo `K` (load-spreading)    |
//! | `range`  | contiguous equal line ranges (locality-preserving)          |
//! | `tenant` | tenant `t` lives wholly on shard `t % K` (isolation-affine) |
//!
//! The spec grammar is `shard:<K>:<router>:<inner>` (see
//! [`crate::spec::WorkloadSpec`]); the simulator side lives in
//! `palermo-sim`'s `shard` module.

use crate::spec::WorkloadSpec;
use crate::trace::{AccessStream, TaggedEntry, TraceEntry};
use crate::zipf::scramble;
use palermo_oram::error::{OramError, OramResult};
use palermo_oram::params::BLOCK_BYTES;
use palermo_oram::types::PhysAddr;
use std::fmt;

/// Maximum shard count accepted by [`ShardSpec::validate`]. Large enough
/// for any realistic multi-controller deployment, small enough that a typo
/// cannot ask for millions of ORAM instances.
pub const MAX_SHARDS: u32 = 64;

/// Upper bound on how many inner accesses a [`ShardStream`] will pull while
/// waiting for one that routes to its shard. Validation guarantees every
/// shard owns a non-empty partition, so hitting this bound indicates a
/// router/stream mismatch rather than an unlucky stream.
const MAX_FILTER_PULLS: u64 = 100_000_000;

fn invalid(reason: String) -> OramError {
    OramError::InvalidParams { reason }
}

/// The routing policy that assigns each global address to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardRouterKind {
    /// Feistel-scramble the cache-line index over the footprint, then take
    /// it modulo `K`. Spreads any access pattern near-uniformly across
    /// shards; destroys spatial locality by design.
    Hash,
    /// Split the line space into `K` contiguous, near-equal ranges.
    /// Preserves spatial locality within a shard.
    Range,
    /// Tenant `t`'s entire partition lives on shard `t % K`. Requires the
    /// inner stream to expose contiguous ascending per-tenant partitions
    /// (single-tenant streams and mixes do) and `K <=` tenant count.
    TenantAffine,
}

impl ShardRouterKind {
    /// The canonical spec-grammar name (`hash`, `range`, `tenant`).
    pub fn name(self) -> &'static str {
        match self {
            ShardRouterKind::Hash => "hash",
            ShardRouterKind::Range => "range",
            ShardRouterKind::TenantAffine => "tenant",
        }
    }

    /// Parses a canonical name back into the kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "hash" => Some(ShardRouterKind::Hash),
            "range" => Some(ShardRouterKind::Range),
            "tenant" => Some(ShardRouterKind::TenantAffine),
            _ => None,
        }
    }
}

impl fmt::Display for ShardRouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sharded workload: `K` shards, a routing policy, and the inner
/// (closed-loop) workload whose address space is partitioned.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Number of shards (`1..=MAX_SHARDS`).
    pub shards: u32,
    /// The routing policy.
    pub router: ShardRouterKind,
    /// The inner workload. Must be closed-loop: open-loop serving wraps
    /// *around* sharding (`open:…:shard:…`), never inside it.
    pub inner: Box<WorkloadSpec>,
}

impl ShardSpec {
    /// Convenience constructor.
    pub fn new(shards: u32, router: ShardRouterKind, inner: WorkloadSpec) -> Self {
        ShardSpec {
            shards,
            router,
            inner: Box::new(inner),
        }
    }

    /// The canonical name: `shard:<K>:<router>:<inner>`.
    pub fn name(&self) -> String {
        format!(
            "shard:{}:{}:{}",
            self.shards,
            self.router,
            self.inner.name()
        )
    }

    /// Validates the shard count, routing policy, and inner spec.
    ///
    /// # Errors
    ///
    /// Rejects shard counts outside `1..=MAX_SHARDS`, open-loop or nested
    /// sharded inners, tenant-affine routing over fewer tenants than
    /// shards, and anything the inner spec itself rejects.
    pub fn validate(&self) -> OramResult<()> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(invalid(format!(
                "shard count must be in 1..={MAX_SHARDS}, got {}",
                self.shards
            )));
        }
        match self.inner.as_ref() {
            WorkloadSpec::OpenLoop(_) => {
                return Err(invalid(
                    "sharded inner workloads must be closed-loop; wrap sharding in \
                     the open-loop spec instead (open:<arrivals>:shard:...)"
                        .into(),
                ));
            }
            WorkloadSpec::Sharded(_) => {
                return Err(invalid("sharded workloads cannot be nested".into()));
            }
            _ => {}
        }
        self.inner.validate()?;
        if self.router == ShardRouterKind::TenantAffine {
            let tenants = self.inner.tenant_count();
            if (self.shards as usize) > tenants {
                return Err(invalid(format!(
                    "tenant-affine routing needs at least as many tenants as \
                     shards ({} shards over {tenants} tenant(s))",
                    self.shards
                )));
            }
        }
        Ok(())
    }
}

/// A total, collision-free partition of a stream's footprint across `K`
/// shards, built once per run from the inner stream's static geometry
/// (footprint, tenant partitions) and shared by every shard.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    kind: ShardRouterKind,
    shards: u32,
    /// Total cache lines in the global footprint
    /// (`footprint.div_ceil(BLOCK_BYTES)`).
    total_lines: u64,
    /// Range router only: `starts[i]` is the first global line of shard
    /// `i`; length `K + 1` with `starts[K] == total_lines`.
    starts: Vec<u64>,
    /// Tenant-affine only: each tenant's global `(base, size)` byte
    /// partition in ascending tenant order.
    tenant_bases: Vec<(u64, u64)>,
    /// Tenant-affine only: the shard-local byte base of each tenant's
    /// partition on its owning shard.
    tenant_local_base: Vec<u64>,
    /// Per-shard footprint upper bound in bytes.
    shard_footprints: Vec<u64>,
}

impl ShardRouter {
    /// Builds a router over the given stream's footprint (and, for
    /// tenant-affine routing, its tenant partition table).
    ///
    /// # Errors
    ///
    /// Rejects zero shard counts, footprints with fewer lines than shards
    /// (hash/range), and tenant-affine routing over streams that do not
    /// expose contiguous ascending non-empty tenant partitions covering
    /// the whole footprint.
    pub fn new(kind: ShardRouterKind, shards: u32, stream: &dyn AccessStream) -> OramResult<Self> {
        if shards == 0 {
            return Err(invalid("shard router needs at least one shard".into()));
        }
        let footprint = stream.footprint_bytes();
        let total_lines = footprint.div_ceil(BLOCK_BYTES);
        let k = u64::from(shards);
        let mut router = ShardRouter {
            kind,
            shards,
            total_lines,
            starts: Vec::new(),
            tenant_bases: Vec::new(),
            tenant_local_base: Vec::new(),
            shard_footprints: Vec::new(),
        };
        match kind {
            ShardRouterKind::Hash => {
                if total_lines < k {
                    return Err(invalid(format!(
                        "hash router needs >= {k} cache lines, footprint has {total_lines}"
                    )));
                }
                // Shard i receives scrambled lines s = i, i + K, i + 2K, …
                // below `total_lines`, so its local line space is exactly
                // [0, L/K + (i < L % K)).
                router.shard_footprints = (0..k)
                    .map(|i| (total_lines / k + u64::from(i < total_lines % k)) * BLOCK_BYTES)
                    .collect();
            }
            ShardRouterKind::Range => {
                if total_lines < k {
                    return Err(invalid(format!(
                        "range router needs >= {k} cache lines, footprint has {total_lines}"
                    )));
                }
                router.starts = (0..=k)
                    .map(|i| (u128::from(i) * u128::from(total_lines) / u128::from(k)) as u64)
                    .collect();
                router.shard_footprints = router
                    .starts
                    .windows(2)
                    .map(|w| (w[1] - w[0]) * BLOCK_BYTES)
                    .collect();
            }
            ShardRouterKind::TenantAffine => {
                let tenants = stream.tenant_count();
                if (shards as usize) > tenants {
                    return Err(invalid(format!(
                        "tenant-affine router needs >= {shards} tenants, stream has {tenants}"
                    )));
                }
                let mut expected_base = 0u64;
                for t in 0..tenants {
                    let Some((base, size)) = stream.tenant_partition(t) else {
                        return Err(invalid(format!(
                            "tenant-affine routing needs contiguous tenant \
                             partitions; tenant {t} does not expose one"
                        )));
                    };
                    if base != expected_base || size == 0 {
                        return Err(invalid(format!(
                            "tenant-affine routing needs contiguous ascending \
                             non-empty tenant partitions; tenant {t} has base \
                             {base} size {size}, expected base {expected_base}"
                        )));
                    }
                    router.tenant_bases.push((base, size));
                    expected_base = base + size;
                }
                if expected_base != footprint {
                    return Err(invalid(format!(
                        "tenant partitions cover {expected_base} of {footprint} \
                         footprint bytes"
                    )));
                }
                router.shard_footprints = vec![0; shards as usize];
                router.tenant_local_base = Vec::with_capacity(tenants);
                for (t, &(_, size)) in router.tenant_bases.iter().enumerate() {
                    let shard = t % shards as usize;
                    router
                        .tenant_local_base
                        .push(router.shard_footprints[shard]);
                    router.shard_footprints[shard] += size;
                }
            }
        }
        Ok(router)
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The routing policy.
    pub fn kind(&self) -> ShardRouterKind {
        self.kind
    }

    /// Upper bound on shard `i`'s local footprint in bytes: every
    /// shard-local address this router produces for shard `i` is below it.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn shard_footprint_bytes(&self, shard: u32) -> u64 {
        self.shard_footprints[shard as usize]
    }

    /// Routes a global byte address to its `(shard, shard-local address)`.
    /// Total and collision-free over `[0, footprint)`: every address maps
    /// to exactly one shard, and distinct addresses on the same shard map
    /// to distinct local addresses.
    pub fn route(&self, addr: u64) -> (u32, u64) {
        let line = addr / BLOCK_BYTES;
        let offset = addr % BLOCK_BYTES;
        match self.kind {
            ShardRouterKind::Hash => {
                let s = scramble(line, self.total_lines);
                let k = u64::from(self.shards);
                ((s % k) as u32, (s / k) * BLOCK_BYTES + offset)
            }
            ShardRouterKind::Range => {
                // First start strictly above `line`, minus one: shard ids
                // are in 0..K because starts[0] == 0 and starts[K] == L.
                let shard = self.starts.partition_point(|&s| s <= line) - 1;
                (
                    shard as u32,
                    (line - self.starts[shard]) * BLOCK_BYTES + offset,
                )
            }
            ShardRouterKind::TenantAffine => {
                let t = self.tenant_bases.partition_point(|&(b, _)| b <= addr) - 1;
                let shard = (t % self.shards as usize) as u32;
                (
                    shard,
                    self.tenant_local_base[t] + (addr - self.tenant_bases[t].0),
                )
            }
        }
    }
}

/// The shard-local view of a shared inner stream: pulls the inner stream
/// until an access routes to this shard, then rewrites the address into
/// the shard-local space (preserving the global tenant id).
///
/// Every shard wraps its *own* clone of one freshly built inner stream, so
/// shards share no mutable state (only the immutable tables a clone
/// shares) yet observe consistent subsequences of one global access order.
#[derive(Clone)]
pub struct ShardStream {
    inner: Box<dyn AccessStream>,
    router: ShardRouter,
    shard: u32,
}

impl ShardStream {
    /// Wraps `inner` as shard `shard`'s view under `router`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= router.shards()`.
    pub fn new(inner: Box<dyn AccessStream>, router: ShardRouter, shard: u32) -> Self {
        assert!(
            shard < router.shards(),
            "shard {shard} out of range for {}-shard router",
            router.shards()
        );
        ShardStream {
            inner,
            router,
            shard,
        }
    }
}

impl AccessStream for ShardStream {
    fn next_access(&mut self) -> TraceEntry {
        self.next_tagged().entry
    }

    fn next_tagged(&mut self) -> TaggedEntry {
        for _ in 0..MAX_FILTER_PULLS {
            let tagged = self.inner.next_tagged();
            let (shard, local) = self.router.route(tagged.entry.addr.0);
            if shard == self.shard {
                return TaggedEntry {
                    entry: TraceEntry {
                        addr: PhysAddr::new(local),
                        op: tagged.entry.op,
                    },
                    tenant: tagged.tenant,
                };
            }
        }
        panic!(
            "shard {} saw no routed access in {MAX_FILTER_PULLS} pulls; \
             router and stream disagree about the footprint",
            self.shard
        );
    }

    fn tenant_count(&self) -> usize {
        self.inner.tenant_count()
    }

    fn footprint_bytes(&self) -> u64 {
        self.router.shard_footprint_bytes(self.shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn stream(spec: &WorkloadSpec) -> Box<dyn AccessStream> {
        spec.build(1 << 20, 7).unwrap()
    }

    fn random_spec() -> WorkloadSpec {
        WorkloadSpec::Table2(Workload::Random)
    }

    #[test]
    fn router_kind_names_round_trip() {
        for kind in [
            ShardRouterKind::Hash,
            ShardRouterKind::Range,
            ShardRouterKind::TenantAffine,
        ] {
            assert_eq!(ShardRouterKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ShardRouterKind::from_name("nope"), None);
    }

    #[test]
    fn every_router_partitions_the_footprint() {
        let s = stream(&random_spec());
        let footprint = s.footprint_bytes();
        for kind in [ShardRouterKind::Hash, ShardRouterKind::Range] {
            let router = ShardRouter::new(kind, 4, s.as_ref()).unwrap();
            let mut per_shard_lines = [0u64; 4];
            // Walk every line (offset 0) plus a mid-line offset.
            for line in 0..footprint.div_ceil(64) {
                let (shard, local) = router.route(line * 64);
                assert!(shard < 4, "{kind:?}");
                assert!(
                    local < router.shard_footprint_bytes(shard),
                    "{kind:?}: local {local} beyond shard {shard} footprint"
                );
                let (shard2, local2) = router.route(line * 64 + 17);
                assert_eq!((shard, local + 17), (shard2, local2), "{kind:?}");
                per_shard_lines[shard as usize] += 1;
            }
            let total: u64 = per_shard_lines.iter().sum();
            assert_eq!(total, footprint.div_ceil(64), "{kind:?} dropped lines");
            for (i, &lines) in per_shard_lines.iter().enumerate() {
                assert_eq!(
                    lines * 64,
                    router.shard_footprint_bytes(i as u32),
                    "{kind:?} shard {i} line count vs footprint"
                );
            }
        }
    }

    #[test]
    fn range_router_is_order_preserving_within_a_shard() {
        let s = stream(&random_spec());
        let router = ShardRouter::new(ShardRouterKind::Range, 3, s.as_ref()).unwrap();
        let mut prev: Vec<Option<u64>> = vec![None; 3];
        for line in 0..s.footprint_bytes().div_ceil(64) {
            let (shard, local) = router.route(line * 64);
            if let Some(p) = prev[shard as usize] {
                assert!(local > p, "range routing must preserve order");
            }
            prev[shard as usize] = Some(local);
        }
    }

    #[test]
    fn tenant_affine_router_pins_tenants_to_shards() {
        let spec = WorkloadSpec::from_name("mix:rr:mcf+random+redis").unwrap();
        let s = stream(&spec);
        let router = ShardRouter::new(ShardRouterKind::TenantAffine, 2, s.as_ref()).unwrap();
        let mut covered = 0u64;
        for t in 0..s.tenant_count() {
            let (base, size) = s.tenant_partition(t).unwrap();
            covered += size;
            let expect_shard = (t % 2) as u32;
            for probe in [base, base + size / 2, base + size - 1] {
                let (shard, local) = router.route(probe);
                assert_eq!(shard, expect_shard, "tenant {t} strayed off its shard");
                assert!(local < router.shard_footprint_bytes(shard));
            }
        }
        assert_eq!(covered, s.footprint_bytes());
        let sum: u64 = (0..2).map(|i| router.shard_footprint_bytes(i)).sum();
        assert_eq!(sum, s.footprint_bytes());
    }

    #[test]
    fn degenerate_router_builds_are_rejected() {
        let s = stream(&random_spec());
        let err = ShardRouter::new(ShardRouterKind::Hash, 0, s.as_ref()).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        // A single-tenant stream cannot feed a 2-way tenant-affine router.
        let err = ShardRouter::new(ShardRouterKind::TenantAffine, 2, s.as_ref()).unwrap_err();
        assert!(err.to_string().contains("tenant"), "{err}");
        // Fewer lines than shards.
        #[derive(Clone)]
        struct Tiny;
        impl AccessStream for Tiny {
            fn next_access(&mut self) -> TraceEntry {
                TraceEntry::read(0)
            }
            fn footprint_bytes(&self) -> u64 {
                128
            }
        }
        let err = ShardRouter::new(ShardRouterKind::Hash, 4, &Tiny).unwrap_err();
        assert!(err.to_string().contains("cache lines"), "{err}");
        let err = ShardRouter::new(ShardRouterKind::Range, 4, &Tiny).unwrap_err();
        assert!(err.to_string().contains("cache lines"), "{err}");
    }

    #[test]
    fn shard_streams_partition_the_global_sequence() {
        // Four shard streams over clones of one fresh inner stream must
        // partition the exact global sequence: merging their pulls in
        // global order reproduces the unsharded stream.
        let spec = random_spec();
        let prototype = stream(&spec);
        let router = ShardRouter::new(ShardRouterKind::Hash, 4, prototype.as_ref()).unwrap();
        let mut global = stream(&spec);
        let mut shards: Vec<ShardStream> = (0..4)
            .map(|i| ShardStream::new(prototype.clone(), router.clone(), i))
            .collect();
        for _ in 0..500 {
            let g = global.next_tagged();
            let (shard, local) = router.route(g.entry.addr.0);
            let s = shards[shard as usize].next_tagged();
            assert_eq!(s.entry.addr.0, local);
            assert_eq!(s.entry.op, g.entry.op);
            assert_eq!(s.tenant, g.tenant);
            assert!(s.entry.addr.0 < shards[shard as usize].footprint_bytes());
        }
    }

    #[test]
    fn shard_spec_validation_rejects_bad_shapes() {
        let inner = random_spec();
        assert!(ShardSpec::new(0, ShardRouterKind::Hash, inner.clone())
            .validate()
            .is_err());
        assert!(ShardSpec::new(65, ShardRouterKind::Hash, inner.clone())
            .validate()
            .is_err());
        assert!(
            ShardSpec::new(2, ShardRouterKind::TenantAffine, inner.clone())
                .validate()
                .is_err(),
            "tenant-affine over one tenant"
        );
        let nested = WorkloadSpec::Sharded(ShardSpec::new(2, ShardRouterKind::Hash, inner.clone()));
        assert!(ShardSpec::new(2, ShardRouterKind::Hash, nested)
            .validate()
            .is_err());
        let open = WorkloadSpec::from_name("open:poisson:0.1:random").unwrap();
        assert!(ShardSpec::new(2, ShardRouterKind::Hash, open)
            .validate()
            .is_err());
        assert!(ShardSpec::new(2, ShardRouterKind::Hash, inner)
            .validate()
            .is_ok());
    }
}
