//! Multi-tenant workload mixes.
//!
//! Cloud ORAM deployments do not serve one tenant at a time: the realistic
//! serving case is mixed traffic from many co-located services sharing one
//! protected memory. [`MixStream`] models that by composing N child
//! [`AccessStream`]s into a single stream:
//!
//! * **Address-space partitioning** — tenant `i`'s accesses are offset into
//!   its own contiguous slice of the mixed footprint (prefix sums of the
//!   child footprints), so tenants never alias each other's lines;
//! * **Tenant selection** — either *weighted round-robin* (a deterministic
//!   interleaved schedule where tenant `i` appears `weight_i` times per
//!   round) or *Zipf-weighted* (tenant popularity follows a Zipf
//!   distribution over the tenant list — first tenant hottest — the shape
//!   HPC workload-characterisation studies report for mixed cloud traffic).
//!   A [`PhasedMixSpec`] builds the same stream with a *phased* schedule:
//!   weighted round-robin over the tenants whose activity window holds the
//!   current access index;
//! * **Deterministic per-tenant seeding** — every child stream and the
//!   selection sampler get independent seeds expanded from the mix seed
//!   with SplitMix64, so the same seed reproduces the same mixed trace
//!   bit-for-bit regardless of tenant count.

use crate::spec::WorkloadSpec;
use crate::trace::{AccessStream, TaggedEntry, TraceEntry};
use crate::zipf::Zipf;
use palermo_oram::error::{OramError, OramResult};
use palermo_oram::rng::{OramRng, SplitMix64};
use palermo_oram::types::PhysAddr;

/// How the mix picks the tenant serving the next access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantSelection {
    /// Deterministic interleaved weighted round-robin: per round, tenant
    /// `i` contributes `weight_i` accesses, interleaved rather than
    /// bursted.
    WeightedRoundRobin,
    /// Tenant popularity follows a Zipf distribution over the tenant list
    /// (first tenant hottest); per-tenant weights are ignored. `theta` is
    /// the skew in `[0, 1)` — 0 is uniform, 0.9 the usual hot-tenant case.
    Zipf {
        /// Skew of the tenant-popularity distribution.
        theta: f64,
    },
}

/// One tenant of a mix: a child workload spec and its round-robin weight.
///
/// A weight of 0 is **rejected** by [`MixSpec::validate`] rather than
/// silently starving the tenant: a zero-weight tenant would never appear in
/// the interleaved schedule, yet it would still be allocated an address-
/// space partition and a seed, reporting metrics rows that can never fill.
/// Remove the tenant from the mix instead of zeroing its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The child workload (Table II or trace replay; mixes cannot nest).
    pub workload: WorkloadSpec,
    /// Relative share under weighted round-robin (must be ≥ 1).
    pub weight: u32,
}

/// A declarative description of a multi-tenant mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// The tenants, in partition order (tenant 0 owns the lowest addresses
    /// and is the hottest under Zipf selection).
    pub tenants: Vec<TenantSpec>,
    /// The tenant-selection policy.
    pub selection: TenantSelection,
}

impl MixSpec {
    /// Starts an empty mix with the given selection policy.
    pub fn new(selection: TenantSelection) -> Self {
        MixSpec {
            tenants: Vec::new(),
            selection,
        }
    }

    /// Starts an empty weighted-round-robin mix.
    pub fn round_robin() -> Self {
        Self::new(TenantSelection::WeightedRoundRobin)
    }

    /// Starts an empty Zipf-weighted mix with skew `theta`.
    pub fn zipf(theta: f64) -> Self {
        Self::new(TenantSelection::Zipf { theta })
    }

    /// Appends a tenant.
    #[must_use]
    pub fn tenant(mut self, workload: WorkloadSpec, weight: u32) -> Self {
        self.tenants.push(TenantSpec { workload, weight });
        self
    }

    /// Validates the mix: at least one tenant, weights ≥ 1, a Zipf skew in
    /// `[0, 1)`, and children that are themselves valid and not mixes
    /// (nesting would break the flat partition map and the spec-name
    /// grammar).
    ///
    /// # Errors
    ///
    /// Names the offending tenant/parameter.
    pub fn validate(&self) -> OramResult<()> {
        if self.tenants.is_empty() {
            return Err(OramError::InvalidParams {
                reason: "a mix needs at least one tenant".into(),
            });
        }
        if let TenantSelection::Zipf { theta } = self.selection {
            if !(0.0..1.0).contains(&theta) {
                return Err(OramError::InvalidParams {
                    reason: format!("mix zipf skew {theta} must lie in [0, 1)"),
                });
            }
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(OramError::InvalidParams {
                    reason: format!("tenant {i} has weight 0 (must be ≥ 1)"),
                });
            }
            if matches!(
                t.workload,
                WorkloadSpec::Mix(_) | WorkloadSpec::PhasedMix(_) | WorkloadSpec::Sharded(_)
            ) {
                return Err(OramError::InvalidParams {
                    reason: format!(
                        "tenant {i} is itself a mix or sharded spec; mixes cannot \
nest and sharding wraps a mix, never the other way around"
                    ),
                });
            }
            if matches!(t.workload, WorkloadSpec::OpenLoop(_)) {
                return Err(OramError::InvalidParams {
                    reason: format!(
                        "tenant {i} is an open-loop spec; arrival processes wrap a \
mix, never the other way around"
                    ),
                });
            }
            t.workload.validate()?;
        }
        Ok(())
    }
}

/// One instantiated tenant: its stream and its slice of the address space.
#[derive(Clone)]
struct Tenant {
    stream: Box<dyn AccessStream>,
    base: u64,
    footprint: u64,
}

/// Builds the tenant streams with an equal share of the footprint hint and
/// lays them out side by side (prefix-sum partitioning). The seeds come
/// from one SplitMix64 expansion of the mix seed: the selection seed first,
/// then one seed per tenant, so both spec kinds partition and seed
/// identically. Returns the tenants, their combined footprint and the
/// selection seed.
fn build_tenants<'a>(
    children: impl ExactSizeIterator<Item = &'a WorkloadSpec>,
    footprint_hint: u64,
    seed: u64,
) -> OramResult<(Vec<Tenant>, u64, u64)> {
    let n = children.len();
    let mut sm = SplitMix64::new(seed);
    let selection_seed = sm.next_u64();
    let per_tenant_hint = (footprint_hint / n as u64).max(1);
    let mut tenants = Vec::with_capacity(n);
    let mut base = 0u64;
    for (i, child) in children.enumerate() {
        let stream = child.build(per_tenant_hint, sm.next_u64())?;
        let footprint = stream.footprint_bytes();
        tenants.push(Tenant {
            stream,
            base,
            footprint,
        });
        base = base
            .checked_add(footprint)
            .ok_or_else(|| OramError::InvalidParams {
                reason: format!(
                    "mix footprint overflows the address space at tenant {i} \
(combined footprint exceeds 2^64 bytes)"
                ),
            })?;
    }
    Ok((tenants, base, selection_seed))
}

/// Builds the interleaved weighted-round-robin order: round `r` serves every
/// tenant whose weight exceeds `r`, so a 2:1:1 mix plays 0,1,2,0 — not
/// 0,0,1,2. One full cycle of the order (the *interleave period*, of length
/// `sum(weights)`) serves tenant `i` exactly `weight_i` times, so the
/// long-run share is exact for any weights; only a run cut mid-period can
/// deviate, by at most one access per tenant.
fn wrr_order(weights: impl Iterator<Item = u32> + Clone) -> Vec<usize> {
    let max_weight = weights.clone().max().unwrap_or(1);
    let mut order = Vec::new();
    for round in 0..max_weight {
        for (i, w) in weights.clone().enumerate() {
            if w > round {
                order.push(i);
            }
        }
    }
    order
}

/// The tenant-selection engine.
#[derive(Clone)]
enum Schedule {
    /// Interleaved weighted round-robin over a precomputed tenant order.
    Wrr { order: Vec<usize>, cursor: usize },
    /// Zipf-weighted random selection.
    Zipf { sampler: Zipf, rng: OramRng },
    /// Interleaved weighted round-robin that skips tenants outside their
    /// activity window. `clock` counts the accesses emitted so far; the
    /// windows are read against it.
    Phased {
        order: Vec<usize>,
        cursor: usize,
        windows: Vec<PhaseWindow>,
        clock: u64,
    },
}

/// The composed multi-tenant access stream. Build one from a [`MixSpec`]
/// or a [`PhasedMixSpec`] (usually via [`WorkloadSpec::build`]).
#[derive(Clone)]
pub struct MixStream {
    tenants: Vec<Tenant>,
    schedule: Schedule,
    total_footprint: u64,
}

impl MixStream {
    /// Instantiates a mix: children are built with deterministic per-tenant
    /// seeds and an equal share of the footprint hint, then laid out
    /// side by side (prefix-sum partitioning).
    ///
    /// # Errors
    ///
    /// Propagates [`MixSpec::validate`] failures, child build errors (e.g.
    /// a missing trace file), and a combined footprint that overflows the
    /// address space.
    pub fn new(spec: &MixSpec, footprint_hint: u64, seed: u64) -> OramResult<Self> {
        spec.validate()?;
        let (tenants, total_footprint, selection_seed) = build_tenants(
            spec.tenants.iter().map(|t| &t.workload),
            footprint_hint,
            seed,
        )?;
        let schedule = match spec.selection {
            TenantSelection::WeightedRoundRobin => Schedule::Wrr {
                order: wrr_order(spec.tenants.iter().map(|t| t.weight)),
                cursor: 0,
            },
            TenantSelection::Zipf { theta } => Schedule::Zipf {
                sampler: Zipf::new(tenants.len() as u64, theta),
                rng: OramRng::new(selection_seed),
            },
        };
        Ok(MixStream {
            tenants,
            schedule,
            total_footprint,
        })
    }

    /// Instantiates a phased mix. Children are built, seeded and laid out
    /// exactly as by [`MixStream::new`], so a phased mix whose windows are
    /// all `[0, MAX)` emits the same stream as the equivalent round-robin
    /// [`MixSpec`].
    ///
    /// # Errors
    ///
    /// Propagates [`PhasedMixSpec::validate`] failures, child build errors
    /// and footprint overflow.
    pub fn phased(spec: &PhasedMixSpec, footprint_hint: u64, seed: u64) -> OramResult<Self> {
        spec.validate()?;
        let (tenants, total_footprint, _) = build_tenants(
            spec.tenants.iter().map(|t| &t.workload),
            footprint_hint,
            seed,
        )?;
        let schedule = Schedule::Phased {
            order: wrr_order(spec.tenants.iter().map(|t| t.weight)),
            cursor: 0,
            windows: spec.tenants.iter().map(|t| t.window).collect(),
            clock: 0,
        };
        Ok(MixStream {
            tenants,
            schedule,
            total_footprint,
        })
    }

    /// The `[base, base + footprint)` address slice owned by tenant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tenant_partition(&self, i: usize) -> (u64, u64) {
        let t = &self.tenants[i];
        (t.base, t.base + t.footprint)
    }
}

impl MixStream {
    /// Pulls the next access from tenant `idx`'s child stream and offsets
    /// it into the tenant's partition — the shared tail of both the
    /// schedule-driven and the arrival-driven entry points.
    fn pull_from(&mut self, idx: usize) -> TaggedEntry {
        let tenant = &mut self.tenants[idx];
        let entry = tenant.stream.next_access();
        debug_assert!(
            entry.addr.0 < tenant.footprint,
            "tenant {idx} violated its footprint bound"
        );
        TaggedEntry {
            entry: TraceEntry {
                addr: PhysAddr::new(tenant.base + entry.addr.0),
                op: entry.op,
            },
            tenant: idx as u32,
        }
    }
}

impl AccessStream for MixStream {
    fn next_access(&mut self) -> TraceEntry {
        self.next_tagged().entry
    }

    fn next_tagged(&mut self) -> TaggedEntry {
        let idx = match &mut self.schedule {
            Schedule::Wrr { order, cursor } => {
                let idx = order[*cursor];
                *cursor = (*cursor + 1) % order.len();
                idx
            }
            Schedule::Zipf { sampler, rng } => sampler.sample(rng) as usize,
            Schedule::Phased {
                order,
                cursor,
                windows,
                clock,
            } => {
                // Validation guarantees at least one tenant is active at
                // every access index and every tenant appears in the order,
                // so a full lap always finds a server.
                let mut picked = None;
                for _ in 0..order.len() {
                    let cand = order[*cursor];
                    *cursor = (*cursor + 1) % order.len();
                    if windows[cand].contains(*clock) {
                        picked = Some(cand);
                        break;
                    }
                }
                *clock += 1;
                // audit:allow(unwrap, PhasedMixSpec::validate rejects windows that leave any access index without an active tenant, so a full lap always picks one)
                picked.expect("validated phase windows cover every access index")
            }
        };
        self.pull_from(idx)
    }

    fn next_tagged_for(&mut self, tenant: u32) -> TaggedEntry {
        // A phased mix keeps its windowed selection, as single-tenant
        // streams do: per-tenant arrivals are rejected over it at
        // validation, so the requested tenant carries no route.
        if matches!(self.schedule, Schedule::Phased { .. }) {
            return self.next_tagged();
        }
        assert!(
            (tenant as usize) < self.tenants.len(),
            "tenant {tenant} out of range for a {}-tenant mix",
            self.tenants.len()
        );
        self.pull_from(tenant as usize)
    }

    fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    fn footprint_bytes(&self) -> u64 {
        self.total_footprint
    }

    fn tenant_partition(&self, i: usize) -> Option<(u64, u64)> {
        self.tenants.get(i).map(|t| (t.base, t.footprint))
    }
}

/// A tenant activity window, in mix access indices: the tenant serves
/// accesses while the mix's access counter lies in `[start, end)`.
///
/// Windows are expressed over the *access budget* of the run (the mix
/// counts every access it emits), which is the natural unit for arrival/
/// departure scenarios: "tenant 3 joins a quarter of the way in" is
/// `[budget/4, MAX)` regardless of how wall-clock time stretches under
/// contention. `end == u64::MAX` means the tenant never departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseWindow {
    /// First access index at which the tenant is active.
    pub start: u64,
    /// First access index at which the tenant is gone again (exclusive).
    pub end: u64,
}

impl PhaseWindow {
    /// The always-active window `[0, MAX)`.
    pub const ALWAYS: PhaseWindow = PhaseWindow {
        start: 0,
        end: u64::MAX,
    };

    /// A bounded window `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        PhaseWindow { start, end }
    }

    /// An arrival-only window `[start, MAX)`.
    pub fn from_start(start: u64) -> Self {
        PhaseWindow {
            start,
            end: u64::MAX,
        }
    }

    /// A departure-only window `[0, end)`.
    pub fn until(end: u64) -> Self {
        PhaseWindow { start: 0, end }
    }

    /// Whether access index `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether this is the full `[0, MAX)` window.
    pub fn is_always(&self) -> bool {
        *self == Self::ALWAYS
    }
}

/// One tenant of a phased mix: a child workload, its round-robin weight and
/// its activity window.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedTenantSpec {
    /// The child workload (Table II or trace replay; mixes cannot nest).
    pub workload: WorkloadSpec,
    /// Relative share under weighted round-robin while active (must be ≥ 1).
    pub weight: u32,
    /// The `[start, end)` activity window in access indices.
    pub window: PhaseWindow,
}

/// A declarative multi-tenant mix with tenant arrival and departure.
///
/// Selection is interleaved weighted round-robin over the tenants *active*
/// at the current access index (the schedule position of inactive tenants
/// is skipped at zero cost, so active tenants keep their relative weights).
/// Address-space partitioning and per-tenant seeding are identical to
/// [`MixSpec`]: every tenant owns its slice for the whole run, so arrivals
/// and departures never remap anyone's addresses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhasedMixSpec {
    /// The tenants, in partition order.
    pub tenants: Vec<PhasedTenantSpec>,
}

impl PhasedMixSpec {
    /// Starts an empty phased mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a tenant with an activity window.
    #[must_use]
    pub fn tenant(mut self, workload: WorkloadSpec, weight: u32, window: PhaseWindow) -> Self {
        self.tenants.push(PhasedTenantSpec {
            workload,
            weight,
            window,
        });
        self
    }

    /// Validates the phased mix: at least one tenant, weights ≥ 1,
    /// non-empty windows, children that are valid non-mix specs, and
    /// activity windows whose union covers every access index — a gap would
    /// leave the stream with no tenant to serve and wedge the simulator.
    ///
    /// # Errors
    ///
    /// Names the offending tenant/parameter.
    pub fn validate(&self) -> OramResult<()> {
        if self.tenants.is_empty() {
            return Err(OramError::InvalidParams {
                reason: "a phased mix needs at least one tenant".into(),
            });
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(OramError::InvalidParams {
                    reason: format!("phased tenant {i} has weight 0 (must be ≥ 1)"),
                });
            }
            if t.window.start >= t.window.end {
                return Err(OramError::InvalidParams {
                    reason: format!(
                        "phased tenant {i} has an empty activity window [{}, {})",
                        t.window.start, t.window.end
                    ),
                });
            }
            if matches!(
                t.workload,
                WorkloadSpec::Mix(_)
                    | WorkloadSpec::PhasedMix(_)
                    | WorkloadSpec::OpenLoop(_)
                    | WorkloadSpec::Sharded(_)
            ) {
                return Err(OramError::InvalidParams {
                    reason: format!(
                        "phased tenant {i} is itself a mix, sharded, or open-loop \
spec; mixes cannot nest"
                    ),
                });
            }
            t.workload.validate()?;
        }
        // Coverage: merge the windows and require [0, MAX) without gaps.
        let mut windows: Vec<PhaseWindow> = self.tenants.iter().map(|t| t.window).collect();
        windows.sort_by_key(|w| w.start);
        let mut covered = 0u64;
        for w in &windows {
            if w.start > covered {
                return Err(OramError::InvalidParams {
                    reason: format!(
                        "phased mix leaves no tenant active for access indices \
[{covered}, {}): every access index needs at least one active tenant",
                        w.start
                    ),
                });
            }
            covered = covered.max(w.end);
        }
        if covered != u64::MAX {
            return Err(OramError::InvalidParams {
                reason: format!(
                    "phased mix leaves no tenant active from access index {covered} on: \
at least one tenant must have an open-ended window"
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn three_tenant_spec() -> MixSpec {
        MixSpec::round_robin()
            .tenant(Workload::Redis.into(), 2)
            .tenant(Workload::Llm.into(), 1)
            .tenant(Workload::Streaming.into(), 1)
    }

    #[test]
    fn partitions_are_disjoint_and_cover_the_footprint() {
        let mix = MixStream::new(&three_tenant_spec(), 64 << 20, 7).unwrap();
        assert_eq!(mix.tenant_count(), 3);
        let mut expected_base = 0;
        for i in 0..3 {
            let (base, end) = mix.tenant_partition(i);
            assert_eq!(base, expected_base, "tenant {i} base");
            assert!(end > base);
            expected_base = end;
        }
        assert_eq!(expected_base, mix.footprint_bytes());
    }

    #[test]
    fn accesses_stay_inside_the_mixed_footprint() {
        let mut mix = MixStream::new(&three_tenant_spec(), 64 << 20, 7).unwrap();
        let fp = mix.footprint_bytes();
        for _ in 0..5000 {
            assert!(mix.next_access().addr.0 < fp);
        }
    }

    #[test]
    fn wrr_schedule_interleaves_by_weight() {
        // 2:1:1 → round 0 serves 0,1,2; round 1 serves only tenant 0.
        let mut mix = MixStream::new(&three_tenant_spec(), 64 << 20, 7).unwrap();
        let partition_of = |mix: &MixStream, addr: u64| {
            (0..mix.tenant_count())
                .find(|&i| {
                    let (base, end) = mix.tenant_partition(i);
                    (base..end).contains(&addr)
                })
                .expect("address inside some partition")
        };
        let picks: Vec<usize> = (0..8)
            .map(|_| {
                let addr = mix.next_access().addr.0;
                partition_of(&mix, addr)
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 0, 1, 2, 0]);
    }

    #[test]
    fn zipf_selection_favours_the_first_tenant() {
        let spec = MixSpec::zipf(0.95)
            .tenant(Workload::Redis.into(), 1)
            .tenant(Workload::Random.into(), 1)
            .tenant(Workload::Llm.into(), 1)
            .tenant(Workload::Mcf.into(), 1);
        let mut mix = MixStream::new(&spec, 64 << 20, 11).unwrap();
        let (base0, end0) = mix.tenant_partition(0);
        let hot = (0..4000)
            .filter(|_| {
                let addr = mix.next_access().addr.0;
                (base0..end0).contains(&addr)
            })
            .count();
        assert!(hot > 1600, "first tenant served only {hot}/4000 accesses");
    }

    #[test]
    fn same_seed_reproduces_the_identical_stream() {
        for spec in [
            three_tenant_spec(),
            MixSpec::zipf(0.8)
                .tenant(Workload::Redis.into(), 1)
                .tenant(Workload::Random.into(), 1),
        ] {
            let mut a = MixStream::new(&spec, 32 << 20, 99).unwrap();
            let mut b = MixStream::new(&spec, 32 << 20, 99).unwrap();
            let mut c = MixStream::new(&spec, 32 << 20, 100).unwrap();
            let mut c_diverged = false;
            for _ in 0..2000 {
                let ea = a.next_access();
                assert_eq!(ea, b.next_access());
                c_diverged |= ea != c.next_access();
            }
            assert!(c_diverged, "a different seed should change the stream");
        }
    }

    #[test]
    fn single_tenant_zipf_mix_is_serviceable() {
        // Regression companion to the Zipf `n == 1` eta fix: a one-tenant
        // Zipf mix must not produce NaN-driven selection.
        let spec = MixSpec::zipf(0.9).tenant(Workload::Random.into(), 1);
        let mut mix = MixStream::new(&spec, 16 << 20, 5).unwrap();
        let fp = mix.footprint_bytes();
        for _ in 0..500 {
            assert!(mix.next_access().addr.0 < fp);
        }
    }

    #[test]
    fn tagged_accesses_name_the_partition_owner() {
        let mut mix = MixStream::new(&three_tenant_spec(), 64 << 20, 7).unwrap();
        assert_eq!(mix.tenant_count(), 3);
        for _ in 0..2000 {
            let tagged = mix.next_tagged();
            let (base, end) = mix.tenant_partition(tagged.tenant as usize);
            assert!(
                (base..end).contains(&tagged.entry.addr.0),
                "tenant tag {} does not own address {:#x}",
                tagged.tenant,
                tagged.entry.addr.0
            );
        }
    }

    #[test]
    fn next_access_and_next_tagged_share_one_sequence() {
        let spec = three_tenant_spec();
        let mut a = MixStream::new(&spec, 32 << 20, 42).unwrap();
        let mut b = MixStream::new(&spec, 32 << 20, 42).unwrap();
        for i in 0..1000 {
            // Alternate entry points on `a`; `b` uses only the tagged one.
            let ea = if i % 2 == 0 {
                a.next_access()
            } else {
                a.next_tagged().entry
            };
            assert_eq!(ea, b.next_tagged().entry, "diverged at access {i}");
        }
    }

    /// WRR audit (starvation): a zero-weight tenant would never be scheduled
    /// while still owning an address partition and a metrics row; the spec
    /// layer rejects it outright instead of starving it silently.
    #[test]
    fn zero_weight_tenant_is_rejected_not_starved() {
        let spec = MixSpec::round_robin()
            .tenant(Workload::Redis.into(), 1)
            .tenant(Workload::Llm.into(), 0);
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("weight 0"), "{err}");
        assert!(MixStream::new(&spec, 16 << 20, 1).is_err());
    }

    /// WRR audit (bias): weights that do not divide each other still get an
    /// exact share per interleave period — over any whole number of periods
    /// tenant `i` is served exactly `weight_i / sum(weights)` of the time.
    #[test]
    fn wrr_share_is_exact_per_period_for_non_dividing_weights() {
        for weights in [vec![3, 2], vec![5, 3, 1], vec![1, 4, 2, 7]] {
            let mut spec = MixSpec::round_robin();
            for &w in &weights {
                spec = spec.tenant(Workload::Random.into(), w);
            }
            let mut mix = MixStream::new(&spec, 64 << 20, 13).unwrap();
            let period: u32 = weights.iter().sum();
            let mut counts = vec![0u32; weights.len()];
            for _ in 0..period * 6 {
                counts[mix.next_tagged().tenant as usize] += 1;
            }
            let expected: Vec<u32> = weights.iter().map(|w| w * 6).collect();
            assert_eq!(counts, expected, "weights {weights:?} drifted");
        }
    }

    #[test]
    fn phased_mix_respects_activity_windows() {
        let spec = PhasedMixSpec::new()
            .tenant(Workload::Redis.into(), 2, PhaseWindow::ALWAYS)
            .tenant(Workload::Llm.into(), 1, PhaseWindow::from_start(100))
            .tenant(Workload::Streaming.into(), 1, PhaseWindow::until(200));
        let mut mix = MixStream::phased(&spec, 64 << 20, 7).unwrap();
        assert_eq!(mix.tenant_count(), 3);
        let windows = [
            PhaseWindow::ALWAYS,
            PhaseWindow::from_start(100),
            PhaseWindow::until(200),
        ];
        let mut seen = [0u64; 3];
        for t in 0..1000u64 {
            let tagged = mix.next_tagged();
            let idx = tagged.tenant as usize;
            assert!(
                windows[idx].contains(t),
                "tenant {idx} served access {t} outside its window"
            );
            let (base, end) = mix.tenant_partition(idx);
            assert!((base..end).contains(&tagged.entry.addr.0));
            seen[idx] += 1;
        }
        assert!(seen[0] > 0 && seen[1] > 0 && seen[2] > 0);
    }

    #[test]
    fn phased_mix_with_full_windows_matches_the_flat_mix() {
        // Same children, same weights, all windows [0, MAX): the phased
        // stream must reproduce the flat WRR mix access for access.
        let flat = three_tenant_spec();
        let phased = PhasedMixSpec::new()
            .tenant(Workload::Redis.into(), 2, PhaseWindow::ALWAYS)
            .tenant(Workload::Llm.into(), 1, PhaseWindow::ALWAYS)
            .tenant(Workload::Streaming.into(), 1, PhaseWindow::ALWAYS);
        let mut a = MixStream::new(&flat, 48 << 20, 23).unwrap();
        let mut b = MixStream::phased(&phased, 48 << 20, 23).unwrap();
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
        for _ in 0..2000 {
            assert_eq!(a.next_tagged(), b.next_tagged());
        }
    }

    #[test]
    fn phased_mix_rejects_gaps_and_degenerate_windows() {
        // No always-on coverage at the tail.
        let tail_gap =
            PhasedMixSpec::new().tenant(Workload::Redis.into(), 1, PhaseWindow::until(100));
        assert!(tail_gap.validate().is_err());
        // Gap in the middle: [0,100) + [200,MAX).
        let mid_gap = PhasedMixSpec::new()
            .tenant(Workload::Redis.into(), 1, PhaseWindow::until(100))
            .tenant(Workload::Llm.into(), 1, PhaseWindow::from_start(200));
        let err = mid_gap.validate().unwrap_err();
        assert!(err.to_string().contains("[100, 200)"), "{err}");
        // Empty window.
        let empty = PhasedMixSpec::new()
            .tenant(Workload::Redis.into(), 1, PhaseWindow::ALWAYS)
            .tenant(Workload::Llm.into(), 1, PhaseWindow::new(50, 50));
        assert!(empty.validate().is_err());
        // Zero weight, empty mix, nesting.
        assert!(PhasedMixSpec::new().validate().is_err());
        let zero_w = PhasedMixSpec::new().tenant(Workload::Redis.into(), 0, PhaseWindow::ALWAYS);
        assert!(zero_w.validate().is_err());
        let nested = PhasedMixSpec::new().tenant(
            WorkloadSpec::Mix(MixSpec::round_robin().tenant(Workload::Redis.into(), 1)),
            1,
            PhaseWindow::ALWAYS,
        );
        assert!(nested.validate().is_err());
    }

    #[test]
    fn departed_tenants_free_their_schedule_share() {
        // Tenant 1 departs at access 10; afterwards tenant 0 serves
        // everything even though the WRR order still names tenant 1.
        let spec = PhasedMixSpec::new()
            .tenant(Workload::Random.into(), 1, PhaseWindow::ALWAYS)
            .tenant(Workload::Redis.into(), 3, PhaseWindow::until(10));
        let mut mix = MixStream::phased(&spec, 16 << 20, 3).unwrap();
        for _ in 0..10 {
            mix.next_tagged();
        }
        for t in 10..200 {
            let tagged = mix.next_tagged();
            assert_eq!(
                tagged.tenant, 0,
                "tenant 1 served access {t} after departing"
            );
        }
    }

    #[test]
    fn phased_mix_ignores_the_requested_tenant() {
        // Per-tenant arrivals never drive a phased mix, so a tenant-directed
        // pull keeps the windowed selection, as the trait default does.
        let spec = PhasedMixSpec::new()
            .tenant(Workload::Random.into(), 1, PhaseWindow::ALWAYS)
            .tenant(Workload::Redis.into(), 3, PhaseWindow::until(10));
        let mut a = MixStream::phased(&spec, 16 << 20, 3).unwrap();
        let mut b = MixStream::phased(&spec, 16 << 20, 3).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_tagged_for(1), b.next_tagged());
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(MixSpec::round_robin().validate().is_err());
        assert!(MixSpec::round_robin()
            .tenant(Workload::Redis.into(), 0)
            .validate()
            .is_err());
        assert!(MixSpec::zipf(1.0)
            .tenant(Workload::Redis.into(), 1)
            .validate()
            .is_err());
        let nested = MixSpec::round_robin().tenant(
            WorkloadSpec::Mix(MixSpec::round_robin().tenant(Workload::Redis.into(), 1)),
            1,
        );
        assert!(nested.validate().is_err());
    }
}
