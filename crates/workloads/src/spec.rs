//! [`WorkloadSpec`]: the open workload surface of the simulator.
//!
//! The Table II [`Workload`] enum is a closed set of ten generators — the
//! paper's evaluation grid. `WorkloadSpec` breaks that monopoly: a spec is
//! *any* buildable access stream, currently one of
//!
//! * [`WorkloadSpec::Table2`] — the unchanged fast path through the ten
//!   paper workloads;
//! * [`WorkloadSpec::TraceReplay`] — a looping replay of a recorded trace
//!   file (see [`crate::format`] for the on-disk encodings);
//! * [`WorkloadSpec::Mix`] — a multi-tenant interleaver composing N child
//!   streams with per-tenant address-space partitioning (see
//!   [`crate::mix`]);
//! * [`WorkloadSpec::PhasedMix`] — a mix whose tenants arrive and depart
//!   over the run via `[start, end)` activity windows in access indices;
//! * [`WorkloadSpec::Sharded`] — a closed-loop inner workload whose
//!   address space is partitioned across K independent ORAM shards by a
//!   pluggable router (see [`crate::shard`]);
//! * [`WorkloadSpec::OpenLoop`] — any of the above wrapped with open-loop
//!   arrival processes placing request arrivals on the simulated clock
//!   (see [`crate::arrival`]).
//!
//! Every spec has a canonical *name* — a short string that round-trips
//! through [`WorkloadSpec::from_name`] — so experiment results that embed a
//! spec survive CSV/JSON export and re-import, exactly as the bare
//! [`Workload`] short names always have:
//!
//! ```text
//! mcf                                Table II workload
//! replay:/tmp/capture.trace          trace replay from a file
//! mix:rr:redis*2+llm+stream          weighted-round-robin 3-tenant mix
//! mix:zipf0.9:redis+redis+llm        Zipf-weighted tenant selection
//! mix:phase:redis*2+llm@500..+rm1@0..2000  phased mix: llm arrives at
//!                                    access 500, rm1 departs at access 2000
//! open:poisson:0.8:mcf               open-loop Poisson arrivals (req/kcycle)
//! open:poisson:0.5+bursty:2:5e4:15e4 is NOT valid — durations are plain
//!                                    integers: open:bursty:2:50000:150000:llm
//! shard:4:hash:mcf                   4 shards, Feistel-hash routed
//! shard:2:tenant:mix:rr:redis+llm    tenant-affine: tenant t on shard t%2
//! open:poisson:0.8:shard:4:range:mcf open-loop arrivals over a sharded run
//! ```
//!
//! A phased tenant is `child[*weight][@start..end]`: the window suffix is
//! omitted for always-active tenants, `end` is omitted for tenants that
//! never depart.
//!
//! Names never contain commas, so they embed directly into the CSV export
//! (paths containing reserved characters — `,`, `+`, `*`, `@` or control
//! characters — are rejected at validation time rather than silently
//! producing a name that cannot round-trip).

use crate::arrival::OpenLoopSpec;
use crate::mix::{MixSpec, PhaseWindow, PhasedMixSpec, TenantSelection};
use crate::replay::TraceReplay;
use crate::shard::{ShardRouterKind, ShardSpec};
use crate::trace::AccessStream;
use crate::workload::Workload;
use palermo_oram::error::{OramError, OramResult};

/// A file-backed trace replay description (the path the trace is loaded
/// from at build time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySpec {
    /// Path of the trace file (text or binary, auto-detected on load).
    pub path: String,
}

impl ReplaySpec {
    /// Creates a replay spec for the given trace file path.
    pub fn new(path: impl Into<String>) -> Self {
        ReplaySpec { path: path.into() }
    }

    /// Checks that the path can round-trip through the spec-name grammar.
    ///
    /// # Errors
    ///
    /// Rejects empty paths and paths containing the grammar's reserved
    /// characters (`,`, `+`, `*`, `@` — the last reserved by the phased-mix
    /// window suffix) or control characters.
    pub fn validate(&self) -> OramResult<()> {
        if self.path.is_empty() {
            return Err(OramError::InvalidParams {
                reason: "replay spec needs a non-empty trace path".into(),
            });
        }
        if self
            .path
            .chars()
            .any(|c| matches!(c, ',' | '+' | '*' | '@') || c.is_control())
        {
            return Err(OramError::InvalidParams {
                reason: format!(
                    "trace path {:?} contains characters reserved by the spec-name \
grammar (',', '+', '*', '@', control)",
                    self.path
                ),
            });
        }
        Ok(())
    }
}

/// A buildable description of the access stream driving one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One of the ten Table II workloads (the unchanged fast path).
    Table2(Workload),
    /// A looping replay of a recorded trace file.
    TraceReplay(ReplaySpec),
    /// A multi-tenant mix of child streams.
    Mix(MixSpec),
    /// A multi-tenant mix with tenant arrival/departure windows.
    PhasedMix(PhasedMixSpec),
    /// A closed-loop inner workload partitioned across K ORAM shards.
    Sharded(ShardSpec),
    /// An inner workload wrapped with open-loop arrival processes.
    OpenLoop(OpenLoopSpec),
}

impl WorkloadSpec {
    /// Shorthand for a trace replay spec.
    pub fn replay(path: impl Into<String>) -> Self {
        WorkloadSpec::TraceReplay(ReplaySpec::new(path))
    }

    /// The canonical name of this spec; round-trips through
    /// [`WorkloadSpec::from_name`] for every valid spec.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Table2(w) => w.name().to_string(),
            WorkloadSpec::TraceReplay(r) => format!("replay:{}", r.path),
            WorkloadSpec::Mix(m) => {
                let sel = match m.selection {
                    TenantSelection::WeightedRoundRobin => "rr".to_string(),
                    TenantSelection::Zipf { theta } => format!("zipf{theta}"),
                };
                let tenants: Vec<String> = m
                    .tenants
                    .iter()
                    .map(|t| render_tenant(&t.workload, t.weight, None))
                    .collect();
                format!("mix:{sel}:{}", tenants.join("+"))
            }
            WorkloadSpec::PhasedMix(m) => {
                let tenants: Vec<String> = m
                    .tenants
                    .iter()
                    .map(|t| render_tenant(&t.workload, t.weight, Some(t.window)))
                    .collect();
                format!("mix:phase:{}", tenants.join("+"))
            }
            WorkloadSpec::Sharded(s) => s.name(),
            WorkloadSpec::OpenLoop(o) => {
                format!("open:{}:{}", o.arrivals_name(), o.inner.name())
            }
        }
    }

    /// Parses a canonical spec name back into a spec. Returns `None` for
    /// anything [`WorkloadSpec::name`] cannot have produced.
    pub fn from_name(name: &str) -> Option<WorkloadSpec> {
        if let Some(w) = Workload::from_name(name) {
            return Some(WorkloadSpec::Table2(w));
        }
        if let Some(path) = name.strip_prefix("replay:") {
            let spec = ReplaySpec::new(path);
            spec.validate().ok()?;
            return Some(WorkloadSpec::TraceReplay(spec));
        }
        if let Some(rest) = name.strip_prefix("mix:") {
            let (sel, tenants) = rest.split_once(':')?;
            if sel == "phase" {
                let mut mix = PhasedMixSpec::new();
                for tenant in tenants.split('+') {
                    let (child, weight, window) = parse_tenant(tenant)?;
                    mix = mix.tenant(WorkloadSpec::from_name(child)?, weight, window);
                }
                mix.validate().ok()?;
                return Some(WorkloadSpec::PhasedMix(mix));
            }
            let selection = if sel == "rr" {
                TenantSelection::WeightedRoundRobin
            } else {
                let theta: f64 = sel.strip_prefix("zipf")?.parse().ok()?;
                TenantSelection::Zipf { theta }
            };
            let mut mix = MixSpec::new(selection);
            for tenant in tenants.split('+') {
                let (child, weight, window) = parse_tenant(tenant)?;
                // Window suffixes only belong to phased mixes.
                if !window.is_always() || tenant.contains('@') {
                    return None;
                }
                mix = mix.tenant(WorkloadSpec::from_name(child)?, weight);
            }
            mix.validate().ok()?;
            return Some(WorkloadSpec::Mix(mix));
        }
        if let Some(rest) = name.strip_prefix("shard:") {
            let (k_str, rest) = rest.split_once(':')?;
            let shards: u32 = k_str.parse().ok()?;
            // Canonical names render K in plain decimal; reject leading
            // zeros (and `+K`) so parsing stays a strict inverse of `name`.
            if k_str != shards.to_string() {
                return None;
            }
            let (router, inner) = rest.split_once(':')?;
            let router = ShardRouterKind::from_name(router)?;
            let spec = ShardSpec::new(shards, router, WorkloadSpec::from_name(inner)?);
            spec.validate().ok()?;
            return Some(WorkloadSpec::Sharded(spec));
        }
        if let Some(rest) = name.strip_prefix("open:") {
            return crate::arrival::parse_open(rest).map(WorkloadSpec::OpenLoop);
        }
        None
    }

    /// The Table II workload, if this is the fast path.
    pub fn as_table2(&self) -> Option<Workload> {
        match self {
            WorkloadSpec::Table2(w) => Some(*w),
            _ => None,
        }
    }

    /// The open-loop serving description, if this spec has one. The
    /// simulator uses this to decide between closed-loop (pull on slot
    /// free) and open-loop (admit on arrival) request formation.
    pub fn open_loop(&self) -> Option<&OpenLoopSpec> {
        match self {
            WorkloadSpec::OpenLoop(o) => Some(o),
            _ => None,
        }
    }

    /// The sharding description, if this spec has one — looking through an
    /// open-loop wrapper (`open:…:shard:…`), the one composition the
    /// grammar permits. The simulator uses this to dispatch the run to the
    /// sharded system shape.
    pub fn sharded(&self) -> Option<&ShardSpec> {
        match self {
            WorkloadSpec::Sharded(s) => Some(s),
            WorkloadSpec::OpenLoop(o) => match o.inner.as_ref() {
                WorkloadSpec::Sharded(s) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of tenants a stream built from this spec multiplexes
    /// (single-tenant specs — Table II workloads and trace replays — are 1).
    /// Matches [`crate::trace::AccessStream::tenant_count`] of the built
    /// stream, but needs no build (and thus no file access).
    pub fn tenant_count(&self) -> usize {
        match self {
            WorkloadSpec::Table2(_) | WorkloadSpec::TraceReplay(_) => 1,
            WorkloadSpec::Mix(m) => m.tenants.len(),
            WorkloadSpec::PhasedMix(m) => m.tenants.len(),
            WorkloadSpec::Sharded(s) => s.inner.tenant_count(),
            WorkloadSpec::OpenLoop(o) => o.inner.tenant_count(),
        }
    }

    /// The canonical name of tenant `i`'s child workload — the spec's own
    /// name for single-tenant specs. `None` when `i` is out of range; used
    /// by the per-tenant metric exports to label tenant rows.
    pub fn tenant_workload_name(&self, i: usize) -> Option<String> {
        match self {
            WorkloadSpec::Table2(_) | WorkloadSpec::TraceReplay(_) => (i == 0).then(|| self.name()),
            WorkloadSpec::Mix(m) => m.tenants.get(i).map(|t| t.workload.name()),
            WorkloadSpec::PhasedMix(m) => m.tenants.get(i).map(|t| t.workload.name()),
            WorkloadSpec::Sharded(s) => s.inner.tenant_workload_name(i),
            WorkloadSpec::OpenLoop(o) => o.inner.tenant_workload_name(i),
        }
    }

    /// Validates the spec without building it (no file access: a replay
    /// spec's trace is only read at build time).
    ///
    /// # Errors
    ///
    /// Propagates the component validation failures.
    pub fn validate(&self) -> OramResult<()> {
        match self {
            WorkloadSpec::Table2(_) => Ok(()),
            WorkloadSpec::TraceReplay(r) => r.validate(),
            WorkloadSpec::Mix(m) => m.validate(),
            WorkloadSpec::PhasedMix(m) => m.validate(),
            WorkloadSpec::Sharded(s) => s.validate(),
            WorkloadSpec::OpenLoop(o) => o.validate(),
        }
    }

    /// The default prefetch length prefetch-capable schemes run this spec
    /// with. Table II workloads keep their paper-calibrated per-workload
    /// lengths; replayed traces and mixes default to 1 (no prefetch) —
    /// recorded traces carry no locality contract, and a mix interleaves
    /// tenants at access granularity, which breaks the cross-request
    /// sequentiality prefetching exploits.
    pub fn default_prefetch_length(&self) -> u32 {
        match self {
            WorkloadSpec::Table2(w) => w.default_prefetch_length(),
            WorkloadSpec::TraceReplay(_) | WorkloadSpec::Mix(_) | WorkloadSpec::PhasedMix(_) => 1,
            // Sharding remaps addresses but hash routing is the only
            // locality-destroying policy; keep the inner's calibration and
            // let callers override per run as they already can.
            WorkloadSpec::Sharded(s) => s.inner.default_prefetch_length(),
            // The arrival wrapper does not change access locality.
            WorkloadSpec::OpenLoop(o) => o.inner.default_prefetch_length(),
        }
    }

    /// Builds the access stream for this spec, scaled so that generator
    /// footprints stay within `footprint_hint` bytes (trace replays infer
    /// their footprint from the recording instead).
    ///
    /// # Errors
    ///
    /// Propagates validation failures and, for trace replays, file I/O and
    /// parse errors.
    pub fn build(&self, footprint_hint: u64, seed: u64) -> OramResult<Box<dyn AccessStream>> {
        match self {
            WorkloadSpec::Table2(w) => Ok(w.build(footprint_hint, seed)),
            WorkloadSpec::TraceReplay(r) => {
                r.validate()?;
                Ok(Box::new(TraceReplay::from_file(&r.path)?))
            }
            WorkloadSpec::Mix(m) => Ok(Box::new(crate::mix::MixStream::new(
                m,
                footprint_hint,
                seed,
            )?)),
            WorkloadSpec::PhasedMix(m) => Ok(Box::new(crate::mix::MixStream::phased(
                m,
                footprint_hint,
                seed,
            )?)),
            // A sharded spec has no single-stream form: the simulator
            // builds one `ShardStream` per shard and drives each against
            // its own ORAM instance.
            WorkloadSpec::Sharded(_) => Err(OramError::InvalidParams {
                reason: "sharded specs build one stream per shard; run them through \
                         the simulator's sharded system, not a single stream"
                    .into(),
            }),
            // The arrival processes are the simulator's job (they live on
            // the simulated clock, not in the access stream); building an
            // open-loop spec yields the inner stream.
            WorkloadSpec::OpenLoop(o) => {
                o.validate()?;
                o.inner.build(footprint_hint, seed)
            }
        }
    }
}

/// Renders one mix-tenant token: `child[*weight][@start..end]`.
fn render_tenant(workload: &WorkloadSpec, weight: u32, window: Option<PhaseWindow>) -> String {
    let mut out = workload.name();
    if weight != 1 {
        out.push_str(&format!("*{weight}"));
    }
    if let Some(w) = window {
        if !w.is_always() {
            out.push_str(&format!("@{}..", w.start));
            if w.end != u64::MAX {
                out.push_str(&w.end.to_string());
            }
        }
    }
    out
}

/// Parses one mix-tenant token back into `(child name, weight, window)`.
/// Tokens without a `@` suffix get the always-active window; child names
/// can contain neither `@` nor `*` (`ReplaySpec::validate` rejects such
/// paths), so both suffixes split unambiguously.
fn parse_tenant(token: &str) -> Option<(&str, u32, PhaseWindow)> {
    let (rest, window) = match token.rsplit_once('@') {
        Some((rest, w)) => {
            let (start, end) = w.split_once("..")?;
            let start: u64 = start.parse().ok()?;
            let end: u64 = if end.is_empty() {
                u64::MAX
            } else {
                end.parse().ok()?
            };
            (rest, PhaseWindow::new(start, end))
        }
        None => (token, PhaseWindow::ALWAYS),
    };
    let (child, weight) = match rest.rsplit_once('*') {
        Some((child, w)) => (child, w.parse().ok()?),
        None => (rest, 1),
    };
    Some((child, weight, window))
}

impl From<Workload> for WorkloadSpec {
    fn from(w: Workload) -> Self {
        WorkloadSpec::Table2(w)
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::MixSpec;

    #[test]
    fn table2_names_match_the_workload_registry() {
        for w in Workload::ALL {
            let spec = WorkloadSpec::from(w);
            assert_eq!(spec.name(), w.name());
            assert_eq!(WorkloadSpec::from_name(w.name()), Some(spec.clone()));
            assert_eq!(spec.as_table2(), Some(w));
            assert_eq!(spec.default_prefetch_length(), w.default_prefetch_length());
        }
    }

    #[test]
    fn replay_and_mix_names_round_trip() {
        use crate::mix::{PhaseWindow, PhasedMixSpec};
        let specs = [
            WorkloadSpec::replay("/tmp/capture.trace"),
            WorkloadSpec::Mix(
                MixSpec::round_robin()
                    .tenant(Workload::Redis.into(), 2)
                    .tenant(Workload::Llm.into(), 1)
                    .tenant(Workload::Streaming.into(), 5),
            ),
            WorkloadSpec::Mix(
                MixSpec::zipf(0.9)
                    .tenant(WorkloadSpec::replay("a.trace"), 1)
                    .tenant(Workload::Random.into(), 1),
            ),
            WorkloadSpec::PhasedMix(
                PhasedMixSpec::new()
                    .tenant(Workload::Redis.into(), 2, PhaseWindow::ALWAYS)
                    .tenant(Workload::Llm.into(), 1, PhaseWindow::from_start(500))
                    .tenant(
                        WorkloadSpec::replay("a.trace"),
                        3,
                        PhaseWindow::new(10, 2000),
                    ),
            ),
            WorkloadSpec::PhasedMix(PhasedMixSpec::new().tenant(
                Workload::Random.into(),
                1,
                PhaseWindow::ALWAYS,
            )),
        ];
        for spec in specs {
            let name = spec.name();
            assert!(!name.contains(','), "{name}");
            assert_eq!(WorkloadSpec::from_name(&name), Some(spec.clone()), "{name}");
            assert_eq!(format!("{spec}"), name);
        }
    }

    #[test]
    fn malformed_names_are_rejected() {
        for bad in [
            "nope",
            "replay:",
            "replay:a,b.trace",
            "mix:rr",
            "mix:rr:",
            "mix:rr:nope",
            "mix:zipfx:redis",
            "mix:zipf1.5:redis",
            "mix:rr:redis*zero",
            "mix:rr:redis*0",
            "mix:rr:mix:rr:redis",  // nested mixes are not a valid spec
            "mix:rr:redis@0..10",   // window suffixes belong to phased mixes
            "mix:phase:redis@0..0", // empty window
            "mix:phase:redis@5..",  // coverage gap at [0, 5)
            "mix:phase:redis@0..9", // nobody active from access 9 on
            "mix:phase:redis@zz..", // unparsable window
            "mix:phase:redis@1",    // window without the `..` separator
            "mix:phase:",
            "open:",
            "open:mcf",                          // no arrival process
            "open:poisson:mcf",                  // rate missing (mcf is not a rate)
            "open:poisson:0.8",                  // no inner spec
            "open:poisson:0:mcf",                // zero rate
            "open:poisson:-1:mcf",               // negative rate
            "open:poisson:inf:mcf",              // renderer never emits inf
            "open:bursty:2:50000:mcf",           // bursty takes three arguments
            "open:bursty:2:0:100:mcf",           // zero on-duration
            "open:diurnal:2:1:100:mcf",          // peak below base
            "open:poisson:1:open:poisson:1:mcf", // open-loop cannot nest
            "open:poisson:1+poisson:2:mcf",      // two processes, one tenant
            // two processes over a phased mix: windows conflict with
            // arrival-driven routing
            "open:poisson:1+poisson:2:mix:phase:redis+llm",
            // arity mismatch: three processes, two tenants
            "open:poisson:1+poisson:2+poisson:3:mix:rr:redis+llm",
            "shard:",
            "shard:2",
            "shard:2:hash",
            "shard:2:hash:",                   // no inner spec
            "shard:0:hash:mcf",                // zero shards
            "shard:65:hash:mcf",               // above MAX_SHARDS
            "shard:01:hash:mcf",               // non-canonical K rendering
            "shard:+2:hash:mcf",               // non-canonical K rendering
            "shard:2:nope:mcf",                // unknown router
            "shard:2:hash:nope",               // unknown inner
            "shard:2:tenant:mcf",              // tenant-affine over one tenant
            "shard:2:hash:shard:2:hash:mcf",   // sharding cannot nest
            "shard:2:hash:open:poisson:1:mcf", // open-loop goes outside
        ] {
            assert_eq!(WorkloadSpec::from_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn sharded_names_round_trip() {
        use crate::shard::{ShardRouterKind, ShardSpec};
        let specs = [
            WorkloadSpec::Sharded(ShardSpec::new(
                4,
                ShardRouterKind::Hash,
                Workload::Mcf.into(),
            )),
            WorkloadSpec::Sharded(ShardSpec::new(
                1,
                ShardRouterKind::Range,
                WorkloadSpec::replay("a.trace"),
            )),
            WorkloadSpec::Sharded(ShardSpec::new(
                2,
                ShardRouterKind::TenantAffine,
                WorkloadSpec::Mix(
                    MixSpec::round_robin()
                        .tenant(Workload::Redis.into(), 2)
                        .tenant(Workload::Llm.into(), 1),
                ),
            )),
        ];
        for spec in specs {
            let name = spec.name();
            assert!(!name.contains(','), "{name}");
            assert_eq!(WorkloadSpec::from_name(&name), Some(spec.clone()), "{name}");
            assert_eq!(format!("{spec}"), name);
        }
        // The one permitted composition: open-loop over sharded.
        let open_over_shard = WorkloadSpec::from_name("open:poisson:0.5:shard:4:hash:mcf").unwrap();
        assert_eq!(open_over_shard.name(), "open:poisson:0.5:shard:4:hash:mcf");
        assert!(open_over_shard.sharded().is_some());
        assert_eq!(open_over_shard.sharded().unwrap().shards, 4);
    }

    #[test]
    fn sharded_specs_delegate_to_the_inner() {
        use crate::shard::{ShardRouterKind, ShardSpec};
        let spec = WorkloadSpec::Sharded(ShardSpec::new(
            2,
            ShardRouterKind::TenantAffine,
            WorkloadSpec::Mix(
                MixSpec::round_robin()
                    .tenant(Workload::Redis.into(), 2)
                    .tenant(Workload::Llm.into(), 1),
            ),
        ));
        assert_eq!(spec.name(), "shard:2:tenant:mix:rr:redis*2+llm");
        assert_eq!(spec.tenant_count(), 2);
        assert_eq!(spec.tenant_workload_name(0).as_deref(), Some("redis"));
        assert_eq!(spec.tenant_workload_name(2), None);
        assert_eq!(spec.as_table2(), None);
        assert!(spec.open_loop().is_none());
        assert!(spec.sharded().is_some());
        assert_eq!(spec.default_prefetch_length(), 1);
        let single = WorkloadSpec::Sharded(ShardSpec::new(
            4,
            ShardRouterKind::Hash,
            Workload::Mcf.into(),
        ));
        assert_eq!(
            single.default_prefetch_length(),
            Workload::Mcf.default_prefetch_length()
        );
        // No single-stream build: the simulator drives one stream per shard.
        assert!(single.build(1 << 20, 7).is_err());
        assert!(WorkloadSpec::Table2(Workload::Mcf).sharded().is_none());
    }

    #[test]
    fn open_loop_names_round_trip() {
        use crate::arrival::{ArrivalSpec, OpenLoopSpec};
        let specs = [
            WorkloadSpec::OpenLoop(OpenLoopSpec::new(
                ArrivalSpec::Poisson {
                    rate_per_kcycle: 0.8,
                },
                Workload::Mcf.into(),
            )),
            WorkloadSpec::OpenLoop(OpenLoopSpec::new(
                ArrivalSpec::Bursty {
                    rate_per_kcycle: 2.0,
                    mean_on_cycles: 50_000,
                    mean_off_cycles: 150_000,
                },
                WorkloadSpec::replay("a.trace"),
            )),
            WorkloadSpec::OpenLoop(OpenLoopSpec::new(
                ArrivalSpec::Diurnal {
                    base_per_kcycle: 0.25,
                    peak_per_kcycle: 1.5,
                    period_cycles: 4_000_000,
                },
                WorkloadSpec::Mix(
                    MixSpec::round_robin()
                        .tenant(Workload::Redis.into(), 2)
                        .tenant(Workload::Llm.into(), 1),
                ),
            )),
            WorkloadSpec::OpenLoop(OpenLoopSpec::per_tenant(
                vec![
                    ArrivalSpec::Poisson {
                        rate_per_kcycle: 0.5,
                    },
                    ArrivalSpec::Bursty {
                        rate_per_kcycle: 1.25,
                        mean_on_cycles: 10_000,
                        mean_off_cycles: 30_000,
                    },
                ],
                WorkloadSpec::Mix(
                    MixSpec::round_robin()
                        .tenant(Workload::Redis.into(), 1)
                        .tenant(Workload::Llm.into(), 1),
                ),
            )),
        ];
        for spec in specs {
            let name = spec.name();
            assert!(!name.contains(','), "{name}");
            assert_eq!(WorkloadSpec::from_name(&name), Some(spec.clone()), "{name}");
            assert_eq!(format!("{spec}"), name);
        }
    }

    #[test]
    fn open_loop_delegates_to_the_inner_spec() {
        use crate::arrival::{ArrivalSpec, OpenLoopSpec};
        let poisson = ArrivalSpec::Poisson {
            rate_per_kcycle: 0.5,
        };
        let spec = WorkloadSpec::OpenLoop(OpenLoopSpec::new(
            poisson,
            WorkloadSpec::Mix(
                MixSpec::round_robin()
                    .tenant(Workload::Redis.into(), 2)
                    .tenant(Workload::Llm.into(), 1),
            ),
        ));
        assert_eq!(spec.name(), "open:poisson:0.5:mix:rr:redis*2+llm");
        assert_eq!(spec.tenant_count(), 2);
        assert_eq!(spec.tenant_workload_name(0).as_deref(), Some("redis"));
        assert_eq!(spec.tenant_workload_name(2), None);
        assert_eq!(spec.as_table2(), None);
        assert_eq!(spec.default_prefetch_length(), 1);
        assert!(spec.open_loop().is_some());
        assert!(WorkloadSpec::Table2(Workload::Mcf).open_loop().is_none());
        // Building yields the inner stream (arrivals live in the simulator).
        let mut stream = spec.build(32 << 20, 7).unwrap();
        assert_eq!(stream.tenant_count(), 2);
        let fp = stream.footprint_bytes();
        for _ in 0..100 {
            assert!(stream.next_access().addr.0 < fp);
        }
        // Prefetch delegation keeps Table II defaults.
        let single = WorkloadSpec::OpenLoop(OpenLoopSpec::new(poisson, Workload::Mcf.into()));
        assert_eq!(
            single.default_prefetch_length(),
            Workload::Mcf.default_prefetch_length()
        );
    }

    #[test]
    fn mixes_reject_open_loop_children() {
        use crate::arrival::{ArrivalSpec, OpenLoopSpec};
        let open = WorkloadSpec::OpenLoop(OpenLoopSpec::new(
            ArrivalSpec::Poisson {
                rate_per_kcycle: 1.0,
            },
            Workload::Redis.into(),
        ));
        let mix = MixSpec::round_robin().tenant(open.clone(), 1);
        let err = mix.validate().unwrap_err();
        assert!(err.to_string().contains("open-loop"), "{err}");
        let phased = crate::mix::PhasedMixSpec::new().tenant(open, 1, PhaseWindow::ALWAYS);
        assert!(phased.validate().is_err());
    }

    #[test]
    fn phased_names_follow_the_documented_grammar() {
        use crate::mix::{PhaseWindow, PhasedMixSpec};
        let spec = WorkloadSpec::PhasedMix(
            PhasedMixSpec::new()
                .tenant(Workload::Redis.into(), 2, PhaseWindow::ALWAYS)
                .tenant(Workload::Llm.into(), 1, PhaseWindow::from_start(500))
                .tenant(Workload::Rm1.into(), 1, PhaseWindow::new(0, 2000)),
        );
        assert_eq!(spec.name(), "mix:phase:redis*2+llm@500..+rm1@0..2000");
        assert_eq!(WorkloadSpec::from_name(&spec.name()), Some(spec));
    }

    #[test]
    fn tenant_count_and_names_cover_every_spec_kind() {
        use crate::mix::{PhaseWindow, PhasedMixSpec};
        let single = WorkloadSpec::Table2(Workload::Mcf);
        assert_eq!(single.tenant_count(), 1);
        assert_eq!(single.tenant_workload_name(0).as_deref(), Some("mcf"));
        assert_eq!(single.tenant_workload_name(1), None);
        let replay = WorkloadSpec::replay("t.trace");
        assert_eq!(replay.tenant_count(), 1);
        assert_eq!(
            replay.tenant_workload_name(0).as_deref(),
            Some("replay:t.trace")
        );
        let mix = WorkloadSpec::Mix(
            MixSpec::round_robin()
                .tenant(Workload::Redis.into(), 2)
                .tenant(Workload::Llm.into(), 1),
        );
        assert_eq!(mix.tenant_count(), 2);
        assert_eq!(mix.tenant_workload_name(1).as_deref(), Some("llm"));
        assert_eq!(mix.tenant_workload_name(2), None);
        let phased = WorkloadSpec::PhasedMix(
            PhasedMixSpec::new()
                .tenant(Workload::Redis.into(), 1, PhaseWindow::ALWAYS)
                .tenant(Workload::Mcf.into(), 1, PhaseWindow::from_start(9)),
        );
        assert_eq!(phased.tenant_count(), 2);
        assert_eq!(phased.tenant_workload_name(1).as_deref(), Some("mcf"));
    }

    #[test]
    fn replay_paths_with_reserved_characters_fail_validation() {
        assert!(ReplaySpec::new("ok.trace").validate().is_ok());
        for bad in ["", "a,b", "a+b", "a*b", "a@b", "a\nb"] {
            assert!(ReplaySpec::new(bad).validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn replay_build_surfaces_file_errors() {
        let err = match WorkloadSpec::replay("/definitely/not/here.trace").build(1 << 20, 1) {
            Ok(_) => panic!("building a replay of a missing file must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("not/here.trace"), "{err}");
    }
}
