//! The typed experiment surface of the simulator.
//!
//! The paper's evaluation is a large grid of *independent* (scheme ×
//! workload × configuration) simulations. This module replaces the
//! hand-rolled nested loops the figure runners used to build around
//! [`run_workload_spec`] with three pieces:
//!
//! * [`RunSpec`] — a fully-resolved description of one simulation run
//!   (scheme, workload, per-run [`SystemConfig`], label);
//! * [`Experiment`] — a builder that composes grids and sweeps of
//!   `RunSpec`s declaratively;
//! * [`Executor`] — a pluggable execution strategy. [`SerialExecutor`]
//!   runs the specs in order; [`ThreadPoolExecutor`] fans them across OS
//!   threads with deterministic, order-preserving result collection.
//!
//! Results come back as a [`ResultSet`] of [`RunRecord`]s with
//! baseline-normalisation and geo-mean helpers. Its rows — one
//! [`RunSummary`] per run, one [`TenantSummary`] per (run, tenant), one
//! [`ShardSummary`] per (sharded run, shard) — export to CSV and JSON and
//! parse back through [`ExportRow`].
//!
//! # Example
//!
//! ```
//! use palermo_sim::experiment::{Experiment, SerialExecutor};
//! use palermo_sim::{Scheme, SystemConfig};
//! use palermo_workloads::Workload;
//!
//! let mut cfg = SystemConfig::small_for_tests();
//! cfg.measured_requests = 20;
//! cfg.warmup_requests = 5;
//! let results = Experiment::new(cfg)
//!     .schemes([Scheme::PathOram, Scheme::Palermo])
//!     .workloads([Workload::Random])
//!     .run(&SerialExecutor)?;
//! assert_eq!(results.len(), 2);
//! let speedup = results
//!     .speedup_over(Scheme::PathOram, Scheme::Palermo, Workload::Random)
//!     .unwrap();
//! assert!(speedup > 1.0);
//! # Ok::<(), palermo_oram::error::OramError>(())
//! ```

pub mod executor;
pub mod results;

pub use executor::{Executor, SerialExecutor, ThreadPoolExecutor};
pub use results::{ExportRow, ResultSet, RunRecord, RunSummary, ShardSummary, TenantSummary};

use crate::runner::{run_protocol, run_workload_spec, CalendarStepper, RunMetrics};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_controller::ControllerConfig;
use palermo_dram::HardwareProfile;
use palermo_oram::error::OramResult;
use palermo_oram::hierarchy::HierarchyConfig;
use palermo_workloads::{ArrivalSpec, OpenLoopSpec, Workload, WorkloadSpec};

/// Explicit protocol/controller configurations for a run that falls outside
/// the standard [`Scheme`] set (e.g. PrORAM without the fat tree for
/// Fig. 4). The spec's `scheme` is then only a label on the metrics.
#[derive(Debug, Clone)]
pub struct CustomProtocol {
    /// The protocol configuration to instantiate.
    pub hierarchy: HierarchyConfig,
    /// The controller model to execute the access plans on.
    pub controller: ControllerConfig,
    /// Prefetch length recorded on the metrics (1 = no prefetch).
    pub prefetch_length: u32,
}

/// A fully-resolved description of one simulation run.
///
/// A `RunSpec` is self-contained: executing it needs no context beyond the
/// spec itself, which is what makes a grid of them embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The ORAM design to simulate (or to label a custom run with).
    pub scheme: Scheme,
    /// The workload spec driving the run: a Table II workload, a trace
    /// replay, or a multi-tenant mix.
    pub workload: WorkloadSpec,
    /// The complete system configuration, per-run overrides already applied.
    pub config: SystemConfig,
    /// Human-readable label; unique within one experiment's grid.
    pub label: String,
    /// Explicit protocol/controller configuration overriding the standard
    /// scheme wiring, if any.
    pub custom: Option<CustomProtocol>,
}

impl RunSpec {
    /// Creates a spec for a Table II workload with the default
    /// `scheme/workload` label.
    pub fn new(scheme: Scheme, workload: Workload, config: SystemConfig) -> Self {
        Self::with_workload_spec(scheme, WorkloadSpec::Table2(workload), config)
    }

    /// Creates a spec for an arbitrary [`WorkloadSpec`] with the default
    /// `scheme/spec-name` label.
    pub fn with_workload_spec(
        scheme: Scheme,
        workload: WorkloadSpec,
        config: SystemConfig,
    ) -> Self {
        let label = format!("{scheme}/{workload}");
        RunSpec {
            scheme,
            workload,
            config,
            label,
            custom: None,
        }
    }

    /// Replaces the label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Attaches an explicit protocol/controller configuration.
    #[must_use]
    pub fn with_custom(mut self, custom: CustomProtocol) -> Self {
        self.custom = Some(custom);
        self
    }

    /// Executes this spec, producing the run's metrics.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation errors from the protocol
    /// layer (e.g. [`OramError::WorkloadStalled`] when the working set fits
    /// entirely in the LLC).
    ///
    /// [`OramError::WorkloadStalled`]: palermo_oram::error::OramError::WorkloadStalled
    pub fn execute(&self) -> OramResult<RunMetrics> {
        match &self.custom {
            Some(custom) => run_protocol(
                self.scheme,
                custom.clone(),
                &self.workload,
                &self.config,
                &CalendarStepper,
            ),
            None => run_workload_spec(self.scheme, &self.workload, &self.config),
        }
    }

    /// Executes this spec and wraps the metrics in a [`RunRecord`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`RunSpec::execute`].
    pub fn run(&self) -> OramResult<RunRecord> {
        let metrics = self.execute()?;
        Ok(RunRecord {
            label: self.label.clone(),
            scheme: self.scheme,
            workload: self.workload.clone(),
            metrics,
        })
    }
}

/// A declarative builder for grids and sweeps of [`RunSpec`]s.
///
/// The grid is the cross product
/// `config variants × workloads × schemes × prefetch points`, in that
/// nesting order (workloads outermost after variants, matching the row
/// order the paper's figures use), plus any explicitly added specs.
///
/// ```
/// use palermo_sim::experiment::Experiment;
/// use palermo_sim::{Scheme, SystemConfig};
/// use palermo_workloads::Workload;
///
/// let specs = Experiment::new(SystemConfig::small_for_tests())
///     .schemes(Scheme::ALL)
///     .workloads([Workload::Mcf, Workload::Random])
///     .build();
/// assert_eq!(specs.len(), Scheme::ALL.len() * 2);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    base: SystemConfig,
    schemes: Vec<Scheme>,
    workloads: Vec<WorkloadSpec>,
    prefetch_lengths: Vec<u32>,
    offered_loads: Vec<f64>,
    variants: Vec<(String, SystemConfig)>,
    extra: Vec<RunSpec>,
}

impl Experiment {
    /// Starts an experiment from a base system configuration.
    pub fn new(base: SystemConfig) -> Self {
        Experiment {
            base,
            schemes: Vec::new(),
            workloads: Vec::new(),
            prefetch_lengths: Vec::new(),
            offered_loads: Vec::new(),
            variants: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Adds schemes to the grid (column dimension).
    #[must_use]
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = Scheme>) -> Self {
        self.schemes.extend(schemes);
        self
    }

    /// Adds Table II workloads to the grid (row dimension).
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads
            .extend(workloads.into_iter().map(WorkloadSpec::Table2));
        self
    }

    /// Adds arbitrary workload specs to the grid (row dimension) — trace
    /// replays and multi-tenant mixes sweep exactly like Table II
    /// workloads.
    #[must_use]
    pub fn workload_specs(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
        self
    }

    /// Sweeps the prefetch length over the given values: each grid cell is
    /// run once per length with `prefetch_override` set. Without this call
    /// every run uses the workload's default length.
    #[must_use]
    pub fn sweep_prefetch(mut self, lengths: impl IntoIterator<Item = u32>) -> Self {
        self.prefetch_lengths.extend(lengths);
        self
    }

    /// Sweeps the offered load over the given Poisson arrival rates
    /// (requests per kilocycle): each grid cell is run once per rate with
    /// its workload wrapped in an open-loop
    /// [`WorkloadSpec::OpenLoop`] spec, which is what
    /// [`figures::load_curve`](crate::figures::load_curve) uses to trace
    /// latency-vs-load knee curves. Workloads that are *already* open-loop
    /// pass through exactly once, unmultiplied, keeping their own arrival
    /// spec. Without this call every run stays closed-loop.
    #[must_use]
    pub fn sweep_offered_load(mut self, rates: impl IntoIterator<Item = f64>) -> Self {
        self.offered_loads.extend(rates);
        self
    }

    /// Adds a named configuration variant derived from the base
    /// configuration. Calling this repeatedly builds a sweep: the grid is
    /// run once per variant. Without any variant the base configuration is
    /// used as-is.
    #[must_use]
    pub fn sweep_config(
        mut self,
        label: impl Into<String>,
        mutate: impl FnOnce(&mut SystemConfig),
    ) -> Self {
        let mut cfg = self.base.clone();
        mutate(&mut cfg);
        self.variants.push((label.into(), cfg));
        self
    }

    /// Adds one configuration variant per hardware profile, labelled with
    /// the profile's name — a scheme x workload x hardware grid becomes a
    /// one-liner:
    ///
    /// ```ignore
    /// Experiment::new(config)
    ///     .schemes([Scheme::RingOram, Scheme::Palermo])
    ///     .workloads([Workload::Random])
    ///     .sweep_hardware(&HardwareProfile::builtins())
    ///     .run(&SerialExecutor)
    /// ```
    #[must_use]
    pub fn sweep_hardware(mut self, profiles: &[HardwareProfile]) -> Self {
        for profile in profiles {
            self.variants.push((
                profile.name.clone(),
                self.base.clone().with_hardware(profile),
            ));
        }
        self
    }

    /// Appends an explicitly constructed spec (used for runs outside the
    /// standard scheme wiring, e.g. the Fig. 4 PrORAM variants).
    #[must_use]
    pub fn spec(mut self, spec: RunSpec) -> Self {
        self.extra.push(spec);
        self
    }

    /// Appends a batch of explicitly constructed specs.
    #[must_use]
    pub fn specs(mut self, specs: impl IntoIterator<Item = RunSpec>) -> Self {
        self.extra.extend(specs);
        self
    }

    /// Materialises the grid into an ordered list of run specs.
    pub fn build(&self) -> Vec<RunSpec> {
        let variants: Vec<(String, SystemConfig)> = if self.variants.is_empty() {
            vec![(String::new(), self.base.clone())]
        } else {
            self.variants.clone()
        };
        let prefetch: Vec<Option<u32>> = if self.prefetch_lengths.is_empty() {
            vec![None]
        } else {
            self.prefetch_lengths.iter().copied().map(Some).collect()
        };
        let mut specs = Vec::new();
        for (vlabel, vcfg) in &variants {
            for workload in &self.workloads {
                // The load sweep wraps each closed-loop workload in one
                // open-loop spec per rate point; a workload that is already
                // open-loop keeps its own arrival spec and runs once.
                let load_points: Vec<(WorkloadSpec, Option<f64>)> =
                    if self.offered_loads.is_empty() || workload.open_loop().is_some() {
                        vec![(workload.clone(), None)]
                    } else {
                        self.offered_loads
                            .iter()
                            .map(|&rate| {
                                let arrival = ArrivalSpec::Poisson {
                                    rate_per_kcycle: rate,
                                };
                                let open = OpenLoopSpec::new(arrival, workload.clone());
                                (WorkloadSpec::OpenLoop(open), Some(rate))
                            })
                            .collect()
                    };
                for (wl_spec, load) in &load_points {
                    for &scheme in &self.schemes {
                        for &pf in &prefetch {
                            let mut config = vcfg.clone();
                            if let Some(p) = pf {
                                config.prefetch_override = Some(p);
                            }
                            // Synthesized load points label with the *inner*
                            // workload name; the `load=` suffix carries the
                            // arrival rate.
                            let mut label = format!("{scheme}/{workload}");
                            if !vlabel.is_empty() {
                                label = format!("{label}/{vlabel}");
                            }
                            if let Some(p) = pf {
                                label = format!("{label}/pf={p}");
                            }
                            if let Some(rate) = load {
                                label = format!("{label}/load={rate}");
                            }
                            specs.push(RunSpec {
                                scheme,
                                workload: wl_spec.clone(),
                                config,
                                label,
                                custom: None,
                            });
                        }
                    }
                }
            }
        }
        specs.extend(self.extra.iter().cloned());
        specs
    }

    /// Builds the grid and executes it on the given executor.
    ///
    /// # Errors
    ///
    /// Propagates the error of the first (in grid order) failing run.
    pub fn run<E: Executor + ?Sized>(&self, executor: &E) -> OramResult<ResultSet> {
        Ok(ResultSet::new(executor.execute(self.build())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SystemConfig {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        cfg
    }

    #[test]
    fn grid_is_the_cross_product_in_row_major_order() {
        let specs = Experiment::new(tiny())
            .schemes([Scheme::PathOram, Scheme::Palermo])
            .workloads([Workload::Mcf, Workload::Random])
            .build();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].label, "PathORAM/mcf");
        assert_eq!(specs[1].label, "Palermo/mcf");
        assert_eq!(specs[2].label, "PathORAM/random");
        assert_eq!(specs[3].label, "Palermo/random");
    }

    #[test]
    fn prefetch_sweep_multiplies_the_grid_and_sets_the_override() {
        let specs = Experiment::new(tiny())
            .schemes([Scheme::PalermoPrefetch])
            .workloads([Workload::Streaming])
            .sweep_prefetch([2, 8])
            .build();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].config.prefetch_override, Some(2));
        assert_eq!(specs[1].config.prefetch_override, Some(8));
        assert!(specs[1].label.ends_with("pf=8"));
    }

    #[test]
    fn config_sweep_produces_one_variant_per_call() {
        let specs = Experiment::new(tiny())
            .schemes([Scheme::Palermo])
            .workloads([Workload::Random])
            .sweep_config("pe=1", |c| c.pe_columns = 1)
            .sweep_config("pe=8", |c| c.pe_columns = 8)
            .build();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].config.pe_columns, 1);
        assert_eq!(specs[1].config.pe_columns, 8);
        assert_eq!(specs[0].label, "Palermo/random/pe=1");
    }

    #[test]
    fn hardware_sweep_produces_one_labelled_variant_per_profile() {
        let specs = Experiment::new(tiny())
            .schemes([Scheme::RingOram, Scheme::Palermo])
            .workloads([Workload::Random])
            .sweep_hardware(&HardwareProfile::builtins())
            .build();
        assert_eq!(specs.len(), 6, "3 profiles x 2 schemes");
        assert_eq!(specs[0].label, "RingORAM/random/ddr4-3200");
        assert_eq!(specs[0].config.hardware, "ddr4-3200");
        assert_eq!(
            specs[0].config.dram,
            palermo_dram::DramConfig::ddr4_3200_quad_channel()
        );
        let hbm = specs.iter().find(|s| s.config.hardware == "hbm2e").unwrap();
        assert_eq!(hbm.config.dram.channels, 16);
        assert_eq!(hbm.config.energy, HardwareProfile::hbm2e().energy);
    }

    #[test]
    fn load_sweep_wraps_each_workload_per_rate_point() {
        let specs = Experiment::new(tiny())
            .schemes([Scheme::RingOram, Scheme::Palermo])
            .workloads([Workload::Random])
            .sweep_offered_load([0.05, 0.2])
            .build();
        assert_eq!(specs.len(), 4);
        for spec in &specs {
            let open = spec.workload.open_loop().expect("wrapped open-loop");
            assert_eq!(open.inner.name(), "random");
        }
        assert_eq!(specs[0].label, "RingORAM/random/load=0.05");
        assert_eq!(specs[1].label, "Palermo/random/load=0.05");
        assert!(specs[3].label.ends_with("load=0.2"));
        assert_eq!(specs[3].workload.open_loop().unwrap().arrivals.len(), 1);
    }

    #[test]
    fn load_sweep_passes_open_loop_workloads_through_once() {
        let already_open = WorkloadSpec::from_name("open:bursty:0.2:20000:60000:mcf").unwrap();
        let specs = Experiment::new(tiny())
            .schemes([Scheme::Palermo])
            .workload_specs([already_open.clone()])
            .sweep_offered_load([0.05, 0.2])
            .build();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].workload, already_open);
        assert!(!specs[0].label.contains("load="));
    }

    #[test]
    fn explicit_specs_ride_along_after_the_grid() {
        let extra = RunSpec::new(Scheme::RingOram, Workload::Llm, tiny()).with_label("extra");
        let specs = Experiment::new(tiny())
            .schemes([Scheme::Palermo])
            .workloads([Workload::Random])
            .spec(extra)
            .build();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].label, "extra");
    }

    #[test]
    fn spec_executes_like_run_workload_spec() {
        let cfg = tiny();
        let spec = RunSpec::new(Scheme::Palermo, Workload::Random, cfg.clone());
        let direct = run_workload_spec(Scheme::Palermo, &Workload::Random.into(), &cfg).unwrap();
        let via_spec = spec.execute().unwrap();
        assert_eq!(via_spec, direct);
    }

    #[test]
    fn custom_protocols_reject_sharded_specs() {
        let cfg = tiny();
        let custom = CustomProtocol {
            hierarchy: Scheme::Palermo
                .hierarchy_config(
                    cfg.hierarchy_params().unwrap(),
                    cfg.seed,
                    1,
                    cfg.stash_capacity,
                )
                .unwrap(),
            controller: Scheme::Palermo.controller_config(cfg.pe_columns),
            prefetch_length: 1,
        };
        let sharded = WorkloadSpec::from_name("shard:2:hash:random").unwrap();
        let err = RunSpec::with_workload_spec(Scheme::Palermo, sharded, cfg)
            .with_custom(custom)
            .execute()
            .unwrap_err();
        assert!(
            matches!(&err, palermo_oram::error::OramError::InvalidParams { reason } if reason.contains("sharded")),
            "unexpected error: {err}"
        );
    }
}
