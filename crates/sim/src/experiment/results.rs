//! Result collection: per-run records, baseline normalisation, geo-means
//! and dependency-free CSV/JSON export.
//!
//! The three export row types — [`RunSummary`], [`TenantSummary`] and
//! [`ShardSummary`] — are declared through one macro, so each struct's
//! field list *is* its column table: the field name is the column name and
//! the field order is the column order. [`ExportRow`] turns that table into
//! the module's only CSV and JSON writers and readers:
//!
//! ```
//! use palermo_sim::experiment::{ExportRow, Experiment, SerialExecutor, TenantSummary};
//! use palermo_sim::{Scheme, SystemConfig};
//! use palermo_workloads::Workload;
//!
//! let mut cfg = SystemConfig::small_for_tests();
//! cfg.measured_requests = 20;
//! cfg.warmup_requests = 5;
//! let set = Experiment::new(cfg)
//!     .schemes([Scheme::Palermo])
//!     .workloads([Workload::Random])
//!     .run(&SerialExecutor)?;
//! let csv = TenantSummary::to_csv(&set.tenant_summaries());
//! assert!(csv.starts_with(&TenantSummary::COLUMNS.join(",")));
//! assert_eq!(TenantSummary::parse_csv(&csv), Some(set.tenant_summaries()));
//! # Ok::<(), palermo_oram::error::OramError>(())
//! ```

use crate::runner::RunMetrics;
use crate::schemes::Scheme;
use palermo_analysis::stats::geometric_mean;
use palermo_workloads::{Workload, WorkloadSpec};
use std::fmt::Write as _;

/// The outcome of one executed [`RunSpec`](super::RunSpec).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec's label.
    pub label: String,
    /// The scheme that was simulated.
    pub scheme: Scheme,
    /// The workload spec that drove it.
    pub workload: WorkloadSpec,
    /// Full metrics of the measured window.
    pub metrics: RunMetrics,
}

impl RunRecord {
    /// The per-tenant summaries of this record, one per tenant in tenant
    /// order (empty when the run was executed with per-tenant attribution
    /// disabled).
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        self.metrics
            .per_tenant
            .iter()
            .map(|t| TenantSummary {
                label: self.label.clone(),
                scheme: self.scheme,
                workload: self.workload.clone(),
                tenant: t.tenant,
                tenant_workload: self
                    .workload
                    .tenant_workload_name(t.tenant as usize)
                    .unwrap_or_default(),
                submitted: t.submitted,
                completed: t.completed,
                workload_accesses: t.workload_accesses,
                mean_latency: t.mean_latency(),
                p50_latency: t.p50_latency(),
                p95_latency: t.p95_latency(),
                p99_latency: t.p99_latency(),
                dram_ops: t.dram_ops,
                dram_share: self.metrics.tenant_dram_share(t.tenant as usize),
                energy_j: self.metrics.tenant_energy_j(t.tenant as usize),
            })
            .collect()
    }

    /// The per-shard summaries of this record, one per shard in shard
    /// order (empty for single-system runs).
    pub fn shard_summaries(&self) -> Vec<ShardSummary> {
        self.metrics
            .per_shard
            .iter()
            .map(|s| ShardSummary {
                label: self.label.clone(),
                scheme: self.scheme,
                workload: self.workload.clone(),
                shard: s.shard,
                oram_requests: s.oram_requests,
                workload_accesses: s.workload_accesses,
                dummy_requests: s.dummy_requests,
                cycles: s.cycles,
                submitted_requests: s.submitted_requests,
                arrivals: s.arrivals,
                dropped_arrivals: s.dropped_arrivals,
                mean_latency: s.latency.mean(),
                p99_latency: s.latency.p99(),
                stash_high_water: s.stash_high_water,
            })
            .collect()
    }

    /// The scalar summary of this record used by the CSV/JSON exports.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            label: self.label.clone(),
            scheme: self.scheme,
            workload: self.workload.clone(),
            prefetch_length: self.metrics.prefetch_length,
            oram_requests: self.metrics.oram_requests,
            workload_accesses: self.metrics.workload_accesses,
            dummy_requests: self.metrics.dummy_requests,
            cycles: self.metrics.cycles,
            mean_latency: self.metrics.mean_latency(),
            llc_hit_rate: self.metrics.llc_hit_rate,
            stash_high_water: self.metrics.stash_high_water,
            bandwidth_utilization: self.metrics.dram.bandwidth_utilization(),
            sync_stall_cycles: self.metrics.sync_stall_cycles,
            arrivals: self.metrics.arrivals,
            dropped_arrivals: self.metrics.dropped_arrivals,
            mean_queue_wait: self.metrics.mean_queue_wait(),
            shards: self.metrics.per_shard.len() as u32,
            hardware: self.metrics.hardware.clone(),
            energy_j: self.metrics.energy_j(),
        }
    }
}

/// A row type of the CSV/JSON exports, written and read through its column
/// table.
///
/// Implemented by [`RunSummary`], [`TenantSummary`] and [`ShardSummary`],
/// whose field lists are their column tables. Numbers are written bare with
/// Rust's shortest round-trippable formatting, so every document parses
/// back to exactly the rows that produced it. Text cells (labels, names,
/// [`Scheme`] by name and [`WorkloadSpec`] by canonical name) are quoted
/// and escaped in JSON, which therefore round-trips them exactly. In CSV a
/// text cell has its commas replaced by `;` and its control characters by
/// spaces, so every row stays one well-formed line that re-renders to the
/// same bytes.
pub trait ExportRow: Sized {
    /// The column names in column order: the row struct's field names in
    /// field order. The CSV header is `COLUMNS.join(",")`.
    const COLUMNS: &'static [&'static str];

    /// Per column, whether it is a text cell (as opposed to a number).
    #[doc(hidden)]
    const TEXT: &'static [bool];

    /// The row's cells in column order, each in its canonical text form.
    #[doc(hidden)]
    fn cells(&self) -> Vec<String>;

    /// Rebuilds a row from its cells in column order; `None` on a wrong
    /// cell count or an unparsable cell.
    #[doc(hidden)]
    fn from_cells(cells: &[&str]) -> Option<Self>;

    /// Renders `rows` as CSV: the header row, then one line per row.
    fn to_csv(rows: &[Self]) -> String {
        let mut out = Self::COLUMNS.join(",");
        out.push('\n');
        for row in rows {
            for (i, (cell, &text)) in row.cells().iter().zip(Self::TEXT).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if text {
                    push_csv_text(&mut out, cell);
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses CSV produced by [`ExportRow::to_csv`] back into rows. Returns
    /// `None` on a malformed document: a header other than
    /// [`ExportRow::COLUMNS`], a row with the wrong cell count, or an
    /// unparsable cell (including an unknown scheme or workload name).
    fn parse_csv(csv: &str) -> Option<Vec<Self>> {
        let mut lines = csv.lines();
        if lines.next()? != Self::COLUMNS.join(",") {
            return None;
        }
        lines
            .map(|line| Self::from_cells(&line.split(',').collect::<Vec<_>>()))
            .collect()
    }

    /// Renders `rows` as a JSON array of flat objects, one per line, keyed
    /// by column name in column order (`[]` for no rows).
    fn to_json(rows: &[Self]) -> String {
        if rows.is_empty() {
            return "[]\n".to_string();
        }
        let mut out = String::from("[\n");
        for (r, row) in rows.iter().enumerate() {
            out.push_str(if r == 0 { "  {" } else { ",\n  {" });
            let columns = Self::COLUMNS.iter().zip(Self::TEXT);
            for (i, (cell, (column, &text))) in row.cells().iter().zip(columns).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{column}\":");
                if text {
                    push_json_text(&mut out, cell);
                } else {
                    out.push_str(cell);
                }
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }

    /// Parses JSON produced by [`ExportRow::to_json`] back into rows. This
    /// is a strict reader for exactly that flat shape, not a general JSON
    /// parser: every object must carry every column, in column order, with
    /// text cells quoted and numbers bare, and only whitespace and one
    /// comma may separate two objects. Returns `None` on anything else.
    fn parse_json(json: &str) -> Option<Vec<Self>> {
        let mut doc = JsonCursor { rest: json };
        let mut rows = Vec::new();
        if !doc.eat('[') {
            return None;
        }
        if !doc.eat(']') {
            loop {
                rows.push(doc.object()?);
                if doc.eat(']') {
                    break;
                }
                if !doc.eat(',') {
                    return None;
                }
            }
        }
        doc.rest.trim().is_empty().then_some(rows)
    }
}

/// How one field type is written to, and read back from, one export cell.
trait Cell: Sized {
    /// Text cells are sanitised in CSV and quoted and escaped in JSON;
    /// the others are numbers, written bare.
    const TEXT: bool = false;
    /// The cell's canonical text.
    fn render(&self) -> String;
    /// Parses the canonical text back; `None` if it is not one.
    fn parse(cell: &str) -> Option<Self>;
}

macro_rules! number_cells {
    ($($t:ty),+) => {$(
        impl Cell for $t {
            fn render(&self) -> String {
                self.to_string()
            }
            fn parse(cell: &str) -> Option<Self> {
                cell.parse().ok()
            }
        }
    )+};
}

number_cells!(u32, u64, usize, f64);

impl Cell for String {
    const TEXT: bool = true;
    fn render(&self) -> String {
        self.clone()
    }
    fn parse(cell: &str) -> Option<Self> {
        Some(cell.to_string())
    }
}

impl Cell for Scheme {
    const TEXT: bool = true;
    fn render(&self) -> String {
        self.name().to_string()
    }
    fn parse(cell: &str) -> Option<Self> {
        Scheme::from_name(cell)
    }
}

impl Cell for WorkloadSpec {
    const TEXT: bool = true;
    fn render(&self) -> String {
        self.name()
    }
    fn parse(cell: &str) -> Option<Self> {
        WorkloadSpec::from_name(cell)
    }
}

/// Declares an export row struct and implements [`ExportRow`] from its
/// field list: the field names are the columns, in field order, and each
/// field's [`Cell`] codec writes and reads its cell.
macro_rules! export_rows {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)+
        }
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)+
        }

        impl ExportRow for $name {
            const COLUMNS: &'static [&'static str] = &[$(stringify!($field)),+];
            const TEXT: &'static [bool] = &[$(<$ty as Cell>::TEXT),+];

            fn cells(&self) -> Vec<String> {
                vec![$(Cell::render(&self.$field)),+]
            }

            fn from_cells(cells: &[&str]) -> Option<Self> {
                let [$($field),+] = cells else {
                    return None;
                };
                Some($name { $($field: Cell::parse($field)?),+ })
            }
        }
    )+};
}

export_rows! {
    /// The scalar per-run summary exported to CSV/JSON (and parsed back by
    /// the round-trip readers), one row per run ([`ResultSet::summaries`]).
    /// Floats use Rust's shortest round-trippable formatting, so the
    /// [`ExportRow`] writers and readers round-trip exactly.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunSummary {
        /// The spec's label (commas are replaced by `;` in CSV output).
        pub label: String,
        /// The scheme.
        pub scheme: Scheme,
        /// The workload spec, exported by its canonical name
        /// ([`WorkloadSpec::name`]) and parsed back with
        /// [`WorkloadSpec::from_name`].
        pub workload: WorkloadSpec,
        /// Prefetch length the run used (1 = none).
        pub prefetch_length: u32,
        /// Real ORAM requests completed in the measured window.
        pub oram_requests: u64,
        /// Workload accesses consumed in the measured window.
        pub workload_accesses: u64,
        /// Dummy (background-eviction) requests completed.
        pub dummy_requests: u64,
        /// Cycles spent in the measured window.
        pub cycles: u64,
        /// Mean ORAM response latency in cycles.
        pub mean_latency: f64,
        /// LLC hit rate over the whole run.
        pub llc_hit_rate: f64,
        /// Highest stash occupancy observed anywhere in the hierarchy.
        pub stash_high_water: usize,
        /// DRAM data-bus utilisation over the measured window.
        pub bandwidth_utilization: f64,
        /// Total ORAM-sync stall cycles over the measured window.
        pub sync_stall_cycles: u64,
        /// Open-loop arrivals resolved in the measured window (0 for
        /// closed-loop runs).
        pub arrivals: u64,
        /// Open-loop arrivals dropped by the admission policy in the measured
        /// window (0 for closed-loop runs).
        pub dropped_arrivals: u64,
        /// Mean admission-queue wait in cycles (0 for closed-loop runs).
        pub mean_queue_wait: f64,
        /// Shard count of a sharded run (0 for single-system runs — the
        /// per-shard rows live in the [`ShardSummary`] documents).
        pub shards: u32,
        /// Name of the hardware profile the run executed on ("ddr4-3200" for
        /// the default; commas become `;` in CSV output, though profile names
        /// never contain them).
        pub hardware: String,
        /// Total memory energy of the measured window, joules.
        pub energy_j: f64,
    }

    /// One tenant's scalar QoS summary of one run, exported to the
    /// per-tenant CSV/JSON documents (rows from
    /// [`ResultSet::tenant_summaries`], written and read through
    /// [`ExportRow`]). One run contributes one row per tenant.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TenantSummary {
        /// The run's label (commas become `;` in CSV output).
        pub label: String,
        /// The scheme.
        pub scheme: Scheme,
        /// The workload spec of the whole run (canonical name in the exports).
        pub workload: WorkloadSpec,
        /// Tenant index within the spec.
        pub tenant: u32,
        /// Canonical name of the tenant's child workload (= the spec name for
        /// single-tenant runs).
        pub tenant_workload: String,
        /// Real requests submitted while the measured window was open.
        pub submitted: u64,
        /// Real requests completed inside the measured window.
        pub completed: u64,
        /// Workload accesses consumed by the completed requests.
        pub workload_accesses: u64,
        /// Mean response latency in cycles.
        pub mean_latency: f64,
        /// Median latency estimate in cycles.
        pub p50_latency: u64,
        /// 95th-percentile latency estimate in cycles.
        pub p95_latency: u64,
        /// 99th-percentile tail latency estimate in cycles.
        pub p99_latency: u64,
        /// DRAM bursts issued for the tenant's completed requests.
        pub dram_ops: u64,
        /// The tenant's share of all tenant-attributed DRAM bursts in the run.
        pub dram_share: f64,
        /// The tenant's share of the run's memory energy in joules,
        /// attributed proportionally to `dram_ops` — the per-tenant bill next
        /// to the per-tenant p99.
        pub energy_j: f64,
    }

    /// One shard's scalar summary of one sharded run, exported to the
    /// per-shard CSV/JSON documents (rows from
    /// [`ResultSet::shard_summaries`], written and read through
    /// [`ExportRow`]). One sharded run contributes one row per shard;
    /// single-system runs contribute none.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShardSummary {
        /// The run's label (commas become `;` in CSV output).
        pub label: String,
        /// The scheme.
        pub scheme: Scheme,
        /// The workload spec of the whole run (canonical name in the exports).
        pub workload: WorkloadSpec,
        /// Shard index within the run.
        pub shard: u32,
        /// Real ORAM requests the shard completed in its measured window.
        pub oram_requests: u64,
        /// Workload accesses consumed by the shard's completed requests.
        pub workload_accesses: u64,
        /// Dummy (background-eviction) requests the shard completed.
        pub dummy_requests: u64,
        /// Cycles the shard spent in its measured window.
        pub cycles: u64,
        /// Real requests the shard submitted while measuring.
        pub submitted_requests: u64,
        /// Open-loop arrivals the shard resolved (0 for closed-loop runs).
        pub arrivals: u64,
        /// Open-loop arrivals the shard's admission policy dropped.
        pub dropped_arrivals: u64,
        /// Mean response latency of the shard's completions, in cycles.
        pub mean_latency: f64,
        /// 99th-percentile tail latency estimate in cycles.
        pub p99_latency: u64,
        /// Highest stash occupancy the shard's hierarchy observed.
        pub stash_high_water: usize,
    }
}

impl RunSummary {
    /// Measured workload accesses per cycle (the end-to-end speedup metric).
    pub fn accesses_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.workload_accesses as f64 / self.cycles as f64
    }
}

/// Writes a text cell to CSV: the separator becomes `;` and control
/// characters (which would break the line structure) become spaces.
fn push_csv_text(out: &mut String, text: &str) {
    out.extend(text.chars().map(|c| match c {
        ',' => ';',
        c if c.is_control() => ' ',
        c => c,
    }));
}

/// Writes a text cell to JSON as a quoted, escaped string literal.
fn push_json_text(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The unread tail of a JSON document in the shape [`ExportRow::to_json`]
/// writes.
struct JsonCursor<'a> {
    rest: &'a str,
}

impl<'a> JsonCursor<'a> {
    /// Skips whitespace, then consumes `token` if it comes next.
    fn eat(&mut self, token: char) -> bool {
        self.rest = self.rest.trim_start();
        match self.rest.strip_prefix(token) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// A string literal, decoding the escapes [`push_json_text`] writes
    /// (`\u` takes exactly four ASCII hex digits).
    fn string(&mut self) -> Option<String> {
        if !self.eat('"') {
            return None;
        }
        let mut value = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((at, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[at + 1..];
                    return Some(value);
                }
                '\\' => value.push(match chars.next()?.1 {
                    '"' => '"',
                    '\\' => '\\',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let mut code = 0;
                        for _ in 0..4 {
                            code = code * 16 + chars.next()?.1.to_digit(16)?;
                        }
                        char::from_u32(code)?
                    }
                    _ => return None,
                }),
                c => value.push(c),
            }
        }
        None
    }

    /// A bare (number) token: everything up to the next `,`, `}` or
    /// whitespace.
    fn bare(&mut self) -> Option<&'a str> {
        self.rest = self.rest.trim_start();
        let end = self
            .rest
            .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        (!token.is_empty()).then_some(token)
    }

    /// One `{"column":cell,…}` object holding `R`'s columns in order.
    fn object<R: ExportRow>(&mut self) -> Option<R> {
        if !self.eat('{') {
            return None;
        }
        let mut cells = Vec::with_capacity(R::COLUMNS.len());
        for (i, (column, &text)) in R::COLUMNS.iter().zip(R::TEXT).enumerate() {
            if (i > 0 && !self.eat(',')) || self.string()? != *column || !self.eat(':') {
                return None;
            }
            cells.push(if text {
                self.string()?
            } else {
                self.bare()?.to_string()
            });
        }
        if !self.eat('}') {
            return None;
        }
        R::from_cells(&cells.iter().map(String::as_str).collect::<Vec<_>>())
    }
}

/// The ordered results of one executed experiment grid.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    records: Vec<RunRecord>,
}

impl ResultSet {
    /// Wraps an ordered list of records.
    pub fn new(records: Vec<RunRecord>) -> Self {
        ResultSet { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the set holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the records in grid order.
    pub fn iter(&self) -> std::slice::Iter<'_, RunRecord> {
        self.records.iter()
    }

    /// The records in grid order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Consumes the set, returning the owned records in grid order (use
    /// this to move `RunMetrics` out instead of cloning them).
    pub fn into_records(self) -> Vec<RunRecord> {
        self.records
    }

    /// The first record for the given (scheme, Table II workload) cell, if
    /// any. Sweeps produce several records per cell — disambiguate those
    /// with [`ResultSet::by_label`]; replay/mix cells are looked up with
    /// [`ResultSet::get_spec`].
    pub fn get(&self, scheme: Scheme, workload: Workload) -> Option<&RunRecord> {
        self.get_spec(scheme, &WorkloadSpec::Table2(workload))
    }

    /// The first record for the given (scheme, workload spec) cell, if any.
    pub fn get_spec(&self, scheme: Scheme, workload: &WorkloadSpec) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.scheme == scheme && &r.workload == workload)
    }

    /// The record with the given label, if any.
    pub fn by_label(&self, label: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.label == label)
    }

    /// End-to-end speedup (workload accesses per cycle) of `scheme` over
    /// `baseline` on one workload. `None` when either run is missing.
    pub fn speedup_over(
        &self,
        baseline: Scheme,
        scheme: Scheme,
        workload: Workload,
    ) -> Option<f64> {
        let base = self.get(baseline, workload)?.metrics.accesses_per_cycle();
        let this = self.get(scheme, workload)?.metrics.accesses_per_cycle();
        Some(this / base.max(f64::MIN_POSITIVE))
    }

    /// The `workloads × schemes` matrix of speedups over `baseline`
    /// (missing cells are 0.0) — the Fig. 10 normalisation.
    pub fn speedup_matrix(
        &self,
        baseline: Scheme,
        workloads: &[Workload],
        schemes: &[Scheme],
    ) -> Vec<Vec<f64>> {
        workloads
            .iter()
            .map(|&w| {
                schemes
                    .iter()
                    .map(|&s| self.speedup_over(baseline, s, w).unwrap_or(0.0))
                    .collect()
            })
            .collect()
    }

    /// Geometric-mean speedup of `scheme` over `baseline` across the given
    /// workloads (cells missing from the set are skipped).
    pub fn geo_mean_speedup(
        &self,
        baseline: Scheme,
        scheme: Scheme,
        workloads: &[Workload],
    ) -> f64 {
        let speedups: Vec<f64> = workloads
            .iter()
            .filter_map(|&w| self.speedup_over(baseline, scheme, w))
            .collect();
        geometric_mean(&speedups)
    }

    /// The scalar summaries of every record, in grid order: the rows of
    /// the run-level exports ([`ExportRow`] on [`RunSummary`]).
    pub fn summaries(&self) -> Vec<RunSummary> {
        self.records.iter().map(RunRecord::summary).collect()
    }

    /// The per-tenant summaries of every record, flattened in grid order
    /// (record by record, tenants in tenant order within each record).
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        self.records
            .iter()
            .flat_map(RunRecord::tenant_summaries)
            .collect()
    }

    /// The per-shard summaries of every record, flattened in grid order
    /// (record by record, shards in shard order within each record).
    /// Single-system records contribute no rows.
    pub fn shard_summaries(&self) -> Vec<ShardSummary> {
        self.records
            .iter()
            .flat_map(RunRecord::shard_summaries)
            .collect()
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = &'a RunRecord;
    type IntoIter = std::slice::Iter<'a, RunRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, SerialExecutor};
    use crate::system::SystemConfig;

    fn small_set() -> ResultSet {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        Experiment::new(cfg)
            .schemes([Scheme::PathOram, Scheme::Palermo])
            .workloads([Workload::Random])
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn speedup_and_geo_mean_normalise_against_the_baseline() {
        let set = small_set();
        let self_speedup = set
            .speedup_over(Scheme::PathOram, Scheme::PathOram, Workload::Random)
            .unwrap();
        assert!((self_speedup - 1.0).abs() < 1e-12);
        let palermo = set
            .speedup_over(Scheme::PathOram, Scheme::Palermo, Workload::Random)
            .unwrap();
        assert!(palermo > 1.0);
        let matrix = set.speedup_matrix(Scheme::PathOram, &[Workload::Random], &[Scheme::Palermo]);
        assert_eq!(matrix, vec![vec![palermo]]);
        let gm = set.geo_mean_speedup(Scheme::PathOram, Scheme::Palermo, &[Workload::Random]);
        assert!((gm - palermo).abs() < 1e-12);
        assert!(set
            .speedup_over(Scheme::IrOram, Scheme::Palermo, Workload::Random)
            .is_none());
    }

    #[test]
    fn csv_round_trips_exactly() {
        let set = small_set();
        let parsed = RunSummary::parse_csv(&RunSummary::to_csv(&set.summaries())).unwrap();
        assert_eq!(parsed, set.summaries());
    }

    fn mix_set() -> ResultSet {
        use palermo_workloads::MixSpec;
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        let mix = WorkloadSpec::Mix(
            MixSpec::round_robin()
                .tenant(Workload::Redis.into(), 2)
                .tenant(Workload::Llm.into(), 1),
        );
        Experiment::new(cfg)
            .schemes([Scheme::Palermo])
            .workload_specs([mix])
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn tenant_csv_round_trips_exactly() {
        let set = mix_set();
        let summaries = set.tenant_summaries();
        assert_eq!(summaries.len(), 2, "one row per tenant");
        assert_eq!(summaries[0].tenant_workload, "redis");
        assert_eq!(summaries[1].tenant_workload, "llm");
        let parsed = TenantSummary::parse_csv(&TenantSummary::to_csv(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
    }

    #[test]
    fn tenant_json_round_trips_exactly() {
        let set = mix_set();
        let parsed =
            TenantSummary::parse_json(&TenantSummary::to_json(&set.tenant_summaries())).unwrap();
        assert_eq!(parsed, set.tenant_summaries());
        // Single-tenant sets export one row per run, and empty sets parse.
        let single = small_set();
        assert_eq!(single.tenant_summaries().len(), single.len());
        assert_eq!(TenantSummary::parse_json("[]").unwrap(), Vec::new());
        assert_eq!(
            TenantSummary::parse_json(&TenantSummary::to_json(&[])).unwrap(),
            Vec::new()
        );
        assert!(TenantSummary::parse_csv("nope\n1,2").is_none());
    }

    fn shard_set() -> ResultSet {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 4;
        Experiment::new(cfg)
            .schemes([Scheme::RingOram])
            .workload_specs([WorkloadSpec::from_name("shard:2:hash:random").unwrap()])
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn shard_csv_round_trips_exactly() {
        let set = shard_set();
        let summaries = set.shard_summaries();
        assert_eq!(summaries.len(), 2, "one row per shard");
        assert_eq!(summaries[0].shard, 0);
        assert_eq!(summaries[1].shard, 1);
        assert_eq!(set.summaries()[0].shards, 2);
        let parsed = ShardSummary::parse_csv(&ShardSummary::to_csv(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
        // Single-system sets export no shard rows and a shards count of 0.
        let single = small_set();
        assert!(single.shard_summaries().is_empty());
        assert!(single.summaries().iter().all(|s| s.shards == 0));
        assert!(ShardSummary::parse_csv("nope\n1,2").is_none());
    }

    #[test]
    fn shard_json_round_trips_exactly() {
        let set = shard_set();
        let parsed =
            ShardSummary::parse_json(&ShardSummary::to_json(&set.shard_summaries())).unwrap();
        assert_eq!(parsed, set.shard_summaries());
        assert_eq!(ShardSummary::parse_json("[]").unwrap(), Vec::new());
        assert_eq!(
            ShardSummary::parse_json(&ShardSummary::to_json(&[])).unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn shard_exports_survive_hostile_labels_both_directions() {
        let set = shard_set();
        let mut record = set.records()[0].clone();
        record.label = "odd \"label\" with {braces},\ncommas\tand\u{1}controls".to_string();
        let odd = ResultSet::new(vec![record]);
        let json = ShardSummary::to_json(&odd.shard_summaries());
        let parsed = ShardSummary::parse_json(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].label,
            "odd \"label\" with {braces},\ncommas\tand\u{1}controls"
        );
        assert_eq!(parsed[0].workload.name(), "shard:2:hash:random");
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'));
        // CSV flattens the label but stays one well-formed row per shard.
        let csv = ShardSummary::to_csv(&odd.shard_summaries());
        assert_eq!(csv.lines().count(), 3);
        let parsed = ShardSummary::parse_csv(&csv).unwrap();
        assert_eq!(
            parsed[1].label,
            "odd \"label\" with {braces}; commas and controls"
        );
        // The sharded run-level summary round-trips through both formats
        // too (its workload cell carries the reserved `:`-grammar name).
        let run_parsed = RunSummary::parse_csv(&RunSummary::to_csv(&odd.summaries())).unwrap();
        assert_eq!(run_parsed[0].shards, 2);
        assert_eq!(run_parsed[0].workload.name(), "shard:2:hash:random");
        let run_parsed = RunSummary::parse_json(&RunSummary::to_json(&odd.summaries())).unwrap();
        assert_eq!(run_parsed, odd.summaries());
    }

    fn hardware_set() -> ResultSet {
        use palermo_dram::HardwareProfile;
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        Experiment::new(cfg)
            .schemes([Scheme::Palermo])
            .workloads([Workload::Random])
            .sweep_hardware(&HardwareProfile::builtins())
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn hardware_and_energy_columns_round_trip_exactly() {
        let set = hardware_set();
        let summaries = set.summaries();
        assert_eq!(summaries.len(), 3, "one run per profile");
        let names: Vec<&str> = summaries.iter().map(|s| s.hardware.as_str()).collect();
        assert_eq!(names, ["ddr4-3200", "ddr5-6400", "hbm2e"]);
        assert!(summaries.iter().all(|s| s.energy_j > 0.0));
        let csv = RunSummary::to_csv(&summaries);
        assert_eq!(RunSummary::parse_csv(&csv).unwrap(), summaries);
        let parsed = RunSummary::parse_json(&RunSummary::to_json(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
        // A pre-extension row (17 fields) no longer parses.
        let short_row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').take(17).collect();
        let header = RunSummary::COLUMNS.join(",");
        let legacy = format!("{header}\n{}\n", short_row.join(","));
        assert!(RunSummary::parse_csv(&legacy).is_none());
    }

    #[test]
    fn tenant_energy_column_round_trips_and_partitions_the_total() {
        let set = mix_set();
        let record = &set.records()[0];
        let summaries = set.tenant_summaries();
        let tenant_total: f64 = summaries.iter().map(|t| t.energy_j).sum();
        assert!(tenant_total > 0.0);
        assert!(
            (tenant_total - record.metrics.energy_j()).abs() <= record.metrics.energy_j() * 1e-12
        );
        let parsed = TenantSummary::parse_csv(&TenantSummary::to_csv(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
        let parsed = TenantSummary::parse_json(&TenantSummary::to_json(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
    }

    #[test]
    fn tenant_shares_partition_the_dram_demand() {
        let set = mix_set();
        let record = &set.records()[0];
        let shares: f64 = (0..record.metrics.per_tenant.len())
            .map(|i| record.metrics.tenant_dram_share(i))
            .sum();
        assert!((shares - 1.0).abs() < 1e-12, "shares sum to {shares}");
        assert!(record.metrics.tenant_conservation_ok());
    }

    #[test]
    fn json_round_trips_exactly() {
        let set = small_set();
        let parsed = RunSummary::parse_json(&RunSummary::to_json(&set.summaries())).unwrap();
        assert_eq!(parsed, set.summaries());
    }

    #[test]
    fn json_labels_with_quotes_braces_and_control_chars_survive() {
        let set = small_set();
        let mut record = set.records()[0].clone();
        record.label = "odd \"label\" with {braces},\ncommas\tand\u{1}controls".to_string();
        let odd = ResultSet::new(vec![record.clone()]);
        let json = RunSummary::to_json(&odd.summaries());
        let parsed = RunSummary::parse_json(&json).unwrap();
        assert_eq!(
            parsed[0].label,
            "odd \"label\" with {braces},\ncommas\tand\u{1}controls"
        );
        // The JSON document itself contains no raw control characters.
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'));
        // CSV flattens the label but stays one well-formed row per record.
        let csv = RunSummary::to_csv(&odd.summaries());
        assert_eq!(csv.lines().count(), 2);
        let parsed = RunSummary::parse_csv(&csv).unwrap();
        assert_eq!(
            parsed[0].label,
            "odd \"label\" with {braces}; commas and controls"
        );
    }

    #[test]
    fn into_records_moves_the_metrics_out() {
        let set = small_set();
        let len = set.len();
        let records = set.into_records();
        assert_eq!(records.len(), len);
        assert!(records.iter().all(|r| !r.metrics.latencies.is_empty()));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(RunSummary::parse_csv("not,a,header\n1,2").is_none());
        assert!(RunSummary::parse_json("{\"not\":\"an array\"").is_none());
        let header = RunSummary::COLUMNS.join(",");
        assert!(RunSummary::parse_csv(&format!("{header}\ntoo,few,fields\n")).is_none());
        assert_eq!(RunSummary::parse_json("[]").unwrap(), Vec::new());
        // Every writer renders an empty set as the same empty documents.
        assert_eq!(RunSummary::to_json(&[]), "[]\n");
        assert_eq!(RunSummary::to_csv(&[]), format!("{header}\n"));
    }

    /// A two-row run-level JSON document with `sep` between its objects.
    fn two_objects(sep: &str) -> String {
        let json = RunSummary::to_json(&small_set().summaries());
        let (first, second) = json.split_once(",\n").unwrap();
        format!("{first}{sep}{second}")
    }

    #[test]
    fn json_objects_are_separated_by_exactly_one_comma() {
        assert_eq!(
            RunSummary::parse_json(&two_objects(" ,\n\t"))
                .unwrap()
                .len(),
            2
        );
        for sep in [" garbage ", "", ",,", ", garbage,", "\n"] {
            assert!(
                RunSummary::parse_json(&two_objects(sep)).is_none(),
                "accepted {sep:?} between objects"
            );
        }
        let json = RunSummary::to_json(&small_set().summaries());
        let trailing_comma = json.replace("}\n]", "},\n]");
        assert!(RunSummary::parse_json(&trailing_comma).is_none());
    }

    #[test]
    fn json_unicode_escapes_take_exactly_four_hex_digits() {
        let json = RunSummary::to_json(&small_set().summaries());
        let with_label = |label: &str| json.replacen("PathORAM/random", label, 1);
        let parsed = RunSummary::parse_json(&with_label("\\u0041\\u00e9")).unwrap();
        assert_eq!(parsed[0].label, "A\u{e9}");
        for bad in [
            "\\u+041",
            "\\u-041",
            "\\u 041",
            "\\u41",
            "\\u004",
            "\\u０041",
        ] {
            assert!(
                RunSummary::parse_json(&with_label(bad)).is_none(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn lookup_helpers_find_records() {
        let set = small_set();
        assert!(set.get(Scheme::Palermo, Workload::Random).is_some());
        assert!(set.by_label("Palermo/random").is_some());
        assert!(set.by_label("nope").is_none());
        assert_eq!(set.iter().count(), set.len());
        assert_eq!((&set).into_iter().count(), 2);
    }
}
