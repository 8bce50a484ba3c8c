//! Declarative hardware profiles: a memory part as a `key = value` file.
//!
//! A [`HardwareProfile`] bundles everything the simulator needs to model a
//! memory technology — the full [`DramConfig`] organisation and timing set,
//! the energy coefficients that turn the DRAM counters into joules
//! ([`EnergyCoefficients`]), and optional controller provisioning overrides
//! ([`ProvisioningOverrides`]). Profiles exist so "same workload, different
//! memory part" is a data change, not a code change: the named profiles
//! checked in under `profiles/` span DDR4-3200 (byte-identical to the
//! hardcoded Table III default — pinned by test), a DDR5-class part and an
//! HBM2e-class part, and `Experiment::sweep_hardware` turns them into a
//! grid axis.
//!
//! # File format
//!
//! The parser is hand-rolled and dependency-free (same constraint as the
//! vendored proptest shim: no registry access). One `key = value` pair per
//! line; `#` starts a comment line; blank lines are ignored. There are no
//! inline comments, no sections, and **no defaults**: every non-optional
//! key must appear exactly once, unknown or
//! duplicate keys are typed errors, and the embedded [`DramConfig`] must
//! pass [`DramConfig::validate`] (so e.g. `t_faw < 4 * t_rrd_s`, or a
//! timing above [`crate::config::MAX_TIMING_CYCLES`], is rejected at parse
//! time). [`HardwareProfile::to_file_string`] renders
//! the canonical form; serialize → parse → serialize is byte-identical
//! (property-tested in `tests/profile_roundtrip.rs`).
//!
//! File I/O happens in [`HardwareProfile::load`] only — profiles are
//! resolved before a simulation starts, never inside the loop, keeping the
//! determinism contract ambient-state-free (the D02 determinism lint
//! covers this module).

use crate::config::{DramConfig, DramConfigError};
use std::fmt;
use std::path::Path;

/// Energy coefficients of a memory part, calibrated at class level against
/// published numbers (DRAMPower-style models and vendor power calculators).
/// All dynamic coefficients are per-event picojoules; background power is
/// milliwatts per bank, integrated over the measured window at the nominal
/// 1600 MHz clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCoefficients {
    /// Energy per row activation (ACT + implied precharge), picojoules.
    pub pj_per_act: f64,
    /// Energy per 64-byte read burst, picojoules.
    pub pj_per_rd_burst: f64,
    /// Energy per 64-byte write burst, picojoules.
    pub pj_per_wr_burst: f64,
    /// Background (standby + refresh) power per bank, milliwatts.
    pub background_mw_per_bank: f64,
}

impl EnergyCoefficients {
    /// DDR4-3200 class coefficients (the Table III part).
    pub fn ddr4_3200() -> Self {
        EnergyCoefficients {
            pj_per_act: 1700.0,
            pj_per_rd_burst: 4600.0,
            pj_per_wr_burst: 4800.0,
            background_mw_per_bank: 9.0,
        }
    }
}

impl Default for EnergyCoefficients {
    fn default() -> Self {
        Self::ddr4_3200()
    }
}

/// Optional controller provisioning overrides a profile may carry: a
/// memory part can imply a different controller build-out (e.g. an
/// on-package HBM part affording a larger tree-top cache). `None` means
/// "keep the system's default". Applied by
/// `SystemConfig::apply_hardware` in `palermo-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProvisioningOverrides {
    /// PE mesh rows.
    pub pe_rows: Option<u32>,
    /// PE mesh columns (concurrent ORAM requests).
    pub pe_columns: Option<u32>,
    /// Total tree-top cache capacity in bytes.
    pub treetop_bytes: Option<u64>,
    /// On-chip PosMap3 capacity in bytes.
    pub posmap3_bytes: Option<u64>,
    /// Total stash capacity in bytes.
    pub stash_bytes: Option<u64>,
}

impl ProvisioningOverrides {
    /// Returns `true` when no override is set.
    pub fn is_empty(&self) -> bool {
        *self == ProvisioningOverrides::default()
    }
}

/// A complete declarative description of a memory part.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Profile name: ASCII letters/digits plus `-`, `_` and `.` (so names
    /// survive CSV cells and run labels unescaped), at most 64 bytes.
    pub name: String,
    /// DRAM organisation and timing.
    pub dram: DramConfig,
    /// Energy coefficients.
    pub energy: EnergyCoefficients,
    /// Controller provisioning overrides (all `None` when the profile
    /// keeps the system defaults).
    pub provisioning: ProvisioningOverrides,
}

/// A typed parse/validation failure for a profile file. Line numbers are
/// 1-based.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The file could not be read (the I/O error is flattened to its
    /// message so the error stays comparable).
    Io {
        /// Path that failed to load.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A non-comment line is not a `key = value` pair.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The offending line content (trimmed).
        content: String,
    },
    /// A key this format does not define. Unknown keys are never ignored:
    /// a typo would otherwise silently fall back to a default.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// A key appeared more than once. Duplicates are never
    /// last-writer-wins: the file is ambiguous, so it is rejected.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
    /// A value failed to parse as its key's type (or an energy
    /// coefficient was negative/non-finite).
    InvalidValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value was rejected.
        key: String,
        /// The rejected value text.
        value: String,
    },
    /// A required key is missing. Missing keys are never defaulted.
    MissingKey {
        /// The missing key.
        key: String,
    },
    /// The profile name is empty, too long, or contains characters that
    /// would not survive run labels and CSV cells.
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// The assembled [`DramConfig`] failed structural validation.
    Config(DramConfigError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io { path, message } => {
                write!(f, "cannot read profile '{path}': {message}")
            }
            ProfileError::Syntax { line, content } => {
                write!(f, "line {line}: expected `key = value`, got '{content}'")
            }
            ProfileError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key '{key}'")
            }
            ProfileError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key '{key}'")
            }
            ProfileError::InvalidValue { line, key, value } => {
                write!(f, "line {line}: invalid value '{value}' for key '{key}'")
            }
            ProfileError::MissingKey { key } => write!(f, "missing required key '{key}'"),
            ProfileError::InvalidName { name } => write!(
                f,
                "invalid profile name '{name}' (ASCII alphanumerics, '-', '_', '.'; \
                 1-64 bytes)"
            ),
            ProfileError::Config(e) => write!(f, "invalid DRAM configuration: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<DramConfigError> for ProfileError {
    fn from(e: DramConfigError) -> Self {
        ProfileError::Config(e)
    }
}

/// Returns `true` when `name` is a legal profile name.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// The required keys, in canonical serialization order.
const REQUIRED_KEYS: &[&str] = &[
    "name",
    "channels",
    "ranks",
    "bank_groups",
    "banks_per_group",
    "rows",
    "row_bytes",
    "burst_bytes",
    "queue_capacity",
    "t_cl",
    "t_cwl",
    "t_rcd",
    "t_rp",
    "t_ras",
    "t_rc",
    "t_ccd_s",
    "t_ccd_l",
    "t_rrd_s",
    "t_rrd_l",
    "t_faw",
    "t_wr",
    "t_wtr",
    "t_rtp",
    "t_bl",
    "pj_per_act",
    "pj_per_rd_burst",
    "pj_per_wr_burst",
    "background_mw_per_bank",
];

/// The optional controller-override keys, in canonical order.
const OPTIONAL_KEYS: &[&str] = &[
    "pe_rows",
    "pe_columns",
    "treetop_bytes",
    "posmap3_bytes",
    "stash_bytes",
];

/// Accumulates parsed keys; every field starts `None` and may be set once.
#[derive(Default)]
struct PartialProfile {
    name: Option<String>,
    u32s: Vec<(&'static str, u32)>,
    u64s: Vec<(&'static str, u64)>,
    f64s: Vec<(&'static str, f64)>,
}

impl PartialProfile {
    fn seen(&self, key: &str) -> bool {
        match key {
            "name" => self.name.is_some(),
            _ => {
                self.u32s.iter().any(|(k, _)| *k == key)
                    || self.u64s.iter().any(|(k, _)| *k == key)
                    || self.f64s.iter().any(|(k, _)| *k == key)
            }
        }
    }

    fn u32_field(&self, key: &str) -> Option<u32> {
        self.u32s.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn u64_field(&self, key: &str) -> Option<u64> {
        self.u64s.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn f64_field(&self, key: &str) -> Option<f64> {
        self.f64s.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Keys whose field is a `u32`, range-checked where the line is known.
const U32_KEYS: &[&str] = &[
    "channels",
    "ranks",
    "bank_groups",
    "banks_per_group",
    "pe_rows",
    "pe_columns",
];

/// Keys holding floating-point energy coefficients.
const F64_KEYS: &[&str] = &[
    "pj_per_act",
    "pj_per_rd_burst",
    "pj_per_wr_burst",
    "background_mw_per_bank",
];

/// Canonical static name for a key (so the accumulator can store
/// `&'static str` without leaking the caller's buffer).
fn canonical_key(key: &str) -> Option<&'static str> {
    REQUIRED_KEYS
        .iter()
        .chain(OPTIONAL_KEYS.iter())
        .find(|k| **k == key)
        .copied()
}

impl HardwareProfile {
    /// Parses the `key = value` profile format. Strict by design: unknown
    /// keys, duplicate keys, missing keys, malformed values (including a
    /// `pe_rows` or `pe_columns` of 0, and a count above `u32::MAX` for a
    /// `u32` field) and structurally invalid
    /// configurations are all typed errors — nothing is ever defaulted or
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProfileError`] encountered, scanning top to
    /// bottom and validating the assembled configuration last.
    pub fn parse(text: &str) -> Result<HardwareProfile, ProfileError> {
        let mut partial = PartialProfile::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(ProfileError::Syntax {
                    line,
                    content: content.to_string(),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(key) = canonical_key(key) else {
                return Err(ProfileError::UnknownKey {
                    line,
                    key: key.to_string(),
                });
            };
            if partial.seen(key) {
                return Err(ProfileError::DuplicateKey {
                    line,
                    key: key.to_string(),
                });
            }
            let invalid = || ProfileError::InvalidValue {
                line,
                key: key.to_string(),
                value: value.to_string(),
            };
            if key == "name" {
                if !valid_name(value) {
                    return Err(ProfileError::InvalidName {
                        name: value.to_string(),
                    });
                }
                partial.name = Some(value.to_string());
            } else if F64_KEYS.contains(&key) {
                let v: f64 = value.parse().map_err(|_| invalid())?;
                if !v.is_finite() || v < 0.0 {
                    return Err(invalid());
                }
                partial.f64s.push((key, v));
            } else if U32_KEYS.contains(&key) {
                let v: u32 = value.parse().map_err(|_| invalid())?;
                // A mesh without rows or columns could serve no request.
                if v == 0 && (key == "pe_rows" || key == "pe_columns") {
                    return Err(invalid());
                }
                partial.u32s.push((key, v));
            } else {
                let v: u64 = value.parse().map_err(|_| invalid())?;
                partial.u64s.push((key, v));
            }
        }
        Self::assemble(&partial)
    }

    /// Builds the profile from a fully-parsed accumulator, rejecting
    /// missing keys and delegating structural checks to
    /// [`DramConfig::validate`].
    fn assemble(partial: &PartialProfile) -> Result<HardwareProfile, ProfileError> {
        let missing = |key: &&str| ProfileError::MissingKey {
            key: (*key).to_string(),
        };
        let name = partial.name.clone().ok_or_else(|| missing(&"name"))?;
        let u32 = |key: &'static str| partial.u32_field(key).ok_or_else(|| missing(&key));
        let u = |key: &'static str| partial.u64_field(key).ok_or_else(|| missing(&key));
        let e = |key: &'static str| partial.f64_field(key).ok_or_else(|| missing(&key));
        let dram = DramConfig {
            channels: u32("channels")?,
            ranks: u32("ranks")?,
            bank_groups: u32("bank_groups")?,
            banks_per_group: u32("banks_per_group")?,
            rows: u("rows")?,
            row_bytes: u("row_bytes")?,
            burst_bytes: u("burst_bytes")?,
            queue_capacity: u("queue_capacity")? as usize,
            t_cl: u("t_cl")?,
            t_cwl: u("t_cwl")?,
            t_rcd: u("t_rcd")?,
            t_rp: u("t_rp")?,
            t_ras: u("t_ras")?,
            t_rc: u("t_rc")?,
            t_ccd_s: u("t_ccd_s")?,
            t_ccd_l: u("t_ccd_l")?,
            t_rrd_s: u("t_rrd_s")?,
            t_rrd_l: u("t_rrd_l")?,
            t_faw: u("t_faw")?,
            t_wr: u("t_wr")?,
            t_wtr: u("t_wtr")?,
            t_rtp: u("t_rtp")?,
            t_bl: u("t_bl")?,
        };
        dram.validate()?;
        let energy = EnergyCoefficients {
            pj_per_act: e("pj_per_act")?,
            pj_per_rd_burst: e("pj_per_rd_burst")?,
            pj_per_wr_burst: e("pj_per_wr_burst")?,
            background_mw_per_bank: e("background_mw_per_bank")?,
        };
        let provisioning = ProvisioningOverrides {
            pe_rows: partial.u32_field("pe_rows"),
            pe_columns: partial.u32_field("pe_columns"),
            treetop_bytes: partial.u64_field("treetop_bytes"),
            posmap3_bytes: partial.u64_field("posmap3_bytes"),
            stash_bytes: partial.u64_field("stash_bytes"),
        };
        Ok(HardwareProfile {
            name,
            dram,
            energy,
            provisioning,
        })
    }

    /// Reads and parses a profile file. This is the only place the profile
    /// layer touches the filesystem; call it before the simulation starts.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Io`] when the file cannot be read, otherwise
    /// whatever [`HardwareProfile::parse`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<HardwareProfile, ProfileError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ProfileError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Renders the canonical file form. Parsing the result reproduces this
    /// profile exactly, and re-serializing that reproduces the text byte
    /// for byte — the checked-in `profiles/*.profile` files are exactly
    /// this rendering of the built-in profiles (pinned by test).
    pub fn to_file_string(&self) -> String {
        use std::fmt::Write as _;
        let d = &self.dram;
        let e = &self.energy;
        let mut out = String::new();
        let _ = writeln!(out, "# Palermo hardware profile: {}", self.name);
        let _ = writeln!(
            out,
            "# One `key = value` per line; '#' starts a comment line; timings are"
        );
        let _ = writeln!(
            out,
            "# 1600 MHz memory-clock cycles. No key is optional unless"
        );
        let _ = writeln!(out, "# marked so; unknown or duplicate keys are errors.");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out);
        let _ = writeln!(out, "# DRAM organisation");
        let _ = writeln!(out, "channels = {}", d.channels);
        let _ = writeln!(out, "ranks = {}", d.ranks);
        let _ = writeln!(out, "bank_groups = {}", d.bank_groups);
        let _ = writeln!(out, "banks_per_group = {}", d.banks_per_group);
        let _ = writeln!(out, "rows = {}", d.rows);
        let _ = writeln!(out, "row_bytes = {}", d.row_bytes);
        let _ = writeln!(out, "burst_bytes = {}", d.burst_bytes);
        let _ = writeln!(out, "queue_capacity = {}", d.queue_capacity);
        let _ = writeln!(out);
        let _ = writeln!(out, "# DRAM timing (cycles)");
        let _ = writeln!(out, "t_cl = {}", d.t_cl);
        let _ = writeln!(out, "t_cwl = {}", d.t_cwl);
        let _ = writeln!(out, "t_rcd = {}", d.t_rcd);
        let _ = writeln!(out, "t_rp = {}", d.t_rp);
        let _ = writeln!(out, "t_ras = {}", d.t_ras);
        let _ = writeln!(out, "t_rc = {}", d.t_rc);
        let _ = writeln!(out, "t_ccd_s = {}", d.t_ccd_s);
        let _ = writeln!(out, "t_ccd_l = {}", d.t_ccd_l);
        let _ = writeln!(out, "t_rrd_s = {}", d.t_rrd_s);
        let _ = writeln!(out, "t_rrd_l = {}", d.t_rrd_l);
        let _ = writeln!(out, "t_faw = {}", d.t_faw);
        let _ = writeln!(out, "t_wr = {}", d.t_wr);
        let _ = writeln!(out, "t_wtr = {}", d.t_wtr);
        let _ = writeln!(out, "t_rtp = {}", d.t_rtp);
        let _ = writeln!(out, "t_bl = {}", d.t_bl);
        let _ = writeln!(out);
        let _ = writeln!(out, "# Energy coefficients");
        let _ = writeln!(out, "pj_per_act = {}", e.pj_per_act);
        let _ = writeln!(out, "pj_per_rd_burst = {}", e.pj_per_rd_burst);
        let _ = writeln!(out, "pj_per_wr_burst = {}", e.pj_per_wr_burst);
        let _ = writeln!(out, "background_mw_per_bank = {}", e.background_mw_per_bank);
        if !self.provisioning.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "# Controller provisioning overrides (optional)");
            let p = &self.provisioning;
            if let Some(v) = p.pe_rows {
                let _ = writeln!(out, "pe_rows = {v}");
            }
            if let Some(v) = p.pe_columns {
                let _ = writeln!(out, "pe_columns = {v}");
            }
            if let Some(v) = p.treetop_bytes {
                let _ = writeln!(out, "treetop_bytes = {v}");
            }
            if let Some(v) = p.posmap3_bytes {
                let _ = writeln!(out, "posmap3_bytes = {v}");
            }
            if let Some(v) = p.stash_bytes {
                let _ = writeln!(out, "stash_bytes = {v}");
            }
        }
        out
    }

    /// The Table III part: 4 channels of DDR4-3200. Byte-identical in
    /// effect to [`DramConfig::ddr4_3200_quad_channel`] — the
    /// profile-threading refactor must not move a single result, which
    /// `tests/hardware_profiles.rs` pins.
    pub fn ddr4_3200() -> Self {
        HardwareProfile {
            name: "ddr4-3200".to_string(),
            dram: DramConfig::ddr4_3200_quad_channel(),
            energy: EnergyCoefficients::ddr4_3200(),
            provisioning: ProvisioningOverrides::default(),
        }
    }

    /// A DDR5-6400-class part: eight 32-bit sub-channels (204.8 GB/s
    /// aggregate peak at the shared 1600 MHz model clock), smaller pages,
    /// deeper queues, and lower per-burst energy than DDR4.
    pub fn ddr5_6400() -> Self {
        HardwareProfile {
            name: "ddr5-6400".to_string(),
            dram: DramConfig {
                channels: 8,
                ranks: 1,
                bank_groups: 8,
                banks_per_group: 4,
                rows: 1 << 16,
                row_bytes: 4 * 1024,
                burst_bytes: 64,
                queue_capacity: 48,
                t_cl: 23,
                t_cwl: 21,
                t_rcd: 23,
                t_rp: 23,
                t_ras: 51,
                t_rc: 74,
                t_ccd_s: 4,
                t_ccd_l: 8,
                t_rrd_s: 4,
                t_rrd_l: 8,
                t_faw: 21,
                t_wr: 48,
                t_wtr: 8,
                t_rtp: 12,
                t_bl: 4,
            },
            energy: EnergyCoefficients {
                pj_per_act: 1300.0,
                pj_per_rd_burst: 3600.0,
                pj_per_wr_burst: 3900.0,
                background_mw_per_bank: 4.5,
            },
            provisioning: ProvisioningOverrides::default(),
        }
    }

    /// An HBM2e-class part: sixteen pseudo-channels (409.6 GB/s aggregate
    /// peak), narrow 1 KiB rows, a relaxed four-activate window, and
    /// roughly 2.5x lower per-bit energy than DDR4. On-package
    /// integration affords a doubled tree-top cache, expressed as a
    /// provisioning override.
    pub fn hbm2e() -> Self {
        HardwareProfile {
            name: "hbm2e".to_string(),
            dram: DramConfig {
                channels: 16,
                ranks: 1,
                bank_groups: 4,
                banks_per_group: 4,
                rows: 1 << 14,
                row_bytes: 1024,
                burst_bytes: 64,
                queue_capacity: 64,
                t_cl: 23,
                t_cwl: 12,
                t_rcd: 23,
                t_rp: 23,
                t_ras: 45,
                t_rc: 68,
                t_ccd_s: 4,
                t_ccd_l: 6,
                t_rrd_s: 3,
                t_rrd_l: 5,
                t_faw: 13,
                t_wr: 26,
                t_wtr: 6,
                t_rtp: 6,
                t_bl: 4,
            },
            energy: EnergyCoefficients {
                pj_per_act: 650.0,
                pj_per_rd_burst: 1900.0,
                pj_per_wr_burst: 2000.0,
                background_mw_per_bank: 1.8,
            },
            provisioning: ProvisioningOverrides {
                treetop_bytes: Some(2 * 3 * 256 * 1024),
                ..ProvisioningOverrides::default()
            },
        }
    }

    /// Names of the built-in profiles, in [`HardwareProfile::builtins`]
    /// order (also the order `profiles/` is checked in).
    pub const BUILTIN_NAMES: [&'static str; 3] = ["ddr4-3200", "ddr5-6400", "hbm2e"];

    /// The built-in profiles, DDR4 first.
    pub fn builtins() -> Vec<HardwareProfile> {
        vec![Self::ddr4_3200(), Self::ddr5_6400(), Self::hbm2e()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_valid_and_named_consistently() {
        for profile in HardwareProfile::builtins() {
            assert!(profile.dram.validate().is_ok(), "{}", profile.name);
            assert!(valid_name(&profile.name));
        }
        assert_eq!(
            HardwareProfile::BUILTIN_NAMES.len(),
            HardwareProfile::builtins().len()
        );
    }

    #[test]
    fn ddr4_profile_matches_the_hardcoded_default() {
        assert_eq!(
            HardwareProfile::ddr4_3200().dram,
            DramConfig::ddr4_3200_quad_channel()
        );
    }

    #[test]
    fn serialize_parse_round_trips_every_builtin() {
        for profile in HardwareProfile::builtins() {
            let text = profile.to_file_string();
            let parsed = HardwareProfile::parse(&text).unwrap_or_else(|e| {
                panic!("{}: {e}", profile.name);
            });
            assert_eq!(parsed, profile);
            assert_eq!(parsed.to_file_string(), text, "{}", profile.name);
        }
    }

    #[test]
    fn bandwidth_ordering_matches_the_technology_classes() {
        let ddr4 = HardwareProfile::ddr4_3200().dram.peak_gbps();
        let ddr5 = HardwareProfile::ddr5_6400().dram.peak_gbps();
        let hbm = HardwareProfile::hbm2e().dram.peak_gbps();
        assert!((ddr4 - 102.4).abs() < 0.1, "{ddr4}");
        assert!((ddr5 - 204.8).abs() < 0.1, "{ddr5}");
        assert!((hbm - 409.6).abs() < 0.1, "{hbm}");
    }

    #[test]
    fn per_burst_energy_ordering_matches_the_technology_classes() {
        let ddr4 = HardwareProfile::ddr4_3200().energy;
        let ddr5 = HardwareProfile::ddr5_6400().energy;
        let hbm = HardwareProfile::hbm2e().energy;
        assert!(ddr5.pj_per_rd_burst < ddr4.pj_per_rd_burst);
        assert!(hbm.pj_per_rd_burst < ddr5.pj_per_rd_burst);
    }

    #[test]
    fn unknown_missing_and_duplicate_keys_are_typed_errors() {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        let unknown = format!("{base}bogus_key = 3\n");
        assert_eq!(
            HardwareProfile::parse(&unknown),
            Err(ProfileError::UnknownKey {
                line: base.lines().count() + 1,
                key: "bogus_key".to_string(),
            })
        );
        let duplicate = format!("{base}channels = 4\n");
        assert!(matches!(
            HardwareProfile::parse(&duplicate),
            Err(ProfileError::DuplicateKey { key, .. }) if key == "channels"
        ));
        let missing = base.replace("t_faw = 26\n", "");
        assert_eq!(
            HardwareProfile::parse(&missing),
            Err(ProfileError::MissingKey {
                key: "t_faw".to_string(),
            })
        );
    }

    #[test]
    fn junk_lines_and_bad_values_are_rejected() {
        assert!(matches!(
            HardwareProfile::parse("name ddr4\n"),
            Err(ProfileError::Syntax { line: 1, .. })
        ));
        let base = HardwareProfile::ddr4_3200().to_file_string();
        let bad = base.replace("channels = 4", "channels = four");
        assert!(matches!(
            HardwareProfile::parse(&bad),
            Err(ProfileError::InvalidValue { key, .. }) if key == "channels"
        ));
        let negative = base.replace("pj_per_act = 1700", "pj_per_act = -1");
        assert!(matches!(
            HardwareProfile::parse(&negative),
            Err(ProfileError::InvalidValue { key, .. }) if key == "pj_per_act"
        ));
        let nan = base.replace("pj_per_act = 1700", "pj_per_act = NaN");
        assert!(matches!(
            HardwareProfile::parse(&nan),
            Err(ProfileError::InvalidValue { .. })
        ));
    }

    #[test]
    fn an_empty_pe_mesh_is_rejected() {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        let last = base.lines().count() + 1;
        for key in ["pe_rows", "pe_columns"] {
            let text = format!("{base}{key} = 0\n");
            assert_eq!(
                HardwareProfile::parse(&text),
                Err(ProfileError::InvalidValue {
                    line: last,
                    key: key.to_string(),
                    value: "0".to_string(),
                })
            );
            let one = format!("{base}{key} = 1\n");
            assert!(HardwareProfile::parse(&one).is_ok(), "{key} = 1");
        }
    }

    #[test]
    fn out_of_range_u32_values_name_their_line() {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        let text = base.replace("channels = 4\n", "channels = 4294967296\n");
        let line = text
            .lines()
            .position(|l| l.starts_with("channels = "))
            .map_or(0, |i| i + 1);
        assert_eq!(
            HardwareProfile::parse(&text).map_err(|e| e.to_string()),
            Err(format!(
                "line {line}: invalid value '4294967296' for key 'channels'"
            ))
        );
        // Each u32 key, moved to the last line.
        for key in U32_KEYS {
            let kept: String = base
                .lines()
                .filter(|l| !l.starts_with(&format!("{key} = ")))
                .map(|l| format!("{l}\n"))
                .collect();
            let text = format!("{kept}{key} = 4294967296\n");
            assert_eq!(
                HardwareProfile::parse(&text),
                Err(ProfileError::InvalidValue {
                    line: kept.lines().count() + 1,
                    key: key.to_string(),
                    value: "4294967296".to_string(),
                })
            );
        }
    }

    #[test]
    fn inconsistent_timing_is_rejected_at_parse_time() {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        // t_faw (26) below 4 * t_rrd_s after raising t_rrd_s to 8.
        let bad = base.replace("t_rrd_s = 4", "t_rrd_s = 8");
        match HardwareProfile::parse(&bad) {
            Err(ProfileError::Config(DramConfigError::TimingInconsistent { reason })) => {
                assert!(reason.contains("t_faw"), "{reason}");
            }
            other => panic!("expected timing error, got {other:?}"),
        }
    }

    #[test]
    fn huge_timings_are_typed_errors() {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        let with = |key: &str, value: &str| -> String {
            base.lines()
                .map(|l| match l.split_once(" = ") {
                    Some((k, _)) if k == key => format!("{key} = {value}\n"),
                    _ => format!("{l}\n"),
                })
                .collect()
        };
        let cases = REQUIRED_KEYS
            .iter()
            .filter(|k| k.starts_with("t_"))
            .map(|k| (*k, u64::MAX))
            .chain([("t_rrd_s", u64::MAX / 2)]);
        for (key, value) in cases {
            let text = with(key, &value.to_string());
            assert_ne!(text, base, "{key}");
            assert_eq!(
                HardwareProfile::parse(&text),
                Err(ProfileError::Config(DramConfigError::TimingTooLong {
                    field: key,
                    value
                })),
                "{key} = {value}"
            );
        }
        for profile in HardwareProfile::builtins() {
            assert_eq!(profile.dram.validate(), Ok(()), "{}", profile.name);
        }
    }

    #[test]
    fn invalid_names_are_rejected() {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        for bad in ["", "has space", "comma,name", "non-ascii-é"] {
            let text = base.replace("name = ddr4-3200", &format!("name = {bad}"));
            assert!(
                matches!(
                    HardwareProfile::parse(&text),
                    Err(ProfileError::InvalidName { .. } | ProfileError::Syntax { .. })
                ),
                "name '{bad}' should be rejected"
            );
        }
    }

    #[test]
    fn load_reports_missing_files_as_typed_io_errors() {
        let err = HardwareProfile::load("/nonexistent/nope.profile").unwrap_err();
        assert!(matches!(err, ProfileError::Io { .. }));
        assert!(err.to_string().contains("nope.profile"));
    }
}
