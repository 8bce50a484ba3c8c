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
//! One table, `KEYS`, lists every key in canonical order with the comment
//! heading its group in the rendering and the profile field it holds; a
//! key whose field is an `Option` is optional. Parsing, the missing-key
//! check and rendering all walk it, so a new key is one line there.
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

/// A profile field's value, as a key's text in the file.
trait Value {
    /// Stores the value `text` spells, or returns `false` when `text` is
    /// not a valid value of the field.
    fn parse_from(&mut self, text: &str) -> bool;
    /// The field's text, or `None` for an unset optional field.
    fn render(&self) -> Option<String>;
    /// Whether the key may be left out of a file.
    fn optional(&self) -> bool {
        false
    }
}

/// Stores a successfully parsed value.
fn store<T>(field: &mut T, parsed: Option<T>) -> bool {
    parsed.map(|v| *field = v).is_some()
}

impl Value for String {
    fn parse_from(&mut self, text: &str) -> bool {
        store(self, valid_name(text).then(|| text.to_string()))
    }
    fn render(&self) -> Option<String> {
        Some(self.clone())
    }
}

/// Counts, sizes and cycle counts: any value of the field's integer type,
/// so a `u32` count above `u32::MAX` is invalid.
macro_rules! integer_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn parse_from(&mut self, text: &str) -> bool {
                store(self, text.parse().ok())
            }
            fn render(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}
integer_value!(u32, u64, usize);

/// An energy coefficient: finite and non-negative.
impl Value for f64 {
    fn parse_from(&mut self, text: &str) -> bool {
        let parsed = text
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v >= 0.0);
        store(self, parsed)
    }
    fn render(&self) -> Option<String> {
        Some(self.to_string())
    }
}

/// A PE mesh dimension override: a mesh without rows or columns could
/// serve no request, so 0 is invalid.
impl Value for Option<u32> {
    fn parse_from(&mut self, text: &str) -> bool {
        store(self, text.parse().ok().filter(|v| *v > 0).map(Some))
    }
    fn render(&self) -> Option<String> {
        self.map(|v| v.to_string())
    }
    fn optional(&self) -> bool {
        true
    }
}

/// A capacity override in bytes.
impl Value for Option<u64> {
    fn parse_from(&mut self, text: &str) -> bool {
        store(self, text.parse().ok().map(Some))
    }
    fn render(&self) -> Option<String> {
        self.map(|v| v.to_string())
    }
    fn optional(&self) -> bool {
        true
    }
}

/// One key of the file format: its name, the comment heading its section
/// in the canonical rendering, and the profile field it holds.
struct Key {
    name: &'static str,
    section: &'static str,
    get: fn(&HardwareProfile) -> &dyn Value,
    set: fn(&mut HardwareProfile) -> &mut dyn Value,
}

/// A [`Key`] for the profile field at `$field` (a path such as
/// `dram.t_cl`).
macro_rules! key {
    ($name:literal, $section:expr, $($field:ident).+) => {
        Key {
            name: $name,
            section: $section,
            get: |p| &p.$($field).+,
            set: |p| &mut p.$($field).+,
        }
    };
}

const ORGANISATION: &str = "DRAM organisation";
const TIMING: &str = "DRAM timing (cycles)";
const ENERGY: &str = "Energy coefficients";
const PROVISIONING: &str = "Controller provisioning overrides (optional)";

/// Every key, in canonical order. Parsing, the missing-key check and
/// rendering all walk this table.
const KEYS: &[Key] = &[
    key!("name", "", name),
    key!("channels", ORGANISATION, dram.channels),
    key!("ranks", ORGANISATION, dram.ranks),
    key!("bank_groups", ORGANISATION, dram.bank_groups),
    key!("banks_per_group", ORGANISATION, dram.banks_per_group),
    key!("rows", ORGANISATION, dram.rows),
    key!("row_bytes", ORGANISATION, dram.row_bytes),
    key!("burst_bytes", ORGANISATION, dram.burst_bytes),
    key!("queue_capacity", ORGANISATION, dram.queue_capacity),
    key!("t_cl", TIMING, dram.t_cl),
    key!("t_cwl", TIMING, dram.t_cwl),
    key!("t_rcd", TIMING, dram.t_rcd),
    key!("t_rp", TIMING, dram.t_rp),
    key!("t_ras", TIMING, dram.t_ras),
    key!("t_rc", TIMING, dram.t_rc),
    key!("t_ccd_s", TIMING, dram.t_ccd_s),
    key!("t_ccd_l", TIMING, dram.t_ccd_l),
    key!("t_rrd_s", TIMING, dram.t_rrd_s),
    key!("t_rrd_l", TIMING, dram.t_rrd_l),
    key!("t_faw", TIMING, dram.t_faw),
    key!("t_wr", TIMING, dram.t_wr),
    key!("t_wtr", TIMING, dram.t_wtr),
    key!("t_rtp", TIMING, dram.t_rtp),
    key!("t_bl", TIMING, dram.t_bl),
    key!("pj_per_act", ENERGY, energy.pj_per_act),
    key!("pj_per_rd_burst", ENERGY, energy.pj_per_rd_burst),
    key!("pj_per_wr_burst", ENERGY, energy.pj_per_wr_burst),
    key!(
        "background_mw_per_bank",
        ENERGY,
        energy.background_mw_per_bank
    ),
    key!("pe_rows", PROVISIONING, provisioning.pe_rows),
    key!("pe_columns", PROVISIONING, provisioning.pe_columns),
    key!("treetop_bytes", PROVISIONING, provisioning.treetop_bytes),
    key!("posmap3_bytes", PROVISIONING, provisioning.posmap3_bytes),
    key!("stash_bytes", PROVISIONING, provisioning.stash_bytes),
];

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
    /// bottom, then the first missing key in canonical order, and
    /// validating the assembled configuration last.
    pub fn parse(text: &str) -> Result<HardwareProfile, ProfileError> {
        // Every required field is overwritten or reported missing below,
        // so none of these starting values survives into the result.
        let mut profile = HardwareProfile::ddr4_3200();
        let mut seen = [false; KEYS.len()];
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
            let Some(i) = KEYS.iter().position(|k| k.name == key) else {
                return Err(ProfileError::UnknownKey {
                    line,
                    key: key.to_string(),
                });
            };
            if std::mem::replace(&mut seen[i], true) {
                return Err(ProfileError::DuplicateKey {
                    line,
                    key: key.to_string(),
                });
            }
            if !(KEYS[i].set)(&mut profile).parse_from(value) {
                return Err(if key == "name" {
                    ProfileError::InvalidName {
                        name: value.to_string(),
                    }
                } else {
                    ProfileError::InvalidValue {
                        line,
                        key: key.to_string(),
                        value: value.to_string(),
                    }
                });
            }
        }
        if let Some(key) = KEYS
            .iter()
            .zip(seen)
            .find(|(k, seen)| !seen && !(k.get)(&profile).optional())
        {
            return Err(ProfileError::MissingKey {
                key: key.0.name.to_string(),
            });
        }
        profile.dram.validate()?;
        Ok(profile)
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
        let mut out = format!(
            "# Palermo hardware profile: {}\n\
             # One `key = value` per line; '#' starts a comment line; timings are\n\
             # 1600 MHz memory-clock cycles. No key is optional unless\n\
             # marked so; unknown or duplicate keys are errors.\n",
            self.name
        );
        let mut section = "";
        for key in KEYS {
            let Some(value) = (key.get)(self).render() else {
                continue;
            };
            if key.section != section {
                section = key.section;
                out.push_str(&format!("\n# {section}\n"));
            }
            out.push_str(&format!("{} = {value}\n", key.name));
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
        // A missing key is reported before an invalid DRAM configuration.
        let both = base
            .replace("t_rrd_s = 4", "t_rrd_s = 8")
            .replace("pj_per_act = 1700\n", "");
        assert_eq!(
            HardwareProfile::parse(&both),
            Err(ProfileError::MissingKey {
                key: "pj_per_act".to_string(),
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
        let u32_keys = [
            "channels",
            "ranks",
            "bank_groups",
            "banks_per_group",
            "pe_rows",
            "pe_columns",
        ];
        for key in u32_keys {
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
        let cases = KEYS
            .iter()
            .filter(|k| k.name.starts_with("t_"))
            .map(|k| (k.name, u64::MAX))
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
