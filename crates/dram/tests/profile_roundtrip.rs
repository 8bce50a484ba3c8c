//! Property tests for hardware profile files: arbitrary valid profiles
//! must round-trip serialize → parse → serialize byte-identically, junk
//! lines and duplicate keys must be rejected (never defaulted), and the
//! checked-in `profiles/` directory must be exactly the canonical
//! rendering of the built-in profiles.

use palermo_dram::{DramConfig, EnergyCoefficients, HardwareProfile, ProvisioningOverrides};
use proptest::prelude::*;

/// Builds a structurally valid random profile. Timings are derived so the
/// cross-parameter constraints (`t_faw >= 4 * t_rrd_s`, `t_rc >= t_ras +
/// t_rp`, each long CCD/RRD delay between its short one and twice that)
/// hold by construction.
#[allow(clippy::too_many_arguments)]
fn build_profile(
    name_idx: usize,
    channels_log2: u32,
    banks_log2: u32,
    rows_log2: u32,
    row_bytes_log2: u32,
    queue_capacity: usize,
    t_base: u64,
    t_rrd_s: u64,
    faw_slack: u64,
    energy: (u64, u64, u64, u64),
    overrides: ((bool, u32), (bool, u64)),
) -> HardwareProfile {
    let names = ["part-a", "part_b", "part.c", "x2.5d-stack"];
    let dram = DramConfig {
        channels: 1 << channels_log2,
        ranks: 1,
        bank_groups: 1 << banks_log2,
        banks_per_group: 4,
        rows: 1 << rows_log2,
        row_bytes: 1 << row_bytes_log2,
        burst_bytes: 64,
        queue_capacity,
        t_cl: t_base,
        t_cwl: t_base.max(2) - 1,
        t_rcd: t_base,
        t_rp: t_base,
        t_ras: 2 * t_base,
        t_rc: 3 * t_base,
        t_ccd_s: 4,
        t_ccd_l: 8,
        t_rrd_s,
        t_rrd_l: t_rrd_s + t_rrd_s.min(2),
        t_faw: 4 * t_rrd_s + faw_slack,
        t_wr: t_base,
        t_wtr: 8,
        t_rtp: 12,
        t_bl: 4,
    };
    HardwareProfile {
        name: names[name_idx % names.len()].to_string(),
        dram,
        energy: EnergyCoefficients {
            pj_per_act: energy.0 as f64,
            pj_per_rd_burst: energy.1 as f64,
            pj_per_wr_burst: energy.2 as f64,
            background_mw_per_bank: energy.3 as f64 / 10.0,
        },
        provisioning: ProvisioningOverrides {
            pe_columns: overrides.0 .0.then_some(overrides.0 .1),
            treetop_bytes: overrides.1 .0.then_some(overrides.1 .1),
            ..ProvisioningOverrides::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_profiles_round_trip_byte_identically(
        name_idx in 0usize..4,
        channels_log2 in 0u32..5,
        banks_log2 in 0u32..4,
        rows_log2 in 10u32..20,
        row_bytes_log2 in 7u32..14,
        queue_capacity in 1usize..128,
        t_base in 2u64..64,
        t_rrd_s in 1u64..12,
        faw_slack in 0u64..8,
        energy in (1u64..10_000, 1u64..10_000, 1u64..10_000, 1u64..500),
        overrides in ((any::<bool>(), 1u32..64), (any::<bool>(), 1u64..(64 << 20))),
    ) {
        let profile = build_profile(
            name_idx, channels_log2, banks_log2, rows_log2, row_bytes_log2,
            queue_capacity, t_base, t_rrd_s, faw_slack, energy, overrides,
        );
        prop_assert!(profile.dram.validate().is_ok());
        let text = profile.to_file_string();
        let parsed = HardwareProfile::parse(&text);
        prop_assert_eq!(parsed.as_ref(), Ok(&profile));
        let reparsed = parsed.unwrap().to_file_string();
        prop_assert_eq!(reparsed, text);
    }

    #[test]
    fn junk_lines_are_rejected_not_defaulted(
        junk in prop::sample::select(vec![
            "junk", "zzz", "t_cl_extra", "chan_nels", "widthx", "foo_bar_baz",
        ]),
        line_no in 0usize..64,
    ) {
        let base = HardwareProfile::ddr4_3200().to_file_string();
        let mut lines: Vec<&str> = base.lines().collect();
        let at = line_no % (lines.len() + 1);
        // A bare word is a syntax error; `word = 1` is an unknown-key
        // error. Both must fail — junk is never silently defaulted.
        let with_value = format!("{junk} = 1");
        for insert in [junk, with_value.as_str()] {
            lines.insert(at, insert);
            let text = lines.join("\n");
            prop_assert!(HardwareProfile::parse(&text).is_err(), "{}", insert);
            lines.remove(at);
        }
    }

    #[test]
    fn duplicated_keys_are_rejected(key_idx in 0usize..29) {
        let base = HardwareProfile::hbm2e().to_file_string();
        let keys: Vec<&str> = base
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .map(|l| l.split('=').next().unwrap().trim())
            .collect();
        let key = keys[key_idx % keys.len()];
        let text = format!("{base}{key} = 1\n");
        let err = HardwareProfile::parse(&text).unwrap_err();
        prop_assert!(
            format!("{err}").contains("duplicate"),
            "expected duplicate-key error for '{}', got {}", key, err
        );
    }
}

/// Path of a checked-in profile file, relative to the workspace root.
fn checked_in(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("profiles")
        .join(format!("{name}.profile"))
}

#[test]
fn checked_in_profiles_match_the_builtins_byte_for_byte() {
    for profile in HardwareProfile::builtins() {
        let path = checked_in(&profile.name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            text,
            profile.to_file_string(),
            "{} drifted from the builtin — regenerate with \
             `cargo run -p palermo-dram --example gen_profiles`",
            path.display()
        );
        let loaded = HardwareProfile::load(&path).expect("checked-in profile must parse");
        assert_eq!(loaded, profile);
    }
}

#[test]
fn checked_in_ddr4_profile_is_the_hardcoded_default() {
    let loaded = HardwareProfile::load(checked_in("ddr4-3200")).expect("ddr4 profile");
    assert_eq!(loaded.dram, DramConfig::ddr4_3200_quad_channel());
    assert_eq!(DramConfig::from_profile(&loaded), loaded.dram);
}
