//! Integration test pinning the default system configuration to Table III
//! of the paper, so accidental changes to the modelled system are caught.

use palermo::controller::area_power::ControllerProvisioning;
use palermo::dram::DramConfig;
use palermo::oram::params::POSMAP_ENTRY_BYTES;
use palermo::sim::system::SystemConfig;

#[test]
fn system_defaults_match_table_iii() {
    let cfg = SystemConfig::paper_default();

    // Protected memory space: 16 GB of user data.
    assert_eq!(cfg.protected_bytes, 16 << 30);

    // ORAM parameters adopted by Palermo: (Z, S, A) = (16, 27, 20).
    assert_eq!((cfg.z, cfg.s, cfg.a), (16, 27, 20));

    // PE layout: 3 rows x 8 columns.
    assert_eq!(cfg.pe_columns, 8);
    let prov = ControllerProvisioning::default();
    assert_eq!(prov.pe_rows, 3);
    assert_eq!(prov.pe_columns, 8);

    // On-chip provisioning: 3 x 256 KB tree-top cache, 16 MB PosMap3,
    // 3 x 16 KB stash.
    assert_eq!(prov.treetop_bytes, 3 * 256 * 1024);
    assert_eq!(prov.posmap3_bytes, 16 << 20);
    assert_eq!(prov.stash_bytes, 3 * 16 * 1024);
    assert_eq!(cfg.stash_capacity, 256);

    // Outsourced DRAM: 4-channel DDR4-3200 at 102.4 GB/s peak.
    assert_eq!(cfg.dram, DramConfig::ddr4_3200_quad_channel());
    assert!((cfg.dram.peak_gbps() - 102.4).abs() < 0.1);

    // LLC: 8 MB, 16-way.
    assert_eq!(cfg.llc.capacity_bytes, 8 << 20);
    assert_eq!(cfg.llc.ways, 16);
}

#[test]
fn hierarchy_sizes_follow_the_recursion_of_fig_2() {
    let cfg = SystemConfig::paper_default();
    let params = cfg.hierarchy_params().unwrap();
    // 16 GiB / 64 B = 2^28 blocks; a 4-byte entry per block gives a 1 GiB
    // PosMap1 and a 64 MiB PosMap2; PosMap3 then fits on chip.
    assert_eq!(params.data.num_blocks, 1 << 28);
    assert_eq!(params.pos1.num_blocks, 1 << 24);
    assert_eq!(params.pos2.num_blocks, 1 << 20);
    let posmap3_bytes = params.pos2.num_blocks * POSMAP_ENTRY_BYTES;
    assert!(posmap3_bytes <= 16 << 20);
    // Three levels of sub-ORAM trees, 25/21/17 levels deep respectively.
    assert_eq!(params.data.levels, 25);
    assert_eq!(params.pos1.levels, 21);
    assert_eq!(params.pos2.levels, 17);
}

#[test]
fn area_power_estimate_is_in_the_published_ballpark() {
    let est = palermo::controller::estimate(&ControllerProvisioning::default());
    assert!(
        (est.total_area_mm2() - 5.78).abs() < 1.5,
        "{}",
        est.total_area_mm2()
    );
    assert!(
        (est.total_power_w() - 2.14).abs() < 0.8,
        "{}",
        est.total_power_w()
    );
}
