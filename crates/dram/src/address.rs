//! Physical-address to DRAM-coordinate mapping.
//!
//! The mapping interleaves consecutive 64-byte bursts across channels first,
//! then across columns within a row, then bank groups and banks, with the
//! row index in the most significant bits:
//!
//! ```text
//!   | row | bank | bank group | column | channel | 6-bit offset |
//! ```
//!
//! Consecutive blocks of an ORAM bucket therefore spread across channels
//! (memory-level parallelism within a bucket read) while staying within one
//! DRAM row per channel (row-buffer locality for reshuffles and evictions),
//! matching the locality structure the paper's row-hit statistics imply.

use crate::config::DramConfig;

/// Decomposed DRAM coordinates of one 64-byte burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Channel index.
    pub channel: u32,
    /// Bank group index within the rank.
    pub bank_group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column (burst) index within the row.
    pub column: u64,
}

impl DramCoord {
    /// Flat bank index within the channel (bank group major).
    pub fn flat_bank(&self, config: &DramConfig) -> usize {
        (self.bank_group * config.banks_per_group + self.bank) as usize
    }
}

/// The address-mapping function: shifts and masks, because
/// [`DramConfig::validate`] admits only power-of-two geometries. Each field
/// is the log2 width of one coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    burst: u32,
    channels: u32,
    columns: u32,
    bank_groups: u32,
    banks_per_group: u32,
    rows: u32,
}

impl AddressMapper {
    /// Creates a mapper for a configuration that passes
    /// [`DramConfig::validate`].
    pub fn new(config: DramConfig) -> Self {
        debug_assert!(config.validate().is_ok(), "unvalidated DRAM geometry");
        AddressMapper {
            burst: config.burst_bytes.trailing_zeros(),
            channels: config.channels.trailing_zeros(),
            columns: config.columns_per_row().trailing_zeros(),
            bank_groups: config.bank_groups.trailing_zeros(),
            banks_per_group: config.banks_per_group.trailing_zeros(),
            rows: config.rows.trailing_zeros(),
        }
    }

    /// Maps a byte address to DRAM coordinates.
    pub fn map(&self, addr: u64) -> DramCoord {
        let mut a = addr >> self.burst;
        let channel = (a & ((1 << self.channels) - 1)) as u32;
        a >>= self.channels;
        let column = a & ((1 << self.columns) - 1);
        a >>= self.columns;
        let bank_group = (a & ((1 << self.bank_groups) - 1)) as u32;
        a >>= self.bank_groups;
        let bank = (a & ((1 << self.banks_per_group) - 1)) as u32;
        a >>= self.banks_per_group;
        let row = a & ((1u64 << self.rows) - 1);
        DramCoord {
            channel,
            bank_group,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramConfig::default())
    }

    #[test]
    fn consecutive_blocks_interleave_channels() {
        let m = mapper();
        let coords: Vec<u32> = (0..8).map(|i| m.map(i * 64).channel).collect();
        assert_eq!(coords, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn blocks_within_a_row_share_row_and_bank() {
        let m = mapper();
        // Blocks 0, 4, 8, ... land in channel 0 and walk the columns of one row.
        let a = m.map(0);
        let b = m.map(4 * 64);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank_group, b.bank_group);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn row_change_after_row_bytes_times_channels() {
        let m = mapper();
        let cfg = DramConfig::default();
        let span = cfg.row_bytes * u64::from(cfg.channels);
        let a = m.map(0);
        let b = m.map(span);
        assert_eq!(a.channel, b.channel);
        assert!(a.bank_group != b.bank_group || a.bank != b.bank || a.row != b.row);
    }

    #[test]
    fn sub_block_offsets_map_to_same_burst() {
        let m = mapper();
        assert_eq!(m.map(0), m.map(63));
        assert_ne!(m.map(0), m.map(64));
    }

    #[test]
    fn map_matches_the_documented_division_chain_for_every_builtin_profile() {
        // The layout in the module doc, written out as divisions: burst
        // offset, then channel, column, bank group, bank and row.
        fn division_chain(cfg: &DramConfig, addr: u64) -> DramCoord {
            let mut a = addr / cfg.burst_bytes;
            let channel = (a % u64::from(cfg.channels)) as u32;
            a /= u64::from(cfg.channels);
            let column = a % cfg.columns_per_row();
            a /= cfg.columns_per_row();
            let bank_group = (a % u64::from(cfg.bank_groups)) as u32;
            a /= u64::from(cfg.bank_groups);
            let bank = (a % u64::from(cfg.banks_per_group)) as u32;
            a /= u64::from(cfg.banks_per_group);
            DramCoord {
                channel,
                bank_group,
                bank,
                row: a % cfg.rows,
                column,
            }
        }
        for profile in crate::profile::HardwareProfile::builtins() {
            let cfg = profile.dram;
            let m = AddressMapper::new(cfg);
            let mut a: u64 = 0x0123_4567_89AB_CDEF;
            for _ in 0..10_000 {
                a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = a >> 20; // keep within a plausible physical range
                assert_eq!(
                    m.map(addr),
                    division_chain(&cfg, addr),
                    "{}: addr {addr:#x}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn coordinates_within_bounds() {
        let m = mapper();
        let cfg = DramConfig::default();
        for i in 0..10_000u64 {
            let c = m.map(i * 64 * 977);
            assert!(c.channel < cfg.channels);
            assert!(c.bank_group < cfg.bank_groups);
            assert!(c.bank < cfg.banks_per_group);
            assert!(c.row < cfg.rows);
            assert!(c.column < cfg.columns_per_row());
            assert!(c.flat_bank(&cfg) < cfg.banks_per_channel() as usize);
        }
    }
}
