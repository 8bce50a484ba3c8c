//! DRAM organisation and timing configuration.
//!
//! Defaults model the paper's outsourced memory: 4 channels of DDR4-3200
//! (Table III), 102.4 GB/s aggregate peak bandwidth. All timing parameters
//! are expressed in memory-clock cycles at 1600 MHz (0.625 ns per cycle),
//! which is also the clock the Palermo controller runs at, so the two sides
//! of the co-design share a clock domain in the simulator exactly as they do
//! in the paper's evaluation.

use std::fmt;

/// The clock every simulated cycle counts, in hertz: Table III's 1.6 GHz,
/// shared by the DRAM command clock and the ORAM controller.
pub const CLOCK_HZ: f64 = 1.6e9;

/// The most banks per channel the address map may reach: the channel
/// scheduler keeps one bit per bank in a `u64` mask per command class.
pub const MAX_ADDRESSED_BANKS: u64 = 64;

/// The most channels a [`DramConfig`] may hold. A DRAM system builds every
/// channel up front, so the bound keeps a hostile profile from asking for
/// billions of them; the checked-in profiles use 4, 8 and 16.
pub const MAX_CHANNELS: u64 = 64;

/// The longest timing, in cycles, a [`DramConfig`] may hold: `u32::MAX`
/// cycles (2.7 s at 1.6 GHz) keeps every sum of timings and cycle counts
/// the channel forms far below `2^64`.
pub const MAX_TIMING_CYCLES: u64 = u32::MAX as u64;

/// A structural inconsistency in a [`DramConfig`].
///
/// Every reject names the offending field(s) so profile files
/// ([`crate::profile`]) can report precisely what to fix, and so callers
/// can match on the failure class instead of scraping strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramConfigError {
    /// An interleaving field must be a non-zero power of two
    /// (the address mapper decomposes addresses by bit slicing).
    NotPowerOfTwo {
        /// Field name.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A count or timing field that must be non-zero was zero (a zero
    /// queue capacity can accept nothing; a zero burst length would make
    /// bandwidth infinite and scheduling degenerate).
    ZeroField {
        /// Field name.
        field: &'static str,
    },
    /// The row buffer must hold at least one burst.
    RowSmallerThanBurst {
        /// Configured row size in bytes.
        row_bytes: u64,
        /// Configured burst size in bytes.
        burst_bytes: u64,
    },
    /// More than [`MAX_CHANNELS`] channels.
    TooManyChannels {
        /// The rejected channel count.
        channels: u64,
    },
    /// The address map reaches more than [`MAX_ADDRESSED_BANKS`] banks per
    /// channel (`bank_groups * banks_per_group`, the value carried).
    TooManyBanks {
        /// `bank_groups * banks_per_group`.
        banks: u64,
    },
    /// A timing field exceeds [`MAX_TIMING_CYCLES`].
    TimingTooLong {
        /// Field name.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A timing cross-constraint is violated (e.g. `t_faw < 4 * t_rrd_s`
    /// would make the four-activate window weaker than plain
    /// activate-to-activate spacing — no real part is specified that way).
    TimingInconsistent {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a non-zero power of two, got {value}")
            }
            DramConfigError::ZeroField { field } => write!(f, "{field} must be non-zero"),
            DramConfigError::RowSmallerThanBurst {
                row_bytes,
                burst_bytes,
            } => write!(
                f,
                "row_bytes ({row_bytes}) must be at least burst_bytes ({burst_bytes})"
            ),
            DramConfigError::TooManyChannels { channels } => write!(
                f,
                "channels ({channels}) exceeds the {MAX_CHANNELS} a DRAM system supports"
            ),
            DramConfigError::TooManyBanks { banks } => write!(
                f,
                "bank_groups * banks_per_group ({banks}) exceeds the {MAX_ADDRESSED_BANKS} banks \
a channel supports"
            ),
            DramConfigError::TimingTooLong { field, value } => write!(
                f,
                "{field} ({value}) exceeds the {MAX_TIMING_CYCLES}-cycle limit"
            ),
            DramConfigError::TimingInconsistent { reason } => {
                write!(f, "inconsistent timing: {reason}")
            }
        }
    }
}

impl std::error::Error for DramConfigError {}

/// Organisation and timing of the modelled DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: u32,
    /// Ranks per channel. The address map has no rank bits, so ranks only
    /// scale the bank count of background power (the model folds rank
    /// effects into bank timing).
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u64,
    /// Row size in bytes (the row-buffer / DRAM page size).
    pub row_bytes: u64,
    /// Burst granularity in bytes (one 64-byte cache line per burst).
    pub burst_bytes: u64,
    /// Read/write queue capacity per channel.
    pub queue_capacity: usize,

    /// CAS latency (column read to first data), cycles.
    pub t_cl: u64,
    /// CAS write latency, cycles.
    pub t_cwl: u64,
    /// RAS-to-CAS delay (activate to column command), cycles.
    pub t_rcd: u64,
    /// Row precharge time, cycles.
    pub t_rp: u64,
    /// Minimum row-open time (activate to precharge), cycles.
    pub t_ras: u64,
    /// Activate-to-activate delay, same bank, cycles.
    pub t_rc: u64,
    /// Column-to-column delay, different bank group, cycles.
    pub t_ccd_s: u64,
    /// Column-to-column delay, same bank group, cycles.
    pub t_ccd_l: u64,
    /// Activate-to-activate delay across banks (short), cycles.
    pub t_rrd_s: u64,
    /// Activate-to-activate delay across banks (long / same group), cycles.
    pub t_rrd_l: u64,
    /// Four-activate window, cycles.
    pub t_faw: u64,
    /// Write recovery time (end of write burst to precharge), cycles.
    pub t_wr: u64,
    /// Write-to-read turnaround, cycles.
    pub t_wtr: u64,
    /// Read-to-precharge delay, cycles.
    pub t_rtp: u64,
    /// Burst length in bus cycles (BL8 on a DDR bus occupies 4 clock cycles).
    pub t_bl: u64,
}

impl DramConfig {
    /// DDR4-3200 with 4 channels: the Table III configuration.
    pub fn ddr4_3200_quad_channel() -> Self {
        DramConfig {
            channels: 4,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 16,
            row_bytes: 8 * 1024,
            burst_bytes: 64,
            queue_capacity: 32,
            t_cl: 22,
            t_cwl: 16,
            t_rcd: 22,
            t_rp: 22,
            t_ras: 52,
            t_rc: 74,
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_rrd_s: 4,
            t_rrd_l: 8,
            t_faw: 26,
            t_wr: 24,
            t_wtr: 8,
            t_rtp: 12,
            t_bl: 4,
        }
    }

    /// A single-channel variant used by scaling studies and unit tests.
    pub fn ddr4_3200_single_channel() -> Self {
        DramConfig {
            channels: 1,
            ..Self::ddr4_3200_quad_channel()
        }
    }

    /// Total number of banks per channel, ranks included.
    pub fn banks_per_channel(&self) -> u64 {
        u64::from(self.ranks) * u64::from(self.bank_groups) * u64::from(self.banks_per_group)
    }

    /// Number of 64-byte bursts per row.
    pub fn columns_per_row(&self) -> u64 {
        self.row_bytes / self.burst_bytes
    }

    /// Peak data-bus bandwidth in bytes per memory-clock cycle, aggregated
    /// over all channels (one burst every `t_bl` cycles per channel).
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.burst_bytes as f64 / self.t_bl as f64
    }

    /// Peak bandwidth in GB/s at [`CLOCK_HZ`].
    pub fn peak_gbps(&self) -> f64 {
        self.peak_bytes_per_cycle() * (CLOCK_HZ / 1e9)
    }

    /// The DRAM organisation a hardware profile describes (see
    /// [`crate::profile::HardwareProfile`]). The profile's embedded config
    /// is already validated at parse time, so this is a plain projection.
    pub fn from_profile(profile: &crate::profile::HardwareProfile) -> Self {
        profile.dram
    }

    /// Validates internal consistency: non-zero geometry, power-of-two
    /// interleaving fields, at most [`MAX_CHANNELS`] channels and
    /// [`MAX_ADDRESSED_BANKS`] addressed banks per channel, non-zero timings of at most [`MAX_TIMING_CYCLES`], and
    /// timing cross-constraints (a four-activate window weaker than plain
    /// activate spacing, a row cycle shorter than open-plus-precharge, or
    /// long column/activate delays below their short variants are all
    /// nonsense no real part is specified with).
    /// It also rejects long delays the channel model cannot enforce:
    /// `t_rrd_l` above `2 * t_rrd_s`, or `t_ccd_l` above
    /// `2 * max(t_ccd_s, t_bl)`.
    ///
    /// # Errors
    ///
    /// Returns the first [`DramConfigError`] found, checking shape before
    /// timing.
    pub fn validate(&self) -> Result<(), DramConfigError> {
        let pow2 = [
            ("channels", u64::from(self.channels)),
            ("bank_groups", u64::from(self.bank_groups)),
            ("banks_per_group", u64::from(self.banks_per_group)),
            ("rows", self.rows),
            ("row_bytes", self.row_bytes),
            ("burst_bytes", self.burst_bytes),
        ];
        for (field, value) in pow2 {
            if value == 0 || !value.is_power_of_two() {
                return Err(DramConfigError::NotPowerOfTwo { field, value });
            }
        }
        let channels = u64::from(self.channels);
        if channels > MAX_CHANNELS {
            return Err(DramConfigError::TooManyChannels { channels });
        }
        let non_zero = [
            ("ranks", u64::from(self.ranks)),
            ("queue_capacity", self.queue_capacity as u64),
        ];
        for (field, value) in non_zero {
            if value == 0 {
                return Err(DramConfigError::ZeroField { field });
            }
        }
        // Bounded here, so the cross-constraints below cannot overflow.
        let timings = [
            ("t_cl", self.t_cl),
            ("t_cwl", self.t_cwl),
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_ras", self.t_ras),
            ("t_rc", self.t_rc),
            ("t_ccd_s", self.t_ccd_s),
            ("t_ccd_l", self.t_ccd_l),
            ("t_rrd_s", self.t_rrd_s),
            ("t_rrd_l", self.t_rrd_l),
            ("t_faw", self.t_faw),
            ("t_wr", self.t_wr),
            ("t_wtr", self.t_wtr),
            ("t_rtp", self.t_rtp),
            ("t_bl", self.t_bl),
        ];
        for (field, value) in timings {
            if value == 0 {
                return Err(DramConfigError::ZeroField { field });
            }
            if value > MAX_TIMING_CYCLES {
                return Err(DramConfigError::TimingTooLong { field, value });
            }
        }
        let banks = u64::from(self.bank_groups) * u64::from(self.banks_per_group);
        if banks > MAX_ADDRESSED_BANKS {
            return Err(DramConfigError::TooManyBanks { banks });
        }
        if self.row_bytes < self.burst_bytes {
            return Err(DramConfigError::RowSmallerThanBurst {
                row_bytes: self.row_bytes,
                burst_bytes: self.burst_bytes,
            });
        }
        let timing = [
            (
                self.t_faw >= 4 * self.t_rrd_s,
                format!(
                    "t_faw ({}) < 4 * t_rrd_s ({})",
                    self.t_faw,
                    4 * self.t_rrd_s
                ),
            ),
            (
                self.t_ras >= self.t_rcd,
                format!("t_ras ({}) < t_rcd ({})", self.t_ras, self.t_rcd),
            ),
            (
                self.t_rc >= self.t_ras + self.t_rp,
                format!(
                    "t_rc ({}) < t_ras + t_rp ({})",
                    self.t_rc,
                    self.t_ras + self.t_rp
                ),
            ),
            (
                self.t_ccd_l >= self.t_ccd_s,
                format!("t_ccd_l ({}) < t_ccd_s ({})", self.t_ccd_l, self.t_ccd_s),
            ),
            (
                self.t_rrd_l >= self.t_rrd_s,
                format!("t_rrd_l ({}) < t_rrd_s ({})", self.t_rrd_l, self.t_rrd_s),
            ),
            // The channel spaces a command from the last one of its class
            // only, not the last one in its bank group; consecutive
            // activates are t_rrd_s apart and consecutive column commands
            // max(t_ccd_s, t_bl), so a long delay of up to twice that
            // still holds between two commands of one group.
            (
                self.t_rrd_l <= self.t_rrd_s.saturating_mul(2),
                format!(
                    "t_rrd_l ({}) > 2 * t_rrd_s ({}), which the channel model cannot enforce",
                    self.t_rrd_l,
                    self.t_rrd_s.saturating_mul(2)
                ),
            ),
            (
                self.t_ccd_l <= self.t_ccd_s.max(self.t_bl).saturating_mul(2),
                format!(
                    "t_ccd_l ({}) > 2 * max(t_ccd_s, t_bl) ({}), which the channel model \
cannot enforce",
                    self.t_ccd_l,
                    self.t_ccd_s.max(self.t_bl).saturating_mul(2)
                ),
            ),
        ];
        for (ok, reason) in timing {
            if !ok {
                return Err(DramConfigError::TimingInconsistent { reason });
            }
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_3200_quad_channel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.channels, 4);
        assert!((cfg.peak_gbps() - 102.4).abs() < 0.1, "{}", cfg.peak_gbps());
        assert_eq!(cfg.banks_per_channel(), 16);
        assert_eq!(cfg.columns_per_row(), 128);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn single_channel_quarter_bandwidth() {
        let cfg = DramConfig::ddr4_3200_single_channel();
        assert!((cfg.peak_gbps() - 25.6).abs() < 0.1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert_eq!(
            DramConfig {
                channels: 3,
                ..DramConfig::default()
            }
            .validate(),
            Err(DramConfigError::NotPowerOfTwo {
                field: "channels",
                value: 3
            })
        );
        assert_eq!(
            DramConfig {
                queue_capacity: 0,
                ..DramConfig::default()
            }
            .validate(),
            Err(DramConfigError::ZeroField {
                field: "queue_capacity"
            })
        );
        assert_eq!(
            DramConfig {
                row_bytes: 32,
                ..DramConfig::default()
            }
            .validate(),
            Err(DramConfigError::RowSmallerThanBurst {
                row_bytes: 32,
                burst_bytes: 64
            })
        );
        assert_eq!(
            DramConfig {
                bank_groups: 8,
                banks_per_group: 16,
                ..DramConfig::default()
            }
            .validate(),
            Err(DramConfigError::TooManyBanks { banks: 128 })
        );
        for channels in [128, 1 << 31] {
            assert_eq!(
                DramConfig {
                    channels,
                    ..DramConfig::default()
                }
                .validate(),
                Err(DramConfigError::TooManyChannels {
                    channels: u64::from(channels)
                })
            );
        }
        let most = DramConfig {
            channels: MAX_CHANNELS as u32,
            ..DramConfig::default()
        };
        assert_eq!(most.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_zero_geometry_and_timing() {
        // Each reject the satellite bugfix names: zero channels, zero
        // banks, zero queue capacity, zero burst length.
        for cfg in [
            DramConfig {
                channels: 0,
                ..DramConfig::default()
            },
            DramConfig {
                banks_per_group: 0,
                ..DramConfig::default()
            },
            DramConfig {
                bank_groups: 0,
                ..DramConfig::default()
            },
            DramConfig {
                queue_capacity: 0,
                ..DramConfig::default()
            },
            DramConfig {
                burst_bytes: 0,
                ..DramConfig::default()
            },
            DramConfig {
                t_bl: 0,
                ..DramConfig::default()
            },
            DramConfig {
                ranks: 0,
                ..DramConfig::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should not validate");
        }
    }

    #[test]
    fn validation_rejects_inconsistent_timing() {
        let cfg = DramConfig {
            t_faw: 10, // < 4 * t_rrd_s = 16
            ..DramConfig::default()
        };
        match cfg.validate() {
            Err(DramConfigError::TimingInconsistent { reason }) => {
                assert!(reason.contains("t_faw"), "{reason}");
            }
            other => panic!("expected TimingInconsistent, got {other:?}"),
        }
        let cfg = DramConfig {
            t_rc: 50, // < t_ras + t_rp = 74
            ..DramConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(DramConfigError::TimingInconsistent { .. })
        ));
        let cfg = DramConfig {
            t_ccd_l: 2, // < t_ccd_s = 4
            ..DramConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(DramConfigError::TimingInconsistent { .. })
        ));
    }

    #[test]
    fn validation_rejects_long_delays_the_channel_cannot_enforce() {
        // Two bank groups of two banks: reads to groups 0, 1 and 0 would
        // activate at cycles 0, 2 and 4, putting two group-0 activates 4
        // cycles apart against a t_rrd_l of 5.
        let small = DramConfig {
            bank_groups: 2,
            banks_per_group: 2,
            t_rrd_s: 2,
            t_faw: 8,
            ..DramConfig::ddr4_3200_single_channel()
        };
        for (cfg, field) in [
            (
                DramConfig {
                    t_rrd_l: 5,
                    ..small
                },
                "t_rrd_l",
            ),
            (
                DramConfig {
                    t_ccd_l: 9, // > 2 * max(t_ccd_s = 4, t_bl = 4)
                    ..DramConfig::default()
                },
                "t_ccd_l",
            ),
            (
                DramConfig {
                    t_ccd_s: 2,
                    t_ccd_l: 9, // > 2 * max(t_ccd_s = 2, t_bl = 4)
                    ..DramConfig::default()
                },
                "t_ccd_l",
            ),
        ] {
            match cfg.validate() {
                Err(DramConfigError::TimingInconsistent { reason }) => {
                    assert!(reason.starts_with(field), "{reason}");
                    assert!(reason.contains("channel model"), "{reason}");
                }
                other => panic!("{field}: expected TimingInconsistent, got {other:?}"),
            }
        }
        // Exactly twice the short spacing is still enforced.
        for cfg in [
            DramConfig {
                t_rrd_l: 4,
                ..small
            },
            DramConfig {
                t_ccd_s: 2,
                t_ccd_l: 8,
                ..DramConfig::default()
            },
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn timings_above_the_limit_are_rejected_before_the_cross_checks() {
        // The cross-checks compute 4 * t_rrd_s and t_ras + t_rp.
        for (cfg, field, value) in [
            (
                DramConfig {
                    t_rrd_s: u64::MAX / 2,
                    ..DramConfig::default()
                },
                "t_rrd_s",
                u64::MAX / 2,
            ),
            (
                DramConfig {
                    t_rp: u64::MAX,
                    ..DramConfig::default()
                },
                "t_rp",
                u64::MAX,
            ),
            (
                DramConfig {
                    t_wr: MAX_TIMING_CYCLES + 1,
                    ..DramConfig::default()
                },
                "t_wr",
                MAX_TIMING_CYCLES + 1,
            ),
        ] {
            assert_eq!(
                cfg.validate(),
                Err(DramConfigError::TimingTooLong { field, value })
            );
        }
        // At the limit the cross-checks run, and cannot overflow.
        let cfg = DramConfig {
            t_rrd_s: MAX_TIMING_CYCLES,
            t_rrd_l: MAX_TIMING_CYCLES,
            t_ras: MAX_TIMING_CYCLES,
            t_rp: MAX_TIMING_CYCLES,
            ..DramConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(DramConfigError::TimingInconsistent { .. })
        ));
        let cfg = DramConfig {
            t_wr: MAX_TIMING_CYCLES,
            ..DramConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(
            DramConfigError::TimingTooLong {
                field: "t_wr",
                value: u64::MAX
            }
            .to_string(),
            "t_wr (18446744073709551615) exceeds the 4294967295-cycle limit"
        );
    }

    #[test]
    fn errors_render_readable_messages() {
        let err = DramConfig {
            channels: 3,
            ..DramConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "channels must be a non-zero power of two, got 3"
        );
        let err = DramConfig {
            t_bl: 0,
            ..DramConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.to_string(), "t_bl must be non-zero");
        assert_eq!(
            DramConfigError::TooManyBanks { banks: 128 }.to_string(),
            "bank_groups * banks_per_group (128) exceeds the 64 banks a channel supports"
        );
        assert_eq!(
            DramConfigError::TooManyChannels { channels: 128 }.to_string(),
            "channels (128) exceeds the 64 a DRAM system supports"
        );
    }

    #[test]
    fn ranks_scale_no_addressed_bank() {
        // The address map has no rank bits: any rank count validates, and
        // the background-power bank count cannot overflow.
        let cfg = DramConfig {
            ranks: u32::MAX,
            bank_groups: 8,
            banks_per_group: 8,
            ..DramConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.banks_per_channel(), u64::from(u32::MAX) * 64);
    }

    #[test]
    fn from_profile_projects_the_embedded_config() {
        let profile = crate::profile::HardwareProfile::ddr4_3200();
        assert_eq!(
            DramConfig::from_profile(&profile),
            DramConfig::ddr4_3200_quad_channel()
        );
    }
}
