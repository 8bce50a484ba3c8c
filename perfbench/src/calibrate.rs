//! Kernels that measure how fast the machine runs at a given moment.
//!
//! On a shared machine the simulator's speed drifts by tens of percent over
//! minutes. On a 2-vCPU KVM guest the core flips between a full-speed and a
//! contended state every hundred milliseconds or so, and the contended
//! state can prevail for minutes; integer and floating-point work then runs
//! 1.4–2× slower.
//!
//! * The [`speed_probe`] is 8.5 µs of integer work at full speed, and it
//!   touches no memory. A probe run just before and just after a timing says which
//!   state the timing ran in, and the timing is scaled by
//!   [`PROBE_FULL_SPEED`] over the probes' mean time. In two sets of ten
//!   25-second runs per workload on that guest, raw run-time medians moved
//!   by up to 50% between sets, and the corrected ones by at most 6%.
//! * The calibration kernel ([`Calibration`], [`calibrate`]) does fixed-seed
//!   random read-modify-writes over a 16 MiB buffer. It follows drift of
//!   the memory system but not the contended state, which leaves
//!   memory-bound code almost untouched: in the same sets, run time ÷
//!   kernel time moved by up to 21% between sets.

use palermo_oram::rng::SplitMix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes the kernel's buffer spans.
pub const WORKING_SET_BYTES: usize = 16 << 20;

const SLOTS: usize = WORKING_SET_BYTES / 8;

/// Read-modify-writes per kernel run.
pub const OPS_PER_RUN: u64 = 1 << 20;

/// Seed of the index sequence; every run visits the same slots in the
/// same order.
const SEED: u64 = 0x5EED_CA11_B4A7_E000;

/// The kernel's buffer, allocated and touched once so that page faults
/// stay out of the timed runs.
pub struct Calibration {
    buf: Vec<u64>,
}

/// What one kernel run did and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationRun {
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Read-modify-writes performed.
    pub ops: u64,
    /// Digest of the slot indices visited, a pure function of the seed.
    pub index_digest: u64,
}

impl Calibration {
    /// Allocates and initialises the buffer.
    pub fn new() -> Self {
        Calibration {
            buf: (0..SLOTS as u64).collect(),
        }
    }

    /// Bytes the buffer spans.
    pub fn working_set_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<u64>()
    }

    /// Runs the kernel once.
    pub fn run(&mut self) -> CalibrationRun {
        let start = Instant::now();
        let mut x = SEED;
        let mut digest = 0u64;
        for _ in 0..OPS_PER_RUN {
            let i = next_slot(&mut x);
            self.buf[i] = self.buf[i].rotate_left(5) ^ x;
            digest = digest.rotate_left(1) ^ i as u64;
        }
        black_box(&mut self.buf);
        CalibrationRun {
            elapsed: start.elapsed(),
            ops: OPS_PER_RUN,
            index_digest: black_box(digest),
        }
    }
}

/// Advances the xorshift64 state and maps it to a slot. The sequence has
/// full period, so the slots spread over the whole buffer.
fn next_slot(x: &mut u64) -> usize {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    (*x >> 11) as usize & (SLOTS - 1)
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the kernel once on a fresh buffer and returns its run time,
/// excluding the buffer's set-up. Timed loops should keep one
/// [`Calibration`] instead, so the buffer is set up once.
pub fn calibrate() -> Duration {
    Calibration::new().run().elapsed
}

/// Steps of the speed probe's hash chain.
const PROBE_STEPS: u32 = 1 << 13;

/// The speed probe's run time at full speed on the machine the benchmark
/// was defined on (a KVM guest with 2 vCPUs of an Intel Xeon, family 6
/// model 207): the 10th percentile of its runs in quiet periods.
pub const PROBE_FULL_SPEED: Duration = Duration::from_nanos(8_500);

/// Runs the speed probe once and returns its run time: a fixed chain of
/// SplitMix64 steps that touch no memory, so its time follows only how fast
/// the core runs at that moment.
pub fn speed_probe() -> Duration {
    let start = Instant::now();
    let mut rng = SplitMix64::new(SEED);
    let mut acc = 0u64;
    for _ in 0..black_box(PROBE_STEPS) {
        acc = (acc ^ rng.next_u64()).rotate_left(7);
    }
    black_box(acc);
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_is_at_least_16_mib() {
        assert!(Calibration::new().working_set_bytes() >= 16 << 20);
        assert!(SLOTS.is_power_of_two());
    }

    #[test]
    fn every_run_does_the_same_work() {
        let mut a = Calibration::new();
        let mut b = Calibration::new();
        let first = a.run();
        assert_eq!(first.ops, OPS_PER_RUN);
        for run in [a.run(), b.run(), b.run()] {
            assert_eq!(run.ops, first.ops);
            assert_eq!(run.index_digest, first.index_digest);
        }
        assert!(calibrate() > Duration::ZERO);
        assert!(speed_probe() > Duration::ZERO);
    }

    #[test]
    fn runs_touch_slots_across_the_whole_buffer() {
        // The index sequence must spread over the buffer, not sit in one
        // cache-sized corner of it.
        let mut x = SEED;
        let (mut low, mut high) = (false, false);
        for _ in 0..1000 {
            let i = next_slot(&mut x);
            low |= i < SLOTS / 8;
            high |= i >= SLOTS - SLOTS / 8;
        }
        assert!(low && high);
    }
}
