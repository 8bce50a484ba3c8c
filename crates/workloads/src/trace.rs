//! Access traces and the generator interface.

use palermo_oram::params::BLOCK_BYTES;
use palermo_oram::types::{OramOp, PhysAddr};

/// One memory access produced by a workload generator (post-L2, i.e. the
/// stream that is filtered by the LLC model before reaching the ORAM
/// controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Byte address within the workload's protected footprint.
    pub addr: PhysAddr,
    /// Read or write.
    pub op: OramOp,
}

impl TraceEntry {
    /// Convenience constructor for a read access.
    pub fn read(addr: u64) -> Self {
        TraceEntry {
            addr: PhysAddr::new(addr),
            op: OramOp::Read,
        }
    }

    /// Convenience constructor for a write access.
    pub fn write(addr: u64) -> Self {
        TraceEntry {
            addr: PhysAddr::new(addr),
            op: OramOp::Write,
        }
    }
}

/// A [`TraceEntry`] together with the id of the tenant that produced it.
///
/// Single-tenant streams (every Table II generator, trace replays) are
/// tenant 0; multi-tenant mixes tag each access with the index of the
/// originating tenant so the simulator can attribute per-tenant QoS metrics
/// (latency percentiles, DRAM demand share) at request granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedEntry {
    /// The access itself.
    pub entry: TraceEntry,
    /// Index of the originating tenant within the stream (0-based; always 0
    /// for single-tenant streams).
    pub tenant: u32,
}

/// An endless stream of memory accesses with a bounded footprint.
///
/// Generators are deterministic: the same seed yields the same stream, so
/// every experiment in the repository is reproducible.
///
/// Every stream is cloneable, also behind `Box<dyn AccessStream>` (see
/// [`CloneStream`]). A clone continues the *same* sequence from the point
/// it was taken: the original and the clone emit identical accesses from
/// there on. Generators keep large immutable tables (a graph's RNG
/// checkpoints, a replayed trace) behind an `Arc`, so a clone shares them
/// and copies only cursor and RNG state.
pub trait AccessStream: CloneStream + Send + Sync {
    /// Produces the next access.
    fn next_access(&mut self) -> TraceEntry;

    /// Produces the next access together with its originating tenant.
    ///
    /// The default implementation tags everything as tenant 0 (the correct
    /// answer for every single-tenant stream); multi-tenant streams override
    /// it — and route [`AccessStream::next_access`] through it — so the two
    /// entry points always observe the same underlying sequence.
    fn next_tagged(&mut self) -> TaggedEntry {
        TaggedEntry {
            entry: self.next_access(),
            tenant: 0,
        }
    }

    /// Produces the next access of a *specific* tenant, bypassing the
    /// stream's own tenant selection. Open-loop serving uses this when a
    /// per-tenant arrival process fires: the arrival decides *which*
    /// tenant's request forms next, so selection moves out of the stream.
    ///
    /// The default implementation ignores the requested tenant and
    /// delegates to [`AccessStream::next_tagged`] — correct for every
    /// single-tenant stream (there is nothing to select). Multi-tenant
    /// streams that support arrival-driven routing override it to pull
    /// from tenant `tenant`'s child stream.
    fn next_tagged_for(&mut self, tenant: u32) -> TaggedEntry {
        let _ = tenant;
        self.next_tagged()
    }

    /// Number of distinct tenants this stream multiplexes (1 for every
    /// single-tenant stream). Every [`TaggedEntry::tenant`] the stream emits
    /// is below this bound.
    fn tenant_count(&self) -> usize {
        1
    }

    /// The size of the address range the stream touches, in bytes. All
    /// generated addresses are below this bound.
    fn footprint_bytes(&self) -> u64;

    /// The contiguous byte partition `(base, size)` owned by tenant `i`,
    /// for streams that assign each tenant one contiguous slice of the
    /// footprint in ascending tenant order (the layout tenant-affine shard
    /// routing depends on).
    ///
    /// The default implementation answers for single-tenant streams only —
    /// tenant 0 owns the whole footprint — and returns `None` otherwise.
    /// Multi-tenant streams with contiguous partitions (mixes) override it;
    /// streams whose tenants interleave addresses leave the default, which
    /// correctly reports that no contiguous partition exists.
    fn tenant_partition(&self, i: usize) -> Option<(u64, u64)> {
        (i == 0 && self.tenant_count() == 1).then(|| (0, self.footprint_bytes()))
    }
}

/// Object-safe cloning for [`AccessStream`], implemented for every
/// `Clone` stream; it is what makes `Box<dyn AccessStream>` `Clone`.
pub trait CloneStream {
    /// A boxed copy of this stream that continues its sequence.
    fn clone_stream(&self) -> Box<dyn AccessStream>;
}

impl<T: AccessStream + Clone + 'static> CloneStream for T {
    fn clone_stream(&self) -> Box<dyn AccessStream> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn AccessStream> {
    fn clone(&self) -> Self {
        self.clone_stream()
    }
}

impl std::fmt::Debug for dyn AccessStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessStream")
            .field("footprint_bytes", &self.footprint_bytes())
            .field("tenant_count", &self.tenant_count())
            .finish_non_exhaustive()
    }
}

/// Simple statistics over a finite prefix of a trace, used by tests and by
/// the workload-characterisation example.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceProfile {
    /// Number of accesses profiled.
    pub accesses: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Fraction of *transitions* whose cache line equals the previous
    /// access's line plus one (a crude spatial-locality indicator). The
    /// first access has no predecessor, so the denominator is `n - 1`: a
    /// perfectly sequential stream scores exactly 1.0.
    pub sequential_fraction: f64,
    /// Number of distinct 64-byte lines touched.
    pub distinct_lines: u64,
}

/// Profiles the next `n` accesses of a stream.
pub fn profile(stream: &mut dyn AccessStream, n: u64) -> TraceProfile {
    let mut writes = 0u64;
    let mut sequential = 0u64;
    let mut lines = std::collections::BTreeSet::new();
    let mut prev_line: Option<u64> = None;
    for _ in 0..n {
        let e = stream.next_access();
        let line = e.addr.0 / BLOCK_BYTES;
        if e.op == OramOp::Write {
            writes += 1;
        }
        // `checked_sub` (not `wrapping_sub`) so line 0 never matches a
        // predecessor; the explicit `is_some` guard keeps a leading line-0
        // access from comparing `None == None`.
        if prev_line.is_some() && prev_line == line.checked_sub(1) {
            sequential += 1;
        }
        prev_line = Some(line);
        lines.insert(line);
    }
    TraceProfile {
        accesses: n,
        write_fraction: if n == 0 {
            0.0
        } else {
            writes as f64 / n as f64
        },
        // The first access can never be sequential, so the denominator is
        // the number of transitions, not the number of accesses — dividing
        // by `n` capped a perfectly sequential stream at (n-1)/n.
        sequential_fraction: if n <= 1 {
            0.0
        } else {
            sequential as f64 / (n - 1) as f64
        },
        distinct_lines: lines.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Counter {
        next: u64,
    }
    impl AccessStream for Counter {
        fn next_access(&mut self) -> TraceEntry {
            let e = if self.next.is_multiple_of(4) {
                TraceEntry::write(self.next * 64)
            } else {
                TraceEntry::read(self.next * 64)
            };
            self.next += 1;
            e
        }
        fn footprint_bytes(&self) -> u64 {
            1 << 20
        }
    }

    #[test]
    fn default_tagging_is_tenant_zero_and_consumes_the_stream() {
        let mut s = Counter { next: 0 };
        assert_eq!(s.tenant_count(), 1);
        let first = s.next_tagged();
        assert_eq!(first.tenant, 0);
        assert_eq!(first.entry, TraceEntry::write(0));
        // The tagged pull advanced the same underlying sequence.
        assert_eq!(s.next_access(), TraceEntry::read(64));
    }

    #[test]
    fn entry_constructors() {
        assert_eq!(TraceEntry::read(64).op, OramOp::Read);
        assert_eq!(TraceEntry::write(64).op, OramOp::Write);
        assert_eq!(TraceEntry::read(64).addr, PhysAddr::new(64));
    }

    #[test]
    fn profile_of_sequential_stream() {
        let mut s = Counter { next: 0 };
        let p = profile(&mut s, 1000);
        assert_eq!(p.accesses, 1000);
        assert!((p.write_fraction - 0.25).abs() < 1e-9);
        // Regression: with `n` as the denominator a perfectly sequential
        // stream could only reach (n-1)/n.
        assert_eq!(p.sequential_fraction, 1.0);
        assert_eq!(p.distinct_lines, 1000);
    }

    #[test]
    fn empty_profile_is_zero() {
        let mut s = Counter { next: 0 };
        let p = profile(&mut s, 0);
        assert_eq!(p, TraceProfile::default());
    }

    #[test]
    fn single_access_has_no_sequential_transition() {
        let mut s = Counter { next: 0 };
        let p = profile(&mut s, 1);
        assert_eq!(p.accesses, 1);
        assert_eq!(p.sequential_fraction, 0.0);
    }

    #[test]
    fn leading_line_zero_access_is_not_sequential() {
        // Regression companion to the `wrapping_sub` fix: the first access
        // (line 0 included) has no predecessor and must not count, and a
        // jump *to* line 0 must not match via wrap-around.
        #[derive(Clone)]
        struct Fixed(Vec<u64>, usize);
        impl AccessStream for Fixed {
            fn next_access(&mut self) -> TraceEntry {
                let e = TraceEntry::read(self.0[self.1]);
                self.1 += 1;
                e
            }
            fn footprint_bytes(&self) -> u64 {
                1 << 30
            }
        }
        // Lines: 0, 1000, 0, 1 — exactly one sequential transition (0 -> 1).
        let mut s = Fixed(vec![0, 64_000, 0, 64], 0);
        let p = profile(&mut s, 4);
        assert!((p.sequential_fraction - 1.0 / 3.0).abs() < 1e-12);
    }
}
