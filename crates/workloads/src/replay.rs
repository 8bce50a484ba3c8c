//! Trace replay: a file-backed [`AccessStream`].
//!
//! [`TraceReplay`] wraps a finite recorded trace (loaded through
//! [`crate::format`]) and replays it as the endless stream the simulator
//! expects by looping back to the first access after the last one. The
//! footprint is *inferred* from the trace itself: the smallest cache-line-
//! aligned bound covering every recorded address, so the replayed stream
//! honours the [`AccessStream`] contract (`addr < footprint_bytes()`)
//! without any sidecar metadata.

use crate::trace::{AccessStream, TraceEntry};
use palermo_oram::error::{OramError, OramResult};
use std::path::Path;
use std::sync::Arc;

/// An endless, looping replay of a finite recorded trace.
///
/// The decoded trace is shared: a clone copies only the cursor.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    entries: Arc<[TraceEntry]>,
    cursor: usize,
    footprint: u64,
}

impl TraceReplay {
    /// Wraps a recorded trace, inferring the footprint from the largest
    /// address (rounded up to the next 64-byte line boundary).
    ///
    /// # Errors
    ///
    /// Rejects an empty trace (a looping replay of nothing cannot produce
    /// accesses) and traces whose addresses leave no representable
    /// cache-line-aligned footprint bound.
    pub fn from_entries(entries: Vec<TraceEntry>) -> OramResult<Self> {
        let Some(max_addr) = entries.iter().map(|e| e.addr.0).max() else {
            return Err(OramError::InvalidParams {
                reason: "trace replay needs at least one access".into(),
            });
        };
        let footprint = (max_addr / 64)
            .checked_add(1)
            .and_then(|lines| lines.checked_mul(64))
            .ok_or_else(|| OramError::InvalidParams {
                reason: format!("trace address {max_addr:#x} leaves no representable footprint"),
            })?;
        Ok(TraceReplay {
            entries: entries.into(),
            cursor: 0,
            footprint,
        })
    }

    /// Loads a trace file (text or binary, auto-detected) and wraps it.
    ///
    /// # Errors
    ///
    /// I/O and parse failures are surfaced as
    /// [`OramError::InvalidParams`] with the decoder's message; an empty
    /// trace is rejected as in [`TraceReplay::from_entries`].
    pub fn from_file(path: impl AsRef<Path>) -> OramResult<Self> {
        let entries =
            crate::format::load(path).map_err(|reason| OramError::InvalidParams { reason })?;
        Self::from_entries(entries)
    }

    /// Number of accesses in one loop of the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: empty traces are rejected at construction.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl AccessStream for TraceReplay {
    fn next_access(&mut self) -> TraceEntry {
        let entry = self.entries[self.cursor];
        self.cursor = (self.cursor + 1) % self.entries.len();
        entry
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::profile;
    use palermo_oram::types::OramOp;

    #[test]
    fn replay_loops_over_the_trace() {
        let mut r = TraceReplay::from_entries(vec![
            TraceEntry::read(0),
            TraceEntry::write(64),
            TraceEntry::read(128),
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        let first_loop: Vec<TraceEntry> = (0..3).map(|_| r.next_access()).collect();
        let second_loop: Vec<TraceEntry> = (0..3).map(|_| r.next_access()).collect();
        assert_eq!(first_loop, second_loop);
        assert_eq!(first_loop[1].op, OramOp::Write);
    }

    #[test]
    fn clones_share_the_trace() {
        let mut r =
            TraceReplay::from_entries(vec![TraceEntry::read(0), TraceEntry::read(64)]).unwrap();
        r.next_access();
        let mut c = r.clone();
        assert!(Arc::ptr_eq(&r.entries, &c.entries));
        assert_eq!(c.next_access(), r.next_access());
    }

    #[test]
    fn footprint_is_inferred_and_line_aligned() {
        let r = TraceReplay::from_entries(vec![TraceEntry::read(130)]).unwrap();
        // Address 130 lives in line 2; the bound covers lines 0..=2.
        assert_eq!(r.footprint_bytes(), 192);
        let mut r =
            TraceReplay::from_entries(vec![TraceEntry::read(0), TraceEntry::read(64 * 1000 + 63)])
                .unwrap();
        let fp = r.footprint_bytes();
        assert_eq!(fp % 64, 0);
        for _ in 0..100 {
            assert!(r.next_access().addr.0 < fp);
        }
    }

    #[test]
    fn empty_and_overflowing_traces_are_rejected() {
        assert!(matches!(
            TraceReplay::from_entries(vec![]),
            Err(OramError::InvalidParams { .. })
        ));
        assert!(matches!(
            TraceReplay::from_entries(vec![TraceEntry::read(u64::MAX)]),
            Err(OramError::InvalidParams { .. })
        ));
    }

    #[test]
    fn file_backed_replay_profiles_like_the_recording() {
        let dir = std::env::temp_dir().join("palermo_replay_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seq.trace");
        let entries: Vec<TraceEntry> = (0..50u64).map(|i| TraceEntry::read(i * 64)).collect();
        crate::format::save_text(&path, &entries).unwrap();
        let mut r = TraceReplay::from_file(&path).unwrap();
        assert_eq!(r.len(), 50);
        let p = profile(&mut r, 49);
        assert_eq!(p.sequential_fraction, 1.0);
        assert!(matches!(
            TraceReplay::from_file(dir.join("missing.trace")),
            Err(OramError::InvalidParams { .. })
        ));
    }
}
