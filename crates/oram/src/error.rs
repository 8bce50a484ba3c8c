//! Error types for the ORAM protocol crate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or operating an ORAM instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OramError {
    /// A protocol or tree parameter failed validation.
    InvalidParams {
        /// Description of the offending field and constraint.
        reason: String,
    },
    /// The on-chip stash exceeded its configured hardware capacity.
    ///
    /// This is a hard error for a hardware ORAM controller; the RingORAM
    /// analysis shows it should occur with probability below 2^-103 for a
    /// 256-entry stash, so hitting it in simulation indicates a protocol or
    /// configuration bug.
    StashOverflow {
        /// Number of entries the stash was holding when the overflow occurred.
        occupancy: usize,
        /// The configured hardware capacity.
        capacity: usize,
    },
    /// An access referenced a block outside the protected address space.
    AddressOutOfRange {
        /// The offending logical block index.
        block: u64,
        /// Number of blocks in the protected space.
        num_blocks: u64,
    },
    /// The workload produced so many consecutive LLC hits that no ORAM
    /// request could be formed (the working set fits entirely in the LLC,
    /// so the simulation cannot make progress).
    WorkloadStalled {
        /// Consecutive LLC-hit accesses scanned before giving up.
        accesses_scanned: u64,
    },
    /// A run reached a state it can never leave, with requests unfinished.
    /// A correct model never gets here; the report names what was stuck.
    Deadlock {
        /// Memory-clock cycle at which the state was detected.
        cycle: u64,
        /// The requests still in flight in the controller.
        requests: Vec<StuckRequest>,
        /// Requests queued in each DRAM channel, by channel.
        queue_depths: Vec<usize>,
    },
}

/// A request still in flight when an [`OramError::Deadlock`] is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckRequest {
    /// The request's id.
    pub request_id: u64,
    /// Each plan node that has not completed, as `(node index, reads
    /// outstanding at DRAM)`.
    pub unfinished_nodes: Vec<(usize, usize)>,
}

impl fmt::Display for OramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OramError::InvalidParams { reason } => {
                write!(f, "invalid ORAM parameters: {reason}")
            }
            OramError::StashOverflow {
                occupancy,
                capacity,
            } => write!(
                f,
                "stash overflow: {occupancy} entries exceed hardware capacity {capacity}"
            ),
            OramError::AddressOutOfRange { block, num_blocks } => write!(
                f,
                "block {block} is outside the protected space of {num_blocks} blocks"
            ),
            OramError::WorkloadStalled { accesses_scanned } => write!(
                f,
                "workload stalled: {accesses_scanned} consecutive LLC hits without a miss \
(the working set fits entirely in the LLC)"
            ),
            OramError::Deadlock {
                cycle,
                requests,
                queue_depths,
            } => {
                write!(f, "deadlock at cycle {cycle}: nothing can act again;")?;
                for r in requests {
                    let (id, nodes) = (r.request_id, &r.unfinished_nodes);
                    write!(f, " request {id} waits on (node, reads) {nodes:?};")?;
                }
                write!(f, " DRAM queue depths {queue_depths:?}")
            }
        }
    }
}

impl Error for OramError {}

/// Convenience result alias used throughout the crate.
pub type OramResult<T> = Result<T, OramError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = OramError::InvalidParams {
            reason: "z must be non-zero".into(),
        };
        assert!(e.to_string().contains("z must be non-zero"));

        let e = OramError::StashOverflow {
            occupancy: 300,
            capacity: 256,
        };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("256"));

        let e = OramError::AddressOutOfRange {
            block: 10,
            num_blocks: 4,
        };
        assert!(e.to_string().contains("outside"));

        let e = OramError::WorkloadStalled {
            accesses_scanned: 1_000_001,
        };
        assert!(e.to_string().contains("stalled"));
        assert!(e.to_string().contains("1000001"));

        let e = OramError::Deadlock {
            cycle: 4242,
            requests: vec![StuckRequest {
                request_id: 7,
                unfinished_nodes: vec![(3, 0), (5, 2)],
            }],
            queue_depths: vec![0, 0],
        };
        assert_eq!(
            e.to_string(),
            "deadlock at cycle 4242: nothing can act again; request 7 waits on (node, reads) \
[(3, 0), (5, 2)]; DRAM queue depths [0, 0]"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OramError>();
    }
}
