//! Access plans: the lowering of one ORAM request into DRAM traffic.
//!
//! An [`AccessPlan`] is a small DAG of [`PlanNode`]s. Each node corresponds
//! to one protocol *phase* of one sub-ORAM (e.g. "load the path metadata of
//! the `PosMap1` tree"), carries the DRAM block addresses that phase reads
//! and writes, and lists the intra-request phases it depends on.
//!
//! The plan captures the protocol's *minimal intra-request dependencies*
//! (Fig. 5 of the paper). The ORAM controller models decide how plans from
//! different requests may overlap (Fig. 6): the serial baseline controller
//! inserts a full barrier between consecutive plans, while the Palermo PE
//! mesh only enforces the per-level write-to-read critical sections.

use crate::types::{OramOp, PhysAddr, SubOram};

/// The protocol phase a plan node models. The names follow the PE workflow
/// in §V-A of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Load per-node metadata along the path (RingORAM/Palermo only).
    LoadMetadata,
    /// Early reshuffle: reset buckets that have exhausted their dummies.
    EarlyReshuffle,
    /// Read one block per path node (Ring) or the full path (Path family).
    ReadPath,
    /// Evict path / write back: push stash contents into the tree.
    EvictPath,
}

/// Index of a plan node within its [`AccessPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanNodeId(pub u32);

/// One phase of one sub-ORAM within a single ORAM request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// This node's index within the plan.
    pub id: PlanNodeId,
    /// Which sub-ORAM tree the phase operates on.
    pub sub: SubOram,
    /// Which protocol phase this is.
    pub phase: PhaseKind,
    /// DRAM block addresses this phase reads. Reads must complete before the
    /// phase is considered finished.
    pub reads: Vec<u64>,
    /// DRAM block addresses this phase writes. Writes are posted: the phase
    /// finishes once they have been accepted by the memory controller.
    pub writes: Vec<u64>,
    /// Intra-request dependencies: indices of plan nodes that must complete
    /// before this node may begin issuing.
    pub deps: Vec<PlanNodeId>,
    /// Fixed on-chip processing latency charged when the node starts
    /// (decryption, permutation bookkeeping), in controller cycles.
    pub compute_cycles: u32,
}

impl PlanNode {
    /// Total number of DRAM operations (reads + writes) this node issues.
    pub fn traffic(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Returns `true` if the node issues no DRAM traffic at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// The DRAM-traffic plan of one ORAM request (or dummy request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// Monotonically increasing request identifier (the `GlobalID` of
    /// Algorithm 2).
    pub request_id: u64,
    /// The protected physical address that triggered the request. Dummy
    /// requests carry the address they pretend to access.
    pub pa: PhysAddr,
    /// The requested operation.
    pub op: OramOp,
    /// Whether this plan was injected by the controller rather than by an
    /// LLC miss (background eviction / rate padding).
    pub is_dummy: bool,
    /// The phases making up the request, in issue order (dependencies only
    /// ever point backwards).
    pub nodes: Vec<PlanNode>,
}

impl AccessPlan {
    /// Total DRAM reads across all phases.
    pub fn total_reads(&self) -> usize {
        self.nodes.iter().map(|n| n.reads.len()).sum()
    }

    /// Total DRAM writes across all phases.
    pub fn total_writes(&self) -> usize {
        self.nodes.iter().map(|n| n.writes.len()).sum()
    }

    /// Total DRAM operations across all phases.
    pub fn total_traffic(&self) -> usize {
        self.total_reads() + self.total_writes()
    }

    /// Looks up the node for a given sub-ORAM and phase, if present.
    pub fn node(&self, sub: SubOram, phase: PhaseKind) -> Option<&PlanNode> {
        self.nodes.iter().find(|n| n.sub == sub && n.phase == phase)
    }

    /// Looks up a node's id for a given sub-ORAM and phase, if present.
    pub fn node_id(&self, sub: SubOram, phase: PhaseKind) -> Option<PlanNodeId> {
        self.node(sub, phase).map(|n| n.id)
    }

    /// Verifies structural well-formedness: ids match positions and all
    /// dependencies point to earlier nodes (so the DAG is acyclic by
    /// construction). Returns `false` if any check fails.
    pub fn is_well_formed(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .all(|(i, n)| n.id.0 as usize == i && n.deps.iter().all(|d| (d.0 as usize) < i))
    }
}

/// Incremental builder for [`AccessPlan`]s used by the hierarchy lowering.
#[derive(Debug, Clone)]
pub struct AccessPlanBuilder {
    plan: AccessPlan,
}

impl AccessPlanBuilder {
    /// Starts a plan for the given request.
    pub fn new(request_id: u64, pa: PhysAddr, op: OramOp) -> Self {
        AccessPlanBuilder {
            plan: AccessPlan {
                request_id,
                pa,
                op,
                is_dummy: false,
                nodes: Vec::new(),
            },
        }
    }

    /// Marks the plan as a controller-injected dummy request.
    pub fn dummy(&mut self) -> &mut Self {
        self.plan.is_dummy = true;
        self
    }

    /// Appends a phase node and returns its id.
    pub fn push(
        &mut self,
        sub: SubOram,
        phase: PhaseKind,
        reads: Vec<u64>,
        writes: Vec<u64>,
        deps: Vec<PlanNodeId>,
        compute_cycles: u32,
    ) -> PlanNodeId {
        let id = PlanNodeId(self.plan.nodes.len() as u32);
        debug_assert!(deps.iter().all(|d| d.0 < id.0), "deps must point backwards");
        self.plan.nodes.push(PlanNode {
            id,
            sub,
            phase,
            reads,
            writes,
            deps,
            compute_cycles,
        });
        id
    }

    /// Finishes the plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not well formed (a builder bug).
    pub fn build(self) -> AccessPlan {
        assert!(
            self.plan.is_well_formed(),
            "builder produced malformed plan"
        );
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> AccessPlan {
        let mut b = AccessPlanBuilder::new(7, PhysAddr::new(0x40), OramOp::Read);
        let lm2 = b.push(
            SubOram::Pos2,
            PhaseKind::LoadMetadata,
            vec![1, 2],
            vec![],
            vec![],
            0,
        );
        let rp2 = b.push(
            SubOram::Pos2,
            PhaseKind::ReadPath,
            vec![3, 4],
            vec![],
            vec![lm2],
            2,
        );
        let _ep2 = b.push(
            SubOram::Pos2,
            PhaseKind::EvictPath,
            vec![5],
            vec![6, 7],
            vec![rp2],
            0,
        );
        let lm1 = b.push(
            SubOram::Pos1,
            PhaseKind::LoadMetadata,
            vec![10],
            vec![],
            vec![rp2],
            0,
        );
        let _rp1 = b.push(
            SubOram::Pos1,
            PhaseKind::ReadPath,
            vec![11, 12, 13],
            vec![],
            vec![lm1],
            2,
        );
        b.build()
    }

    #[test]
    fn traffic_accounting() {
        let plan = sample_plan();
        assert_eq!(plan.total_reads(), 9);
        assert_eq!(plan.total_writes(), 2);
        assert_eq!(plan.total_traffic(), 11);
        assert!(!plan.is_dummy);
        assert!(plan.is_well_formed());
    }

    #[test]
    fn node_lookup_by_sub_and_phase() {
        let plan = sample_plan();
        let n = plan.node(SubOram::Pos2, PhaseKind::ReadPath).unwrap();
        assert_eq!(n.reads, vec![3, 4]);
        assert_eq!(n.compute_cycles, 2);
        assert!(plan.node(SubOram::Data, PhaseKind::ReadPath).is_none());
        assert_eq!(
            plan.node_id(SubOram::Pos1, PhaseKind::LoadMetadata),
            Some(PlanNodeId(3))
        );
    }

    #[test]
    fn deps_point_backwards() {
        let plan = sample_plan();
        for node in &plan.nodes {
            for dep in &node.deps {
                assert!(dep.0 < node.id.0);
            }
        }
    }

    #[test]
    fn dummy_marker() {
        let mut b = AccessPlanBuilder::new(0, PhysAddr::new(0), OramOp::Read);
        b.dummy();
        b.push(
            SubOram::Data,
            PhaseKind::ReadPath,
            vec![1],
            vec![2],
            vec![],
            0,
        );
        let plan = b.build();
        assert!(plan.is_dummy);
    }

    #[test]
    fn malformed_plan_detected() {
        let plan = AccessPlan {
            request_id: 0,
            pa: PhysAddr::new(0),
            op: OramOp::Read,
            is_dummy: false,
            nodes: vec![PlanNode {
                id: PlanNodeId(0),
                sub: SubOram::Data,
                phase: PhaseKind::ReadPath,
                reads: vec![],
                writes: vec![],
                deps: vec![PlanNodeId(0)], // self-dependency
                compute_cycles: 0,
            }],
        };
        assert!(!plan.is_well_formed());
    }

    #[test]
    fn empty_node_detection() {
        let n = PlanNode {
            id: PlanNodeId(0),
            sub: SubOram::Data,
            phase: PhaseKind::EvictPath,
            reads: vec![],
            writes: vec![],
            deps: vec![],
            compute_cycles: 0,
        };
        assert!(n.is_empty());
        assert_eq!(n.traffic(), 0);
    }
}
