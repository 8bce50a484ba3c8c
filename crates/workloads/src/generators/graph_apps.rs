//! Graph-analytics generators: PageRank (`pr`) and temporal motif mining
//! (`motif`) over a synthetic power-law graph.
//!
//! The accesses address a CSR image of the graph (offsets, then edges, then
//! two per-vertex rank arrays), but the graph itself is drawn on demand
//! ([`SyntheticGraph`]): a generator asks for the out-edges of the vertex it
//! visits, and only as many of them as it reads.

use super::AccessBuffer;
use crate::graph::SyntheticGraph;
use crate::trace::{AccessStream, TraceEntry};
use palermo_oram::rng::OramRng;
use std::sync::Arc;

/// Memory layout of the graph's CSR image and per-vertex state inside the
/// protected address space: 8-byte offsets (one per vertex plus a
/// sentinel), 8-byte edge destinations, and two 8-byte rank arrays.
#[derive(Debug, Clone, Copy)]
struct GraphLayout {
    offsets_base: u64,
    edges_base: u64,
    rank_base: u64,
    next_rank_base: u64,
    footprint: u64,
}

impl GraphLayout {
    fn new(vertices: u64, edges: u64) -> Self {
        let offsets_base = 0;
        let edges_base = offsets_base + (vertices + 1) * 8;
        let rank_base = edges_base + edges * 8;
        let next_rank_base = rank_base + vertices * 8;
        let footprint = next_rank_base + vertices * 8;
        GraphLayout {
            offsets_base,
            edges_base,
            rank_base,
            next_rank_base,
            footprint: footprint.next_power_of_two(),
        }
    }

    fn offset_addr(&self, v: u64) -> u64 {
        self.offsets_base + v * 8
    }

    fn edge_addr(&self, e: u64) -> u64 {
        self.edges_base + e * 8
    }

    fn rank_addr(&self, v: u64) -> u64 {
        self.rank_base + v * 8
    }

    fn next_rank_addr(&self, v: u64) -> u64 {
        self.next_rank_base + v * 8
    }
}

/// PageRank in pull direction: for each vertex, stream its edge list and
/// gather the ranks of its (power-law-distributed) neighbours.
///
/// Each visit draws all of the vertex's out-edges from the graph. The graph
/// (its checkpoints) is shared: a clone copies only the cursor.
#[derive(Debug, Clone)]
pub struct PageRank {
    graph: Arc<SyntheticGraph>,
    layout: GraphLayout,
    buffer: AccessBuffer,
    vertex: u64,
    /// The visited vertex's out-neighbours.
    neighbours: Vec<u64>,
}

impl PageRank {
    /// Builds the synthetic graph and the generator. `scale` controls the
    /// vertex count (`scale` vertices with average degree 8).
    pub fn new(scale: u64, seed: u64) -> Self {
        let graph = Arc::new(SyntheticGraph::new(scale.max(64), 8, 0.85, seed));
        let layout = GraphLayout::new(graph.num_vertices(), graph.num_edges());
        PageRank {
            graph,
            layout,
            buffer: AccessBuffer::new(),
            vertex: 0,
            neighbours: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let v = self.vertex % self.graph.num_vertices();
        self.vertex += 1;
        // Offsets are read sequentially (v and v+1 usually share a line).
        self.buffer.push_read(self.layout.offset_addr(v));
        let start = self.graph.vertex(v, usize::MAX, &mut self.neighbours);
        for (i, &n) in self.neighbours.iter().enumerate() {
            // The edge list streams sequentially; the neighbour rank gather
            // is effectively random (power-law destinations).
            self.buffer
                .push_read(self.layout.edge_addr(start + i as u64));
            self.buffer.push_read(self.layout.rank_addr(n));
        }
        self.buffer.push_write(self.layout.next_rank_addr(v));
    }
}

impl AccessStream for PageRank {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.layout.footprint
    }
}

/// Edge-driven motif (temporal subgraph) mining: repeatedly pick a random
/// edge and explore the neighbourhoods of both endpoints — almost no
/// spatial locality beyond the individual adjacency lists.
///
/// Each exploration draws from the graph only the neighbours it reads: 4
/// of the picked vertex, then 3 of its first neighbour. The graph (its
/// checkpoints) is shared: a clone copies only the cursor and RNG state.
#[derive(Debug, Clone)]
pub struct MotifMining {
    graph: Arc<SyntheticGraph>,
    layout: GraphLayout,
    buffer: AccessBuffer,
    rng: OramRng,
    /// The explored vertex's first neighbours.
    neighbours: Vec<u64>,
}

impl MotifMining {
    /// Builds the synthetic graph and the generator.
    pub fn new(scale: u64, seed: u64) -> Self {
        let graph = Arc::new(SyntheticGraph::new(scale.max(64), 8, 0.9, seed ^ 0x6d6f));
        let layout = GraphLayout::new(graph.num_vertices(), graph.num_edges());
        MotifMining {
            graph,
            layout,
            buffer: AccessBuffer::new(),
            rng: OramRng::new(seed),
            neighbours: Vec::new(),
        }
    }

    /// Reads `v`'s offset and its first `fanout` edges and neighbour
    /// offsets; leaves those neighbours in `self.neighbours`.
    fn explore(&mut self, v: u64, fanout: usize) {
        self.buffer.push_read(self.layout.offset_addr(v));
        let start = self.graph.vertex(v, fanout, &mut self.neighbours);
        for (i, &n) in self.neighbours.iter().enumerate() {
            self.buffer
                .push_read(self.layout.edge_addr(start + i as u64));
            self.buffer.push_read(self.layout.offset_addr(n));
        }
    }

    fn refill(&mut self) {
        let v = self.rng.gen_range(self.graph.num_vertices());
        self.explore(v, 4);
        if let Some(&first) = self.neighbours.first() {
            self.explore(first, 3);
        }
    }
}

impl AccessStream for MotifMining {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.layout.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::profile;

    #[test]
    fn pagerank_addresses_stay_in_footprint() {
        let mut g = PageRank::new(10_000, 1);
        for _ in 0..20_000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }

    #[test]
    fn pagerank_mixes_sequential_and_random() {
        let mut g = PageRank::new(20_000, 2);
        let p = profile(&mut g, 30_000);
        assert!(p.sequential_fraction < 0.5, "{}", p.sequential_fraction);
        assert!(p.write_fraction > 0.0 && p.write_fraction < 0.2);
        assert!(p.distinct_lines > 1000);
    }

    #[test]
    fn motif_has_low_locality() {
        let mut g = MotifMining::new(20_000, 3);
        let p = profile(&mut g, 30_000);
        assert!(p.sequential_fraction < 0.3, "{}", p.sequential_fraction);
        for _ in 0..1000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }

    #[test]
    fn clones_share_the_graph() {
        let mut pr = PageRank::new(5000, 1);
        pr.next_access();
        assert!(Arc::ptr_eq(&pr.graph, &pr.clone().graph));
        let mut motif = MotifMining::new(5000, 1);
        motif.next_access();
        assert!(Arc::ptr_eq(&motif.graph, &motif.clone().graph));
    }

    #[test]
    fn footprints_are_powers_of_two() {
        assert!(PageRank::new(5000, 1).footprint_bytes().is_power_of_two());
        assert!(MotifMining::new(5000, 1)
            .footprint_bytes()
            .is_power_of_two());
    }
}
