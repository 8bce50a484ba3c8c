//! Graph-analytics generators: PageRank (`pr`) and temporal motif mining
//! (`motif`) over a synthetic power-law graph.

use super::AccessBuffer;
use crate::graph::CsrGraph;
use crate::trace::{AccessStream, TraceEntry};
use palermo_oram::rng::OramRng;
use std::sync::Arc;

/// Memory layout of the CSR graph and per-vertex state inside the protected
/// address space.
#[derive(Debug, Clone, Copy)]
struct GraphLayout {
    offsets_base: u64,
    edges_base: u64,
    rank_base: u64,
    next_rank_base: u64,
    footprint: u64,
}

impl GraphLayout {
    fn new(g: &CsrGraph) -> Self {
        let offsets_base = 0;
        let edges_base = offsets_base + (g.offsets.len() as u64) * 8;
        let rank_base = edges_base + g.num_edges() * 8;
        let next_rank_base = rank_base + g.num_vertices() * 8;
        let footprint = next_rank_base + g.num_vertices() * 8;
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
/// The graph is shared: a clone copies only the cursor.
#[derive(Debug, Clone)]
pub struct PageRank {
    graph: Arc<CsrGraph>,
    layout: GraphLayout,
    buffer: AccessBuffer,
    vertex: u64,
}

impl PageRank {
    /// Builds the synthetic graph and the generator. `scale` controls the
    /// vertex count (`scale` vertices with average degree 8).
    pub fn new(scale: u64, seed: u64) -> Self {
        let graph = Arc::new(CsrGraph::synthetic(scale.max(64), 8, 0.85, seed));
        let layout = GraphLayout::new(&graph);
        PageRank {
            graph,
            layout,
            buffer: AccessBuffer::new(),
            vertex: 0,
        }
    }

    fn refill(&mut self) {
        let v = self.vertex % self.graph.num_vertices();
        self.vertex += 1;
        // Offsets are read sequentially (v and v+1 usually share a line).
        self.buffer.push_read(self.layout.offset_addr(v));
        let start = self.graph.offsets[v as usize];
        for (i, &n) in self.graph.neighbours(v).iter().enumerate() {
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
/// The graph is shared: a clone copies only the cursor and RNG state.
#[derive(Debug, Clone)]
pub struct MotifMining {
    graph: Arc<CsrGraph>,
    layout: GraphLayout,
    buffer: AccessBuffer,
    rng: OramRng,
}

impl MotifMining {
    /// Builds the synthetic graph and the generator.
    pub fn new(scale: u64, seed: u64) -> Self {
        let graph = Arc::new(CsrGraph::synthetic(scale.max(64), 8, 0.9, seed ^ 0x6d6f));
        let layout = GraphLayout::new(&graph);
        MotifMining {
            graph,
            layout,
            buffer: AccessBuffer::new(),
            rng: OramRng::new(seed),
        }
    }

    fn explore(&mut self, v: u64, fanout: usize) {
        self.buffer.push_read(self.layout.offset_addr(v));
        let start = self.graph.offsets[v as usize];
        let neighbours = self.graph.neighbours(v);
        for (i, &n) in neighbours.iter().take(fanout).enumerate() {
            self.buffer
                .push_read(self.layout.edge_addr(start + i as u64));
            self.buffer.push_read(self.layout.offset_addr(n));
        }
    }

    fn refill(&mut self) {
        let v = self.rng.gen_range(self.graph.num_vertices());
        self.explore(v, 4);
        if let Some(&first) = self.graph.neighbours(v).first() {
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
