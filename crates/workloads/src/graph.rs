//! Synthetic power-law graphs, drawn one vertex at a time.
//!
//! The paper evaluates PageRank on LiveJournal and motif mining on a
//! Wikipedia snapshot. Those datasets are not redistributable here, so the
//! graph workloads run on synthetic graphs with the property that matters
//! for memory behaviour: a heavy-tailed degree distribution, which makes
//! neighbour accesses hit a small set of hot vertices while the bulk of the
//! edge list is cold and effectively random.
//!
//! A graph is a fixed function of its seed, defined by one pass over the
//! vertices in order: draw the vertex's out-degree, then draw each
//! destination from a Zipf sampler. Every destination costs exactly one RNG
//! draw, whether it is sampled or skipped with [`Zipf::skip`]. So the edges
//! are never stored. [`SyntheticGraph::new`] walks the vertices once,
//! drawing each degree and skipping each destination, and keeps the RNG
//! state and the running edge index every `CHECKPOINT_EVERY` (64) vertices.
//! [`SyntheticGraph::vertex`] restores the checkpoint at or below a vertex,
//! skips forward to it and samples only the destinations a generator asks
//! for. At a 256 MiB footprint hint (524,288 vertices, about 4.2 million
//! edges) that is 8,192 checkpoints, about 330 KB.

use crate::zipf::{scramble, Zipf};
use palermo_oram::rng::OramRng;

/// Vertices between two stored RNG checkpoints: a lookup skips at most this
/// many vertices' draws (about 8 edges each) before sampling.
const CHECKPOINT_EVERY: u64 = 64;

/// The generator state at the start of a checkpointed vertex.
#[derive(Debug)]
struct Checkpoint {
    rng: OramRng,
    /// Index of the vertex's first edge.
    edge: u64,
}

/// A synthetic power-law graph whose out-edges are drawn on demand.
#[derive(Debug)]
pub struct SyntheticGraph {
    vertices: u64,
    edges: u64,
    /// Out-degrees are uniform in `[0, degree_bound)`.
    degree_bound: u64,
    destinations: Zipf,
    /// The state at vertex `i * CHECKPOINT_EVERY`, for every `i`.
    checkpoints: Vec<Checkpoint>,
}

impl SyntheticGraph {
    /// A synthetic power-law graph with `vertices` vertices and an average
    /// out-degree of `avg_degree`, with destination popularity following a
    /// Zipfian distribution of skew `skew`.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero.
    pub fn new(vertices: u64, avg_degree: u32, skew: f64, seed: u64) -> Self {
        assert!(vertices > 0, "graph needs at least one vertex");
        let mut graph = SyntheticGraph {
            vertices,
            edges: 0,
            // Degrees vary between 0 and 2x the average.
            degree_bound: u64::from(avg_degree) * 2 + 1,
            destinations: Zipf::new(vertices, skew.clamp(0.0, 0.99)),
            checkpoints: Vec::with_capacity(vertices.div_ceil(CHECKPOINT_EVERY) as usize),
        };
        let mut rng = OramRng::new(seed);
        for v in 0..vertices {
            if v % CHECKPOINT_EVERY == 0 {
                graph.checkpoints.push(Checkpoint {
                    rng: rng.clone(),
                    edge: graph.edges,
                });
            }
            graph.edges += graph.skip_vertex(&mut rng);
        }
        graph
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// Replaces `out` with the first `limit` out-neighbours of `v` (all of
    /// them if it has fewer) in edge order, and returns the index of `v`'s
    /// first edge.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex.
    pub fn vertex(&self, v: u64, limit: usize, out: &mut Vec<u64>) -> u64 {
        assert!(v < self.vertices, "vertex {v} of {}", self.vertices);
        let checkpoint = &self.checkpoints[(v / CHECKPOINT_EVERY) as usize];
        let mut rng = checkpoint.rng.clone();
        let mut edge = checkpoint.edge;
        for _ in 0..v % CHECKPOINT_EVERY {
            edge += self.skip_vertex(&mut rng);
        }
        let degree = rng.gen_range(self.degree_bound);
        out.clear();
        out.extend(
            (0..degree)
                .take(limit)
                .map(|_| scramble(self.destinations.sample(&mut rng), self.vertices)),
        );
        edge
    }

    /// Draws one vertex's degree, steps `rng` past its destinations and
    /// returns the degree.
    fn skip_vertex(&self, rng: &mut OramRng) -> u64 {
        let degree = rng.gen_range(self.degree_bound);
        for _ in 0..degree {
            self.destinations.skip(rng);
        }
        degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first edge index and the out-neighbours of every vertex, each
    /// read with its own lookup.
    fn adjacency(g: &SyntheticGraph) -> Vec<(u64, Vec<u64>)> {
        (0..g.num_vertices())
            .map(|v| {
                let mut out = Vec::new();
                let start = g.vertex(v, usize::MAX, &mut out);
                (start, out)
            })
            .collect()
    }

    /// The graph's definition: one pass that samples every destination of
    /// every vertex in order.
    fn sequential_pass(vertices: u64, avg_degree: u32, skew: f64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = OramRng::new(seed);
        let destinations = Zipf::new(vertices, skew.clamp(0.0, 0.99));
        (0..vertices)
            .map(|_| {
                let degree = rng.gen_range(u64::from(avg_degree) * 2 + 1);
                (0..degree)
                    .map(|_| scramble(destinations.sample(&mut rng), vertices))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn generates_requested_size() {
        let g = SyntheticGraph::new(1000, 8, 0.8, 1);
        assert_eq!(g.num_vertices(), 1000);
        assert!(
            g.num_edges() > 4000 && g.num_edges() < 12_000,
            "{}",
            g.num_edges()
        );
        let (start, last) = adjacency(&g).pop().unwrap();
        assert_eq!(start + last.len() as u64, g.num_edges());
    }

    #[test]
    fn neighbours_are_valid_vertices() {
        let g = SyntheticGraph::new(500, 4, 0.9, 2);
        for (_, neighbours) in adjacency(&g) {
            for n in neighbours {
                assert!(n < 500);
            }
        }
    }

    #[test]
    fn degree_distribution_is_skewed_in_popularity() {
        // In-degree (popularity) should be heavy tailed: the hottest vertex
        // should receive far more than the average number of edges.
        let g = SyntheticGraph::new(2000, 8, 0.9, 3);
        let mut indeg = vec![0u64; 2000];
        for (_, neighbours) in adjacency(&g) {
            for n in neighbours {
                indeg[n as usize] += 1;
            }
        }
        let max = *indeg.iter().max().unwrap();
        let avg = g.num_edges() / 2000;
        assert!(max > avg * 5, "max {max}, avg {avg}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticGraph::new(100, 4, 0.8, 7);
        let b = SyntheticGraph::new(100, 4, 0.8, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(adjacency(&a), adjacency(&b));
    }

    #[test]
    fn every_vertex_equals_the_sequential_pass() {
        // Sizes around the checkpoint spacing, a 1-vertex graph, then
        // random ones; every vertex is looked up, the last one included.
        let mut params = OramRng::new(0x6EA9);
        let mut sizes = vec![1, 2, 63, 64, 65, 127, 128, 129, 200];
        sizes.extend((0..12).map(|_| 1 + params.gen_range(400)));
        for vertices in sizes {
            let avg_degree = params.gen_range(7) as u32;
            let skew = params.next_f64();
            let seed = params.next_u64();
            let g = SyntheticGraph::new(vertices, avg_degree, skew, seed);
            let expected = sequential_pass(vertices, avg_degree, skew, seed);
            let mut edges = 0;
            for (v, (start, neighbours)) in adjacency(&g).into_iter().enumerate() {
                let case = format!("vertex {v} of {vertices}, degree {avg_degree}, seed {seed}");
                assert_eq!(start, edges, "{case}");
                assert_eq!(neighbours, expected[v], "{case}");
                edges += neighbours.len() as u64;
                // A limit keeps a prefix and the same first edge.
                let mut prefix = Vec::new();
                assert_eq!(g.vertex(v as u64, 3, &mut prefix), start, "{case}");
                assert_eq!(prefix[..], neighbours[..neighbours.len().min(3)], "{case}");
            }
            assert_eq!(g.num_edges(), edges, "{vertices} vertices, seed {seed}");
        }
    }
}
