//! Graph substrate for workload generation.
//!
//! The RIB generator needs an AS-level topology to draw plausible paths
//! from. Real AS graphs are heavy-tailed; a preferential-attachment
//! process gives the right shape without external data (see DESIGN.md's
//! substitution table).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// Node identifier (dense, 0-based).
pub type NodeId = u32;

/// An undirected graph stored as adjacency lists.
#[derive(Clone, Debug)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Adds an undirected edge (idempotent).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        if !self.adj[a as usize].contains(&b) {
            self.adj[a as usize].push(b);
            self.adj[b as usize].push(a);
        }
    }

    /// Neighbours of `n`.
    pub fn neighbours(&self, n: NodeId) -> &[NodeId] {
        &self.adj[n as usize]
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n as usize].len()
    }

    /// Builds a preferential-attachment (Barabási–Albert style) graph:
    /// `n` nodes, each newcomer attaching to `m` existing nodes with
    /// probability proportional to degree. Deterministic given `rng`.
    pub fn preferential_attachment(n: usize, m: usize, rng: &mut StdRng) -> Self {
        assert!(n > m, "need at least m+1 nodes");
        let mut g = Graph::new(n);
        // Seed clique over the first m+1 nodes.
        for a in 0..=(m as NodeId) {
            for b in (a + 1)..=(m as NodeId) {
                g.add_edge(a, b);
            }
        }
        // Degree-weighted endpoint pool: each edge contributes both ends.
        let mut pool: Vec<NodeId> = Vec::new();
        for (node, nbrs) in g.adj.iter().enumerate() {
            for _ in 0..nbrs.len() {
                pool.push(node as NodeId);
            }
        }
        for newcomer in (m + 1)..n {
            let mut targets = BTreeSet::new();
            while targets.len() < m {
                let pick = pool[rng.gen_range(0..pool.len())];
                targets.insert(pick);
            }
            for t in targets {
                g.add_edge(newcomer as NodeId, t);
                pool.push(newcomer as NodeId);
                pool.push(t);
            }
        }
        g
    }

    /// Samples a random simple path of `len` edges starting from a
    /// random node (self-avoiding walk with restart). Returns the node
    /// sequence (length `len + 1`), or `None` if the graph is too
    /// sparse to host one within the attempt budget.
    pub fn random_simple_path(&self, len: usize, rng: &mut StdRng) -> Option<Vec<NodeId>> {
        'attempt: for _ in 0..64 {
            let start = rng.gen_range(0..self.node_count()) as NodeId;
            let mut path = vec![start];
            let mut seen: BTreeSet<NodeId> = BTreeSet::new();
            seen.insert(start);
            while path.len() <= len {
                let cur = *path.last().expect("non-empty");
                let candidates: Vec<NodeId> = self
                    .neighbours(cur)
                    .iter()
                    .copied()
                    .filter(|n| !seen.contains(n))
                    .collect();
                let Some(&next) = candidates.choose(rng) else {
                    continue 'attempt;
                };
                path.push(next);
                seen.insert(next);
            }
            return Some(path);
        }
        None
    }

    /// [`random_simple_path`](Graph::random_simple_path) into a buffer
    /// the caller reuses, allocating nothing per hop: the unseen
    /// neighbours are counted, one is drawn, and the k-th is taken. The
    /// walk makes the same draws in the same order, so from equal `rng`
    /// states both return the same path and leave equal states behind.
    /// Returns whether `path` holds a path.
    pub fn random_simple_path_into(
        &self,
        len: usize,
        rng: &mut StdRng,
        path: &mut Vec<NodeId>,
    ) -> bool {
        'attempt: for _ in 0..64 {
            path.clear();
            path.push(rng.gen_range(0..self.node_count()) as NodeId);
            while path.len() <= len {
                let cur = *path.last().expect("non-empty");
                // A path is a handful of nodes: scanning it beats a set.
                let unseen = |n: &&NodeId| !path.contains(n);
                let candidates = self.neighbours(cur).iter().filter(unseen).count();
                if candidates == 0 {
                    // `choose` on an empty slice draws nothing either.
                    continue 'attempt;
                }
                let k = rng.gen_range(0..candidates as u64) as usize;
                let next = *self
                    .neighbours(cur)
                    .iter()
                    .filter(unseen)
                    .nth(k)
                    .expect("k is below the count");
                path.push(next);
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn pa_graph_shape() {
        let g = Graph::preferential_attachment(100, 2, &mut rng());
        assert_eq!(g.node_count(), 100);
        // Seed clique (3 edges) + 2 per newcomer (97 * 2).
        assert_eq!(g.edge_count(), 3 + 97 * 2);
        // Heavy tail: some node should have a large degree.
        let max_deg = (0..100).map(|n| g.degree(n)).max().unwrap();
        assert!(max_deg >= 8, "expected a hub, max degree {max_deg}");
    }

    #[test]
    fn add_edge_idempotent_and_no_self_loops() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn random_paths_are_simple() {
        let g = Graph::preferential_attachment(200, 3, &mut rng());
        let mut r = rng();
        for _ in 0..50 {
            let p = g.random_simple_path(4, &mut r).expect("dense enough");
            assert_eq!(p.len(), 5);
            let set: BTreeSet<_> = p.iter().collect();
            assert_eq!(set.len(), 5, "path must not revisit nodes");
            for w in p.windows(2) {
                assert!(g.neighbours(w[0]).contains(&w[1]));
            }
        }
    }

    #[test]
    fn buffered_walk_makes_the_same_draws() {
        let g = Graph::preferential_attachment(200, 3, &mut rng());
        // A second, sparse graph makes walks dead-end and restart.
        let sparse = Graph::preferential_attachment(40, 1, &mut rng());
        let mut buf = Vec::new();
        for (graph, len) in [(&g, 3usize), (&g, 16), (&sparse, 6), (&sparse, 30)] {
            let mut a = StdRng::seed_from_u64(7);
            let mut b = a.clone();
            for _ in 0..200 {
                let reference = graph.random_simple_path(len, &mut a);
                let found = graph.random_simple_path_into(len, &mut b, &mut buf);
                assert_eq!(reference.is_some(), found);
                if let Some(path) = reference {
                    assert_eq!(path, buf);
                }
                // Equal states: the next draw agrees.
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Graph::preferential_attachment(50, 2, &mut rng());
        let b = Graph::preferential_attachment(50, 2, &mut rng());
        assert_eq!(a.edge_count(), b.edge_count());
        for n in 0..50 {
            assert_eq!(a.neighbours(n), b.neighbours(n));
        }
    }
}
