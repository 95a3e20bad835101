//! Dinic's max-flow algorithm on adjacency-list networks.
//!
//! The convex min-cut baseline reduces each per-vertex wavefront problem to
//! an `s`–`t` min cut on a split-vertex network with unit and "infinite"
//! capacities; Dinic's `O(E·√V)` behaviour on unit-capacity networks keeps
//! the whole-graph sweep tractable.

/// Capacity value treated as infinite (never saturated in our networks:
/// every s–t path also crosses a unit arc).
pub const INF: u64 = u64::MAX / 4;

#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    cap: u64,
}

/// A flow network under construction / being solved.
///
/// Solving consumes residual capacities; [`FlowNetwork::reset`] restores
/// them, so one network can be re-solved after re-arming some arcs with
/// [`FlowNetwork::set_capacity`].
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Forward+backward edges with their residual capacities; edge `i^1`
    /// is the reverse of edge `i`.
    edges: Vec<Edge>,
    /// Adjacency: edge indices per node.
    adj: Vec<Vec<u32>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl FlowNetwork {
    /// Creates an empty network with `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            adj: vec![Vec::new(); nodes],
            level: vec![-1; nodes],
            iter: vec![0; nodes],
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap` (plus the
    /// implicit residual reverse edge of capacity 0) and returns its id.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> usize {
        assert!(
            from < self.nodes() && to < self.nodes(),
            "edge out of range"
        );
        let id = self.edges.len() as u32;
        self.edges.push(Edge { to: to as u32, cap });
        self.edges.push(Edge {
            to: from as u32,
            cap: 0,
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id as usize
    }

    /// Sets the capacity of edge `edge` (an id from
    /// [`FlowNetwork::add_edge`]). Call it on a network at rest — freshly
    /// built or [`reset`](FlowNetwork::reset) — not mid-solve.
    pub fn set_capacity(&mut self, edge: usize, cap: u64) {
        self.edges[edge].cap = cap;
        self.edges[edge ^ 1].cap = 0;
    }

    /// Undoes every flow pushed so far, restoring the capacities as built
    /// (or last set). Pushing flow only moves capacity between an edge and
    /// its reverse, so the pair's sum is always the edge's capacity.
    pub fn reset(&mut self) {
        for pair in self.edges.chunks_exact_mut(2) {
            pair[0].cap += pair[1].cap;
            pair[1].cap = 0;
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &eid in &self.adj[u] {
                let e = &self.edges[eid as usize];
                let v = e.to as usize;
                if e.cap > 0 && self.level[v] < 0 {
                    self.level[v] = self.level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: u64) -> u64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let eid = self.adj[u][self.iter[u]] as usize;
            let (to, cap) = {
                let e = &self.edges[eid];
                (e.to as usize, e.cap)
            };
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > 0 {
                    self.edges[eid].cap -= d;
                    self.edges[eid ^ 1].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Computes the maximum `s`–`t` flow (consumes residual capacities
    /// until the next [`FlowNetwork::reset`]).
    ///
    /// # Panics
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        self.max_flow_capped(s, t, u64::MAX)
    }

    /// [`FlowNetwork::max_flow`] that stops early after the first
    /// blocking-flow phase in which the accumulated flow reaches `cap`.
    ///
    /// The returned value is the flow found so far, which is always a
    /// **lower bound** on the true maximum flow (flow only accumulates),
    /// so min-cut-style lower bounds computed from it stay valid — they
    /// just may stop short of the tightest value. With `cap = u64::MAX`
    /// this is exactly `max_flow`. Phases are never abandoned midway, so
    /// the result is deterministic for a given network and cap.
    pub fn max_flow_capped(&mut self, s: usize, t: usize, cap: u64) -> u64 {
        assert!(s < self.nodes() && t < self.nodes() && s != t);
        let mut flow = 0u64;
        while flow < cap && self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, INF);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After [`FlowNetwork::max_flow`], the set of nodes reachable from `s`
    /// in the residual network — the `s`-side of a minimum cut.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.nodes()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &eid in &self.adj[u] {
                let e = &self.edges[eid as usize];
                let v = e.to as usize;
                if e.cap > 0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS-style: max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 3, 12);
        net.add_edge(2, 1, 4);
        net.add_edge(2, 4, 14);
        net.add_edge(3, 2, 9);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 3, 7);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn reset_and_rearm_resolve_the_same_network() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        let a = net.add_edge(1, 3, 0);
        let b = net.add_edge(2, 3, 0);
        assert_eq!(net.max_flow(0, 3), 0);
        net.reset();
        net.set_capacity(a, INF);
        assert_eq!(net.max_flow(0, 3), 1);
        net.reset();
        net.set_capacity(b, INF);
        assert_eq!(net.max_flow(0, 3), 2);
        net.reset();
        net.set_capacity(a, 0);
        assert_eq!(net.max_flow(0, 3), 1);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn bottleneck_limits_flow() {
        // Two sources of capacity feed one unit arc.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, INF);
        net.add_edge(0, 2, INF);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn capped_flow_lower_bounds_and_matches_when_loose() {
        // Wide network: many disjoint unit paths, so true max flow = 8.
        let build = || {
            let mut net = FlowNetwork::new(18);
            for i in 0..8 {
                net.add_edge(0, 1 + i, 1);
                net.add_edge(1 + i, 9 + i, 1);
                net.add_edge(9 + i, 17, 1);
            }
            net
        };
        assert_eq!(build().max_flow(0, 17), 8);
        // A loose cap changes nothing.
        assert_eq!(build().max_flow_capped(0, 17, 100), 8);
        // A tight cap stops early but never under-reports below the cap
        // while more flow is available (phases complete atomically).
        let capped = build().max_flow_capped(0, 17, 3);
        assert!((3..=8).contains(&capped), "capped={capped}");
        // Determinism: same network, same cap, same answer.
        assert_eq!(capped, build().max_flow_capped(0, 17, 3));
    }

    #[test]
    fn disconnected_means_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn min_cut_side_separates() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2);
        net.add_edge(1, 2, 1); // bottleneck
        net.add_edge(2, 3, 2);
        assert_eq!(net.max_flow(0, 3), 1);
        let side = net.min_cut_side(0);
        assert!(side[0] && side[1]);
        assert!(!side[2] && !side[3]);
    }

    #[test]
    fn vertex_split_unit_cut() {
        // Vertex-capacity modelling: v_in -> v_out cap 1; three disjoint
        // paths but all through one vertex => flow 1.
        let mut net = FlowNetwork::new(8);
        let (s, t) = (6, 7);
        let v_in = 0;
        let v_out = 1;
        net.add_edge(v_in, v_out, 1);
        for i in 0..3 {
            let a = 2 + i;
            net.add_edge(s, a, INF);
            net.add_edge(a, v_in, INF);
        }
        net.add_edge(v_out, 5, INF);
        net.add_edge(5, t, INF);
        assert_eq!(net.max_flow(s, t), 1);
    }
}
