//! Dinic maximum flow on integer capacities.
//!
//! The single-edge optimization of §2.2 reduces minimum-weight bipartite
//! vertex cover to a minimum s–t cut, which we obtain from a max flow. The
//! paper cites standard network-flow techniques [Ahuja–Magnanti–Orlin];
//! Dinic's algorithm is the usual choice and runs in `O(E·√V)` on the unit
//! networks that arise here.
//!
//! The optimizer solves one small flow problem per multicast edge —
//! thousands per plan build — so the network is built to be **reused**:
//! [`FlowNetwork::reset`] rewinds an instance to an empty `n`-vertex
//! network while keeping every internal allocation (arc pool, adjacency
//! lists, BFS/DFS scratch), and the traversal buffers live in the struct
//! so repeated solves allocate nothing in the steady state.

use std::collections::VecDeque;

/// Capacity value treated as unbounded. Large enough that no sum of real
/// capacities can reach it, small enough that additions cannot overflow.
pub const INF: u64 = u64::MAX / 4;

/// Work counters from the most recent [`FlowNetwork::max_flow`] run.
///
/// The graph crate stays dependency-free, so it does not talk to the
/// telemetry facade itself; callers that want Dinic effort attributed
/// (the plan optimizer) read these via [`FlowNetwork::last_flow_stats`]
/// and emit them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Number of BFS level-graph phases (outer Dinic iterations).
    pub bfs_phases: u64,
    /// Number of augmenting paths pushed across all phases.
    pub augmenting_paths: u64,
}

#[derive(Clone, Debug)]
struct Arc {
    to: usize,
    cap: u64,
    /// Index of the reverse arc in `arcs`.
    rev: usize,
}

/// A flow network under construction / after a max-flow run.
///
/// Reusable: [`FlowNetwork::reset`] clears the network for a new problem
/// without releasing buffers.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    arcs: Vec<Arc>,
    head: Vec<Vec<usize>>, // per-vertex arc indices
    /// Number of live vertices (`head[..n]` are valid). `head` itself only
    /// ever grows so its inner `Vec`s keep their capacity across resets.
    n: usize,
    // Traversal scratch, reused across max_flow/reachability calls.
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: VecDeque<usize>,
    /// Work counters from the most recent `max_flow` call.
    stats: FlowStats,
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no arcs.
    pub fn new(n: usize) -> Self {
        let mut net = FlowNetwork::default();
        net.reset(n);
        net
    }

    /// Rewinds to an empty network with `n` vertices, keeping all internal
    /// allocations for reuse.
    pub fn reset(&mut self, n: usize) {
        self.arcs.clear();
        let live = n.min(self.head.len());
        for adj in self.head.iter_mut().take(live) {
            adj.clear();
        }
        if self.head.len() < n {
            self.head.resize_with(n, Vec::new);
        }
        self.n = n;
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Adds a directed arc `from → to` with the given capacity and returns
    /// its handle (usable with [`FlowNetwork::flow_on`]).
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u64) -> usize {
        assert!(from < self.n && to < self.n, "arc endpoint out of range");
        let a = self.arcs.len();
        let b = a + 1;
        self.arcs.push(Arc { to, cap, rev: b });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            rev: a,
        });
        self.head[from].push(a);
        self.head[to].push(b);
        a
    }

    /// Flow currently routed through the arc returned by `add_arc`.
    pub fn flow_on(&self, arc: usize) -> u64 {
        // Flow pushed equals the residual capacity accumulated on the
        // reverse arc.
        self.arcs[self.arcs[arc].rev].cap
    }

    /// Fills `self.level` with BFS levels; true if `t` is reachable.
    fn bfs_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.clear();
        self.level.resize(self.n, -1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            for k in 0..self.head[u].len() {
                let ai = self.head[u][k];
                let (to, cap) = (self.arcs[ai].to, self.arcs[ai].cap);
                if cap > 0 && self.level[to] < 0 {
                    self.level[to] = self.level[u] + 1;
                    self.queue.push_back(to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs_push(
        &mut self,
        u: usize,
        t: usize,
        pushed: u64,
        level: &[i32],
        iter: &mut [usize],
    ) -> u64 {
        if u == t {
            return pushed;
        }
        while iter[u] < self.head[u].len() {
            let ai = self.head[u][iter[u]];
            let (to, cap) = {
                let arc = &self.arcs[ai];
                (arc.to, arc.cap)
            };
            if cap > 0 && level[to] == level[u] + 1 {
                let d = self.dfs_push(to, t, pushed.min(cap), level, iter);
                if d > 0 {
                    self.arcs[ai].cap -= d;
                    let rev = self.arcs[ai].rev;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Computes the maximum s→t flow, mutating residual capacities.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        self.stats = FlowStats::default();
        let mut total = 0u64;
        // The scratch vectors are moved out for the duration of the phase
        // so the recursive DFS can borrow `self` mutably alongside them.
        let mut level = std::mem::take(&mut self.level);
        let mut iter = std::mem::take(&mut self.iter);
        loop {
            self.level = level;
            if !self.bfs_levels(s, t) {
                level = std::mem::take(&mut self.level);
                break;
            }
            level = std::mem::take(&mut self.level);
            self.stats.bfs_phases += 1;
            iter.clear();
            iter.resize(self.n, 0);
            loop {
                let pushed = self.dfs_push(s, t, INF, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                self.stats.augmenting_paths += 1;
                total += pushed;
            }
        }
        self.level = level;
        self.iter = iter;
        total
    }

    /// Work counters from the most recent [`FlowNetwork::max_flow`] run
    /// (zeroes if `max_flow` has never been called).
    pub fn last_flow_stats(&self) -> FlowStats {
        self.stats
    }

    /// Vertices reachable from `s` in the residual graph, written into
    /// `seen` (resized to the vertex count). After
    /// [`FlowNetwork::max_flow`], this is the source side of the
    /// *canonical* (source-minimal) minimum cut — a deterministic choice
    /// among all minimum cuts, which is what makes the extracted vertex
    /// covers reproducible.
    pub fn residual_reachable_into(&mut self, s: usize, seen: &mut Vec<bool>) {
        seen.clear();
        seen.resize(self.n, false);
        self.queue.clear();
        seen[s] = true;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            for k in 0..self.head[u].len() {
                let ai = self.head[u][k];
                let (to, cap) = (self.arcs[ai].to, self.arcs[ai].cap);
                if cap > 0 && !seen[to] {
                    seen[to] = true;
                    self.queue.push_back(to);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow_on(a), 7);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two routes of capacity 2 and 3 sharing nothing.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(1, 3, 2);
        net.add_arc(0, 2, 3);
        net.add_arc(2, 3, 3);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn bottleneck_in_the_middle() {
        // s → a,b → c → t with middle capacity 1.
        let mut net = FlowNetwork::new(5);
        net.add_arc(0, 1, 10);
        net.add_arc(0, 2, 10);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        net.add_arc(3, 4, 1);
        assert_eq!(net.max_flow(0, 4), 1);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 4);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn residual_reachability_identifies_min_cut() {
        // s -5- a -1- b -5- t : cut is the middle arc.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 5);
        net.add_arc(1, 2, 1);
        net.add_arc(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 1);
        // Stale contents of another length are cleared and resized.
        let mut reach = vec![true; 7];
        net.residual_reachable_into(0, &mut reach);
        assert_eq!(reach, vec![true, true, false, false]);
    }

    #[test]
    fn cut_value_equals_flow_on_bipartite_like_network() {
        // Mirrors the structure used by the vertex-cover reduction.
        let mut net = FlowNetwork::new(6); // s=0, u1=1, u2=2, v1=3, v2=4, t=5
        net.add_arc(0, 1, 3);
        net.add_arc(0, 2, 4);
        net.add_arc(1, 3, INF);
        net.add_arc(1, 4, INF);
        net.add_arc(2, 4, INF);
        net.add_arc(3, 5, 2);
        net.add_arc(4, 5, 2);
        let f = net.max_flow(0, 5);
        // Optimal cover: v1 (2) + v2 (2) = 4 vs u1+u2 = 7 vs mixes.
        assert_eq!(f, 4);
        let mut reach = Vec::new();
        net.residual_reachable_into(0, &mut reach);
        // Cut arcs: those from reachable to unreachable; both v→t arcs.
        assert!(reach[1] && reach[2]);
        assert!(reach[3] && reach[4]);
        assert!(!reach[5]);
    }

    #[test]
    fn flow_stats_count_phases_and_paths() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(1, 3, 2);
        net.add_arc(0, 2, 3);
        net.add_arc(2, 3, 3);
        assert_eq!(net.max_flow(0, 3), 5);
        let stats = net.last_flow_stats();
        // Both disjoint routes saturate inside the first level graph; a
        // final BFS discovers the sink is no longer reachable.
        assert_eq!(stats.augmenting_paths, 2);
        assert_eq!(stats.bfs_phases, 1);
        // Stats are per-run: a saturated re-run resets them.
        assert_eq!(net.max_flow(0, 3), 0);
        assert_eq!(
            net.last_flow_stats(),
            FlowStats {
                bfs_phases: 0,
                augmenting_paths: 0
            }
        );
    }

    #[test]
    fn reset_reuses_buffers_and_solves_correctly() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(1, 3, 2);
        assert_eq!(net.max_flow(0, 3), 2);
        // Shrink: new, unrelated network on 3 vertices.
        net.reset(3);
        assert_eq!(net.vertex_count(), 3);
        net.add_arc(0, 1, 9);
        net.add_arc(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        // Grow again.
        net.reset(6);
        net.add_arc(0, 5, 11);
        assert_eq!(net.max_flow(0, 5), 11);
        assert_eq!(
            net.max_flow(0, 5),
            0,
            "capacities stay consumed until reset"
        );
    }
}
