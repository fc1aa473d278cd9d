//! Hopcroft–Karp maximum bipartite matching over capacitated boxes.
//!
//! On a Lemma-1 network every request needs one unit from one candidate box
//! and box `b` serves at most `⌊u_b·c⌋` requests, so the connection-matching
//! problem is a bipartite matching with box budgets. [`BitHopcroftKarp`]
//! runs Hopcroft–Karp on it directly — a box of budget `k` holds up to `k`
//! mates, so no elementary sub-box expansion is needed — with word-parallel
//! BFS layering over a [`BitAdjacency`], in `O(E·√V)` phases.
//!
//! [`HopcroftKarpSolve`] wraps the matcher as a [`MaxFlowSolve`]
//! implementation over Lemma-1-shaped [`FlowArena`] networks
//! (`source → boxes → requests → sink` with unit box→request and
//! request→sink edges), with no per-call graph rebuild.

use crate::arena::{FlowArena, NodeId};
use crate::bitset::{BipartiteShape, BitAdjacency, BitSet, NONE};
use crate::solver::MaxFlowSolve;
use vod_obs::{Stage, TraceHandle};

const INF: u32 = u32::MAX;

/// Word-parallel Hopcroft–Karp over capacitated boxes.
///
/// Left vertices are requests (rows of a [`BitAdjacency`]), right vertices
/// are boxes (columns) with integer budgets, matched *directly*: a box of
/// budget `k` simply holds up to `k` mates, tracked in an intrusive
/// doubly-linked list, so the elementary sub-box expansion (and its per-call
/// edge duplication) disappears. The BFS layering scans each frontier
/// request's candidate row against the unvisited-box mask 64 boxes at a
/// time; the DFS probes `row & free_boxes` for an immediate augmentation
/// before walking mate lists. All state is pooled — repeated solves allocate
/// nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct BitHopcroftKarp {
    /// BFS layer per request (`u32::MAX` unreached).
    dist: Vec<u32>,
    /// Mates currently assigned per box.
    load: Vec<u32>,
    /// First mate of each box (request index, `u32::MAX` terminates).
    head: Vec<u32>,
    /// Intrusive mate-list links per request.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Boxes with spare budget.
    free_boxes: BitSet,
    /// Boxes reached by the current BFS.
    visited: BitSet,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    layer_boxes: Vec<u32>,
}

impl BitHopcroftKarp {
    /// Creates a matcher (all storage is grown lazily and pooled).
    pub fn new() -> Self {
        BitHopcroftKarp::default()
    }

    /// Computes a maximum matching of requests (rows of `adj`) onto boxes
    /// (columns) where box `b` accepts up to `caps[b]` requests.
    ///
    /// `match_of` maps each request to its box (`u32::MAX` = free) and is
    /// both the seed and the result: pre-matched pairs warm-start the
    /// search (they must be edges of `adj` and respect `caps`), and on
    /// return the slice holds the maximum matching. Returns the matching
    /// size.
    pub fn solve(&mut self, adj: &BitAdjacency, caps: &[u32], match_of: &mut [u32]) -> usize {
        self.solve_traced(adj, caps, match_of, &TraceHandle::off())
    }

    /// [`BitHopcroftKarp::solve`] with per-phase tracing: each BFS+DFS
    /// phase emits one [`Stage::HkPhase`] span whose payload is the number
    /// of augmenting paths the phase harvested (0 for the final BFS that
    /// proves maximality). An off handle makes this identical to `solve`.
    pub fn solve_traced(
        &mut self,
        adj: &BitAdjacency,
        caps: &[u32],
        match_of: &mut [u32],
        tracer: &TraceHandle,
    ) -> usize {
        let rows = adj.rows();
        let cols = adj.cols();
        assert_eq!(caps.len(), cols, "one budget per box");
        assert_eq!(match_of.len(), rows, "one slot per request");
        self.load.clear();
        self.load.resize(cols, 0);
        self.head.clear();
        self.head.resize(cols, NONE);
        self.next.clear();
        self.next.resize(rows, NONE);
        self.prev.clear();
        self.prev.resize(rows, NONE);
        self.dist.clear();
        self.dist.resize(rows, INF);

        let mut size = 0usize;
        for (x, &m) in match_of.iter().enumerate() {
            if m != NONE {
                let b = m as usize;
                debug_assert!(adj.contains(x, b), "seeded pair is not an edge");
                self.load[b] += 1;
                debug_assert!(self.load[b] <= caps[b], "seed exceeds box budget");
                let h = self.head[b];
                self.next[x] = h;
                if h != NONE {
                    self.prev[h as usize] = x as u32;
                }
                self.head[b] = x as u32;
                size += 1;
            }
        }
        self.free_boxes.reset(cols);
        for (b, (&load, &cap)) in self.load.iter().zip(caps).enumerate() {
            if load < cap {
                self.free_boxes.set(b);
            }
        }

        loop {
            let clock = tracer.begin();
            if !self.bfs(adj, caps, match_of) {
                tracer.end(clock, Stage::HkPhase, 0);
                break;
            }
            let mut augmented = 0u64;
            for x in 0..rows {
                if match_of[x] == NONE && self.try_augment(adj, caps, match_of, x) {
                    size += 1;
                    augmented += 1;
                }
            }
            tracer.end(clock, Stage::HkPhase, augmented);
            debug_assert!(augmented > 0, "BFS found a layer but DFS augmented nothing");
            if augmented == 0 {
                break;
            }
        }
        size
    }

    /// Layered BFS from the free requests; returns `true` when some free
    /// request reaches a box with spare budget (an augmenting path exists).
    fn bfs(&mut self, adj: &BitAdjacency, caps: &[u32], match_of: &[u32]) -> bool {
        self.dist.fill(INF);
        self.frontier.clear();
        for (x, &m) in match_of.iter().enumerate() {
            if m == NONE {
                self.dist[x] = 0;
                self.frontier.push(x as u32);
            }
        }
        self.visited.reset(adj.cols());
        let mut d = 0u32;
        while !self.frontier.is_empty() {
            self.layer_boxes.clear();
            // Scan the whole layer before deciding: stopping at the first
            // free box would truncate the layering mid-layer and leave the
            // DFS phase fewer vertex-disjoint paths to harvest (more phases
            // overall). A free box never joins `layer_boxes` — paths end
            // there, so its mates need no labels.
            let mut found_free = false;
            for i in 0..self.frontier.len() {
                let x = self.frontier[i] as usize;
                let row = adj.row(x);
                for (wi, &word) in row.iter().enumerate() {
                    let fresh = word & !self.visited.words()[wi];
                    if fresh == 0 {
                        continue;
                    }
                    self.visited.or_word(wi, fresh);
                    let mut bits = fresh;
                    while bits != 0 {
                        let b = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if self.load[b] < caps[b] {
                            found_free = true;
                        } else {
                            self.layer_boxes.push(b as u32);
                        }
                    }
                }
            }
            if found_free {
                return true;
            }
            self.next_frontier.clear();
            for i in 0..self.layer_boxes.len() {
                let b = self.layer_boxes[i] as usize;
                let mut x2 = self.head[b];
                while x2 != NONE {
                    if self.dist[x2 as usize] == INF {
                        self.dist[x2 as usize] = d + 1;
                        self.next_frontier.push(x2);
                    }
                    x2 = self.next[x2 as usize];
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            d += 1;
        }
        false
    }

    /// DFS for one augmenting path from request `x`: first probe
    /// `row & free_boxes` word-parallel, then displace mates one BFS layer
    /// down.
    fn try_augment(
        &mut self,
        adj: &BitAdjacency,
        caps: &[u32],
        match_of: &mut [u32],
        x: usize,
    ) -> bool {
        let row = adj.row(x);
        for (wi, &word) in row.iter().enumerate() {
            let w = word & self.free_boxes.words()[wi];
            if w != 0 {
                let b = wi * 64 + w.trailing_zeros() as usize;
                self.attach(caps, match_of, x, b);
                return true;
            }
        }
        let dx = self.dist[x];
        if dx == INF {
            return false;
        }
        for (wi, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut x2 = self.head[b];
                while x2 != NONE {
                    // The recursion relinks x2 on success, so save the next
                    // mate first; a successful call returns immediately, so
                    // the saved link can never go stale.
                    let nxt = self.next[x2 as usize];
                    if self.dist[x2 as usize] == dx + 1
                        && self.try_augment(adj, caps, match_of, x2 as usize)
                    {
                        self.attach(caps, match_of, x, b);
                        return true;
                    }
                    x2 = nxt;
                }
            }
        }
        self.dist[x] = INF;
        false
    }

    /// Assigns `x` to box `b`, unlinking `x` from its previous box first.
    fn attach(&mut self, caps: &[u32], match_of: &mut [u32], x: usize, b: usize) {
        let old = match_of[x];
        if old != NONE {
            self.detach(caps, x, old as usize);
        }
        match_of[x] = b as u32;
        self.load[b] += 1;
        debug_assert!(self.load[b] <= caps[b], "box over budget");
        if self.load[b] == caps[b] {
            self.free_boxes.unset(b);
        }
        let h = self.head[b];
        self.next[x] = h;
        self.prev[x] = NONE;
        if h != NONE {
            self.prev[h as usize] = x as u32;
        }
        self.head[b] = x as u32;
    }

    /// Unlinks `x` from box `b`'s mate list.
    fn detach(&mut self, caps: &[u32], x: usize, b: usize) {
        let p = self.prev[x];
        let n = self.next[x];
        if p != NONE {
            self.next[p as usize] = n;
        } else {
            self.head[b] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        self.load[b] -= 1;
        if self.load[b] < caps[b] {
            self.free_boxes.set(b);
        }
    }
}

/// A [`MaxFlowSolve`] adapter running Hopcroft–Karp on Lemma-1-shaped
/// networks.
///
/// The arena must have the connection-matching layout produced by
/// [`crate::matching::ConnectionProblem::build_arena`]: every successor of
/// `source` is a *box* whose source-edge capacity is its stripe budget, every
/// predecessor of `sink` is a *request* with a unit sink edge, and every
/// box→request edge has unit capacity. The adapter seeds the matcher with
/// whatever flow the arena already carries, runs Hopcroft–Karp, and writes
/// the resulting flow back into the arena so extraction and obstruction code
/// behave exactly as with the flow solvers.
///
/// The backend is the word-parallel capacitated [`BitHopcroftKarp`]: the
/// Lemma-1 shape analysis (cached on
/// [`FlowArena::version`]) builds the bit rows, boxes keep their budgets,
/// and repeated solves allocate nothing in steady state.
///
/// # Panics
/// [`MaxFlowSolve::max_flow`] panics if the arena is not Lemma-1 shaped.
#[derive(Clone, Debug, Default)]
pub struct HopcroftKarpSolve {
    shape: BipartiteShape,
    core: BitHopcroftKarp,
    /// Per box column: budget (source-edge original capacity).
    caps: Vec<u32>,
    /// Per request row: matched box column (`u32::MAX` free).
    match_of: Vec<u32>,
    /// Matching seeded from the arena's flow, kept to write back only the
    /// per-row deltas the solve produced.
    seed: Vec<u32>,
    /// Span sink for shape analyses and matching phases (off by default).
    tracer: TraceHandle,
}

impl HopcroftKarpSolve {
    /// Creates the adapter with the word-parallel [`BitHopcroftKarp`]
    /// backend.
    pub fn new() -> Self {
        HopcroftKarpSolve::default()
    }
}

impl MaxFlowSolve for HopcroftKarpSolve {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        assert_ne!(source, sink, "source and sink must differ");
        // Shape analysis, cached on the arena version.
        if self.shape.version != arena.version()
            || self.shape.source != source
            || self.shape.sink != sink
        {
            let clock = self.tracer.begin();
            let ok = self.shape.analyze(arena, source, sink);
            assert!(ok, "arena is not Lemma-1 shaped");
            // A request whose sink edge is de-capacitated (logically removed)
            // must never be matched: drop its candidate bits. The analysis
            // is cached, so this stays consistent until the structure
            // changes.
            for row in 0..self.shape.requests.len() {
                let se = self.shape.sink_edge[row];
                if se == NONE || arena.edge(se as usize).original_cap == 0 {
                    self.shape.adj.clear_row(row);
                }
            }
            self.tracer.end(
                clock,
                Stage::SolverAnalyze,
                self.shape.requests.len() as u64,
            );
        }
        assert!(self.shape.valid, "arena is not Lemma-1 shaped");

        let cols = self.shape.boxes.len();
        let rows = self.shape.requests.len();
        self.caps.clear();
        for col in 0..cols {
            let e = self.shape.source_edge[col];
            let cap = if e == NONE {
                0
            } else {
                arena.edge(e as usize).original_cap
            };
            self.caps
                .push(u32::try_from(cap).expect("box budget fits in u32"));
        }
        self.match_of.clear();
        self.match_of.resize(rows, NONE);
        let mut initial = 0usize;
        for row in 0..rows {
            let col = self.shape.matched_col(arena, row);
            if col != NONE {
                self.match_of[row] = col;
                initial += 1;
            }
        }

        self.seed.clear();
        self.seed.extend_from_slice(&self.match_of);

        let size = self.core.solve_traced(
            &self.shape.adj,
            &self.caps,
            &mut self.match_of,
            &self.tracer,
        );

        // Write back only the rows the solve changed. The arena's flow is a
        // conserved unit flow, so before the solve it encodes exactly the
        // seeded matching; augmentation only rematches or newly matches a
        // request, never frees one.
        let cand_edge = |shape: &BipartiteShape, row: usize, col: u32| -> usize {
            shape
                .cands(row)
                .find(|&(c, _)| c == col)
                .map(|(_, e)| e as usize)
                .expect("matched pair must come from a candidate edge")
        };
        for row in 0..rows {
            let old = self.seed[row];
            let new = self.match_of[row];
            if old == new {
                continue;
            }
            debug_assert_ne!(new, NONE, "a solve never unmatches a request");
            if old != NONE {
                arena.push(cand_edge(&self.shape, row, old), -1);
                arena.push(self.shape.source_edge[old as usize] as usize, -1);
            } else {
                arena.push(self.shape.sink_edge[row] as usize, 1);
            }
            arena.push(cand_edge(&self.shape, row, new), 1);
            arena.push(self.shape.source_edge[new as usize] as usize, 1);
        }

        size as i64 - initial as i64
    }

    fn name(&self) -> &'static str {
        "hopcroft-karp"
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.tracer = tracer.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-budget matching: every box serves at most one request.
    fn unit_matching(rows: usize, cols: usize, edges: &[(usize, usize)]) -> (usize, Vec<u32>) {
        let adj = bit_adj(rows, cols, edges);
        let mut m = vec![NONE; rows];
        let size = BitHopcroftKarp::new().solve(&adj, &vec![1; cols], &mut m);
        (size, m)
    }

    #[test]
    fn perfect_matching_on_identity() {
        let edges: Vec<(usize, usize)> = (0..4).map(|i| (i, i)).collect();
        let (size, pairs) = unit_matching(4, 4, &edges);
        assert_eq!(size, 4);
        assert_eq!(pairs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unmatchable_vertices_stay_unmatched() {
        let (size, pairs) = unit_matching(3, 2, &[(0, 0), (1, 0), (2, 1)]);
        assert_eq!(size, 2);
        assert_eq!(pairs.iter().filter(|&&p| p == NONE).count(), 1);
    }

    #[test]
    fn augmenting_path_is_found() {
        // Greedy matching could match 0-0 and block 1; HK must find size 2.
        let (size, pairs) = unit_matching(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(size, 2);
        assert_eq!(pairs, vec![1, 0]);
    }

    #[test]
    fn empty_graph_has_empty_matching() {
        let (size, pairs) = unit_matching(3, 3, &[]);
        assert_eq!(size, 0);
        assert!(pairs.iter().all(|&p| p == NONE));
    }

    #[test]
    fn matching_is_a_valid_injection() {
        // Dense instance; check no box is used twice.
        let mut edges = Vec::new();
        for l in 0..6 {
            for r in 0..5 {
                if (l + r) % 2 == 0 || l == r {
                    edges.push((l, r));
                }
            }
        }
        let (size, pairs) = unit_matching(6, 5, &edges);
        let mut used = [false; 5];
        let mut count = 0;
        for &p in pairs.iter().filter(|&&p| p != NONE) {
            assert!(!used[p as usize], "box matched twice");
            used[p as usize] = true;
            count += 1;
        }
        assert_eq!(count, size);
        assert_eq!(size, 5);
    }

    fn bit_adj(rows: usize, cols: usize, edges: &[(usize, usize)]) -> BitAdjacency {
        let mut adj = BitAdjacency::new();
        adj.reset(rows, cols);
        for &(r, c) in edges {
            adj.set(r, c);
        }
        adj
    }

    #[test]
    fn bit_matcher_finds_augmenting_path() {
        // Greedy could match 0→0 and strand 1; the matcher must reach 2.
        let adj = bit_adj(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut m = vec![u32::MAX; 2];
        let size = BitHopcroftKarp::new().solve(&adj, &[1, 1], &mut m);
        assert_eq!(size, 2);
        assert_eq!(m, vec![1, 0]);
    }

    #[test]
    fn bit_matcher_respects_capacities() {
        // One box of budget 2 plus one of budget 1, four requests.
        let adj = bit_adj(4, 2, &[(0, 0), (1, 0), (2, 0), (3, 1), (2, 1)]);
        let mut m = vec![u32::MAX; 4];
        let size = BitHopcroftKarp::new().solve(&adj, &[2, 1], &mut m);
        assert_eq!(size, 3);
        let mut load = [0u32; 2];
        for &b in &m {
            if b != u32::MAX {
                load[b as usize] += 1;
            }
        }
        assert!(load[0] <= 2 && load[1] <= 1);
    }

    #[test]
    fn bit_matcher_displaces_across_capacitated_boxes() {
        // Box 0 (budget 1) serves requests 0 and 1; request 1 can also use
        // box 1. Seeding 1→box0 forces a displacement to serve request 0.
        let adj = bit_adj(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let mut m = vec![u32::MAX, 0];
        let size = BitHopcroftKarp::new().solve(&adj, &[1, 1], &mut m);
        assert_eq!(size, 2);
        assert_eq!(m, vec![0, 1]);
    }

    #[test]
    fn bit_matcher_spans_multiple_words() {
        // 130 boxes so rows span three words; request i only likes box
        // 129 - i, forcing high-word scans.
        let edges: Vec<(usize, usize)> = (0..130).map(|i| (i, 129 - i)).collect();
        let adj = bit_adj(130, 130, &edges);
        let mut m = vec![u32::MAX; 130];
        let caps = vec![1u32; 130];
        let size = BitHopcroftKarp::new().solve(&adj, &caps, &mut m);
        assert_eq!(size, 130);
        for (i, &b) in m.iter().enumerate() {
            assert_eq!(b as usize, 129 - i);
        }
    }

    #[test]
    fn bit_matcher_seed_counts_toward_size() {
        let adj = bit_adj(2, 1, &[(0, 0), (1, 0)]);
        let mut m = vec![0, u32::MAX];
        let size = BitHopcroftKarp::new().solve(&adj, &[1], &mut m);
        assert_eq!(size, 1);
        assert_eq!(m, vec![0, u32::MAX]);
    }

    /// Lemma-1 arena: 2 boxes (budgets 2 and 1), 4 requests.
    fn lemma1_arena() -> (FlowArena, usize, usize) {
        let mut a = FlowArena::new();
        a.clear(8);
        let source = 0;
        let sink = 7;
        a.add_edge(source, 1, 2);
        a.add_edge(source, 2, 1);
        for (b, r) in [(1, 3), (1, 4), (2, 4), (1, 5), (2, 6)] {
            a.add_edge(b, r, 1);
        }
        for r in 3..=6 {
            a.add_edge(r, sink, 1);
        }
        (a, source, sink)
    }

    #[test]
    fn adapter_agrees_with_dinic() {
        let (mut a, s, t) = lemma1_arena();
        let (mut b, _, _) = lemma1_arena();
        let fa = HopcroftKarpSolve::new().max_flow(&mut a, s, t);
        let fb = crate::Dinic::new().max_flow(&mut b, s, t);
        assert_eq!(fa, fb);
        assert_eq!(fa, 3);
        // The adapter leaves a valid flow behind: conservation at inner
        // nodes.
        for v in 1..=6 {
            assert_eq!(a.net_outflow(v), 0, "node {v}");
        }
    }

    #[test]
    fn bit_adapter_warm_start_returns_delta() {
        let (mut a, s, t) = lemma1_arena();
        let mut solver = HopcroftKarpSolve::new();
        let first = solver.max_flow(&mut a, s, t);
        assert_eq!(first, 3);
        // Re-solving the solved arena adds nothing.
        assert_eq!(solver.max_flow(&mut a, s, t), 0);
        assert_eq!(a.net_outflow(s), 3);
    }

    #[test]
    fn adapter_names_distinguish_backends() {
        assert_eq!(HopcroftKarpSolve::new().name(), "hopcroft-karp");
        assert_ne!(HopcroftKarpSolve::new().name(), crate::Dinic::new().name());
        assert_ne!(
            HopcroftKarpSolve::new().name(),
            crate::PushRelabel::new().name()
        );
    }
}
