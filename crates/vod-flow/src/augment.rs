//! Targeted augmenting-path search on a warm-started Lemma-1 network.
//!
//! A warm start (last round's flow patched for this round's deltas, or a
//! shard phase's assignment adopted into a global network) leaves a valid
//! flow that may not be maximal. Only an unserved request can end an
//! augmenting path, so [`TargetedAugment`] restores maximality one request at
//! a time: it searches a residual path `source → … → request` backwards from
//! the request node and pushes one unit along it plus the request's sink
//! edge.
//!
//! The search assumes the layout every Lemma-1 network in this crate shares:
//! the source is node 0, box `b` is node `1 + b` with source edge
//! `source_edges[b]` (so boxes occupy `1..=B`), and every other node — the
//! requests and the sink — comes after. A request's residual in-neighbours
//! are the candidate boxes it does not use; a full box's are the requests it
//! serves. Two rules keep the search cheap when rows run to hundreds of
//! candidates over saturated boxes:
//!
//! * **One-hop spare-box lookahead.** Whenever the search enters a request
//!   node (the root, or a holder displaced from a full box), it first scans
//!   that request's residual in-neighbours for a box whose source edge still
//!   has residual capacity, and completes the path at once when one exists.
//!   Only otherwise does it descend into full boxes, each of which lists
//!   every request it serves.
//! * **Persistent failure marks.** Visit marks survive *failed* searches: a
//!   failure leaves the residual graph unchanged, so a node proven unable to
//!   reach the source stays unreachable. A success changes the residual
//!   graph and opens a new epoch, which forgets every mark.
//!
//! The lookahead only reorders the search. It stays a complete depth-first
//! reachability search, so a failed call proves that no augmenting path ends
//! at the request.

use crate::arena::{FlowArena, NodeId};

/// Reusable targeted-augmentation kernel: visit marks, epoch, DFS stack and
/// path buffer, kept allocation-free once grown.
///
/// ```
/// use vod_flow::{FlowArena, TargetedAugment};
///
/// // Source 0, boxes 1..=2, sink 3, one request at node 4 that may use
/// // either box.
/// let mut arena = FlowArena::new();
/// arena.clear(5);
/// let source_edges = [arena.add_edge(0, 1, 1), arena.add_edge(0, 2, 1)];
/// arena.add_edge(1, 4, 1);
/// arena.add_edge(2, 4, 1);
/// let sink_edge = arena.add_edge(4, 3, 1);
///
/// let mut search = TargetedAugment::new();
/// search.begin(&arena);
/// assert!(search.augment(&mut arena, &source_edges, 3, 4, sink_edge));
/// assert_eq!(arena.net_outflow(0), 1);
/// // Source edge plus candidate edge: the spare box was taken in one hop.
/// assert_eq!(search.path().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TargetedAugment {
    /// Epoch of the last mark per node.
    visit: Vec<u64>,
    epoch: u64,
    /// `(node, adjacency cursor)` per level of the current path.
    stack: Vec<(NodeId, Option<usize>)>,
    /// Residual edges of the current path, root-ward first (`path[0]` enters
    /// the root); after a success it ends with the source edge.
    path: Vec<usize>,
}

impl TargetedAugment {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        TargetedAugment::default()
    }

    /// Starts a batch of searches over `arena`: sizes the marks for its
    /// nodes and opens a new epoch, so marks from earlier batches never
    /// collide with this one.
    pub fn begin(&mut self, arena: &FlowArena) {
        self.visit.resize(arena.node_count(), 0);
        self.epoch += 1;
    }

    /// Searches a residual path `source → … → root` and, when one exists,
    /// pushes one unit along it and along `sink_edge` (the root's edge into
    /// `sink`, which the search never enters). Returns whether it augmented.
    ///
    /// `source_edges[b]` is the source edge of box node `1 + b`. A failure
    /// marks every node it proved unable to reach the source, and later
    /// searches of the same epoch skip them; a success opens a new epoch.
    ///
    /// # Panics
    /// Panics if `root` is not a node of the arena passed to the last
    /// [`TargetedAugment::begin`].
    pub fn augment(
        &mut self,
        arena: &mut FlowArena,
        source_edges: &[usize],
        sink: NodeId,
        root: NodeId,
        sink_edge: usize,
    ) -> bool {
        if self.visit[root] == self.epoch {
            return false; // proven unreachable earlier this epoch
        }
        self.visit[root] = self.epoch;
        self.stack.clear();
        self.path.clear();
        let boxes = source_edges.len();
        if self.spare_box_into(arena, source_edges, root) {
            return self.commit(arena, sink_edge);
        }
        self.stack.push((root, arena.first_edge(root)));

        while let Some(&(_node, cursor)) = self.stack.last() {
            // Incoming residual edges of `node` are the twins of the edges in
            // its adjacency list.
            let mut cursor = cursor;
            let mut descended = false;
            while let Some(idx) = cursor {
                let next_cursor = arena.next_edge(idx);
                let incoming = idx ^ 1;
                let from = arena.target(idx);
                if from != sink && self.visit[from] != self.epoch && arena.residual(incoming) > 0 {
                    self.path.push(incoming);
                    if from == 0 {
                        return self.commit(arena, sink_edge);
                    }
                    self.visit[from] = self.epoch;
                    if from > boxes && self.spare_box_into(arena, source_edges, from) {
                        return self.commit(arena, sink_edge);
                    }
                    // Remember where to resume on `node`, descend to `from`.
                    let top = self.stack.len() - 1;
                    self.stack[top].1 = next_cursor;
                    self.stack.push((from, arena.first_edge(from)));
                    descended = true;
                    break;
                }
                cursor = next_cursor;
            }
            if !descended {
                self.stack.pop();
                self.path.pop();
            }
        }
        false
    }

    /// The lookahead: finds a box with spare source capacity among the
    /// residual in-neighbours of request `node` and, when there is one,
    /// appends its two edges to the path.
    fn spare_box_into(&mut self, arena: &FlowArena, source_edges: &[usize], node: NodeId) -> bool {
        let mut cursor = arena.first_edge(node);
        while let Some(idx) = cursor {
            let from = arena.target(idx);
            // A box on the current path was entered only because it was
            // full, and a search pushes nothing, so it never matches here.
            if (1..=source_edges.len()).contains(&from)
                && arena.residual(idx ^ 1) > 0
                && arena.residual(source_edges[from - 1]) > 0
            {
                self.path.push(idx ^ 1);
                self.path.push(source_edges[from - 1]);
                return true;
            }
            cursor = arena.next_edge(idx);
        }
        false
    }

    /// Pushes one unit along the completed path and the sink edge, then
    /// opens a new epoch (the residual graph changed).
    fn commit(&mut self, arena: &mut FlowArena, sink_edge: usize) -> bool {
        for &e in &self.path {
            arena.push(e, 1);
        }
        arena.push(sink_edge, 1);
        self.epoch += 1;
        true
    }

    /// Residual edges of the last completed path, from the edge entering the
    /// root to the source edge.
    pub fn path(&self) -> &[usize] {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dinic, MaxFlowSolve};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A Lemma-1 network in the shared layout: source 0, boxes `1..=B`,
    /// sink `B + 1`, requests after.
    struct Net {
        arena: FlowArena,
        source_edges: Vec<usize>,
        sink: NodeId,
        requests: Vec<Request>,
    }

    struct Request {
        node: NodeId,
        sink_edge: usize,
        /// `(box, candidate edge)` in creation order.
        edges: Vec<(usize, usize)>,
    }

    impl Net {
        fn new(caps: &[i64]) -> Net {
            let mut arena = FlowArena::new();
            arena.clear(caps.len() + 2);
            let source_edges = caps
                .iter()
                .enumerate()
                .map(|(b, &cap)| arena.add_edge(0, 1 + b, cap))
                .collect();
            Net {
                arena,
                source_edges,
                sink: caps.len() + 1,
                requests: Vec::new(),
            }
        }

        /// Adds a request over `cands` (edges created in that order, so the
        /// adjacency walk meets the last candidate first). Returns its index.
        fn request(&mut self, cands: &[usize]) -> usize {
            let node = self.arena.add_node();
            let edges = cands
                .iter()
                .map(|&b| (b, self.arena.add_edge(1 + b, node, 1)))
                .collect();
            let sink_edge = self.arena.add_edge(node, self.sink, 1);
            self.requests.push(Request {
                node,
                sink_edge,
                edges,
            });
            self.requests.len() - 1
        }

        /// Routes request `r` through box `b` directly.
        fn serve(&mut self, r: usize, b: usize) {
            let request = &self.requests[r];
            let edge = request.edges.iter().find(|&&(bx, _)| bx == b).unwrap().1;
            self.arena.push(self.source_edges[b], 1);
            self.arena.push(edge, 1);
            self.arena.push(request.sink_edge, 1);
        }

        fn augment(&mut self, search: &mut TargetedAugment, r: usize) -> bool {
            let request = &self.requests[r];
            search.augment(
                &mut self.arena,
                &self.source_edges,
                self.sink,
                request.node,
                request.sink_edge,
            )
        }

        fn box_of(&self, r: usize) -> Option<usize> {
            self.requests[r]
                .edges
                .iter()
                .find(|&&(_, e)| self.arena.flow_on(e) == 1)
                .map(|&(b, _)| b)
        }
    }

    #[test]
    fn root_lookahead_takes_a_spare_box_in_one_hop() {
        // The root meets full box 0 first, whose holder could move to spare
        // box 2: a plain depth-first search would reroute the holder. The
        // lookahead takes spare box 1 instead.
        let mut net = Net::new(&[1, 1, 1]);
        let holder = net.request(&[2, 0]);
        net.serve(holder, 0);
        let root = net.request(&[1, 0]);
        let mut search = TargetedAugment::new();
        search.begin(&net.arena);
        assert!(net.augment(&mut search, root));
        let spare_edge = net.requests[root].edges[0].1;
        assert_eq!(search.path(), &[spare_edge, net.source_edges[1]]);
        assert_eq!(net.box_of(root), Some(1));
        assert_eq!(net.box_of(holder), Some(0));
        assert_eq!(net.arena.net_outflow(0), 2);
    }

    #[test]
    fn inner_lookahead_completes_through_a_displaced_holder() {
        // The only augmenting paths run root → box 0 (full) → holder. The
        // holder meets full box 2 first, whose own holder could move to
        // spare box 3; the lookahead at the holder takes spare box 1.
        let mut net = Net::new(&[1, 1, 1, 1]);
        let far = net.request(&[3, 2]);
        net.serve(far, 2);
        let holder = net.request(&[1, 2, 0]);
        net.serve(holder, 0);
        let root = net.request(&[0]);
        let mut search = TargetedAugment::new();
        search.begin(&net.arena);
        assert!(net.augment(&mut search, root));
        // Box → root, holder → box (twin), box → holder, source → box.
        assert_eq!(search.path().len(), 4);
        assert_eq!(search.path()[3], net.source_edges[1]);
        assert_eq!(net.box_of(root), Some(0));
        assert_eq!(net.box_of(holder), Some(1));
        assert_eq!(net.box_of(far), Some(2));
        assert_eq!(net.arena.net_outflow(0), 3);
    }

    #[test]
    fn failed_searches_keep_marks_and_a_success_refreshes_them() {
        // The root wants only box 0, whose holder could move to box 1 if
        // box 1 had capacity. Box 2 is spare for a third request.
        let mut net = Net::new(&[1, 0, 1]);
        let holder = net.request(&[1, 0]);
        net.serve(holder, 0);
        let root = net.request(&[0]);
        let lucky = net.request(&[2]);
        let mut search = TargetedAugment::new();
        search.begin(&net.arena);
        assert!(!net.augment(&mut search, root));

        // Box 1 gains a slot, but within the epoch the failure's marks
        // stand: the root is not searched again.
        net.arena.set_capacity(net.source_edges[1], 1);
        assert!(!net.augment(&mut search, root));

        // A success opens a new epoch, and the root's path is found.
        assert!(net.augment(&mut search, lucky));
        assert!(net.augment(&mut search, root));
        assert_eq!(net.box_of(root), Some(0));
        assert_eq!(net.box_of(holder), Some(1));
        assert_eq!(net.arena.net_outflow(0), 3);
    }

    #[test]
    fn completed_paths_conserve_flow_and_reach_the_maximum() {
        let mut rng = StdRng::seed_from_u64(0x05ee_da06);
        for case in 0..200 {
            let boxes = rng.gen_range(1..8usize);
            let caps: Vec<i64> = (0..boxes).map(|_| rng.gen_range(0..4i64)).collect();
            let mut net = Net::new(&caps);
            for _ in 0..rng.gen_range(0..20usize) {
                let mut cands: Vec<usize> = (0..boxes).filter(|_| rng.gen_bool(0.4)).collect();
                cands.sort_unstable();
                net.request(&cands);
            }
            let mut search = TargetedAugment::new();
            search.begin(&net.arena);
            let mut flow = 0;
            for r in 0..net.requests.len() {
                if net.augment(&mut search, r) {
                    flow += 1;
                    assert_eq!(net.arena.net_outflow(0), flow, "case {case}");
                    assert_eq!(net.arena.net_outflow(net.sink), -flow, "case {case}");
                    let request = &net.requests[r];
                    assert_eq!(net.arena.flow_on(request.sink_edge), 1, "case {case}");
                    assert_eq!(net.arena.net_outflow(request.node), 0, "case {case}");
                }
                for (b, &cap) in caps.iter().enumerate() {
                    let load = net.arena.flow_on(net.source_edges[b]);
                    assert!((0..=cap).contains(&load), "case {case}: box {b}");
                }
            }
            // One pass over every request leaves no augmenting path.
            let mut residual = net.arena.clone();
            let extra = Dinic::new().max_flow(&mut residual, 0, net.sink);
            assert_eq!(extra, 0, "case {case}: flow {flow} is not maximum");
        }
    }
}
