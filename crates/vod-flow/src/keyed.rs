//! A persistent Lemma-1 flow network patched by request key.
//!
//! Consecutive rounds solve nearly identical matching instances, so
//! [`KeyedFlow`] keeps one network (and its flow) alive across rounds and
//! diffs each round against it by a stable request key. Surviving requests
//! keep their node, edges **and assigned flow**; departed ones release their
//! flow and sink edge; new ones get (or recycle) a node. A changed candidate
//! row is sorted and diffed against the request's edge list, reviving or
//! de-capacitating edges in place, while an unchanged row — proven by its
//! producer change stamp or an equal raw row — skips the sort. A shrunken
//! box capacity evicts excess assignments first.
//!
//! The patched flow is valid but possibly not maximal: the owner restores
//! maximality with [`KeyedFlow::augment_unserved`] ([`TargetedAugment`]) or
//! a warm-started solver ([`KeyedFlow::solve`]), and keeps its own policy on
//! when to compact ([`KeyedFlow::can_patch`]). Two owners share it: the
//! incremental matcher (global scheduling and every per-shard solve), keyed
//! by request identity, and [`crate::ShardedArena::reconcile_keyed_view`],
//! keyed by packed `u128` ids. Once grown to a round's working set, nothing
//! here allocates.

use crate::arena::{FlowArena, NodeId};
use crate::augment::TargetedAugment;
use crate::candidates::{CandidateView, NO_STAMP};
use crate::solver::MaxFlowSolve;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash};
use vod_core::BoxId;

/// One tracked request: its node in the arena and every candidate edge ever
/// created for it. Slots (and their edge lists) are pooled and reused.
#[derive(Clone, Debug, Default)]
struct Slot {
    node: NodeId,
    sink_edge: usize,
    /// Candidate edges ever created for this node, sorted by box id. An edge
    /// is *active* when its capacity is 1, de-capacitated (0) otherwise.
    cand_edges: Vec<(BoxId, usize)>,
    /// The raw candidate row as last given (pre-sort), letting unchanged
    /// rows skip the sort-and-diff entirely.
    given: Vec<BoxId>,
    /// False until `given` reflects this slot's active edges (freshly
    /// allocated or recycled slots must run a full diff).
    given_valid: bool,
    /// Index into `cand_edges` of the entry that carried the request's flow
    /// when it was last read ([`NO_HINT`] when none). Only a hint: it is
    /// checked against the arena before use, because later patches may
    /// shift entries or reroute the flow.
    served_hint: u32,
    /// The producer change stamp `given` was captured under ([`NO_STAMP`]
    /// when the producer attached none): an equal stamp on a later round
    /// proves the row unchanged without comparing it.
    given_stamp: u64,
    /// Round stamp of the last round that listed this request.
    stamp: u64,
}

/// `Slot::served_hint` when no entry is known to carry flow.
const NO_HINT: u32 = u32::MAX;

// Tens of thousands of slots stay resident at large fleet sizes, so the slot
// must not grow past this.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Slot>() <= 96);

/// A persistent keyed Lemma-1 network: source 0, box `b` at node `1 + b`,
/// the sink at `B + 1`, and one node per tracked request after it.
///
/// Requests are addressed by their position in the current round's input
/// (`pos`), which [`KeyedFlow::rebuild`] and [`KeyedFlow::patch`] map to the
/// tracked slots.
///
/// ```
/// use vod_core::BoxId;
/// use vod_flow::{CandidateBuf, KeyedFlow};
///
/// let caps = [1, 1];
/// let mut rows = CandidateBuf::new();
/// rows.fill_from_slices(&[vec![BoxId(0), BoxId(1)], vec![BoxId(0)]]);
/// let mut flow = KeyedFlow::<u32>::default();
/// flow.rebuild(&caps, &[10, 11], rows.view());
/// assert_eq!(flow.augment_unserved(), (2, 0));
///
/// // Request 10 departs: its box is released, request 11 keeps its flow.
/// rows.fill_from_slices(&[vec![BoxId(0)]]);
/// assert!(flow.can_patch(caps.len(), 2));
/// assert_eq!(flow.patch(&caps, &[11], rows.view()), 1);
/// let mut out = [None];
/// flow.extract(&mut out);
/// assert_eq!(out, [Some(BoxId(0))]);
/// ```
#[derive(Debug)]
pub struct KeyedFlow<K> {
    arena: FlowArena,
    /// Current per-box capacity (stripe connections).
    caps: Vec<u32>,
    /// Source edge per box (always present, capacity may be 0).
    source_edges: Vec<usize>,
    slots: Vec<Slot>,
    /// Slot index per arena node (`usize::MAX` for non-request nodes).
    node_slot: Vec<usize>,
    by_key: HashMap<K, usize, BuildHasherDefault<vod_core::FxHasher64>>,
    free_slots: Vec<usize>,
    /// Slot index per input position of the current round.
    round_slots: Vec<usize>,
    sink: NodeId,
    stamp: u64,
    total_flow: i64,
    /// Edge pairs currently de-capacitated (candidate + sink edges).
    dead_pairs: usize,
    rebuilds: u64,
    /// False when the arena no longer reflects the tracked instance (fresh,
    /// or lent out by [`KeyedFlow::scratch`]): the next round must rebuild.
    live: bool,
    /// True when the current round modified the instance.
    changed: bool,
    // Scratch buffers (reused every round).
    sorted_cands: Vec<BoxId>,
    added_cands: Vec<BoxId>,
    stale_keys: Vec<K>,
    search: TargetedAugment,
    /// Scratch for the debug-only maximality check (kept allocation-free so
    /// steady-state rounds allocate nothing even in debug builds).
    dbg_seen: Vec<bool>,
    dbg_stack: Vec<NodeId>,
}

/// An empty instance: the first round must rebuild.
impl<K> Default for KeyedFlow<K> {
    fn default() -> Self {
        KeyedFlow {
            arena: FlowArena::new(),
            caps: Vec::new(),
            source_edges: Vec::new(),
            slots: Vec::new(),
            node_slot: Vec::new(),
            by_key: HashMap::default(),
            free_slots: Vec::new(),
            round_slots: Vec::new(),
            sink: 0,
            stamp: 0,
            total_flow: 0,
            dead_pairs: 0,
            rebuilds: 0,
            live: false,
            changed: false,
            sorted_cands: Vec::new(),
            added_cands: Vec::new(),
            stale_keys: Vec::new(),
            search: TargetedAugment::new(),
            dbg_seen: Vec::new(),
            dbg_stack: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash + Debug> KeyedFlow<K> {
    /// Whether the next round may be patched in place: the instance is live,
    /// has `boxes` boxes, and at most one edge pair in `compact_at` is dead
    /// (beyond a 64-pair floor). Otherwise the owner should
    /// [`KeyedFlow::rebuild`], which also compacts.
    pub fn can_patch(&self, boxes: usize, compact_at: usize) -> bool {
        let total_pairs = self.arena.edge_count() / 2;
        let needs_compaction = total_pairs > 64 && self.dead_pairs * compact_at > total_pairs;
        self.live && boxes == self.caps.len() && !needs_compaction
    }

    /// Rebuilds the tracked instance from scratch inside the reused arena,
    /// with zero flow. `keys[pos]` identifies the request with candidate row
    /// `candidates.row(pos)`.
    ///
    /// # Panics
    /// Panics if a key appears twice.
    pub fn rebuild(&mut self, capacities: &[u32], keys: &[K], candidates: CandidateView<'_>) {
        let boxes = capacities.len();
        self.arena.clear(boxes + 2);
        self.sink = boxes + 1;
        self.caps.clear();
        self.caps.extend_from_slice(capacities);
        self.source_edges.clear();
        for (i, &cap) in capacities.iter().enumerate() {
            self.source_edges
                .push(self.arena.add_edge(0, 1 + i, cap as i64));
        }
        // Recycle every slot: clear its edges but keep the allocations. The
        // arena was cleared, so stale node/edge ids must be forgotten
        // (`node == 0` marks "no node": node 0 is always the source).
        self.by_key.clear();
        self.free_slots.clear();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            slot.cand_edges.clear();
            slot.stamp = 0;
            slot.node = 0;
            slot.sink_edge = 0;
            self.free_slots.push(idx);
        }
        self.node_slot.clear();
        self.node_slot.resize(boxes + 2, usize::MAX);
        self.total_flow = 0;
        self.dead_pairs = 0;
        self.upsert(keys, candidates);
        self.rebuilds += 1;
        self.live = true;
        self.changed = true;
    }

    /// Diffs the round against the tracked instance and patches the arena
    /// in place, keeping every surviving request's flow. Returns the number
    /// of tracked requests retired because the round no longer lists them.
    /// Requires [`KeyedFlow::can_patch`].
    ///
    /// # Panics
    /// Panics if a key appears twice.
    pub fn patch(
        &mut self,
        capacities: &[u32],
        keys: &[K],
        candidates: CandidateView<'_>,
    ) -> usize {
        debug_assert!(self.live && capacities.len() == self.caps.len());
        self.changed = false;
        // Per-box capacity changes (rare: capacities are static per system).
        for (i, &cap) in capacities.iter().enumerate() {
            if cap != self.caps[i] {
                self.patch_capacity(i, cap);
            }
        }
        let arrivals = self.upsert(keys, candidates);

        // Sweep requests that disappeared. With no arrivals and matching
        // cardinality the tracked set is exactly the input set, so the sweep
        // can be skipped. Stale keys are removed in the key map's iteration
        // order, which decides slot reuse and so edge order and the schedule:
        // FxHash order, deterministic for a given platform.
        if !arrivals && self.by_key.len() == keys.len() {
            return 0;
        }
        self.stale_keys.clear();
        for (key, &slot_idx) in &self.by_key {
            if self.slots[slot_idx].stamp != self.stamp {
                self.stale_keys.push(*key);
            }
        }
        // `stale_keys` is a scratch field, so detach it while mutating.
        let mut stale = std::mem::take(&mut self.stale_keys);
        let retired = stale.len();
        for key in stale.drain(..) {
            self.remove_request(key);
        }
        self.stale_keys = stale;
        retired
    }

    /// Whether the last rebuild or patch modified the instance (a round
    /// that changed nothing keeps its maximum flow as-is).
    pub fn changed(&self) -> bool {
        self.changed
    }

    /// Augments the current flow to a maximum flow with `solver`,
    /// warm-started on the residual network.
    pub fn solve(&mut self, solver: &mut dyn MaxFlowSolve) {
        self.total_flow += solver.max_flow(&mut self.arena, 0, self.sink);
    }

    /// Number of this round's requests carrying no flow.
    pub fn count_unserved(&self) -> usize {
        self.round_slots
            .iter()
            .filter(|&&slot_idx| self.arena.flow_on(self.slots[slot_idx].sink_edge) == 0)
            .count()
    }

    /// Attempts one targeted augmenting path per unserved request of this
    /// round, in input order (failure marks persist across failed searches,
    /// see [`TargetedAugment`]). Returns `(repaired, unmatched)`; afterwards
    /// the flow is maximum.
    pub fn augment_unserved(&mut self) -> (usize, usize) {
        let (mut repaired, mut unmatched) = (0, 0);
        self.search.begin(&self.arena);
        for &slot_idx in &self.round_slots {
            let slot = &self.slots[slot_idx];
            if self.arena.flow_on(slot.sink_edge) != 0 {
                continue;
            }
            if self.search.augment(
                &mut self.arena,
                &self.source_edges,
                self.sink,
                slot.node,
                slot.sink_edge,
            ) {
                repaired += 1;
            } else {
                unmatched += 1;
            }
        }
        self.total_flow += repaired as i64;
        (repaired, unmatched)
    }

    /// Whether request `pos` of this round carries flow.
    pub fn is_served(&self, pos: usize) -> bool {
        self.arena
            .flow_on(self.slots[self.round_slots[pos]].sink_edge)
            == 1
    }

    /// Cancels the flow of request `pos` of this round unless box `keep`
    /// carries it.
    pub fn release_unless(&mut self, pos: usize, keep: BoxId) {
        let slot_idx = self.round_slots[pos];
        match self.served_by(slot_idx) {
            Some((edge_box, edge)) if edge_box != keep => {
                self.cancel_assignment(slot_idx, edge_box, edge)
            }
            _ => {}
        }
    }

    /// Routes unserved request `pos` of this round through box `want`, when
    /// `want` is an active candidate of the request with a free slot.
    /// Returns whether the flow was placed.
    pub fn adopt(&mut self, pos: usize, want: BoxId) -> bool {
        let slot = &self.slots[self.round_slots[pos]];
        debug_assert_eq!(self.arena.flow_on(slot.sink_edge), 0);
        let Some(&(_, edge)) = slot
            .cand_edges
            .iter()
            .find(|&&(bx, e)| bx == want && self.arena.edge(e).original_cap == 1)
        else {
            return false;
        };
        let (source_edge, sink_edge) = (self.source_edges[want.index()], slot.sink_edge);
        if self.arena.residual(source_edge) == 0 {
            return false;
        }
        for e in [source_edge, edge, sink_edge] {
            self.arena.push(e, 1);
        }
        self.total_flow += 1;
        true
    }

    /// Writes the supplier of every request of this round into `out`
    /// (index-aligned with the round's input). Debug builds first check
    /// that the flow is valid and maximum.
    ///
    /// # Panics
    /// Panics if `out` is not as long as the round's input.
    pub fn extract(&mut self, out: &mut [Option<BoxId>]) {
        debug_assert!(self.flow_is_consistent());
        debug_assert!(self.flow_is_maximal());
        assert_eq!(out.len(), self.round_slots.len(), "one output per request");
        for (pos, served) in out.iter_mut().enumerate() {
            *served = self.served_by(self.round_slots[pos]).map(|(b, _)| b);
        }
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// Requests currently tracked.
    pub fn tracked(&self) -> usize {
        self.by_key.len()
    }

    /// Boxes of the tracked instance.
    pub fn boxes(&self) -> usize {
        self.caps.len()
    }

    /// The flow value carried in the arena (requests served).
    pub fn total_flow(&self) -> i64 {
        self.total_flow
    }

    /// Full rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Directed edge count of the arena (twins included) — observability
    /// for the compaction bound.
    pub fn edge_count(&self) -> usize {
        self.arena.edge_count()
    }

    /// Lends the arena and the augmentation kernel to a one-shot solve that
    /// builds its own network, and marks the tracked instance dead so the
    /// next keyed round rebuilds.
    pub fn scratch(&mut self) -> (&mut FlowArena, &mut TargetedAugment) {
        self.live = false;
        (&mut self.arena, &mut self.search)
    }

    /// Opens a new round stamp and maps every input position to its slot,
    /// allocating slots for new keys and patching every row. Returns whether
    /// any key was new.
    fn upsert(&mut self, keys: &[K], candidates: CandidateView<'_>) -> bool {
        assert_eq!(keys.len(), candidates.len(), "one key per request");
        self.stamp += 1;
        self.round_slots.clear();
        let mut arrivals = false;
        for (pos, key) in keys.iter().enumerate() {
            let slot_idx = match self.by_key.get(key) {
                Some(&idx) => {
                    // A duplicate key in one round would silently alias two
                    // requests onto one flow slot; reject it outright.
                    assert_ne!(
                        self.slots[idx].stamp, self.stamp,
                        "duplicate key {key:?} in one round"
                    );
                    self.slots[idx].stamp = self.stamp;
                    idx
                }
                None => {
                    arrivals = true;
                    self.alloc_slot(*key)
                }
            };
            self.set_candidates(slot_idx, candidates.row(pos), candidates.row_stamp(pos));
            self.round_slots.push(slot_idx);
        }
        arrivals
    }

    /// Registers a new request under `key`, reusing a pooled slot (and its
    /// arena node plus edge list) when one is free.
    fn alloc_slot(&mut self, key: K) -> usize {
        let slot_idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        // A recycled slot keeps its node and sink edge if it has them from a
        // previous life in the *current* arena; otherwise create both.
        if self.slots[slot_idx].node == 0 {
            let node = self.arena.add_node();
            let sink_edge = self.arena.add_edge(node, self.sink, 1);
            self.node_slot.resize(self.arena.node_count(), usize::MAX);
            let slot = &mut self.slots[slot_idx];
            slot.node = node;
            slot.sink_edge = sink_edge;
        } else {
            // Revive the recycled sink edge.
            let sink_edge = self.slots[slot_idx].sink_edge;
            if self.arena.edge(sink_edge).original_cap == 0 {
                self.arena.set_capacity(sink_edge, 1);
                self.dead_pairs -= 1;
            }
        }
        let slot = &mut self.slots[slot_idx];
        self.node_slot[slot.node] = slot_idx;
        slot.stamp = self.stamp;
        slot.given_valid = false;
        slot.served_hint = NO_HINT;
        self.by_key.insert(key, slot_idx);
        self.changed = true;
        slot_idx
    }

    /// Patches the slot's candidate edges to match `cands`: revives or
    /// creates edges for current candidates, de-capacitates edges for
    /// dropped ones (cancelling their flow first).
    fn set_candidates(&mut self, slot_idx: usize, cands: &[BoxId], stamp: u64) {
        // Fast path: the row is unchanged since the last sync of this slot,
        // so the active edges already match. The producer's change stamp
        // proves it without comparing; otherwise compare the raw rows.
        let slot = &mut self.slots[slot_idx];
        let same_stamp = stamp != NO_STAMP && slot.given_stamp == stamp;
        if slot.given_valid && (same_stamp || slot.given == *cands) {
            debug_assert_eq!(slot.given, *cands, "stale change stamp");
            slot.given_stamp = stamp;
            return;
        }
        let boxes = self.caps.len();
        self.sorted_cands.clear();
        self.sorted_cands
            .extend(cands.iter().copied().filter(|b| b.index() < boxes));
        self.sorted_cands.sort();
        self.sorted_cands.dedup();

        // Merge the sorted edge list with the sorted row: edges whose box is
        // in the row are revived, the others de-capacitated, and boxes new
        // to the row are collected and appended afterwards (appending while
        // walking would invalidate the walk).
        self.added_cands.clear();
        let mut cand_cursor = 0;
        for entry in 0..self.slots[slot_idx].cand_edges.len() {
            let (edge_box, edge) = self.slots[slot_idx].cand_edges[entry];
            while let Some(&cand_box) = self.sorted_cands.get(cand_cursor) {
                if cand_box >= edge_box {
                    break;
                }
                self.added_cands.push(cand_box);
                cand_cursor += 1;
            }
            if self.sorted_cands.get(cand_cursor) != Some(&edge_box) {
                self.deactivate_cand_edge(slot_idx, edge_box, edge);
                continue;
            }
            cand_cursor += 1;
            if self.arena.edge(edge).original_cap == 0 {
                self.arena.set_capacity(edge, 1);
                self.dead_pairs -= 1;
                self.changed = true;
            }
        }
        self.added_cands
            .extend_from_slice(&self.sorted_cands[cand_cursor..]);
        // Append the new edges, keeping the list sorted by box id.
        let node = self.slots[slot_idx].node;
        for &cand_box in &self.added_cands {
            let edge = self.arena.add_edge(1 + cand_box.index(), node, 1);
            let list = &mut self.slots[slot_idx].cand_edges;
            let at = list.partition_point(|&(b, _)| b < cand_box);
            list.insert(at, (cand_box, edge));
            self.changed = true;
        }
        // Remember the raw row (and the stamp it was captured under) for
        // the next round's fast paths.
        let slot = &mut self.slots[slot_idx];
        slot.given.clear();
        slot.given.extend_from_slice(cands);
        slot.given_valid = true;
        slot.given_stamp = stamp;
    }

    /// De-capacitates one candidate edge, cancelling its flow first.
    fn deactivate_cand_edge(&mut self, slot_idx: usize, edge_box: BoxId, edge: usize) {
        if self.arena.edge(edge).original_cap == 0 {
            return; // already inactive
        }
        if self.arena.flow_on(edge) == 1 {
            self.cancel_assignment(slot_idx, edge_box, edge);
        }
        self.arena.set_capacity(edge, 0);
        self.dead_pairs += 1;
        self.changed = true;
    }

    /// Cancels one unit of flow running source → box → request → sink.
    fn cancel_assignment(&mut self, slot_idx: usize, edge_box: BoxId, cand_edge: usize) {
        debug_assert_eq!(self.arena.flow_on(cand_edge), 1);
        let source_edge = self.source_edges[edge_box.index()];
        for e in [cand_edge, source_edge, self.slots[slot_idx].sink_edge] {
            self.arena.push(e, -1);
        }
        self.total_flow -= 1;
    }

    /// Applies a changed per-box capacity, evicting excess assignments when
    /// the new capacity is below the box's current load (the owner's repair
    /// re-routes them elsewhere).
    fn patch_capacity(&mut self, box_idx: usize, new_cap: u32) {
        let source_edge = self.source_edges[box_idx];
        let mut excess = self.arena.flow_on(source_edge) - new_cap as i64;
        if excess > 0 {
            // Walk the box's forward edges and cancel assignments until the
            // load fits.
            let mut cursor = self.arena.first_edge(1 + box_idx);
            while let Some(edge) = cursor {
                if excess == 0 {
                    break;
                }
                cursor = self.arena.next_edge(edge);
                if edge % 2 != 0 || self.arena.flow_on(edge) != 1 {
                    continue;
                }
                let slot_idx = self.node_slot[self.arena.target(edge)];
                debug_assert_ne!(slot_idx, usize::MAX, "box edge must point at a request");
                self.cancel_assignment(slot_idx, BoxId(box_idx as u32), edge);
                excess -= 1;
            }
            debug_assert_eq!(excess, 0);
        }
        self.arena.set_capacity(source_edge, new_cap as i64);
        self.caps[box_idx] = new_cap;
        self.changed = true;
    }

    /// Removes a tracked request: cancels its flow and de-capacitates its
    /// sink edge, returning the slot to the pool.
    ///
    /// Candidate edges are left active: with the sink edge at capacity 0 no
    /// flow can route through the request node, so they are harmless, and a
    /// recycled slot often reuses them directly (its next `set_candidates`
    /// diff deactivates only the ones the new request does not need).
    fn remove_request(&mut self, key: K) {
        let slot_idx = self.by_key.remove(&key).expect("request is tracked");
        if let Some((edge_box, edge)) = self.served_by(slot_idx) {
            self.cancel_assignment(slot_idx, edge_box, edge);
        }
        let sink_edge = self.slots[slot_idx].sink_edge;
        if self.arena.edge(sink_edge).original_cap != 0 {
            self.arena.set_capacity(sink_edge, 0);
            self.dead_pairs += 1;
        }
        self.node_slot[self.slots[slot_idx].node] = usize::MAX;
        self.free_slots.push(slot_idx);
        self.changed = true;
    }

    /// The candidate entry carrying the request's flow, if any. Reads the
    /// slot's hint first and trusts it only when the arena confirms the
    /// flow; otherwise scans the row (skipped for an unserved request) and
    /// re-aims the hint.
    fn served_by(&mut self, slot_idx: usize) -> Option<(BoxId, usize)> {
        let slot = &self.slots[slot_idx];
        let hinted = slot
            .cand_edges
            .get(slot.served_hint as usize)
            .copied()
            .filter(|&(_, e)| self.arena.flow_on(e) == 1);
        let served = match hinted {
            Some(entry) => Some(entry),
            None if self.arena.flow_on(slot.sink_edge) == 0 => None,
            None => {
                let at = slot
                    .cand_edges
                    .iter()
                    .position(|&(_, e)| self.arena.flow_on(e) == 1);
                self.slots[slot_idx].served_hint = at.map_or(NO_HINT, |i| i as u32);
                at.map(|i| self.slots[slot_idx].cand_edges[i])
            }
        };
        debug_assert_eq!(
            served,
            self.slots[slot_idx]
                .cand_edges
                .iter()
                .copied()
                .find(|&(_, e)| self.arena.flow_on(e) == 1),
            "served-edge hint disagrees with a full scan of the row"
        );
        served
    }

    /// Debug check: the arena's flow is a valid flow of value `total_flow`.
    fn flow_is_consistent(&self) -> bool {
        let mut source_out = 0;
        for &e in &self.source_edges {
            let flow = self.arena.flow_on(e);
            if flow < 0 || flow > self.arena.edge(e).original_cap {
                return false;
            }
            source_out += flow;
        }
        source_out == self.total_flow && self.arena.net_outflow(0) == self.total_flow
    }

    /// Debug check: no augmenting path is left (every unserved request of
    /// the current round is unreachable from the source in the residual
    /// graph). Uses reusable scratch, so it allocates nothing in steady
    /// state.
    fn flow_is_maximal(&mut self) -> bool {
        self.arena
            .residual_reachable_into(0, &mut self.dbg_seen, &mut self.dbg_stack);
        self.round_slots.iter().all(|&slot_idx| {
            let slot = &self.slots[slot_idx];
            self.arena.flow_on(slot.sink_edge) == 1 || !self.dbg_seen[slot.node]
        })
    }
}
