//! Incremental per-round connection matching.
//!
//! Consecutive simulation rounds solve nearly identical matching instances:
//! most playbacks continue, so most stripe requests and their candidate sets
//! carry over unchanged, and per-box capacities are static. The
//! [`IncrementalMatcher`] exploits this by keeping one Lemma-1 flow network
//! alive inside a [`FlowArena`] across rounds:
//!
//! * requests are identified by a stable [`RequestKey`]; each round the
//!   incoming key set is diffed against the previous round's;
//! * surviving requests keep their node, edges, **and assigned flow**;
//!   departed requests have their flow cancelled and their edges
//!   de-capacitated; new requests get (or reuse) a node and edges;
//! * candidate-set changes patch edge capacities in place, reviving a
//!   previously de-capacitated edge when a candidate returns (a box's cache
//!   entry ageing out and re-appearing is common under churn);
//! * the repaired flow is valid but possibly not maximal. A few unserved
//!   requests are repaired by targeted augmenting-path searches through
//!   [`TargetedAugment`], the kernel shared with sharded reconciliation: on
//!   entering a request it first looks one hop ahead for a candidate box
//!   with spare capacity, and descends into full boxes only when none has
//!   any. A large unserved set goes to the solver instead, which
//!   *warm-starts* from the repaired residual flow;
//! * extraction reads each request's supplier through a per-slot hint to the
//!   candidate edge that carried its flow last round, verified against the
//!   arena (`flow_on == 1`) before use, with a scan of the row as fallback.
//!
//! All bookkeeping (slots, edge lists, scratch buffers, the key map) reuses
//! its allocations, so a steady-state round — same working set of requests —
//! performs **zero heap allocations** in the matching layer. De-capacitated
//! edges accumulate in the arena under heavy churn; when more than half of
//! the arena is dead the matcher compacts by rebuilding in place (amortized
//! O(1), still allocation-free once the arena has grown to the high-water
//! mark).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use vod_core::{BoxId, StripeId};
use vod_flow::{
    CandidateBuf, CandidateView, Dinic, FlowArena, MaxFlowSolve, NodeId, TargetedAugment, NO_STAMP,
};
use vod_obs::TraceHandle;

/// Deterministic multiply-xor hasher for the request-key map: the default
/// SipHash dominates the per-round diff cost at thousands of lookups per
/// round, and HashDoS resistance is irrelevant for simulator-internal keys
/// (shared with the flow layer via [`vod_core::hash`]).
pub type KeyHasher = vod_core::FxHasher64;

type KeyMap<V> = HashMap<RequestKey, V, BuildHasherDefault<KeyHasher>>;

/// Stable identity of a stripe request across rounds.
///
/// Within one round a viewer has at most one active request per stripe, and a
/// viewer's playback of a video spans contiguous rounds, so `(viewer,
/// stripe)` identifies "the same request as last round".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey {
    /// The box that will play the stripe.
    pub viewer: BoxId,
    /// The requested stripe.
    pub stripe: StripeId,
}

/// One tracked request: its node in the arena and every edge ever created
/// for it. Slots (and their edge lists) are pooled and reused.
#[derive(Clone, Debug, Default)]
struct RequestSlot {
    node: NodeId,
    sink_edge: usize,
    /// Candidate edges ever created for this node, sorted by box id. An edge
    /// is *active* when its capacity is 1, de-capacitated (0) otherwise.
    cand_edges: Vec<(BoxId, usize)>,
    /// The raw candidate list as last given (pre-sort), letting unchanged
    /// rounds skip the sort-and-diff entirely.
    given: Vec<BoxId>,
    /// False until `given` reflects this slot's active edges (freshly
    /// allocated or recycled slots must run a full diff).
    given_valid: bool,
    /// Index into `cand_edges` of the entry that carried the request's flow
    /// when it was last extracted ([`NO_HINT`] when none). Only a hint: it
    /// is checked against the arena before use, because later patches may
    /// shift entries or reroute the flow.
    served_hint: u32,
    /// The producer change stamp `given` was captured under
    /// ([`vod_flow::NO_STAMP`] when the producer attached none): an equal
    /// stamp on a later round proves the row unchanged without comparing it.
    given_stamp: u64,
    /// Round stamp of the last round that listed this request.
    stamp: u64,
    /// Position of this request in the current round's input.
    pos: usize,
}

/// `RequestSlot::served_hint` when no entry is known to carry flow.
const NO_HINT: u32 = u32::MAX;

// The hint lives in the padding after `given_valid`: tens of thousands of
// slots stay resident, so the slot must not grow.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<RequestSlot>() == 96);

/// Reusable incremental matcher over one [`FlowArena`].
///
/// ```
/// use vod_core::{BoxId, StripeId, VideoId};
/// use vod_sim::{IncrementalMatcher, RequestKey};
///
/// let caps = vec![1, 1];
/// let keys = vec![
///     RequestKey { viewer: BoxId(0), stripe: StripeId::new(VideoId(0), 0) },
///     RequestKey { viewer: BoxId(1), stripe: StripeId::new(VideoId(0), 1) },
/// ];
/// let cands = vec![vec![BoxId(0), BoxId(1)], vec![BoxId(0)]];
/// let mut matcher = IncrementalMatcher::default();
/// let mut out = Vec::new();
/// matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
/// assert_eq!(out.iter().flatten().count(), 2);
///
/// // An identical round patches nothing and keeps the flow: still optimal,
/// // still exactly one rebuild.
/// matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
/// assert_eq!(out.iter().flatten().count(), 2);
/// assert_eq!(matcher.rebuilds(), 1);
/// ```
pub struct IncrementalMatcher {
    arena: FlowArena,
    solver: Box<dyn MaxFlowSolve>,
    /// Current per-box capacity (stripe connections).
    caps: Vec<u32>,
    /// Source edge per box (always present, capacity may be 0).
    source_edges: Vec<usize>,
    slots: Vec<RequestSlot>,
    /// Slot index per arena node (`usize::MAX` for non-request nodes).
    node_slot: Vec<usize>,
    by_key: KeyMap<usize>,
    free_slots: Vec<usize>,
    sink: NodeId,
    stamp: u64,
    total_flow: i64,
    /// Edge pairs currently de-capacitated (candidate + sink edges).
    dead_pairs: usize,
    rebuilds: u64,
    rounds: u64,
    /// True when the arena no longer reflects the tracked instance (e.g.
    /// after a cold one-shot solve) and must be rebuilt.
    dirty: bool,
    /// True when the current round modified the instance (so the solver must
    /// run); untouched rounds keep the previous maximum flow as-is.
    changed: bool,
    // Scratch buffers (reused every round).
    sorted_cands: Vec<BoxId>,
    added_cands: Vec<BoxId>,
    stale_keys: Vec<RequestKey>,
    /// Slot index per input position for the current round (skips a second
    /// hash pass during extraction).
    round_slots: Vec<usize>,
    /// Targeted augmenting-path search (owns its marks and DFS scratch).
    search: TargetedAugment,
    /// Scratch for the debug-only maximality check (kept allocation-free so
    /// steady-state rounds allocate nothing even in debug builds).
    dbg_seen: Vec<bool>,
    dbg_stack: Vec<NodeId>,
    /// Pooled CSR bridge for the slice-of-vecs entry points (the view-based
    /// [`IncrementalMatcher::schedule_keyed_view`] is the native path).
    csr_bridge: CandidateBuf,
}

impl Default for IncrementalMatcher {
    fn default() -> Self {
        IncrementalMatcher::new(Box::new(Dinic::new()))
    }
}

impl IncrementalMatcher {
    /// Creates a matcher warm-starting the given solver each round.
    pub fn new(solver: Box<dyn MaxFlowSolve>) -> Self {
        IncrementalMatcher {
            arena: FlowArena::new(),
            solver,
            caps: Vec::new(),
            source_edges: Vec::new(),
            slots: Vec::new(),
            node_slot: Vec::new(),
            by_key: KeyMap::default(),
            free_slots: Vec::new(),
            sink: 0,
            stamp: 0,
            total_flow: 0,
            dead_pairs: 0,
            rebuilds: 0,
            rounds: 0,
            dirty: true,
            changed: false,
            sorted_cands: Vec::new(),
            added_cands: Vec::new(),
            stale_keys: Vec::new(),
            round_slots: Vec::new(),
            search: TargetedAugment::new(),
            dbg_seen: Vec::new(),
            dbg_stack: Vec::new(),
            csr_bridge: CandidateBuf::new(),
        }
    }

    /// Installs a trace handle on the underlying flow solver, so solver
    /// phases (shape analyses, HK phases, global relabels) emit spans.
    pub fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.solver.attach_tracer(tracer);
    }

    /// The number of full rebuilds performed so far (1 after the first
    /// round; steady-state rounds must not add more).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The number of rounds scheduled so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current matching size carried in the arena.
    pub fn total_flow(&self) -> i64 {
        self.total_flow
    }

    /// Directed edge count of the underlying arena (twins included) —
    /// observability for the compaction heuristic.
    pub fn arena_edge_count(&self) -> usize {
        self.arena.edge_count()
    }

    /// The solver driving this matcher.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// Schedules one round incrementally. `keys[i]` is the stable identity
    /// of the request with candidate set `candidates[i]`; the assignment is
    /// written into `out` (reused, index-aligned with the input).
    pub fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        // Detach the pooled bridge buffer so the view can borrow it while
        // `self` stays mutably borrowable for the core call.
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        self.schedule_keyed_view(capacities, keys, bridge.view(), out);
        self.csr_bridge = bridge;
    }

    /// View-based core of [`IncrementalMatcher::schedule_keyed`]: identical
    /// semantics over a borrowed flat [`CandidateView`] (the engine's native
    /// representation). When the view carries per-row change stamps, a
    /// surviving request whose stamp is unchanged skips the per-row
    /// sort-and-diff entirely.
    pub fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        assert_eq!(keys.len(), candidates.len(), "one key per request");
        self.rounds += 1;
        let total_pairs = self.arena.edge_count() / 2;
        let needs_compaction = total_pairs > 64 && self.dead_pairs * 2 > total_pairs;
        self.changed = false;
        if self.dirty || capacities.len() != self.caps.len() || needs_compaction {
            self.rebuild(capacities, keys, candidates);
            // Cold instance: hand the whole thing to the configured solver.
            self.total_flow += self.solver.max_flow(&mut self.arena, 0, self.sink);
        } else {
            self.patch(capacities, keys, candidates);
            if self.changed {
                // The patched flow is valid but possibly not maximal; only
                // unserved requests can be endpoints of augmenting paths.
                // With few of them, targeted searches restore maximality
                // without touching the (much larger) unchanged part of the
                // network. A large unserved set (persistently infeasible
                // instance) would thrash the targeted search — every
                // successful augment invalidates the failure marks — so hand
                // that case to the solver, warm-started on the residual.
                let unserved = self.count_unserved();
                if unserved * 8 > self.round_slots.len() + 64 {
                    self.total_flow += self.solver.max_flow(&mut self.arena, 0, self.sink);
                } else if unserved > 0 {
                    self.augment_unserved();
                }
            }
        }
        debug_assert!(self.flow_is_consistent());
        debug_assert!(self.flow_is_maximal());
        self.extract(out);
    }

    /// One-shot solve without request identity: rebuilds the instance inside
    /// the reused arena and solves cold. Leaves the matcher marked dirty, so
    /// a later keyed round rebuilds before patching.
    pub fn schedule_cold(
        &mut self,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.rounds += 1;
        // Reuse the keyed machinery with positional pseudo-keys: stale state
        // never leaks because the instance is rebuilt from scratch.
        let mut problem = vod_flow::ConnectionProblem::new(capacities.to_vec());
        for cands in candidates {
            problem.add_request(cands.iter().copied());
        }
        let matching = problem.solve_in(&mut self.arena, &mut self.solver);
        self.dirty = true;
        out.clear();
        out.extend(matching.assignment);
    }

    /// Full reconstruction of the tracked instance inside the reused arena.
    fn rebuild(&mut self, capacities: &[u32], keys: &[RequestKey], candidates: CandidateView<'_>) {
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
            slot.served_hint = NO_HINT;
            slot.stamp = 0;
            slot.node = 0;
            slot.sink_edge = 0;
            self.free_slots.push(idx);
        }
        self.node_slot.clear();
        self.node_slot.resize(boxes + 2, usize::MAX);
        self.total_flow = 0;
        self.dead_pairs = 0;
        self.stamp += 1;

        self.round_slots.clear();
        for (pos, key) in keys.iter().enumerate() {
            let slot_idx = self.alloc_slot(*key, pos);
            self.set_candidates(slot_idx, candidates.row(pos), candidates.row_stamp(pos));
            self.round_slots.push(slot_idx);
        }
        self.rebuilds += 1;
        self.dirty = false;
        self.changed = true;
    }

    /// Diffs the incoming round against the tracked instance, patching the
    /// arena in place and repairing flow validity.
    fn patch(&mut self, capacities: &[u32], keys: &[RequestKey], candidates: CandidateView<'_>) {
        self.stamp += 1;

        // Per-box capacity changes (rare: capacities are static per system).
        for (i, &cap) in capacities.iter().enumerate() {
            if cap != self.caps[i] {
                self.patch_box_capacity(i, cap);
            }
        }

        // Upsert this round's requests.
        self.round_slots.clear();
        let mut arrivals = false;
        for (pos, key) in keys.iter().enumerate() {
            let slot_idx = match self.by_key.get(key) {
                Some(&idx) => {
                    // A duplicate key in one round would silently alias two
                    // requests onto one flow slot; reject it outright.
                    assert_ne!(
                        self.slots[idx].stamp, self.stamp,
                        "duplicate request key {key:?} in one round"
                    );
                    self.slots[idx].stamp = self.stamp;
                    self.slots[idx].pos = pos;
                    idx
                }
                None => {
                    arrivals = true;
                    self.alloc_slot(*key, pos)
                }
            };
            self.set_candidates(slot_idx, candidates.row(pos), candidates.row_stamp(pos));
            self.round_slots.push(slot_idx);
        }

        // Sweep requests that disappeared this round. With no arrivals and
        // matching cardinality the tracked set is exactly the input set, so
        // the sweep can be skipped.
        if arrivals || self.by_key.len() != keys.len() {
            self.stale_keys.clear();
            for (key, &slot_idx) in &self.by_key {
                if self.slots[slot_idx].stamp != self.stamp {
                    self.stale_keys.push(*key);
                }
            }
            // `stale_keys` is a scratch field, so detach it while mutating.
            let mut stale = std::mem::take(&mut self.stale_keys);
            for key in stale.drain(..) {
                self.remove_request(key);
            }
            self.stale_keys = stale;
        }
    }

    /// Registers a new request under `key`, reusing a pooled slot (and its
    /// arena node plus edge list) when one is free.
    fn alloc_slot(&mut self, key: RequestKey, pos: usize) -> usize {
        let slot_idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(RequestSlot::default());
                self.slots.len() - 1
            }
        };
        // A recycled slot keeps its node and sink edge if it has them from a
        // previous life in the *current* arena; otherwise create both.
        let needs_node = self.slots[slot_idx].node == 0;
        if needs_node {
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
        let node = self.slots[slot_idx].node;
        self.node_slot[node] = slot_idx;
        self.slots[slot_idx].stamp = self.stamp;
        self.slots[slot_idx].pos = pos;
        self.slots[slot_idx].given_valid = false;
        self.slots[slot_idx].served_hint = NO_HINT;
        let previous = self.by_key.insert(key, slot_idx);
        assert!(
            previous.is_none(),
            "duplicate request key {key:?} in one round"
        );
        self.changed = true;
        slot_idx
    }

    /// Patches the slot's candidate edges to match `cands`: revives or
    /// creates edges for current candidates, de-capacitates edges for
    /// dropped ones (cancelling their flow first).
    fn set_candidates(&mut self, slot_idx: usize, cands: &[BoxId], stamp: u64) {
        // Fastest path: the producer's change stamp proves the row unchanged
        // since the last sync of this slot — no comparison needed at all
        // (the engine's candidate-index diffs handed down as precomputed
        // deltas).
        if self.slots[slot_idx].given_valid
            && stamp != NO_STAMP
            && self.slots[slot_idx].given_stamp == stamp
        {
            debug_assert_eq!(self.slots[slot_idx].given, *cands, "stale change stamp");
            return;
        }
        // Fast path: identical raw candidate list → active edges already
        // match, nothing to sort or diff.
        if self.slots[slot_idx].given_valid && self.slots[slot_idx].given == *cands {
            self.slots[slot_idx].given_stamp = stamp;
            return;
        }
        let boxes = self.caps.len();
        self.sorted_cands.clear();
        self.sorted_cands
            .extend(cands.iter().copied().filter(|b| b.index() < boxes));
        self.sorted_cands.sort();
        self.sorted_cands.dedup();

        self.added_cands.clear();
        // Two-pointer diff over the sorted edge list and candidate list.
        // Existing edges are revived/de-capacitated in place; missing
        // candidates are collected and appended afterwards (appending while
        // iterating would invalidate the walk).
        let mut edge_cursor = 0;
        let mut cand_cursor = 0;
        while edge_cursor < self.slots[slot_idx].cand_edges.len()
            || cand_cursor < self.sorted_cands.len()
        {
            let edge_entry = self.slots[slot_idx].cand_edges.get(edge_cursor).copied();
            let cand = self.sorted_cands.get(cand_cursor).copied();
            match (edge_entry, cand) {
                (Some((edge_box, edge)), Some(cand_box)) if edge_box == cand_box => {
                    if self.arena.edge(edge).original_cap == 0 {
                        self.arena.set_capacity(edge, 1);
                        self.dead_pairs -= 1;
                        self.changed = true;
                    }
                    edge_cursor += 1;
                    cand_cursor += 1;
                }
                (Some((edge_box, edge)), Some(cand_box)) if edge_box < cand_box => {
                    self.deactivate_cand_edge(slot_idx, edge_box, edge);
                    edge_cursor += 1;
                }
                (Some((edge_box, edge)), None) => {
                    self.deactivate_cand_edge(slot_idx, edge_box, edge);
                    edge_cursor += 1;
                }
                (_, Some(cand_box)) => {
                    self.added_cands.push(cand_box);
                    cand_cursor += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        // Append the new edges, keeping the list sorted by box id.
        let node = self.slots[slot_idx].node;
        let mut added = std::mem::take(&mut self.added_cands);
        for &cand_box in added.iter() {
            let edge = self.arena.add_edge(1 + cand_box.index(), node, 1);
            let list = &mut self.slots[slot_idx].cand_edges;
            let at = list.partition_point(|&(b, _)| b < cand_box);
            list.insert(at, (cand_box, edge));
            self.changed = true;
        }
        added.clear();
        self.added_cands = added;
        // Remember the raw list (and the stamp it was captured under) for
        // next round's fast paths.
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
        self.arena.push(cand_edge, -1);
        self.arena.push(self.source_edges[edge_box.index()], -1);
        self.arena.push(self.slots[slot_idx].sink_edge, -1);
        self.total_flow -= 1;
    }

    /// Applies a changed per-box capacity, evicting excess assignments when
    /// the new capacity is below the box's current load.
    fn patch_box_capacity(&mut self, box_idx: usize, new_cap: u32) {
        let source_edge = self.source_edges[box_idx];
        let mut excess = self.arena.flow_on(source_edge) - new_cap as i64;
        if excess > 0 {
            // Walk the box's forward edges and cancel assignments until the
            // load fits (the warm solve will re-route them elsewhere).
            let node = 1 + box_idx;
            let mut cursor = self.arena.first_edge(node);
            while let Some(edge) = cursor {
                if excess == 0 {
                    break;
                }
                cursor = self.arena.next_edge(edge);
                if edge % 2 != 0 || self.arena.flow_on(edge) != 1 {
                    continue;
                }
                let target = self.arena.target(edge);
                let slot_idx = self.node_slot[target];
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
    fn remove_request(&mut self, key: RequestKey) {
        let slot_idx = self.by_key.remove(&key).expect("request is tracked");
        // Cancel any flow through the request.
        if self.arena.flow_on(self.slots[slot_idx].sink_edge) == 1 {
            let carrying = self
                .served_by(slot_idx)
                .expect("served request has a flow-carrying candidate edge");
            self.cancel_assignment(slot_idx, carrying.0, carrying.1);
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

    /// Number of this round's requests currently carrying no flow.
    fn count_unserved(&self) -> usize {
        self.round_slots
            .iter()
            .filter(|&&slot_idx| self.arena.flow_on(self.slots[slot_idx].sink_edge) == 0)
            .count()
    }

    /// Attempts one augmenting path per unserved request of this round
    /// (failure marks persist across failed searches, see
    /// [`TargetedAugment`]).
    fn augment_unserved(&mut self) {
        self.search.begin(&self.arena);
        for &slot_idx in &self.round_slots {
            let slot = &self.slots[slot_idx];
            if self.arena.flow_on(slot.sink_edge) == 0
                && self.search.augment(
                    &mut self.arena,
                    &self.source_edges,
                    self.sink,
                    slot.node,
                    slot.sink_edge,
                )
            {
                self.total_flow += 1;
            }
        }
    }

    /// Debug check: no augmenting path is left (every unserved request of
    /// the current round is unreachable from the source in the residual
    /// graph). Debug builds only; uses reusable scratch so it allocates
    /// nothing in steady state.
    fn flow_is_maximal(&mut self) -> bool {
        self.arena
            .residual_reachable_into(0, &mut self.dbg_seen, &mut self.dbg_stack);
        self.round_slots.iter().all(|&slot_idx| {
            let slot = &self.slots[slot_idx];
            self.arena.flow_on(slot.sink_edge) == 1 || !self.dbg_seen[slot.node]
        })
    }

    /// Writes the assignment for this round's requests into `out`.
    fn extract(&mut self, out: &mut Vec<Option<BoxId>>) {
        out.clear();
        out.resize(self.round_slots.len(), None);
        for (pos, served) in out.iter_mut().enumerate() {
            let slot_idx = self.round_slots[pos];
            debug_assert_eq!(self.slots[slot_idx].pos, pos);
            *served = self.served_by(slot_idx).map(|(b, _)| b);
        }
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
}

/// The incremental matcher plugs into the engine as a
/// [`Scheduler`](crate::scheduler::Scheduler): keyed rounds patch the
/// persistent instance, unkeyed rounds fall back to the cold one-shot
/// solve.
impl crate::scheduler::Scheduler for IncrementalMatcher {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        let mut out = Vec::new();
        self.schedule_cold(capacities, candidates, &mut out);
        out
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        IncrementalMatcher::schedule_keyed(self, capacities, keys, candidates, out);
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        IncrementalMatcher::schedule_keyed_view(self, capacities, keys, candidates, out);
    }

    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &vod_flow::RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        // Relay-blind (see `Scheduler::schedule_relayed`): stay on the
        // native view path instead of the allocating default bridge.
        let _ = relays;
        IncrementalMatcher::schedule_keyed_view(self, capacities, keys, candidates, out);
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        IncrementalMatcher::attach_tracer(self, tracer);
    }

    fn name(&self) -> &'static str {
        "incremental"
    }
}

impl std::fmt::Debug for IncrementalMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalMatcher")
            .field("solver", &self.solver.name())
            .field("boxes", &self.caps.len())
            .field("tracked_requests", &self.by_key.len())
            .field("total_flow", &self.total_flow)
            .field("rebuilds", &self.rebuilds)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::assignment_is_valid;
    use vod_core::VideoId;

    fn key(viewer: u32, video: u32, index: u16) -> RequestKey {
        RequestKey {
            viewer: BoxId(viewer),
            stripe: StripeId::new(VideoId(video), index),
        }
    }

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    fn cold_served(caps: &[u32], cands: &[Vec<BoxId>]) -> usize {
        let mut problem = vod_flow::ConnectionProblem::new(caps.to_vec());
        for c in cands {
            problem.add_request(c.iter().copied());
        }
        problem.solve().served()
    }

    #[test]
    fn first_round_matches_cold_solve() {
        let caps = vec![1, 1];
        let keys = vec![key(0, 0, 0), key(1, 0, 1)];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert!(assignment_is_valid(&out, &caps, &cands));
        assert_eq!(out.iter().flatten().count(), cold_served(&caps, &cands));
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn unchanged_rounds_do_not_rebuild_and_stay_optimal() {
        let caps = vec![2, 1];
        let keys = vec![key(0, 0, 0), key(1, 0, 1), key(2, 0, 2)];
        let cands = vec![vec![b(0)], vec![b(0), b(1)], vec![b(1)]];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        for _ in 0..10 {
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert!(assignment_is_valid(&out, &caps, &cands));
            assert_eq!(out.iter().flatten().count(), 3);
        }
        assert_eq!(matcher.rebuilds(), 1);
        assert_eq!(matcher.rounds(), 10);
    }

    #[test]
    fn arrivals_and_departures_track_cold_solves() {
        // Rolling window of requests over 4 boxes: each round drops the
        // oldest request and adds a new one with rotating candidates.
        let caps = vec![1, 1, 1, 1];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        let mut window: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        for round in 0u32..40 {
            if window.len() >= 5 {
                window.remove(0);
            }
            let cands = vec![b(round % 4), b((round + 1) % 4)];
            window.push((key(round, round % 7, 0), cands));
            let keys: Vec<RequestKey> = window.iter().map(|(k, _)| *k).collect();
            let cands: Vec<Vec<BoxId>> = window.iter().map(|(_, c)| c.clone()).collect();
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert!(assignment_is_valid(&out, &caps, &cands), "round {round}");
            assert_eq!(
                out.iter().flatten().count(),
                cold_served(&caps, &cands),
                "round {round}"
            );
        }
    }

    #[test]
    fn candidate_set_changes_are_patched() {
        let caps = vec![1, 1];
        let keys = vec![key(0, 0, 0), key(1, 0, 0)];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        // Round 1: both requests can only use box 0 → one unserved.
        let cands = vec![vec![b(0)], vec![b(0)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 1);
        // Round 2: request 1 gains box 1 → both served, no rebuild.
        let cands = vec![vec![b(0)], vec![b(0), b(1)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        // Round 3: request 0 loses box 0 entirely → its flow is cancelled.
        let cands = vec![vec![], vec![b(0), b(1)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out[0], None);
        assert_eq!(out.iter().flatten().count(), 1);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn capacity_reduction_evicts_and_reroutes() {
        let keys = vec![key(0, 0, 0), key(1, 0, 0)];
        let cands = vec![vec![b(0), b(1)], vec![b(0), b(1)]];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        matcher.schedule_keyed(&[2, 0], &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        // Box 0 shrinks to 1 slot, box 1 opens one: still fully servable.
        matcher.schedule_keyed(&[1, 1], &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        assert!(assignment_is_valid(&out, &[1, 1], &cands));
        // Both boxes shrink: only one request served.
        matcher.schedule_keyed(&[1, 0], &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 1);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn heavy_churn_triggers_compaction_and_stays_correct() {
        let caps = vec![2; 8];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        for round in 0u32..300 {
            // Entirely fresh keys each round: worst case for edge garbage.
            let keys: Vec<RequestKey> = (0..6).map(|i| key(round * 10 + i, round % 5, 0)).collect();
            let cands: Vec<Vec<BoxId>> = (0..6u32)
                .map(|i| vec![b((round + i) % 8), b((round + i + 3) % 8)])
                .collect();
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert_eq!(out.iter().flatten().count(), 6, "round {round}");
        }
        assert!(matcher.rebuilds() > 1, "compaction never kicked in");
        // The arena stays bounded: dead edges are reclaimed.
        assert!(matcher.arena_edge_count() < 4000);
    }

    #[test]
    fn cold_one_shot_then_keyed_round_recovers() {
        let caps = vec![1, 1];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        matcher.schedule_cold(&caps, &[vec![b(0), b(1)], vec![b(0)]], &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        let keys = vec![key(0, 0, 0)];
        let cands = vec![vec![b(1)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out, vec![Some(b(1))]);
    }
}
