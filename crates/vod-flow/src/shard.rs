//! Per-swarm sharding of a round's connection-matching instance.
//!
//! Lemma 1 reduces a round's schedulability to one global bipartite max-flow,
//! but the instance is naturally block-structured: requests for different
//! videos only interact through the shared per-box upload budgets `⌊u_b·c⌋`.
//! The [`ShardedArena`] exploits that structure in three pooled,
//! allocation-reusing stages:
//!
//! 1. [`ShardedArena::partition`] groups the round's requests by an opaque
//!    shard key (the scheduler uses the video id, so one shard per swarm) and
//!    computes, per shard, the set of boxes its candidate lists touch and how
//!    many requests demand each box — all in flat pooled buffers;
//! 2. [`ShardedArena::split_budgets_targeted`] divides each box's upload
//!    budget across the shards that can use it. Slots are first
//!    *water-filled* onto the (shard, box) pairs with the largest observed
//!    backlog from recent rounds — deterministic tie-break on the shard
//!    ordinal, i.e. ascending swarm id — and the remainder is split
//!    proportionally to residual demand; with no backlog history the split
//!    is purely demand-proportional. Either way the per-shard subproblems
//!    become capacity-disjoint and can be solved in parallel without
//!    coordination;
//! 3. reconciliation repairs whatever the budget split got wrong:
//!    * [`ShardedArena::reconcile_keyed`] keeps the global network (and its
//!      flow) **alive across rounds** in a [`KeyedFlow`] keyed by an opaque
//!      request id, the same persistent instance the incremental matcher
//!      uses, so a reconciled round costs O(Δ) instead of O(E). This module
//!      adds only the reconciliation policy: a drift pre-pass, adoption of
//!      the shard assignment, and a tighter compaction bound;
//!    * [`ShardedArena::reconcile`] rebuilds the *global* Lemma-1 network
//!      from scratch in the keyed instance's borrowed arena, preloads the
//!      flow found by the shard solves, and augments from every
//!      still-unmatched request — O(E) serial, the fallback when the shard
//!      phase starved so much that the carried flow is stale.
//!
//!    Both flavours augment through [`crate::TargetedAugment`]. Because any
//!    valid flow extends to a maximum flow by residual augmentation (which
//!    may *reroute* shard-assigned flow), the reconciled matching is
//!    globally maximum — sharding can never change a round's feasibility,
//!    only the speed at which it is decided.
//!
//! [`ShardedArena::shard_obstruction`] extracts a shard-local Hall violator:
//! a shard whose subproblem is infeasible *under the full (unsplit) box
//! capacities* yields an obstruction whose requests all belong to one swarm;
//! since its candidate sets are unchanged from the global instance, the
//! witness is also a genuine global obstruction.

use crate::candidates::{CandidateBuf, CandidateView};
use crate::hall::{check_subset, find_obstruction, Obstruction};
use crate::keyed::KeyedFlow;
use crate::matching::ConnectionProblem;
use vod_core::BoxId;

/// One shard of a partitioned round, borrowed out of the pooled storage.
#[derive(Clone, Copy, Debug)]
pub struct ShardView<'a> {
    /// The shard key (the scheduler uses the video id of the swarm).
    pub key: u64,
    /// Global indices of the requests in this shard, in input order.
    pub requests: &'a [u32],
    /// Global ids of the boxes demanded by this shard's candidate lists.
    pub boxes: &'a [u32],
    /// Per-box demand, aligned with `boxes`: how many candidate-list entries
    /// of this shard name the box.
    pub demand: &'a [u32],
    /// Per-box upload budget granted by the budget split, aligned with
    /// `boxes` (empty until budgets are split).
    pub budget: &'a [u32],
}

/// Outcome of one reconciliation pass ([`ShardedArena::reconcile`] or
/// [`ShardedArena::reconcile_keyed`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Requests already served when the augmentation phase started: shard
    /// assignments adopted this call plus flow carried over from previous
    /// rounds by the persistent arena.
    pub preloaded: usize,
    /// Subset of `preloaded` served by flow persisted from earlier rounds
    /// (always 0 for the rebuilding [`ShardedArena::reconcile`]).
    pub carried: usize,
    /// Shard-phase assignments reconciliation could not use (not a
    /// candidate, or over a box's remaining capacity) — zero when the shard
    /// phase respected a correct budget split and nothing was carried.
    pub dropped: usize,
    /// Requests the shard phase left unmatched that reconciliation served.
    pub repaired: usize,
    /// Requests unmatched even after reconciliation (the round is infeasible
    /// iff this is non-zero).
    pub unmatched: usize,
    /// Tracked requests retired (departed) by this call's delta pass
    /// (always 0 for the rebuilding [`ShardedArena::reconcile`]).
    pub retired: usize,
    /// Whether this call rebuilt the global network from scratch instead of
    /// patching the persistent instance (always true for
    /// [`ShardedArena::reconcile`]; true for [`ShardedArena::reconcile_keyed`]
    /// on the first call, after a box-count change, and on dead-edge
    /// compaction).
    pub rebuilt: bool,
}

/// Outcome of one budget split
/// ([`ShardedArena::split_budgets_targeted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Boxes whose budget was split this round (boxes demanded by at least
    /// one shard).
    pub boxes: usize,
    /// Boxes demanded by more than one shard (the only ones where the split
    /// policy matters).
    pub contested_boxes: usize,
    /// Water-filling grant steps performed across all contested boxes: each
    /// step hands one upload slot to the shard with the largest remaining
    /// backlog. Zero when the backlog history is empty (the split is then
    /// purely demand-proportional).
    pub iterations: usize,
}

/// Outcome of one relay-lending pass
/// ([`ShardedArena::split_relay_reserved`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelayLendStats {
    /// Distinct relays drawn on by this round's relayed requests.
    pub relays: usize,
    /// Relays demanded by more than one shard — the relay edges that
    /// genuinely cross swarms, where lending matters.
    pub contested_relays: usize,
    /// Total forwarding demand (relayed requests this round).
    pub forward_demand: usize,
    /// Forwarding slots granted across all shards
    /// (`Σ_a min(reserved_a, demand_a)` — reservations are never
    /// oversubscribed).
    pub granted: usize,
    /// Granted slots serving a shard other than their relay's dominant one
    /// (the shard granted the most) — forwarding capacity from single
    /// reservations genuinely split across swarms.
    pub lent: usize,
    /// Forwarding demand no reservation could cover (`demand − granted`).
    pub starved: usize,
}

/// Borrowed relay-lending view of one shard
/// ([`ShardedArena::shard_relays`]): aligned per-relay forwarding demand
/// and granted reserved slots.
#[derive(Clone, Copy, Debug)]
pub struct RelayShardView<'a> {
    /// The shard key (the scheduler uses the video id of the swarm).
    pub key: u64,
    /// Global ids of the relays this shard's relayed requests draw on.
    pub relays: &'a [u32],
    /// Per-relay forwarding demand, aligned with `relays`.
    pub demand: &'a [u32],
    /// Per-relay granted forwarding slots, aligned with `relays`.
    pub grant: &'a [u32],
}

/// Pooled bookkeeping for one shard (ranges into the flat pools).
#[derive(Clone, Copy, Debug, Default)]
struct ShardInfo {
    key: u64,
    req_start: u32,
    req_end: u32,
    box_start: u32,
    box_end: u32,
}

/// Pooled per-swarm sharding of a round's flow network.
///
/// All storage is flat and reused across rounds: after warm-up a
/// steady-state `partition` + `split_budgets_targeted` + `reconcile_keyed`
/// cycle performs no heap allocation.
///
/// ```
/// use vod_core::BoxId;
/// use vod_flow::ShardedArena;
///
/// // Two swarms over two boxes: swarm 0's request can use either box,
/// // swarm 1's request only box 0.
/// let caps = vec![1u32, 1];
/// let cands = vec![vec![BoxId(0), BoxId(1)], vec![BoxId(0)]];
/// let mut arena = ShardedArena::new();
/// arena.partition(&[0, 1], &cands, caps.len());
/// // An empty backlog history splits each budget by demand.
/// arena.split_budgets_targeted(&caps, &[]);
///
/// // Suppose the shard phase put request 0 on box 0 and starved request 1:
/// // reconciliation reroutes request 0 to box 1 and repairs request 1.
/// let mut assignment = vec![Some(BoxId(0)), None];
/// let stats = arena.reconcile_keyed(&caps, &[7, 8], &cands, &mut assignment);
/// assert_eq!(assignment, vec![Some(BoxId(1)), Some(BoxId(0))]);
/// assert_eq!(stats.unmatched, 0);
/// ```
#[derive(Debug, Default)]
pub struct ShardedArena {
    // Partition state (valid until the next `partition` call).
    pairs: Vec<(u64, u32)>,
    shards: Vec<ShardInfo>,
    request_pool: Vec<u32>,
    box_pool: Vec<u32>,
    demand_pool: Vec<u32>,
    budget_pool: Vec<u32>,
    /// Shard ordinal per `box_pool` slot (which shard demands this box).
    slot_shard: Vec<u32>,
    // Per-global-box scratch, stamped by shard ordinal + 1.
    box_stamp: Vec<u32>,
    box_slot: Vec<u32>,
    // Budget-split scratch (reset per round).
    by_box: Vec<(u32, u32)>,
    wf_grant: Vec<u32>,
    wf_share: Vec<u32>,
    wf_want: Vec<u64>,
    // Relay-lending pools (valid until the next `partition` call): per
    // (shard, relay) forwarding demand and grant, plus per-shard ranges.
    relay_box_pool: Vec<u32>,
    relay_demand_pool: Vec<u32>,
    relay_grant_pool: Vec<u32>,
    relay_ranges: Vec<(u32, u32)>,
    relay_stamp: Vec<u32>,
    relay_slot: Vec<u32>,
    relay_by_box: Vec<(u32, u32)>,
    // Reconciliation: the persistent network, which lends its arena and
    // search to the rebuilding `reconcile_view` (with its own edge lists).
    keyed: KeyedFlow<u128>,
    /// Heavy-drift keyed calls rerouted through the rebuilding path.
    drift_rebuilds: u64,
    source_edges: Vec<usize>,
    sink_edges: Vec<usize>,
    /// Pooled CSR bridge for the slice-of-vecs entry points (the view-based
    /// `*_view` methods are the native path).
    csr_bridge: CandidateBuf,
}

impl ShardedArena {
    /// Creates an empty sharded arena.
    pub fn new() -> Self {
        ShardedArena::default()
    }

    /// Partitions the round's requests into shards.
    ///
    /// `shard_of[x]` is the shard key of request `x` (requests with equal
    /// keys land in the same shard; shards are ordered by ascending key) and
    /// `candidates[x]` its candidate supplier set. Candidates outside
    /// `0..box_count` are ignored, mirroring
    /// [`ConnectionProblem::add_request`]. Returns the number of shards.
    pub fn partition(
        &mut self,
        shard_of: &[u64],
        candidates: &[Vec<BoxId>],
        box_count: usize,
    ) -> usize {
        // Detach the pooled bridge buffer so the view can borrow it while
        // `self` stays mutably borrowable for the core call.
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        let count = self.partition_view(shard_of, bridge.view(), box_count);
        self.csr_bridge = bridge;
        count
    }

    /// View-based core of [`ShardedArena::partition`]: identical semantics
    /// over a borrowed flat [`CandidateView`] (the native representation of
    /// the scheduling stack; the slice-of-vecs form bridges through a
    /// pooled copy).
    pub fn partition_view(
        &mut self,
        shard_of: &[u64],
        candidates: CandidateView<'_>,
        box_count: usize,
    ) -> usize {
        assert_eq!(
            shard_of.len(),
            candidates.len(),
            "one shard key per request"
        );
        self.pairs.clear();
        self.pairs
            .extend(shard_of.iter().enumerate().map(|(x, &k)| (k, x as u32)));
        // Sorting (key, index) keeps requests in input order within a shard.
        self.pairs.sort_unstable();

        self.shards.clear();
        self.request_pool.clear();
        self.box_pool.clear();
        self.demand_pool.clear();
        self.budget_pool.clear();
        self.slot_shard.clear();
        self.box_stamp.clear();
        self.box_stamp.resize(box_count, 0);
        self.box_slot.resize(box_count, 0);

        let mut i = 0;
        while i < self.pairs.len() {
            let key = self.pairs[i].0;
            let shard_no = self.shards.len() as u32;
            let req_start = self.request_pool.len() as u32;
            let box_start = self.box_pool.len() as u32;
            while i < self.pairs.len() && self.pairs[i].0 == key {
                let x = self.pairs[i].1;
                self.request_pool.push(x);
                for cand in candidates.row(x as usize) {
                    let b = cand.index();
                    if b >= box_count {
                        continue;
                    }
                    if self.box_stamp[b] == shard_no + 1 {
                        self.demand_pool[self.box_slot[b] as usize] += 1;
                    } else {
                        self.box_stamp[b] = shard_no + 1;
                        self.box_slot[b] = self.demand_pool.len() as u32;
                        self.box_pool.push(b as u32);
                        self.demand_pool.push(1);
                        self.slot_shard.push(shard_no);
                    }
                }
                i += 1;
            }
            self.shards.push(ShardInfo {
                key,
                req_start,
                req_end: self.request_pool.len() as u32,
                box_start,
                box_end: self.box_pool.len() as u32,
            });
        }
        self.shards.len()
    }

    /// Number of shards produced by the last [`ShardedArena::partition`].
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrowed view of shard `idx` (ordered by ascending shard key).
    pub fn shard(&self, idx: usize) -> ShardView<'_> {
        let info = &self.shards[idx];
        let boxes = &self.box_pool[info.box_start as usize..info.box_end as usize];
        let budget = if self.budget_pool.is_empty() {
            &[][..]
        } else {
            &self.budget_pool[info.box_start as usize..info.box_end as usize]
        };
        ShardView {
            key: info.key,
            requests: &self.request_pool[info.req_start as usize..info.req_end as usize],
            boxes,
            demand: &self.demand_pool[info.box_start as usize..info.box_end as usize],
            budget,
        }
    }

    /// Splits each box's upload budget across the shards demanding it,
    /// water-filling on per-(shard, box) backlog targets.
    ///
    /// `slot_targets[i]` is the backlog target of pool slot `i` — the pool
    /// is the concatenation, in shard order, of each shard's `boxes` view
    /// (see [`ShardedArena::shard`]), so slot `i` names one (shard, box)
    /// pair. Targets above a slot's demand are clamped to the demand;
    /// missing entries count as zero. Then, per box:
    ///
    /// 1. **backlog water-filling** — upload slots are granted one at a time
    ///    to the shard with the largest remaining backlog (target minus what
    ///    it was already granted), with a deterministic tie-break on the
    ///    lowest shard ordinal (ascending swarm id), so starved shards are
    ///    topped up first;
    /// 2. **proportional remainder** — each shard receives
    ///    `⌊left_b · r_s(b) / R(b)⌋` of the `left_b` remaining slots, where
    ///    `r_s(b)` is its residual demand (demand minus phase-1 grant) and
    ///    `R(b)` their sum; the leftover goes to the largest residual demand
    ///    (lowest shard ordinal on ties).
    ///
    /// With an empty (or all-zero) target slice phase 1 grants nothing and
    /// the split is purely demand-proportional. Per-box grants always sum to
    /// exactly `cap_b`, so the per-shard subproblems are capacity-disjoint
    /// and the split is a deterministic function of the partition,
    /// capacities, and targets — independent of thread count.
    pub fn split_budgets_targeted(
        &mut self,
        capacities: &[u32],
        slot_targets: &[u64],
    ) -> SplitStats {
        let mut stats = SplitStats::default();
        self.budget_pool.clear();
        self.budget_pool.resize(self.box_pool.len(), 0);
        // Group the pool slots by box; within a group, slots ascend with the
        // shard ordinal (pool slots are appended in shard order).
        self.by_box.clear();
        self.by_box.extend(
            self.box_pool
                .iter()
                .enumerate()
                .map(|(slot, &b)| (b, slot as u32)),
        );
        self.by_box.sort_unstable();

        let mut i = 0;
        while i < self.by_box.len() {
            let b = self.by_box[i].0;
            let mut j = i + 1;
            while j < self.by_box.len() && self.by_box[j].0 == b {
                j += 1;
            }
            let cap = capacities[b as usize];
            stats.boxes += 1;
            if j - i == 1 {
                // Sole demanding shard: it gets the whole budget (both
                // policies agree).
                self.budget_pool[self.by_box[i].1 as usize] = cap;
                i = j;
                continue;
            }
            stats.contested_boxes += 1;
            let group_len = j - i;
            self.wf_grant.clear();
            self.wf_grant.resize(group_len, 0);
            self.wf_share.clear();
            self.wf_share.resize(group_len, 0);
            // Each shard's backlog target on this box, precomputed once per
            // group (it is loop-invariant): the caller's slot target,
            // never above the demand itself.
            self.wf_want.clear();
            for off in 0..group_len {
                let slot = self.by_box[i + off].1 as usize;
                let demand = self.demand_pool[slot] as u64;
                let target = slot_targets.get(slot).copied().unwrap_or(0);
                self.wf_want.push(demand.min(target));
            }
            let mut remaining = cap;

            // Phase 1: water-fill backlog. Each step grants one slot to the
            // shard with the largest remaining backlog; ties break on the
            // lowest offset, which is the lowest shard ordinal.
            while remaining > 0 {
                let mut best: Option<(u64, usize)> = None;
                for off in 0..group_len {
                    let want = self.wf_want[off];
                    let granted = self.wf_grant[off] as u64;
                    if want > granted {
                        let backlog = want - granted;
                        if best.is_none_or(|(top, _)| backlog > top) {
                            best = Some((backlog, off));
                        }
                    }
                }
                match best {
                    Some((_, off)) => {
                        self.wf_grant[off] += 1;
                        remaining -= 1;
                        stats.iterations += 1;
                    }
                    None => break,
                }
            }

            // Phase 2: demand-proportional split of the remainder over the
            // residual demand.
            let mut residual_total: u64 = 0;
            for off in 0..group_len {
                let slot = self.by_box[i + off].1 as usize;
                residual_total += self.demand_pool[slot] as u64 - self.wf_grant[off] as u64;
            }
            let mut leftover = remaining;
            if residual_total > 0 && remaining > 0 {
                for off in 0..group_len {
                    let slot = self.by_box[i + off].1 as usize;
                    let residual = self.demand_pool[slot] as u64 - self.wf_grant[off] as u64;
                    let share = (((remaining as u64) * residual / residual_total) as u32)
                        .min(residual as u32);
                    self.wf_share[off] = share;
                    leftover -= share;
                }
            }
            // The leftover goes to the largest residual demand (lowest
            // ordinal on ties) — possibly beyond its demand, mirroring the
            // proportional policy; budget above demand is unusable but keeps
            // per-box grants summing to exactly `cap`.
            if leftover > 0 {
                let mut best_off = 0;
                let mut best_residual = 0u64;
                for off in 0..group_len {
                    let slot = self.by_box[i + off].1 as usize;
                    let residual = self.demand_pool[slot] as u64 - self.wf_grant[off] as u64;
                    if residual > best_residual {
                        best_residual = residual;
                        best_off = off;
                    }
                }
                self.wf_share[best_off] += leftover;
            }
            for off in 0..group_len {
                let slot = self.by_box[i + off].1 as usize;
                self.budget_pool[slot] = self.wf_grant[off] + self.wf_share[off];
            }
            i = j;
        }
        stats
    }

    /// Splits each relay's reserved forwarding capacity across the shards
    /// whose relayed requests draw on it — the **relay-lending** step.
    ///
    /// Relay edges cross swarms: the poor boxes sharing one relay watch
    /// different videos, so a relay's reservation is a per-*relay* budget
    /// demanded by several shards at once, exactly like an open upload
    /// budget. `relay_of[x]` names request `x`'s relay (`None` = direct)
    /// and `reserved[b]` the forwarding slots reserved on box `b` (see
    /// [`crate::relay::RelayView`]). Must be called after
    /// [`ShardedArena::partition`] on the same request universe.
    ///
    /// Slots are granted shard-by-shard with the same deterministic
    /// water-fill as the budget split (largest remaining forwarding demand
    /// first, lowest shard ordinal on ties), so a shard with spare
    /// entitlement automatically *lends* it to a starved shard and each
    /// relay ends up forwarding exactly `min(reserved, demand)` units in
    /// total — per-relay reservations are never oversubscribed, and the
    /// grants are a pure function of the partition and inputs (thread-count
    /// invariant). [`RelayLendStats::lent`] counts the granted slots that
    /// serve a shard other than the relay's dominant one — capacity from
    /// one reservation genuinely split across swarms.
    ///
    /// # Panics
    /// Panics when `relay_of` disagrees in length with the partitioned
    /// request universe or names a relay outside `reserved`.
    pub fn split_relay_reserved(
        &mut self,
        reserved: &[u32],
        relay_of: &[Option<BoxId>],
    ) -> RelayLendStats {
        assert_eq!(
            relay_of.len(),
            self.pairs.len(),
            "one relay attribution per partitioned request"
        );
        let mut stats = RelayLendStats::default();
        self.relay_box_pool.clear();
        self.relay_demand_pool.clear();
        self.relay_ranges.clear();
        self.relay_stamp.clear();
        self.relay_stamp.resize(reserved.len(), 0);
        self.relay_slot.resize(reserved.len(), 0);

        // Per-(shard, relay) forwarding demand, pooled like the box demand.
        for (shard_no, info) in self.shards.iter().enumerate() {
            let start = self.relay_box_pool.len() as u32;
            for &x in &self.request_pool[info.req_start as usize..info.req_end as usize] {
                let Some(relay) = relay_of[x as usize] else {
                    continue;
                };
                let a = relay.index();
                assert!(a < reserved.len(), "relay {relay} out of range");
                if self.relay_stamp[a] == shard_no as u32 + 1 {
                    self.relay_demand_pool[self.relay_slot[a] as usize] += 1;
                } else {
                    self.relay_stamp[a] = shard_no as u32 + 1;
                    self.relay_slot[a] = self.relay_demand_pool.len() as u32;
                    self.relay_box_pool.push(a as u32);
                    self.relay_demand_pool.push(1);
                }
            }
            self.relay_ranges
                .push((start, self.relay_box_pool.len() as u32));
        }
        self.relay_grant_pool.clear();
        self.relay_grant_pool.resize(self.relay_box_pool.len(), 0);

        // Group the pool slots by relay; within a group, slots ascend with
        // the shard ordinal (pool slots are appended in shard order).
        self.relay_by_box.clear();
        self.relay_by_box.extend(
            self.relay_box_pool
                .iter()
                .enumerate()
                .map(|(slot, &a)| (a, slot as u32)),
        );
        self.relay_by_box.sort_unstable();

        let mut i = 0;
        while i < self.relay_by_box.len() {
            let a = self.relay_by_box[i].0;
            let mut j = i + 1;
            while j < self.relay_by_box.len() && self.relay_by_box[j].0 == a {
                j += 1;
            }
            let cap = reserved[a as usize];
            stats.relays += 1;
            let total_demand: u64 = (i..j)
                .map(|k| self.relay_demand_pool[self.relay_by_box[k].1 as usize] as u64)
                .sum();
            stats.forward_demand += total_demand as usize;
            if j - i == 1 {
                // Sole demanding shard: grant up to the whole reservation.
                let slot = self.relay_by_box[i].1 as usize;
                let grant = cap.min(self.relay_demand_pool[slot]);
                self.relay_grant_pool[slot] = grant;
                stats.granted += grant as usize;
                i = j;
                continue;
            }
            stats.contested_relays += 1;
            // Water-fill: one slot at a time to the shard with the largest
            // unmet forwarding demand, lowest ordinal (offset) on ties.
            let mut remaining = cap;
            while remaining > 0 {
                let mut best: Option<(u32, usize)> = None;
                for k in i..j {
                    let slot = self.relay_by_box[k].1 as usize;
                    let unmet = self.relay_demand_pool[slot] - self.relay_grant_pool[slot];
                    if unmet > 0 && best.is_none_or(|(top, _)| unmet > top) {
                        best = Some((unmet, slot));
                    }
                }
                match best {
                    Some((_, slot)) => {
                        self.relay_grant_pool[slot] += 1;
                        remaining -= 1;
                        stats.granted += 1;
                    }
                    None => break,
                }
            }
            // Lending observability: granted slots that serve a shard
            // other than the relay's dominant one (the shard granted the
            // most; lowest ordinal on ties) — forwarding capacity from a
            // single reservation genuinely split across swarms. A
            // floor-based entitlement would instead count rounding
            // remainders as "lent", inflating the metric.
            let mut granted_here = 0u32;
            let mut dominant = 0u32;
            for k in i..j {
                let grant = self.relay_grant_pool[self.relay_by_box[k].1 as usize];
                granted_here += grant;
                dominant = dominant.max(grant);
            }
            stats.lent += (granted_here - dominant) as usize;
            i = j;
        }
        stats.starved = stats.forward_demand - stats.granted;
        stats
    }

    /// Borrowed relay-lending view of shard `idx` (valid after
    /// [`ShardedArena::split_relay_reserved`]): which relays this shard's
    /// relayed requests draw on, with per-relay forwarding demand and
    /// granted slots.
    pub fn shard_relays(&self, idx: usize) -> RelayShardView<'_> {
        let (start, end) = self.relay_ranges.get(idx).copied().unwrap_or((0, 0));
        RelayShardView {
            key: self.shards[idx].key,
            relays: &self.relay_box_pool[start as usize..end as usize],
            demand: &self.relay_demand_pool[start as usize..end as usize],
            grant: &self.relay_grant_pool[start as usize..end as usize],
        }
    }

    /// Reconciles a partial (per-shard) assignment into a globally maximum
    /// matching by **rebuilding** the global network from scratch.
    ///
    /// Builds the global Lemma-1 network inside the pooled arena, preloads
    /// the flow encoded in `assignment` (entries that are not valid for the
    /// global instance — not a candidate, or over a box's remaining capacity
    /// — are dropped and counted), then runs a targeted augmenting-path
    /// search from every unmatched request. The search walks the *full*
    /// residual network, so it can reroute preloaded flow; by flow
    /// decomposition the result is a maximum matching, identical in size to
    /// a cold global solve. `assignment` is updated in place.
    ///
    /// This is O(E) serial per call: the fallback for callers without
    /// stable request keys and for rounds whose carried flow is stale;
    /// steady-state callers should use [`ShardedArena::reconcile_keyed`],
    /// which patches a persistent network instead. Calling this invalidates the persistent instance (the next
    /// keyed call rebuilds it).
    pub fn reconcile(
        &mut self,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        assignment: &mut [Option<BoxId>],
    ) -> ReconcileStats {
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        let stats = self.reconcile_view(capacities, bridge.view(), assignment);
        self.csr_bridge = bridge;
        stats
    }

    /// View-based core of [`ShardedArena::reconcile`]: identical semantics
    /// over a borrowed flat [`CandidateView`].
    pub fn reconcile_view(
        &mut self,
        capacities: &[u32],
        candidates: CandidateView<'_>,
        assignment: &mut [Option<BoxId>],
    ) -> ReconcileStats {
        assert_eq!(
            candidates.len(),
            assignment.len(),
            "one assignment slot per request"
        );
        // This rebuild borrows the persistent network's arena, so the keyed
        // instance must be rebuilt on its next call.
        let (global, search) = self.keyed.scratch();
        let b_count = capacities.len();
        let r_count = candidates.len();
        let sink = b_count + r_count + 1;
        global.clear(b_count + r_count + 2);
        self.source_edges.clear();
        for (i, &cap) in capacities.iter().enumerate() {
            self.source_edges
                .push(global.add_edge(0, 1 + i, cap as i64));
        }
        let mut stats = ReconcileStats {
            rebuilt: true,
            ..ReconcileStats::default()
        };
        self.sink_edges.clear();
        for (x, cands) in candidates.rows().enumerate() {
            let node = 1 + b_count + x;
            let mut preload = None;
            for &cand in cands {
                if cand.index() >= b_count {
                    continue;
                }
                let edge = global.add_edge(1 + cand.index(), node, 1);
                if assignment[x] == Some(cand) && preload.is_none() {
                    preload = Some((cand, edge));
                }
            }
            let sink_edge = global.add_edge(node, sink, 1);
            self.sink_edges.push(sink_edge);
            match preload {
                Some((cand, edge)) => {
                    let source_edge = self.source_edges[cand.index()];
                    if global.residual(source_edge) > 0 {
                        global.push(source_edge, 1);
                        global.push(edge, 1);
                        global.push(sink_edge, 1);
                        stats.preloaded += 1;
                    } else {
                        assignment[x] = None;
                        stats.dropped += 1;
                    }
                }
                None => {
                    if assignment[x].is_some() {
                        assignment[x] = None;
                        stats.dropped += 1;
                    }
                }
            }
        }

        // Targeted augmentation from every unmatched request (failure marks
        // persist across failed searches, see `TargetedAugment`).
        search.begin(global);
        for x in 0..r_count {
            if global.flow_on(self.sink_edges[x]) != 0 {
                continue;
            }
            let node = 1 + b_count + x;
            let sink_edge = self.sink_edges[x];
            if search.augment(global, &self.source_edges, sink, node, sink_edge) {
                stats.repaired += 1;
            } else {
                stats.unmatched += 1;
            }
        }

        // Read the final assignment back out (rerouting may have changed the
        // supplier of requests that were already matched).
        for (x, slot) in assignment.iter_mut().enumerate() {
            let node = 1 + b_count + x;
            *slot = None;
            // Outgoing entries of a request node are its sink edge plus the
            // residual twins of its incoming candidate edges.
            let mut cursor = global.first_edge(node);
            while let Some(idx) = cursor {
                cursor = global.next_edge(idx);
                if idx % 2 == 1 && global.flow_on(idx ^ 1) == 1 {
                    let box_node = global.target(idx);
                    debug_assert!(box_node >= 1 && box_node <= b_count);
                    *slot = Some(BoxId((box_node - 1) as u32));
                    break;
                }
            }
        }
        stats
    }

    /// Reconciles a partial (per-shard) assignment into a globally maximum
    /// matching over a **persistent** global network, patched by per-round
    /// deltas.
    ///
    /// `keys[x]` is a stable opaque identity for request `x` (the sharded
    /// scheduler packs viewer/stripe ids); consecutive calls diff the
    /// incoming round against the tracked instance:
    ///
    /// * surviving requests keep their node, candidate edges, **and assigned
    ///   flow** — a request served last reconcile is served for free;
    /// * departed requests have their flow cancelled and their edges
    ///   de-capacitated; new requests get (or recycle) a node and edges;
    /// * candidate-set and capacity changes patch edge capacities in place.
    ///
    /// Shard-phase assignments in `assignment` are *adopted* into requests
    /// the carried flow does not already serve (when valid under the global
    /// capacities), and a targeted augmenting-path search then repairs the
    /// rest, warm-starting from the carried residual state. The result is a
    /// maximum matching — identical in size to a cold global solve — and
    /// `assignment` is rewritten in place with the final supplier of every
    /// request.
    ///
    /// De-capacitated edges accumulate under churn; once more than a
    /// quarter of the network is dead the instance is compacted by
    /// rebuilding in place (amortized O(1)). The first call, a box-count
    /// change, a heavy inter-call drift (over half the tracked requests
    /// churned), or an intervening [`ShardedArena::reconcile`] also
    /// rebuild.
    ///
    /// # Panics
    /// Panics if a key appears twice in one call.
    pub fn reconcile_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[u128],
        candidates: &[Vec<BoxId>],
        assignment: &mut [Option<BoxId>],
    ) -> ReconcileStats {
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        let stats = self.reconcile_keyed_view(capacities, keys, bridge.view(), assignment);
        self.csr_bridge = bridge;
        stats
    }

    /// View-based core of [`ShardedArena::reconcile_keyed`]: identical
    /// semantics over a borrowed flat [`CandidateView`]. When the view
    /// carries per-row change stamps (see
    /// [`CandidateBuf::view_with_stamps`](crate::CandidateBuf::view_with_stamps)),
    /// a surviving request whose stamp is unchanged skips the per-row
    /// sort-and-diff entirely — the producer's candidate-index deltas stand
    /// in for the re-derived comparison.
    pub fn reconcile_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[u128],
        candidates: CandidateView<'_>,
        assignment: &mut [Option<BoxId>],
    ) -> ReconcileStats {
        assert_eq!(keys.len(), candidates.len(), "one key per request");
        assert_eq!(
            candidates.len(),
            assignment.len(),
            "one assignment slot per request"
        );
        let mut stats = ReconcileStats::default();
        // Compact once a quarter of the network is dead: reconciliation
        // walks box adjacency lists on every augmentation, so dead-edge
        // bloat taxes each event; rebuilds here are cheap relative to the
        // rounds between reconciles (a tighter bound than the incremental
        // matcher's one-half, which patches every round).
        if self.keyed.can_patch(capacities.len(), 4) {
            // Reconciles are skipped on fully-served rounds, so several
            // rounds of churn can pile up between calls. Patching beats
            // rebuilding only while most tracked requests survive: a diffed
            // request costs a hash lookup plus a sorted-edge merge, a
            // rebuilt one a straight append. A cheap lookup-only pre-pass
            // estimates the drift (the lookups are a fraction of the patch
            // cost); when more than half the instance churned, warmth is
            // worthless and the plain unkeyed rebuild — which skips the
            // keyed bookkeeping entirely — is the cheapest repair.
            let hits = keys.iter().filter(|key| self.keyed.contains(key)).count();
            // Saturating: a duplicated tracked key can push `hits` past the
            // tracked count; the patch then raises the documented
            // duplicate-key panic rather than underflowing here.
            let changed =
                keys.len().saturating_sub(hits) + self.keyed.tracked().saturating_sub(hits);
            if changed * 2 > keys.len() {
                self.drift_rebuilds += 1;
                return self.reconcile_view(capacities, candidates, assignment);
            }
            stats.retired = self.keyed.patch(capacities, keys, candidates);
        } else {
            self.keyed.rebuild(capacities, keys, candidates);
            stats.rebuilt = true;
        }

        // Pass A: keep carried flow only where it agrees with the shard
        // phase (or where the shard phase has nothing). Disagreeing flow is
        // cancelled up front — three O(1) pushes — so pass B can re-point it
        // at this round's shard assignment instead of paying a full
        // augmenting-path search per conflict. The shard assignment is the
        // better warm start: it is fresh (the carried flow may be several
        // churned rounds stale) and valid under the capacity-disjoint split.
        for (x, &tentative) in assignment.iter().enumerate() {
            if let Some(want) = tentative {
                self.keyed.release_unless(x, want);
            }
        }

        // Pass B: adopt the shard-phase assignment into every request the
        // (surviving) carried flow does not already serve.
        for (x, tentative) in assignment.iter_mut().enumerate() {
            if self.keyed.is_served(x) {
                stats.carried += 1;
                stats.preloaded += 1;
                continue;
            }
            let Some(want) = *tentative else { continue };
            if self.keyed.adopt(x, want) {
                stats.preloaded += 1;
            } else {
                *tentative = None;
                stats.dropped += 1;
            }
        }

        // Warm-started targeted augmentation from every still-unserved
        // request, then extraction: rerouting may have changed any
        // request's supplier.
        (stats.repaired, stats.unmatched) = self.keyed.augment_unserved();
        self.keyed.extract(assignment);
        stats
    }

    /// Full rebuilds performed by [`ShardedArena::reconcile_keyed`] so far,
    /// including its heavy-drift fallbacks through the unkeyed path (1
    /// after the first keyed call; steady low-drift reconciles must not add
    /// more except for dead-edge compaction).
    pub fn reconcile_rebuilds(&self) -> u64 {
        self.keyed.rebuilds() + self.drift_rebuilds
    }

    /// Requests currently tracked by the persistent reconciliation instance.
    pub fn tracked_requests(&self) -> usize {
        self.keyed.tracked()
    }

    /// Directed edge count of the persistent reconciliation network (twins
    /// included) — observability for the compaction heuristic.
    pub fn reconcile_arena_edges(&self) -> usize {
        self.keyed.edge_count()
    }

    /// Extracts a shard-local Hall obstruction: solves shard `idx`'s
    /// subproblem under the **full** (unsplit) capacities and, when it is
    /// infeasible, returns the violator with request indices mapped back to
    /// the global instance. Because the shard's candidate sets are unchanged
    /// from the global instance, the witness is also a global obstruction.
    /// Returns `None` when the shard alone is feasible (the round may still
    /// be infeasible through cross-shard interaction).
    ///
    /// This is a failure-path diagnostic, not a hot path: it allocates a
    /// throwaway subproblem.
    pub fn shard_obstruction(
        &self,
        idx: usize,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
    ) -> Option<Obstruction> {
        let view = self.shard(idx);
        let mut problem = ConnectionProblem::new(capacities.to_vec());
        for &x in view.requests {
            problem.add_request(candidates[x as usize].iter().copied());
        }
        let local = find_obstruction(&problem)?;
        let requests: Vec<usize> = local
            .requests
            .iter()
            .map(|&i| view.requests[i] as usize)
            .collect();
        // Re-derive the neighbourhood and capacity on the global indices so
        // the witness is self-contained.
        Some(Obstruction {
            boxes: local.boxes,
            capacity: local.capacity,
            requests,
        })
    }

    /// Checks a shard-local obstruction candidate against the global
    /// instance (convenience for tests and failure reporting): re-evaluates
    /// the Hall condition for `subset` on the full problem.
    pub fn check_global_subset(
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        subset: &[usize],
    ) -> Obstruction {
        let mut problem = ConnectionProblem::new(capacities.to_vec());
        for cands in candidates {
            problem.add_request(cands.iter().copied());
        }
        check_subset(&problem, subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    fn cold_served(caps: &[u32], cands: &[Vec<BoxId>]) -> usize {
        let mut p = ConnectionProblem::new(caps.to_vec());
        for c in cands {
            p.add_request(c.iter().copied());
        }
        p.solve().served()
    }

    #[test]
    fn partition_groups_by_key_and_counts_demand() {
        let mut sharded = ShardedArena::new();
        let shard_of = vec![7u64, 3, 7, 3, 9];
        let cands = vec![
            vec![b(0), b(1)],
            vec![b(1)],
            vec![b(0)],
            vec![b(1), b(2)],
            vec![],
        ];
        let n = sharded.partition(&shard_of, &cands, 3);
        assert_eq!(n, 3);
        let s0 = sharded.shard(0);
        assert_eq!(s0.key, 3);
        assert_eq!(s0.requests, &[1, 3]);
        assert_eq!(s0.boxes, &[1, 2]);
        assert_eq!(s0.demand, &[2, 1]);
        let s1 = sharded.shard(1);
        assert_eq!(s1.key, 7);
        assert_eq!(s1.requests, &[0, 2]);
        assert_eq!(s1.boxes, &[0, 1]);
        assert_eq!(s1.demand, &[2, 1]);
        let s2 = sharded.shard(2);
        assert_eq!(s2.key, 9);
        assert_eq!(s2.requests, &[4]);
        assert!(s2.boxes.is_empty());
    }

    #[test]
    fn budgets_partition_capacity() {
        let mut sharded = ShardedArena::new();
        // Box 0 demanded by both shards (demand 2 vs 1), box 1 only by the
        // second.
        let shard_of = vec![0u64, 0, 1];
        let cands = vec![vec![b(0)], vec![b(0)], vec![b(0), b(1)]];
        sharded.partition(&shard_of, &cands, 2);
        let caps = vec![3u32, 2];
        sharded.split_budgets_targeted(&caps, &[]);
        let s0 = sharded.shard(0);
        let s1 = sharded.shard(1);
        // Box 0: shard 0 floor(3·2/3) = 2, shard 1 floor(3·1/3) = 1 → sums
        // to the capacity.
        assert_eq!(s0.budget, &[2]);
        assert_eq!(s1.budget[0], 1);
        // Box 1 is exclusive to shard 1: it receives the whole budget.
        let box1_slot = s1.boxes.iter().position(|&x| x == 1).unwrap();
        assert_eq!(s1.budget[box1_slot], 2);
        // Per-box budgets never exceed capacity.
        for s in 0..sharded.shard_count() {
            let v = sharded.shard(s);
            for (&bx, &bud) in v.boxes.iter().zip(v.budget) {
                assert!(bud <= caps[bx as usize]);
            }
        }
    }

    #[test]
    fn waterfill_tops_up_starved_shard_first() {
        let mut sharded = ShardedArena::new();
        // Box 0 (capacity 2) demanded by both shards, demand 2 each. Shard 1
        // (key 9) carries a backlog; shard 0 does not.
        let shard_of = vec![4u64, 4, 9, 9];
        let cands = vec![vec![b(0)], vec![b(0)], vec![b(0)], vec![b(0)]];
        sharded.partition(&shard_of, &cands, 1);
        let caps = vec![2u32];
        let stats = sharded.split_budgets_targeted(&caps, &[0, 5]);
        // Both slots go to the starved shard (ordinal 1, key 9).
        assert_eq!(sharded.shard(0).budget, &[0]);
        assert_eq!(sharded.shard(1).budget, &[2]);
        assert_eq!(stats.iterations, 2);
        assert_eq!(stats.contested_boxes, 1);
    }

    #[test]
    fn targeted_split_reaches_the_named_box() {
        let mut sharded = ShardedArena::new();
        // Two boxes (capacity 2 each), both demanded by both shards with
        // equal demand. A per-shard scalar deficit cannot say *where* shard
        // 1 was starved; a targeted slot backlog can: shard 1's backlog is
        // on box 1 only, so the water-fill tops it up there and leaves box
        // 0 to the proportional split.
        let shard_of = vec![4u64, 4, 9, 9];
        let cands = vec![
            vec![b(0), b(1)],
            vec![b(0), b(1)],
            vec![b(0), b(1)],
            vec![b(0), b(1)],
        ];
        sharded.partition(&shard_of, &cands, 2);
        let caps = vec![2u32, 2];
        // Pool slot layout: shard 0 → (b0, b1), shard 1 → (b0, b1).
        let stats = sharded.split_budgets_targeted(&caps, &[0, 0, 0, 2]);
        assert_eq!(sharded.shard(1).budget, &[1, 2]);
        assert_eq!(sharded.shard(0).budget, &[1, 0]);
        assert_eq!(stats.iterations, 2);
        // Capacity is still partitioned exactly.
        for (bx, &cap) in caps.iter().enumerate() {
            let granted: u32 = (0..2)
                .map(|s| {
                    let view = sharded.shard(s);
                    view.boxes
                        .iter()
                        .zip(view.budget)
                        .filter(|(&bb, _)| bb as usize == bx)
                        .map(|(_, &g)| g)
                        .sum::<u32>()
                })
                .sum();
            assert_eq!(granted, cap, "box {bx}");
        }
    }

    #[test]
    fn relay_lending_crosses_shards_without_oversubscription() {
        let mut sharded = ShardedArena::new();
        // Relay 0 reserves 3 forwarding slots; shard 0 has one relayed
        // request, shard 1 has three. A per-shard-proportional split of the
        // reservation would strand a slot on shard 0; the lending step
        // moves it to shard 1.
        let shard_of = vec![4u64, 9, 9, 9];
        let cands = vec![vec![b(1)]; 4];
        sharded.partition(&shard_of, &cands, 2);
        let relay_of = vec![Some(b(0)); 4];
        let reserved = vec![3u32, 0];
        let stats = sharded.split_relay_reserved(&reserved, &relay_of);
        assert_eq!(stats.relays, 1);
        assert_eq!(stats.contested_relays, 1);
        assert_eq!(stats.forward_demand, 4);
        assert_eq!(stats.granted, 3, "min(reserved, demand)");
        assert_eq!(stats.starved, 1);
        let s0 = sharded.shard_relays(0);
        let s1 = sharded.shard_relays(1);
        assert_eq!((s0.relays, s0.demand), (&[0u32][..], &[1u32][..]));
        assert_eq!((s1.relays, s1.demand), (&[0u32][..], &[3u32][..]));
        // Water-fill hands all three slots to the largest unmet demand
        // first: shard 1 gets 2 (down to parity), then the tie at 1 breaks
        // to the lowest ordinal (shard 0).
        assert_eq!(s0.grant, &[1]);
        assert_eq!(s1.grant, &[2]);
        // No relay oversubscribed: grants sum to at most the reservation.
        assert!(s0.grant[0] + s1.grant[0] <= reserved[0]);
        // Shard 1 is the relay's dominant shard (2 of the 3 granted
        // slots); the remaining grant serves shard 0 — one forwarding slot
        // of the single reservation crossed the swarm boundary.
        assert_eq!(stats.lent, 1);
    }

    #[test]
    fn relay_lending_is_deterministic_and_shard_scoped() {
        let run = || {
            let mut sharded = ShardedArena::new();
            let shard_of = vec![1u64, 2, 3, 1, 2];
            let cands = vec![vec![b(0)]; 5];
            sharded.partition(&shard_of, &cands, 3);
            let relay_of = vec![Some(b(1)), Some(b(2)), Some(b(1)), None, Some(b(1))];
            let reserved = vec![0u32, 2, 1];
            let stats = sharded.split_relay_reserved(&reserved, &relay_of);
            let grants: Vec<Vec<u32>> = (0..sharded.shard_count())
                .map(|s| sharded.shard_relays(s).grant.to_vec())
                .collect();
            (stats, grants)
        };
        let (stats, grants) = run();
        assert_eq!(run(), (stats, grants.clone()));
        // Relay 1 (reserved 2) is demanded by all three shards at demand 1
        // each: the demand-1 tie breaks to the lowest ordinals, so shards 0
        // and 1 get its two slots and shard 2 starves. Relay 2 (reserved 1)
        // covers shard 1's other request.
        assert_eq!(stats.relays, 2);
        assert_eq!(stats.contested_relays, 1);
        assert_eq!(stats.forward_demand, 4);
        assert_eq!(stats.granted, 3);
        assert_eq!(stats.starved, 1);
        assert_eq!(grants[0], vec![1]);
        // Shard 1's relays in first-appearance order: relay 2, then relay 1.
        assert_eq!(grants[1], vec![1, 1]);
        assert_eq!(grants[2], vec![0]);
    }

    #[test]
    fn waterfill_with_zero_deficits_matches_proportional() {
        let mut sharded = ShardedArena::new();
        let shard_of = vec![0u64, 0, 1, 1, 2];
        let cands = vec![
            vec![b(0), b(1)],
            vec![b(0)],
            vec![b(0), b(2)],
            vec![b(1), b(2)],
            vec![b(2)],
        ];
        let caps = vec![3u32, 1, 2];
        sharded.partition(&shard_of, &cands, 3);
        let pool_len: usize = (0..3).map(|s| sharded.shard(s).boxes.len()).sum();
        let stats = sharded.split_budgets_targeted(&caps, &vec![0; pool_len]);
        assert_eq!(stats.iterations, 0);
        // Demand-proportional by hand. Box 0 (cap 3): demands 2 and 1 →
        // 2 + 1. Box 1 (cap 1): demands 1 and 1 → floors 0 + 0, leftover
        // to the lowest ordinal. Box 2 (cap 2): demands 2 and 1 → floors
        // 1 + 0, leftover to the larger demand.
        assert_eq!(sharded.shard(0).boxes, &[0, 1]);
        assert_eq!(sharded.shard(0).budget, &[2, 1]);
        assert_eq!(sharded.shard(1).boxes, &[0, 2, 1]);
        assert_eq!(sharded.shard(1).budget, &[1, 2, 0]);
        assert_eq!(sharded.shard(2).boxes, &[2]);
        assert_eq!(sharded.shard(2).budget, &[0]);
        // An empty target slice is the same split.
        let zero: Vec<Vec<u32>> = (0..3).map(|s| sharded.shard(s).budget.to_vec()).collect();
        sharded.split_budgets_targeted(&caps, &[]);
        for (s, budget) in zero.iter().enumerate() {
            assert_eq!(sharded.shard(s).budget, budget.as_slice(), "shard {s}");
        }
    }

    #[test]
    fn waterfill_leftover_falls_back_to_residual_demand() {
        let mut sharded = ShardedArena::new();
        // Box 0 (capacity 4): shard 0 demand 3 with backlog 1, shard 1
        // demand 1 without backlog. Waterfill grants one slot to shard 0;
        // the remaining 3 slots split proportionally over residual demand
        // (2 vs 1).
        let shard_of = vec![0u64, 0, 0, 1];
        let cands = vec![vec![b(0)], vec![b(0)], vec![b(0)], vec![b(0)]];
        sharded.partition(&shard_of, &cands, 1);
        let stats = sharded.split_budgets_targeted(&[4], &[1, 0]);
        assert_eq!(stats.iterations, 1);
        assert_eq!(sharded.shard(0).budget, &[3]);
        assert_eq!(sharded.shard(1).budget, &[1]);
    }

    #[test]
    fn reconcile_reaches_global_maximum_from_empty_assignment() {
        let caps = vec![1, 1, 2];
        let cands = vec![
            vec![b(0), b(1)],
            vec![b(0)],
            vec![b(1), b(2)],
            vec![b(2)],
            vec![b(2)],
        ];
        let mut assignment = vec![None; cands.len()];
        let mut sharded = ShardedArena::new();
        let stats = sharded.reconcile(&caps, &cands, &mut assignment);
        let served = assignment.iter().flatten().count();
        assert_eq!(served, cold_served(&caps, &cands));
        assert_eq!(stats.repaired, served);
        assert_eq!(stats.preloaded, 0);
        assert!(stats.rebuilt);
    }

    #[test]
    fn reconcile_reroutes_preloaded_flow_when_needed() {
        // Shard phase put request 0 on box 0; request 1 can only use box 0.
        // Reconciliation must reroute request 0 to box 1 to serve both.
        let caps = vec![1, 1];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let mut assignment = vec![Some(b(0)), None];
        let mut sharded = ShardedArena::new();
        let stats = sharded.reconcile(&caps, &cands, &mut assignment);
        assert_eq!(assignment, vec![Some(b(1)), Some(b(0))]);
        assert_eq!(stats.preloaded, 1);
        assert_eq!(stats.repaired, 1);
        assert_eq!(stats.unmatched, 0);
    }

    #[test]
    fn reconcile_drops_invalid_preloads() {
        let caps = vec![1];
        // Request 1's assignment names a non-candidate; request 2 overloads
        // box 0 after request 0 took its only slot.
        let cands = vec![vec![b(0)], vec![b(0)], vec![b(0)]];
        let mut assignment = vec![Some(b(0)), Some(b(5)), Some(b(0))];
        let mut sharded = ShardedArena::new();
        let stats = sharded.reconcile(&caps, &cands, &mut assignment);
        assert_eq!(stats.dropped, 2);
        assert_eq!(assignment.iter().flatten().count(), 1);
        assert_eq!(stats.unmatched, 2);
    }

    #[test]
    fn keyed_reconcile_first_call_rebuilds_then_patches() {
        let caps = vec![1u32, 1];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let keys = vec![10u128, 11];
        let mut sharded = ShardedArena::new();
        let mut assignment = vec![Some(b(0)), None];
        let stats = sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
        assert!(stats.rebuilt);
        assert_eq!(assignment, vec![Some(b(1)), Some(b(0))]);
        assert_eq!(stats.preloaded, 1);
        assert_eq!(stats.carried, 0);
        assert_eq!(stats.repaired, 1);

        // Same round again: everything is carried, nothing rebuilt.
        let mut assignment = vec![None, None];
        let stats = sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
        assert!(!stats.rebuilt);
        assert_eq!(stats.carried, 2);
        assert_eq!(stats.repaired, 0);
        assert_eq!(assignment.iter().flatten().count(), 2);
        assert_eq!(sharded.reconcile_rebuilds(), 1);
    }

    #[test]
    fn keyed_reconcile_retires_departed_requests() {
        let caps = vec![1u32, 1, 1, 1];
        let mut sharded = ShardedArena::new();
        let mut assignment = vec![None; 4];
        sharded.reconcile_keyed(
            &caps,
            &[1, 2, 3, 4],
            &[vec![b(0)], vec![b(1)], vec![b(2)], vec![b(3)]],
            &mut assignment,
        );
        assert_eq!(assignment.iter().flatten().count(), 4);
        // Request 1 departs; request 5 arrives and needs its box. Three of
        // four requests survive, so the drift heuristic patches in place.
        let mut assignment = vec![None; 4];
        let stats = sharded.reconcile_keyed(
            &caps,
            &[2, 3, 4, 5],
            &[vec![b(1)], vec![b(2)], vec![b(3)], vec![b(0)]],
            &mut assignment,
        );
        assert!(!stats.rebuilt);
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.carried, 3);
        assert_eq!(stats.repaired, 1);
        assert_eq!(
            assignment,
            vec![Some(b(1)), Some(b(2)), Some(b(3)), Some(b(0))]
        );
        assert_eq!(sharded.tracked_requests(), 4);
    }

    #[test]
    fn keyed_reconcile_tracks_capacity_changes() {
        let mut sharded = ShardedArena::new();
        let keys = vec![1u128, 2];
        let cands = vec![vec![b(0), b(1)], vec![b(0), b(1)]];
        let mut assignment = vec![None, None];
        sharded.reconcile_keyed(&[2, 0], &keys, &cands, &mut assignment);
        assert_eq!(assignment.iter().flatten().count(), 2);
        // Box 0 shrinks to 1 slot, box 1 opens one: still fully servable.
        let mut assignment = vec![None, None];
        let stats = sharded.reconcile_keyed(&[1, 1], &keys, &cands, &mut assignment);
        assert!(!stats.rebuilt);
        assert_eq!(assignment.iter().flatten().count(), 2);
        // Both boxes shrink: only one request served.
        let mut assignment = vec![None, None];
        let stats = sharded.reconcile_keyed(&[1, 0], &keys, &cands, &mut assignment);
        assert_eq!(assignment.iter().flatten().count(), 1);
        assert_eq!(stats.unmatched, 1);
    }

    #[test]
    fn keyed_reconcile_matches_cold_solves_under_churn() {
        let caps = vec![2u32; 6];
        let mut sharded = ShardedArena::new();
        for round in 0..60u32 {
            let count = 4 + (round % 5) as usize;
            let keys: Vec<u128> = (0..count)
                .map(|i| ((round / 7) as u128) << 32 | i as u128)
                .collect();
            let cands: Vec<Vec<BoxId>> = (0..count as u32)
                .map(|i| vec![b((i + round) % 6), b((i + round + 2) % 6)])
                .collect();
            // A deliberately lopsided tentative assignment: everything on
            // its first candidate (often over capacity).
            let mut assignment: Vec<Option<BoxId>> =
                cands.iter().map(|c| c.first().copied()).collect();
            sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
            assert_eq!(
                assignment.iter().flatten().count(),
                cold_served(&caps, &cands),
                "round {round}"
            );
        }
        // Steady keyed rounds must not rebuild every call.
        assert!(sharded.reconcile_rebuilds() < 30);
    }

    #[test]
    fn keyed_reconcile_full_churn_falls_back_and_stays_correct() {
        let caps = vec![2u32; 8];
        let mut sharded = ShardedArena::new();
        for round in 0..300u32 {
            // Entirely fresh keys each round: worst case for edge garbage —
            // the drift estimate routes every call through the plain
            // rebuild, so the arena never bloats.
            let keys: Vec<u128> = (0..6u32).map(|i| (round * 10 + i) as u128).collect();
            let cands: Vec<Vec<BoxId>> = (0..6u32)
                .map(|i| vec![b((round + i) % 8), b((round + i + 3) % 8)])
                .collect();
            let mut assignment = vec![None; 6];
            sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
            assert_eq!(assignment.iter().flatten().count(), 6, "round {round}");
        }
        assert!(sharded.reconcile_rebuilds() > 1, "fallback never kicked in");
        assert!(sharded.reconcile_arena_edges() < 4000);
    }

    #[test]
    fn keyed_reconcile_sustained_low_drift_triggers_compaction() {
        // A sliding window of 8 requests over 16 boxes: exactly one request
        // is replaced per round (12.5% drift — well below the 50% fallback
        // threshold, so every call patches), but each replacement recycles
        // a slot with different candidates, de-capacitating edges. Dead
        // pairs must eventually cross the one-quarter bound and compact the
        // arena in place.
        let caps = vec![1u32; 16];
        let mut sharded = ShardedArena::new();
        let window = 8u32;
        let mut patched_rounds = 0u32;
        for round in 0..200u32 {
            let keys: Vec<u128> = (0..window).map(|i| (round + i) as u128).collect();
            let cands: Vec<Vec<BoxId>> = (0..window)
                .map(|i| {
                    let base = (round + i) * 5;
                    vec![b(base % 16), b((base + 7) % 16), b((base + 11) % 16)]
                })
                .collect();
            let mut assignment = vec![None; window as usize];
            let stats = sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
            if round > 0 && !stats.rebuilt {
                patched_rounds += 1;
            }
            assert_eq!(
                assignment.iter().flatten().count(),
                cold_served(&caps, &cands),
                "round {round}"
            );
        }
        // Compaction fired at least once beyond the initial build…
        assert!(
            sharded.reconcile_rebuilds() > 1,
            "dead-edge compaction never kicked in"
        );
        // …but most rounds patched in place (the drift fallback stayed
        // out of the way), and the arena stayed bounded.
        assert!(patched_rounds > 150, "patched only {patched_rounds} rounds");
        assert!(sharded.reconcile_arena_edges() < 2000);
    }

    #[test]
    fn rebuilding_reconcile_invalidates_persistent_instance() {
        let caps = vec![1u32];
        let keys = vec![1u128];
        let cands = vec![vec![b(0)]];
        let mut sharded = ShardedArena::new();
        let mut assignment = vec![None];
        sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
        assert_eq!(sharded.reconcile_rebuilds(), 1);
        // A rebuilding reconcile clobbers the shared arena…
        let mut other = vec![None, None];
        sharded.reconcile(&caps, &[vec![b(0)], vec![b(0)]], &mut other);
        // …so the next keyed call must rebuild rather than patch.
        let mut assignment = vec![None];
        let stats = sharded.reconcile_keyed(&caps, &keys, &cands, &mut assignment);
        assert!(stats.rebuilt);
        assert_eq!(assignment, vec![Some(b(0))]);
    }

    #[test]
    fn shard_obstruction_maps_to_global_indices() {
        let mut sharded = ShardedArena::new();
        // Shard 5 (requests 1..4) all pile on box 0 (capacity 1); request 0
        // belongs to a feasible shard.
        let shard_of = vec![2u64, 5, 5, 5];
        let cands = vec![vec![b(1)], vec![b(0)], vec![b(0)], vec![b(0)]];
        let caps = vec![1u32, 1];
        sharded.partition(&shard_of, &cands, 2);
        assert!(sharded.shard_obstruction(0, &caps, &cands).is_none());
        let ob = sharded.shard_obstruction(1, &caps, &cands).unwrap();
        assert!(ob.is_violating());
        assert_eq!(ob.requests, vec![1, 2, 3]);
        assert_eq!(ob.boxes, vec![b(0)]);
        // The witness also violates Hall on the global instance.
        let global = ShardedArena::check_global_subset(&caps, &cands, &ob.requests);
        assert!(global.is_violating());
        assert_eq!(global.capacity, ob.capacity);
    }

    #[test]
    fn pooled_buffers_are_reused_across_rounds() {
        let mut sharded = ShardedArena::new();
        let caps = vec![2u32; 8];
        for round in 0..50u32 {
            let shard_of: Vec<u64> = (0..12).map(|i| ((i + round) % 4) as u64).collect();
            let cands: Vec<Vec<BoxId>> = (0..12u32)
                .map(|i| vec![b((i + round) % 8), b((i + round + 3) % 8)])
                .collect();
            sharded.partition(&shard_of, &cands, 8);
            sharded.split_budgets_targeted(&caps, &[]);
            let mut assignment = vec![None; 12];
            sharded.reconcile(&caps, &cands, &mut assignment);
            assert_eq!(
                assignment.iter().flatten().count(),
                cold_served(&caps, &cands),
                "round {round}"
            );
        }
    }
}
