//! Incremental per-round connection matching.
//!
//! Consecutive simulation rounds solve nearly identical matching instances:
//! most playbacks continue, so most stripe requests and their candidate sets
//! carry over. The [`IncrementalMatcher`] keeps one Lemma-1 network and its
//! flow alive across rounds in a [`KeyedFlow`] keyed by [`RequestKey`],
//! which patches each round's deltas in place (see [`vod_flow::keyed`]).
//!
//! The matcher owns the repair policy. A round that changed nothing keeps
//! its maximum flow as-is. Otherwise a few unserved requests are repaired by
//! targeted augmenting-path searches, while a large unserved set goes to the
//! solver, warm-started on the patched residual flow. Once more than half of
//! the network's edge pairs are dead the matcher compacts by rebuilding in
//! place. A steady-state round — same working set of requests — performs
//! **zero heap allocations** in the matching layer.

use vod_core::{BoxId, StripeId};
use vod_flow::{CandidateBuf, CandidateView, Dinic, KeyedFlow, MaxFlowSolve};
use vod_obs::TraceHandle;

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

/// Reusable incremental matcher over one persistent [`KeyedFlow`].
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
    flow: KeyedFlow<RequestKey>,
    solver: Box<dyn MaxFlowSolve>,
    rounds: u64,
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
            flow: KeyedFlow::default(),
            solver,
            rounds: 0,
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
        self.flow.rebuilds()
    }

    /// The number of rounds scheduled so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current matching size carried in the arena.
    pub fn total_flow(&self) -> i64 {
        self.flow.total_flow()
    }

    /// Directed edge count of the underlying arena (twins included) —
    /// observability for the compaction heuristic.
    pub fn arena_edge_count(&self) -> usize {
        self.flow.edge_count()
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
        self.rounds += 1;
        // Compact once half of the network is dead.
        if self.flow.can_patch(capacities.len(), 2) {
            self.flow.patch(capacities, keys, candidates);
            if self.flow.changed() {
                // Only unserved requests can be endpoints of augmenting
                // paths. With few of them, targeted searches restore
                // maximality without touching the (much larger) unchanged
                // part of the network. A large unserved set (persistently
                // infeasible instance) would thrash the targeted search —
                // every successful augment invalidates the failure marks —
                // so hand that case to the solver, warm-started on the
                // residual.
                let unserved = self.flow.count_unserved();
                if unserved * 8 > keys.len() + 64 {
                    self.flow.solve(self.solver.as_mut());
                } else if unserved > 0 {
                    self.flow.augment_unserved();
                }
            }
        } else {
            self.flow.rebuild(capacities, keys, candidates);
            // Cold instance: hand the whole thing to the configured solver.
            self.flow.solve(self.solver.as_mut());
        }
        out.clear();
        out.resize(keys.len(), None);
        self.flow.extract(out);
    }

    /// One-shot solve without request identity: builds the instance inside
    /// the reused arena and solves cold. Leaves the tracked instance dead,
    /// so a later keyed round rebuilds before patching.
    pub fn schedule_cold(
        &mut self,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.rounds += 1;
        let mut problem = vod_flow::ConnectionProblem::new(capacities.to_vec());
        for cands in candidates {
            problem.add_request(cands.iter().copied());
        }
        let (arena, _) = self.flow.scratch();
        let matching = problem.solve_in(arena, self.solver.as_mut());
        out.clear();
        out.extend(matching.assignment);
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
            .field("boxes", &self.flow.boxes())
            .field("tracked_requests", &self.flow.tracked())
            .field("total_flow", &self.flow.total_flow())
            .field("rebuilds", &self.flow.rebuilds())
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
