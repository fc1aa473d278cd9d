//! Timing wrappers handed to the program through its public constructors.
//!
//! The benchmark never reaches inside a layer: it wraps the demand
//! generator (passed to `Simulator::step`), the scheduler (passed to
//! `Simulator::with_scheduler`) and the flow solver (passed to
//! `MaxFlowScheduler::with_solver`), and times each call at that boundary.
//! Every trait method is forwarded, overridden or not: a method left to its
//! default would route the engine through the default bridge
//! (`CandidateView::to_vecs`) and measure a different program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vod_core::BoxId;
use vod_flow::{CandidateView, FlowArena, MaxFlowSolve, NodeId, RelayLendStats, RelayView};
use vod_sim::TraceHandle;
use vod_sim::{MaxFlowScheduler, RequestKey, Scheduler, ShardRoundStats, ShardedMatcher};
use vod_workloads::{DemandGenerator, OccupancyView, VideoDemand};

/// Cumulative time, calls and work units of one wrapped layer. The
/// counters are statistics that publish no other data, so `Relaxed`
/// ordering suffices.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
    work: AtomicU64,
}

impl LayerClock {
    fn record(&self, start: Instant, work: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.work.fetch_add(work, Ordering::Relaxed);
    }

    fn sample(&self) -> LayerSample {
        LayerSample {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            work: self.work.load(Ordering::Relaxed),
        }
    }
}

/// A reading of a [`LayerClock`]; subtract two readings for one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerSample {
    /// Inclusive nanoseconds spent inside the wrapped calls.
    pub ns: u64,
    /// Wrapped calls made.
    pub calls: u64,
    /// Work units the calls reported (demands emitted, flow pushed).
    pub work: u64,
}

impl std::ops::Sub for LayerSample {
    type Output = LayerSample;

    fn sub(self, rhs: LayerSample) -> LayerSample {
        LayerSample {
            ns: self.ns - rhs.ns,
            calls: self.calls - rhs.calls,
            work: self.work - rhs.work,
        }
    }
}

/// The probes of one simulator: one clock per wrapped layer plus the
/// matcher gauges read after each scheduling call.
#[derive(Debug, Default)]
pub struct Probes {
    generator: LayerClock,
    scheduler: LayerClock,
    solver: LayerClock,
    rebuilds: AtomicU64,
    arena_edges: AtomicU64,
}

/// A reading of every probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeSample {
    /// The demand generator (`demands_at` / `demands_into`).
    pub generator: LayerSample,
    /// The scheduler (every `schedule*` entry point).
    pub scheduler: LayerSample,
    /// The flow solver (`max_flow`); work is the flow pushed.
    pub solver: LayerSample,
    /// Cumulative full rebuilds of the incremental matcher.
    pub rebuilds: u64,
    /// Edges in the incremental matcher's arena after the last call.
    pub arena_edges: u64,
}

impl ProbeSample {
    /// What accumulated between `before` and this reading; the arena
    /// gauge keeps its latest value.
    pub fn since(self, before: ProbeSample) -> ProbeSample {
        ProbeSample {
            generator: self.generator - before.generator,
            scheduler: self.scheduler - before.scheduler,
            solver: self.solver - before.solver,
            rebuilds: self.rebuilds - before.rebuilds,
            arena_edges: self.arena_edges,
        }
    }
}

impl Probes {
    /// Fresh probes, shared by the wrappers of one simulator.
    pub fn new() -> Arc<Probes> {
        Arc::new(Probes::default())
    }

    /// Reads every probe.
    pub fn sample(&self) -> ProbeSample {
        ProbeSample {
            generator: self.generator.sample(),
            scheduler: self.scheduler.sample(),
            solver: self.solver.sample(),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            arena_edges: self.arena_edges.load(Ordering::Relaxed),
        }
    }
}

/// Matcher gauges a wrapped scheduler exposes through its public API.
pub trait MatcherGauges {
    /// `(rebuilds, arena edges)` of the scheduler's incremental matcher;
    /// zero for schedulers that own none.
    fn gauges(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl MatcherGauges for MaxFlowScheduler {
    fn gauges(&self) -> (u64, u64) {
        let matcher = self.matcher();
        (matcher.rebuilds(), matcher.arena_edge_count() as u64)
    }
}

/// The sharded matcher keeps its incremental matchers per shard, behind
/// no public accessor; its per-round work is read from `ShardRoundStats`.
impl MatcherGauges for ShardedMatcher {}

/// A scheduler timed at its trait boundary.
pub struct TimedScheduler<S> {
    inner: S,
    probes: Arc<Probes>,
}

impl<S: Scheduler + MatcherGauges> TimedScheduler<S> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: S, probes: Arc<Probes>) -> Self {
        TimedScheduler { inner, probes }
    }

    fn timed<R>(&mut self, requests: usize, call: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let result = call(&mut self.inner);
        self.probes.scheduler.record(start, requests as u64);
        let (rebuilds, edges) = self.inner.gauges();
        self.probes.rebuilds.store(rebuilds, Ordering::Relaxed);
        self.probes.arena_edges.store(edges, Ordering::Relaxed);
        result
    }
}

impl<S: Scheduler + MatcherGauges> Scheduler for TimedScheduler<S> {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.timed(candidates.len(), |s| s.schedule(capacities, candidates))
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.timed(keys.len(), |s| {
            s.schedule_keyed(capacities, keys, candidates, out)
        })
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.timed(keys.len(), |s| {
            s.schedule_keyed_view(capacities, keys, candidates, out)
        })
    }

    fn schedule_relayed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.timed(keys.len(), |s| {
            s.schedule_relayed(capacities, keys, candidates, relays, out)
        })
    }

    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.timed(keys.len(), |s| {
            s.schedule_relayed_view(capacities, keys, candidates, relays, out)
        })
    }

    fn shard_stats(&self) -> Option<ShardRoundStats> {
        self.inner.shard_stats()
    }

    fn relay_stats(&self) -> Option<RelayLendStats> {
        self.inner.relay_stats()
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.inner.attach_tracer(tracer);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A flow solver timed at its trait boundary.
pub struct TimedSolver<F> {
    inner: F,
    probes: Arc<Probes>,
}

impl<F: MaxFlowSolve> TimedSolver<F> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: F, probes: Arc<Probes>) -> Self {
        TimedSolver { inner, probes }
    }
}

impl<F: MaxFlowSolve> MaxFlowSolve for TimedSolver<F> {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        let start = Instant::now();
        let pushed = self.inner.max_flow(arena, source, sink);
        self.probes
            .solver
            .record(start, u64::try_from(pushed).unwrap_or(0));
        pushed
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.inner.attach_tracer(tracer);
    }
}

/// A demand generator timed at its trait boundary.
pub struct TimedGenerator {
    inner: Box<dyn DemandGenerator>,
    probes: Arc<Probes>,
}

impl TimedGenerator {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: Box<dyn DemandGenerator>, probes: Arc<Probes>) -> Self {
        TimedGenerator { inner, probes }
    }
}

impl DemandGenerator for TimedGenerator {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        let start = Instant::now();
        let demands = self.inner.demands_at(round, occupancy);
        self.probes.generator.record(start, demands.len() as u64);
        demands
    }

    fn demands_into(
        &mut self,
        round: u64,
        occupancy: &dyn OccupancyView,
        out: &mut Vec<VideoDemand>,
    ) {
        let start = Instant::now();
        self.inner.demands_into(round, occupancy, out);
        self.probes.generator.record(start, out.len() as u64);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use vod_core::{StripeId, VideoId};
    use vod_flow::CandidateBuf;

    type Log = Arc<Mutex<Vec<&'static str>>>;

    fn note(log: &Log, call: &'static str) {
        log.lock().expect("spy log").push(call);
    }

    /// Implements every trait method and logs which one ran, so a wrapper
    /// that left a method to its default shows up as the wrong entry.
    struct Spy(Log);

    impl MatcherGauges for Spy {
        fn gauges(&self) -> (u64, u64) {
            (3, 17)
        }
    }

    impl Scheduler for Spy {
        fn schedule(&mut self, _: &[u32], c: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
            note(&self.0, "schedule");
            vec![None; c.len()]
        }
        fn schedule_keyed(
            &mut self,
            _: &[u32],
            _: &[RequestKey],
            _: &[Vec<BoxId>],
            _: &mut Vec<Option<BoxId>>,
        ) {
            note(&self.0, "schedule_keyed");
        }
        fn schedule_keyed_view(
            &mut self,
            _: &[u32],
            _: &[RequestKey],
            _: CandidateView<'_>,
            _: &mut Vec<Option<BoxId>>,
        ) {
            note(&self.0, "schedule_keyed_view");
        }
        fn schedule_relayed(
            &mut self,
            _: &[u32],
            _: &[RequestKey],
            _: &[Vec<BoxId>],
            _: &RelayView,
            _: &mut Vec<Option<BoxId>>,
        ) {
            note(&self.0, "schedule_relayed");
        }
        fn schedule_relayed_view(
            &mut self,
            _: &[u32],
            _: &[RequestKey],
            _: CandidateView<'_>,
            _: &RelayView,
            _: &mut Vec<Option<BoxId>>,
        ) {
            note(&self.0, "schedule_relayed_view");
        }
        fn shard_stats(&self) -> Option<ShardRoundStats> {
            note(&self.0, "shard_stats");
            Some(ShardRoundStats::default())
        }
        fn relay_stats(&self) -> Option<RelayLendStats> {
            note(&self.0, "relay_stats");
            Some(RelayLendStats::default())
        }
        fn attach_tracer(&mut self, _: &TraceHandle) {
            note(&self.0, "attach_tracer");
        }
        fn name(&self) -> &'static str {
            note(&self.0, "name");
            "spy"
        }
    }

    impl MaxFlowSolve for Spy {
        fn max_flow(&mut self, _: &mut FlowArena, _: NodeId, _: NodeId) -> i64 {
            note(&self.0, "max_flow");
            5
        }
        fn name(&self) -> &'static str {
            note(&self.0, "solver_name");
            "spy"
        }
        fn attach_tracer(&mut self, _: &TraceHandle) {
            note(&self.0, "solver_attach_tracer");
        }
    }

    impl DemandGenerator for Spy {
        fn demands_at(&mut self, round: u64, _: &dyn OccupancyView) -> Vec<VideoDemand> {
            note(&self.0, "demands_at");
            vec![VideoDemand::new(BoxId(0), VideoId(0), round)]
        }
        fn demands_into(&mut self, round: u64, _: &dyn OccupancyView, out: &mut Vec<VideoDemand>) {
            note(&self.0, "demands_into");
            out.clear();
            out.push(VideoDemand::new(BoxId(1), VideoId(0), round));
            out.push(VideoDemand::new(BoxId(2), VideoId(0), round));
        }
        fn name(&self) -> &'static str {
            note(&self.0, "generator_name");
            "spy"
        }
    }

    #[test]
    fn scheduler_wrapper_forwards_every_method_to_its_own_counterpart() {
        let log = Log::default();
        let probes = Probes::new();
        let mut timed = TimedScheduler::new(Spy(log.clone()), probes.clone());
        let caps = [1u32, 1];
        let rows = vec![vec![BoxId(0)], vec![BoxId(0), BoxId(1)]];
        let mut buf = CandidateBuf::new();
        buf.fill_from_slices(&rows);
        let stripe = StripeId::new(VideoId(0), 0);
        let keys = [
            RequestKey {
                viewer: BoxId(1),
                stripe,
            },
            RequestKey {
                viewer: BoxId(0),
                stripe,
            },
        ];
        let relays = RelayView {
            relay_of: &[None, None],
            reserved: &[0, 0],
        };
        let mut out = Vec::new();
        timed.schedule(&caps, &rows);
        timed.schedule_keyed(&caps, &keys, &rows, &mut out);
        timed.schedule_keyed_view(&caps, &keys, buf.view(), &mut out);
        timed.schedule_relayed(&caps, &keys, &rows, &relays, &mut out);
        timed.schedule_relayed_view(&caps, &keys, buf.view(), &relays, &mut out);
        assert!(timed.shard_stats().is_some());
        assert!(timed.relay_stats().is_some());
        timed.attach_tracer(&TraceHandle::off());
        assert_eq!(Scheduler::name(&timed), "spy");
        assert_eq!(
            *log.lock().expect("spy log"),
            [
                "schedule",
                "schedule_keyed",
                "schedule_keyed_view",
                "schedule_relayed",
                "schedule_relayed_view",
                "shard_stats",
                "relay_stats",
                "attach_tracer",
                "name",
            ]
        );
        let sample = probes.sample();
        assert_eq!(sample.scheduler.calls, 5);
        assert_eq!(sample.scheduler.work, 2 + 4 * 2);
        assert_eq!((sample.rebuilds, sample.arena_edges), (3, 17));
    }

    #[test]
    fn solver_and_generator_wrappers_forward_every_method() {
        let log = Log::default();
        let probes = Probes::new();
        let mut solver = TimedSolver::new(Spy(log.clone()), probes.clone());
        let mut arena = FlowArena::new();
        let (s, t) = (arena.add_node(), arena.add_node());
        assert_eq!(solver.max_flow(&mut arena, s, t), 5);
        assert_eq!(MaxFlowSolve::name(&solver), "spy");
        MaxFlowSolve::attach_tracer(&mut solver, &TraceHandle::off());

        let mut generator = TimedGenerator::new(Box::new(Spy(log.clone())), probes.clone());
        let free = vec![true; 4];
        assert_eq!(generator.demands_at(0, &free).len(), 1);
        let mut out = Vec::new();
        generator.demands_into(1, &free, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(DemandGenerator::name(&generator), "spy");
        assert_eq!(
            *log.lock().expect("spy log"),
            [
                "max_flow",
                "solver_name",
                "solver_attach_tracer",
                "demands_at",
                "demands_into",
                "generator_name",
            ]
        );
        let sample = probes.sample();
        assert_eq!((sample.solver.calls, sample.solver.work), (1, 5));
        assert_eq!((sample.generator.calls, sample.generator.work), (2, 3));
    }
}
