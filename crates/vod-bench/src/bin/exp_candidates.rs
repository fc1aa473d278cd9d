//! E13 — Incremental candidate pipeline: expiry-wheel index + flat CSR
//! views.
//!
//! Every round the engine computes each request's candidate supplier set
//! `B(x)` (Lemma 1's bipartite instance). The candidate index buckets
//! playback-cache entries into an expiry wheel by their (exactly known)
//! eviction round and maintains per-stripe holder lists in place, so
//! per-round maintenance is O(entries expiring now) + O(insertions), and
//! the rows flow to the schedulers as one flat CSR buffer with per-row
//! change stamps.
//!
//! This experiment replays workloads and reports the per-round candidate
//! cost — index maintenance plus row construction, read from the tracer's
//! `candidate-maintain` and `candidate-fill` spans — alongside the
//! live-entry and expiry volumes that explain it: the cost tracks
//! *expiring* entries, not live ones.
//!
//! It is also a CI gate for the CSR plumbing: the run exits non-zero unless
//! (b) the slice-of-vecs scheduler entry points (reached through the
//! `Scheduler` trait's default bridge) schedule identically to the native
//! CSR path, and (c) the sharded scheduler at 1/2/4 threads serves exactly
//! what the global matcher serves. (The index itself is checked against a
//! brute-force model in `tests/candidate_pipeline.rs`.)

use rand::SeedableRng;
use std::time::Instant;
use vod_analysis::Table;
use vod_bench::{print_header, BenchSink, Scale};
use vod_core::{BoxId, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem};
use vod_sim::{
    MaxFlowScheduler, RequestKey, Scheduler, ShardedMatcher, SimConfig, SimulationReport,
    Simulator, Stage, TraceHandle,
};
use vod_workloads::{DemandGenerator, FlashCrowd, MultiSwarmChurn};

/// Timing repetitions per configuration: schedules are deterministic, so
/// the minimum over repeats is a sound noise filter (the host is shared).
const REPEATS: usize = 3;

/// Trace ring capacity for the traced run (spans beyond it are dropped;
/// the per-round stage aggregates are unaffected).
const RING: usize = 1 << 14;

/// Constructor of a fresh demand generator for one replay of a shape.
type GenFactory = Box<dyn Fn(&VideoSystem) -> Box<dyn DemandGenerator>>;

struct Shape {
    label: &'static str,
    system: VideoSystem,
    rounds: u64,
    make_gen: GenFactory,
}

fn build_system(n: usize, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, 2.0, 8, 4, 4, 1.5, duration);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap()
}

fn shapes(scale: Scale) -> Vec<Shape> {
    let (n, duration, rounds) = scale.pick((64usize, 24u32, 60u64), (256, 40, 160));
    let (swarms, arrivals) = scale.pick((8usize, 6usize), (16, 14));
    vec![
        Shape {
            label: "churn (multi-swarm)",
            system: build_system(n, duration, 0x1A),
            rounds,
            make_gen: Box::new(move |sys| {
                Box::new(
                    MultiSwarmChurn::new(sys.m(), swarms, arrivals, 1.5, 0x5A).with_rotation(7),
                )
            }),
        },
        Shape {
            label: "flash-crowd",
            system: build_system(n, duration, 0x2B),
            rounds,
            make_gen: Box::new(move |sys| {
                Box::new(FlashCrowd::single(VideoId(0), sys.n(), sys.m(), 1.5, 3))
            }),
        },
    ]
}

/// A scheduler that implements only the slice-of-vecs methods, so the
/// engine reaches it through the `Scheduler` trait's default view-to-vecs
/// bridge — the bridged path of gate (b).
struct BridgedMaxFlow(MaxFlowScheduler);

impl Scheduler for BridgedMaxFlow {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.0.schedule(capacities, candidates)
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.0.schedule_keyed(capacities, keys, candidates, out);
    }

    fn name(&self) -> &'static str {
        "bridged-max-flow"
    }
}

/// Aggregated candidate profile of one run.
struct CandProfile {
    report: SimulationReport,
    /// Candidate maintenance + row construction, milliseconds per round
    /// (from the tracer's candidate spans, best over repeats).
    cand_ms_per_round: f64,
    /// Whole-run wall-clock milliseconds per round, untraced (best over
    /// repeats).
    total_ms_per_round: f64,
    live_avg: f64,
    expired_avg: f64,
    inserted_avg: f64,
}

fn profile(
    shape: &Shape,
    config: SimConfig,
    make_sched: impl Fn() -> Box<dyn Scheduler>,
) -> CandProfile {
    let mut best_cand = f64::INFINITY;
    let mut best_total = f64::INFINITY;
    let mut kept: Option<SimulationReport> = None;
    for _ in 0..REPEATS {
        let mut gen = (shape.make_gen)(&shape.system);
        let start = Instant::now();
        let report =
            Simulator::with_scheduler(&shape.system, config, make_sched()).run(gen.as_mut());
        let total_ms = start.elapsed().as_secs_f64() * 1e3 / report.round_count().max(1) as f64;
        best_total = best_total.min(total_ms);

        let mut gen = (shape.make_gen)(&shape.system);
        let mut sim = Simulator::with_scheduler(&shape.system, config, make_sched());
        sim.attach_tracer(TraceHandle::recording(RING));
        let traced = sim.run(gen.as_mut());
        let cand_ns: u64 = traced
            .rounds
            .iter()
            .filter_map(|r| r.timing.as_ref())
            .map(|t| t.stage_ns(Stage::CandidateMaintain) + t.stage_ns(Stage::CandidateFill))
            .sum();
        let cand_ms = cand_ns as f64 / 1e6 / traced.round_count().max(1) as f64;
        best_cand = best_cand.min(cand_ms);
        kept = Some(report);
    }
    let report = kept.expect("at least one repeat");
    let rounds = report.round_count().max(1) as f64;
    let sum = |f: &dyn Fn(&vod_sim::CandidateStats) -> usize| -> f64 {
        report
            .rounds
            .iter()
            .filter_map(|r| r.candidates.as_ref())
            .map(|c| f(c) as f64)
            .sum::<f64>()
            / rounds
    };
    CandProfile {
        live_avg: sum(&|c| c.index_entries),
        expired_avg: sum(&|c| c.expired),
        inserted_avg: sum(&|c| c.inserted),
        cand_ms_per_round: best_cand,
        total_ms_per_round: best_total,
        report,
    }
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E13 exp_candidates — incremental candidate pipeline",
        "expiry-wheel index maintenance costs O(expiring entries), not O(live entries); flat CSR candidate views are schedule-neutral end to end",
        scale,
    );

    let mut sink = BenchSink::from_env(scale);
    let mut diverged = false;
    let mut table = Table::new(
        "Candidate pipeline cost per round (identical schedules required)",
        &[
            "workload",
            "cand ms/round",
            "run ms/round",
            "live entries/round",
            "expired/round",
            "inserted/round",
            "served",
        ],
    );
    let mut verdicts: Vec<String> = Vec::new();

    for shape in shapes(scale) {
        let config = SimConfig::new(shape.rounds).continue_on_failure();
        let incremental = profile(&shape, config, || Box::new(MaxFlowScheduler::new()));

        // Gate (b): the bridged slice-of-vecs scheduler path schedules
        // exactly like the native CSR path.
        let bridged = profile(&shape, config, || {
            Box::new(BridgedMaxFlow(MaxFlowScheduler::new()))
        });
        for (a, b) in bridged.report.rounds.iter().zip(&incremental.report.rounds) {
            if a.served != b.served
                || a.unserved != b.unserved
                || a.served_from_cache != b.served_from_cache
            {
                eprintln!(
                    "FAIL: {} — bridged path diverged at round {}",
                    shape.label, a.round
                );
                diverged = true;
                break;
            }
        }
        // Gate (c): sharded thread counts serve the global maximum.
        for threads in [1usize, 2, 4] {
            let sharded = profile(&shape, config, || Box::new(ShardedMatcher::new(threads)));
            for (a, b) in sharded.report.rounds.iter().zip(&incremental.report.rounds) {
                if a.served != b.served || a.unserved != b.unserved {
                    eprintln!(
                        "FAIL: {} — sharded ({threads} threads) diverged at round {}",
                        shape.label, a.round
                    );
                    diverged = true;
                    break;
                }
            }
        }

        let config = format!("n{}r{}", shape.system.n(), shape.rounds);
        sink.record(
            "cand/incremental",
            shape.label,
            &config,
            incremental.cand_ms_per_round,
            incremental.report.total_served(),
        );
        sink.record(
            "run/incremental",
            shape.label,
            &config,
            incremental.total_ms_per_round,
            incremental.report.total_served(),
        );

        table.push_row(vec![
            shape.label.to_string(),
            format!("{:.4}", incremental.cand_ms_per_round),
            format!("{:.3}", incremental.total_ms_per_round),
            format!("{:.0}", incremental.live_avg),
            format!("{:.1}", incremental.expired_avg),
            format!("{:.1}", incremental.inserted_avg),
            incremental.report.total_served().to_string(),
        ]);
        verdicts.push(format!(
            "{}: candidate build+evict {:.4} ms/round; eviction touches ~{:.1} expiring \
             entries/round of ~{:.0} live ones",
            shape.label,
            incremental.cand_ms_per_round,
            incremental.expired_avg,
            incremental.live_avg,
        ));
    }

    println!("{}", table.to_markdown());

    if diverged {
        eprintln!("FAIL: candidate pipeline changed a schedule");
        std::process::exit(1);
    }
    println!("all scheduler paths produced identical schedules");
    println!("candidate-pipeline profile:");
    for verdict in &verdicts {
        println!("  {verdict}");
    }
    if let Err(err) = sink.flush() {
        eprintln!("FAIL: could not write BENCH_JSON: {err}");
        std::process::exit(1);
    }
}
