//! E11 — Per-swarm sharded scheduling: equivalence, parallel speedup, and
//! reconciliation profile.
//!
//! Lemma 1's per-round instance is block-structured (one block per swarm,
//! coupled through box capacities). This experiment replays identical
//! multi-swarm round scripts through the global incremental matcher and the
//! sharded matcher at several thread counts, verifying that every
//! configuration serves exactly the same number of requests (sharding never
//! changes feasibility) and reporting wall-clock per round.
//!
//! The reconciliation table reports, per workload, the fraction of rounds
//! that needed reconciliation at all, the mean wall-clock per reconciled
//! round, full rebuilds of the persistent global network, water-filling
//! iterations of the budget split, and the shard-phase deficit.
//!
//! On a single-core host the sharded column measures sharding overhead; the
//! parallel speedup materializes with the core count. The run doubles as
//! the CI smoke test for the sharded path (`EXP_SCALE=quick`, the default,
//! finishes in seconds and exits non-zero on any served-count divergence).

use std::time::Instant;
use vod_analysis::Table;
use vod_bench::{multi_swarm_script, print_header, replay_script, BenchSink, RoundScript, Scale};
use vod_sim::{MaxFlowScheduler, Scheduler, ShardedMatcher};

struct Shape {
    label: &'static str,
    script: RoundScript,
}

impl Shape {
    /// Stable bench-file key for this instance size.
    fn config(&self) -> String {
        format!("b{}r{}", self.script.caps.len(), self.script.rounds.len())
    }
}

fn shapes(scale: Scale) -> Vec<Shape> {
    let (boxes, viewers, rounds) = scale.pick((96, 56, 20), (256, 150, 40));
    // A capacity-tight variant: the same flash-crowd shape on a third of the
    // boxes, so supplier sets overlap heavily and the budget split is
    // genuinely contested (the loose shapes rarely reconcile at all).
    let tight_boxes = (boxes / 3).max(16);
    vec![
        Shape {
            label: "churn (12 swarms)",
            script: multi_swarm_script(boxes, 12, viewers, 4, rounds, 0x5A),
        },
        Shape {
            label: "flash-crowd (3 swarms)",
            script: multi_swarm_script(boxes, 3, viewers, 4, rounds, 0xF1),
        },
        Shape {
            label: "flash-crowd tight (3 swarms)",
            script: multi_swarm_script(tight_boxes, 3, viewers, 4, rounds, 0xF1),
        },
    ]
}

/// Accumulated profile of one sharded replay.
struct ShardedProfile {
    served: usize,
    rounds: u64,
    reconcile_rounds: u64,
    reconcile_ms_total: f64,
    rebuilds: u64,
    split_iterations: u64,
    shard_unserved: u64,
    deficit_peak: u64,
}

impl ShardedProfile {
    fn reconcile_fraction(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.reconcile_rounds as f64 / self.rounds as f64
        }
    }

    /// Mean reconciliation wall-clock amortized over *all* rounds (the
    /// per-round price of the repair pass).
    fn reconcile_ms_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.reconcile_ms_total / self.rounds as f64
        }
    }
}

/// Timing repetitions per configuration: schedules are deterministic, so
/// the minimum over repeats is a sound noise filter (the host is shared).
const REPEATS: usize = 3;

/// Replays a script `REPEATS` times through fresh schedulers, returning
/// (total served, best milliseconds per round).
fn time_replay(script: &RoundScript, mut make: impl FnMut() -> Box<dyn Scheduler>) -> (usize, f64) {
    let mut served = 0;
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let mut scheduler = make();
        let start = Instant::now();
        served = replay_script(script, scheduler.as_mut());
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(elapsed / script.rounds.len() as f64);
    }
    (served, best)
}

/// Replays a script through fresh sharded matchers `REPEATS` times,
/// accumulating the (replay-invariant) per-round shard stats alongside the
/// best timing.
fn profile_replay(
    script: &RoundScript,
    mut make: impl FnMut() -> ShardedMatcher,
) -> ShardedProfile {
    let mut best: Option<ShardedProfile> = None;
    for _ in 0..REPEATS {
        let mut matcher = make();
        let mut out = Vec::new();
        let mut served = 0usize;
        let mut split_iterations = 0u64;
        let mut shard_unserved = 0u64;
        let mut deficit_peak = 0u64;
        for (keys, cands) in &script.rounds {
            matcher.schedule_keyed(&script.caps, keys, cands, &mut out);
            served += out.iter().flatten().count();
            let stats = matcher.last_round_stats();
            split_iterations += stats.split_iterations as u64;
            shard_unserved += stats.shard_unserved as u64;
            deficit_peak = deficit_peak.max(stats.deficit_max);
        }
        let profile = ShardedProfile {
            served,
            rounds: matcher.rounds(),
            reconcile_rounds: matcher.reconcile_rounds(),
            reconcile_ms_total: matcher.reconcile_nanos() as f64 / 1e6,
            rebuilds: matcher.reconcile_rebuilds(),
            split_iterations,
            shard_unserved,
            deficit_peak,
        };
        let better = best
            .as_ref()
            .is_none_or(|b| profile.reconcile_ms_total < b.reconcile_ms_total);
        if better {
            best = Some(profile);
        }
    }
    best.expect("at least one repeat")
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E11 exp_sharding — per-swarm sharded scheduling",
        "sharded solves + reconciliation serve exactly the global maximum (Lemma 1 feasibility unchanged); shard solves parallelize across swarms",
        scale,
    );
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)\n");

    let mut sink = BenchSink::from_env(scale);
    let mut diverged = false;
    let mut timing = Table::new(
        "Scheduler wall-clock per round (served counts must match)",
        &[
            "workload",
            "scheduler",
            "served",
            "ms/round",
            "speedup vs incremental",
        ],
    );
    let mut reconciliation = Table::new(
        "Reconciliation profile (1 thread)",
        &[
            "workload",
            "recon rounds",
            "recon fraction",
            "recon ms/round",
            "rebuilds",
            "split iters",
            "shard deficit",
            "peak deficit score",
        ],
    );

    for shape in shapes(scale) {
        let (reference_served, incremental_ms) =
            time_replay(&shape.script, || Box::new(MaxFlowScheduler::new()));
        sink.record(
            "sched/incremental",
            shape.label,
            &shape.config(),
            incremental_ms,
            reference_served as u64,
        );
        timing.push_row(vec![
            shape.label.to_string(),
            "incremental (global)".into(),
            reference_served.to_string(),
            format!("{incremental_ms:.3}"),
            "1.00x".into(),
        ]);

        let profile = profile_replay(&shape.script, || ShardedMatcher::new(1));
        if profile.served != reference_served {
            diverged = true;
        }
        reconciliation.push_row(vec![
            shape.label.to_string(),
            format!("{}/{}", profile.reconcile_rounds, profile.rounds),
            format!("{:.1}%", profile.reconcile_fraction() * 100.0),
            format!("{:.4}", profile.reconcile_ms_per_round()),
            profile.rebuilds.to_string(),
            profile.split_iterations.to_string(),
            profile.shard_unserved.to_string(),
            profile.deficit_peak.to_string(),
        ]);

        for threads in [1usize, 2, 4, 8] {
            let (served, ms) =
                time_replay(&shape.script, || Box::new(ShardedMatcher::new(threads)));
            if served != reference_served {
                diverged = true;
            }
            sink.record(
                &format!("sched/sharded-t{threads}"),
                shape.label,
                &shape.config(),
                ms,
                served as u64,
            );
            timing.push_row(vec![
                shape.label.to_string(),
                format!("sharded ({threads} threads)"),
                served.to_string(),
                format!("{ms:.3}"),
                format!("{:.2}x", incremental_ms / ms),
            ]);
        }
    }
    println!("{}", timing.to_markdown());
    println!("{}", reconciliation.to_markdown());

    if diverged {
        eprintln!("FAIL: sharded served counts diverged from the global matcher");
        std::process::exit(1);
    }
    println!("\nall sharded configurations served exactly the global maximum");
    if let Err(err) = sink.flush() {
        eprintln!("FAIL: could not write BENCH_JSON: {err}");
        std::process::exit(1);
    }
}
