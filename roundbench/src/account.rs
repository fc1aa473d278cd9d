//! Self-time accounting over the round's layer tree.
//!
//! A round is `Simulator::step`, timed by the benchmark. Inside it the
//! engine's recorder (`vod-obs`) times each pipeline stage, and the
//! wrappers time the generator, the scheduler and the flow solver at their
//! trait boundaries. A layer's self time is its inclusive time minus the
//! inclusive time of its children; the round's own self time is the
//! engine's untracked remainder. Parallel shard solves are busy time on
//! worker threads: they are reported, never subtracted from a wall time.

use crate::wrappers::ProbeSample;
use vod_sim::{Stage, StageTimings};

/// A node of the round's layer tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Simulator::step` wall time; its self time is `engine.untracked`.
    Round,
    /// A top-level engine stage span.
    Engine(Stage),
    /// The demand generator wrapper, inside `demand-intake`.
    Demands,
    /// The scheduler wrapper, in place of the engine's `schedule` span.
    Scheduler,
    /// A sharded-matcher stage span, inside the scheduler.
    Shard(Stage),
    /// The flow-solver wrapper, inside the scheduler.
    MaxFlow,
    /// A solver stage span.
    Solver(Stage),
}

/// The engine stages the benchmark reports, in pipeline order. Any other
/// engine span (relay accounting and re-plans, which these workloads never
/// run) stays in the untracked remainder.
pub const ENGINE_STAGES: [Stage; 12] = [
    Stage::PlaybackEnd,
    Stage::CandidateMaintain,
    Stage::ChurnDrain,
    Stage::FaultDrain,
    Stage::RepairPlan,
    Stage::DemandIntake,
    Stage::RequestCollect,
    Stage::CandidateFill,
    Stage::Deliver,
    Stage::Degrade,
    Stage::FailureDiagnose,
    Stage::RepairCommit,
];

/// Number of accounted layers.
pub const LAYER_COUNT: usize = 21;

/// Every accounted layer, in report order.
pub const LAYERS: [Layer; LAYER_COUNT] = [
    Layer::Round,
    Layer::Engine(ENGINE_STAGES[0]),
    Layer::Engine(ENGINE_STAGES[1]),
    Layer::Engine(ENGINE_STAGES[2]),
    Layer::Engine(ENGINE_STAGES[3]),
    Layer::Engine(ENGINE_STAGES[4]),
    Layer::Engine(ENGINE_STAGES[5]),
    Layer::Engine(ENGINE_STAGES[6]),
    Layer::Engine(ENGINE_STAGES[7]),
    Layer::Engine(ENGINE_STAGES[8]),
    Layer::Engine(ENGINE_STAGES[9]),
    Layer::Engine(ENGINE_STAGES[10]),
    Layer::Engine(ENGINE_STAGES[11]),
    Layer::Demands,
    Layer::Scheduler,
    Layer::Shard(Stage::ShardPartition),
    Layer::Shard(Stage::ShardSplit),
    Layer::Shard(Stage::ShardReconcile),
    Layer::Shard(Stage::ShardSolve),
    Layer::MaxFlow,
    Layer::Solver(Stage::SolverAnalyze),
];

impl Layer {
    /// The parent table: round ⊃ engine stages and the scheduler;
    /// demand-intake ⊃ the generator; the scheduler ⊃ shard stages and the
    /// solver; solver stages sit under the solver wrapper, or under shard
    /// reconciliation when the round is sharded (the only shard stage that
    /// runs a global solve on the calling thread).
    pub fn parent(self, sharded: bool) -> Option<Layer> {
        match self {
            Layer::Round => None,
            Layer::Engine(_) | Layer::Scheduler => Some(Layer::Round),
            Layer::Demands => Some(Layer::Engine(Stage::DemandIntake)),
            Layer::Shard(_) | Layer::MaxFlow => Some(Layer::Scheduler),
            Layer::Solver(_) if sharded => Some(Layer::Shard(Stage::ShardReconcile)),
            Layer::Solver(_) => Some(Layer::MaxFlow),
        }
    }

    /// Busy layers run on worker threads beside their parent.
    pub fn busy(self) -> bool {
        self == Layer::Shard(Stage::ShardSolve)
    }

    /// The per-layer metric reporting this layer's self time per request.
    pub fn metric(self) -> String {
        match self {
            Layer::Round => "engine.untracked.ns_per_req".into(),
            Layer::Engine(stage) => format!("engine.{}.ns_per_req", stage.name()),
            Layer::Demands => "workloads.demands.ns_per_req".into(),
            Layer::Scheduler => "scheduler.self.ns_per_req".into(),
            Layer::Shard(Stage::ShardSolve) => "shard.solve.busy_ns_per_req".into(),
            Layer::Shard(stage) => format!(
                "shard.{}.ns_per_req",
                stage.name().trim_start_matches("shard-")
            ),
            Layer::MaxFlow => "flow.max_flow.ns_per_req".into(),
            Layer::Solver(stage) => format!("flow.{}.ns_per_req", stage.name()),
        }
    }

    fn inclusive(self, round: &RoundSample) -> u64 {
        match self {
            Layer::Round => round.wall_ns,
            Layer::Engine(stage) | Layer::Shard(stage) | Layer::Solver(stage) => {
                round.timing.stage_ns(stage)
            }
            Layer::Demands => round.probes.generator.ns,
            Layer::Scheduler => round.probes.scheduler.ns,
            Layer::MaxFlow => round.probes.solver.ns,
        }
    }
}

fn index_of(layer: Layer) -> usize {
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("every parent is an accounted layer")
}

/// Everything measured about one traced round.
#[derive(Clone, Copy, Debug)]
pub struct RoundSample {
    /// `Simulator::step` wall time.
    pub wall_ns: u64,
    /// The recorder's per-stage aggregate for the round.
    pub timing: StageTimings,
    /// The wrappers' readings for the round (after minus before).
    pub probes: ProbeSample,
}

/// Self nanoseconds of every layer in one round, index-aligned with
/// [`LAYERS`]. A negative entry means a child outlasted its parent: the
/// parent table no longer matches the program.
pub fn self_times(round: &RoundSample, sharded: bool) -> [i64; LAYER_COUNT] {
    let inclusive: [i64; LAYER_COUNT] = LAYERS.map(|l| l.inclusive(round) as i64);
    let mut own = inclusive;
    for (i, layer) in LAYERS.iter().enumerate() {
        if layer.busy() {
            continue;
        }
        if let Some(parent) = layer.parent(sharded) {
            own[index_of(parent)] -= inclusive[i];
        }
    }
    own
}

/// The closure check: the non-busy self times must add up to the round's
/// wall time, and none may be negative.
pub fn closes(own: &[i64; LAYER_COUNT], wall_ns: u64) -> bool {
    let sum: i64 = LAYERS
        .iter()
        .zip(own)
        .filter(|(l, _)| !l.busy())
        .map(|(_, &ns)| ns)
        .sum();
    own.iter().all(|&ns| ns >= 0) && sum == wall_ns as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrappers::LayerSample;

    fn timing(spans: &[(Stage, u64)]) -> StageTimings {
        let mut t = StageTimings::default();
        for &(stage, ns) in spans {
            t.add(stage, ns);
        }
        t
    }

    fn own(own: &[i64; LAYER_COUNT], layer: Layer) -> i64 {
        own[index_of(layer)]
    }

    #[test]
    fn sharded_round_subtracts_serial_children_and_keeps_busy_time() {
        let round = RoundSample {
            wall_ns: 1_000,
            timing: timing(&[
                (Stage::PlaybackEnd, 50),
                (Stage::CandidateMaintain, 30),
                (Stage::DemandIntake, 100),
                (Stage::RequestCollect, 200),
                (Stage::CandidateFill, 150),
                // The engine's own schedule span encloses the wrapper.
                (Stage::Schedule, 310),
                (Stage::ShardPartition, 20),
                (Stage::ShardSplit, 10),
                (Stage::ShardReconcile, 40),
                // Two shards solved in parallel: 500 ns busy inside a
                // 300 ns scheduler call.
                (Stage::ShardSolve, 260),
                (Stage::ShardSolve, 240),
            ]),
            probes: ProbeSample {
                generator: LayerSample {
                    ns: 60,
                    calls: 1,
                    work: 7,
                },
                scheduler: LayerSample {
                    ns: 300,
                    calls: 1,
                    work: 9,
                },
                ..ProbeSample::default()
            },
        };
        let times = self_times(&round, true);
        assert_eq!(own(&times, Layer::Engine(Stage::DemandIntake)), 40);
        assert_eq!(own(&times, Layer::Demands), 60);
        assert_eq!(own(&times, Layer::Scheduler), 230);
        assert_eq!(own(&times, Layer::Shard(Stage::ShardSolve)), 500);
        // 1000 − (50 + 30 + 100 + 200 + 150 + 300): the 10 ns between the
        // engine's schedule span and the wrapper are engine time.
        assert_eq!(own(&times, Layer::Round), 170);
        assert!(closes(&times, round.wall_ns));
    }

    #[test]
    fn solver_time_nests_under_the_scheduler_when_unsharded() {
        let round = RoundSample {
            wall_ns: 900,
            timing: timing(&[
                (Stage::RequestCollect, 100),
                (Stage::CandidateFill, 200),
                (Stage::Schedule, 450),
                (Stage::SolverAnalyze, 30),
            ]),
            probes: ProbeSample {
                scheduler: LayerSample {
                    ns: 440,
                    calls: 1,
                    work: 0,
                },
                solver: LayerSample {
                    ns: 200,
                    calls: 2,
                    work: 12,
                },
                ..ProbeSample::default()
            },
        };
        let times = self_times(&round, false);
        assert_eq!(own(&times, Layer::Solver(Stage::SolverAnalyze)), 30);
        assert_eq!(own(&times, Layer::MaxFlow), 170);
        assert_eq!(own(&times, Layer::Scheduler), 240);
        assert_eq!(own(&times, Layer::Round), 160);
        assert!(closes(&times, round.wall_ns));
    }

    #[test]
    fn a_child_outlasting_its_parent_fails_the_closure_check() {
        let round = RoundSample {
            wall_ns: 100,
            timing: timing(&[(Stage::DemandIntake, 10)]),
            probes: ProbeSample {
                generator: LayerSample {
                    ns: 25,
                    calls: 1,
                    work: 1,
                },
                ..ProbeSample::default()
            },
        };
        assert!(!closes(&self_times(&round, false), round.wall_ns));
    }

    #[test]
    fn metric_names_follow_the_modules() {
        let names: Vec<String> = LAYERS.iter().map(|l| l.metric()).collect();
        assert!(names.contains(&"engine.request-collect.ns_per_req".to_string()));
        assert!(names.contains(&"shard.reconcile.ns_per_req".to_string()));
        assert!(names.contains(&"flow.solver-analyze.ns_per_req".to_string()));
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
