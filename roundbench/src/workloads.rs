//! The three benchmark workloads, each built from the run seed alone.
//!
//! The program receives only what a workload generates: a system
//! allocation, demands, churn events and faults. Sizes are parameters so
//! the self-tests can run each workload's recipe on a small fleet.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use vod_core::{RandomPermutationAllocator, SystemParams, VideoId, VideoSystem};
use vod_flow::Dinic;
use vod_sim::{
    DegradationConfig, DeliveryPolicy, MaxFlowScheduler, RepairPlanner, Scheduler, ShardedMatcher,
    SimConfig, Simulator,
};
use vod_workloads::{
    ChurnModel, CrowdSpec, DemandGenerator, FaultModel, FlashCrowd, MultiSwarmChurn,
    NextVideoPolicy, SequentialViewing, SessionLength,
};

use crate::wrappers::{Probes, TimedGenerator, TimedScheduler, TimedSolver};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every box busy every round on a 16k fleet: engine loops and warm
    /// incremental patching over a working set larger than the L3 cache.
    Steady16k,
    /// Staggered maximal-growth releases on a 1k fleet: solver-bound.
    Flash1k,
    /// Churn, faults, repair and delivery retries on the sharded matcher.
    ChurnFaults4k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Steady16k,
        Workload::Flash1k,
        Workload::ChurnFaults4k,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady16k => "steady-16k",
            Workload::Flash1k => "flash-1k",
            Workload::ChurnFaults4k => "churn-faults-4k",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleet size of the benchmark configuration.
    pub fn boxes(self) -> usize {
        match self {
            Workload::Steady16k => 16_384,
            Workload::Flash1k => 1_024,
            Workload::ChurnFaults4k => 4_096,
        }
    }

    /// Rounds stepped before measuring: one video duration, so playback
    /// caches, candidate rows and swarms reach their steady size.
    pub fn warmup_rounds(self) -> u64 {
        self.params(self.boxes()).duration_rounds as u64
    }

    /// Rounds measured per episode. Every `steady-16k` box starts a video
    /// in round 0, so the whole fleet restarts together every T = 40
    /// rounds: rounds T and T+1 of each wave are full rebuilds, and T+2 is
    /// a lighter post-rebuild round. Its 50-round window holds two waves,
    /// so 4 rebuild rounds and 2 post-rebuild rounds lie above the 44
    /// ordinary ones, and the 90th percentile (5 rounds from the top) falls
    /// in the middle of the post-rebuild rounds instead of on the edge of a
    /// group, where it would swing from run to run.
    pub fn measured_rounds(self) -> u64 {
        match self {
            Workload::Steady16k => 50,
            _ => 40,
        }
    }

    /// log2 of the host-speed reference table's length in `u32`s
    /// ([`crate::clock::Reference`]): about half the workload's resident
    /// set, so the reference's loads meet the shared cache the way the
    /// rounds' loads do. 256 MiB for `steady-16k`, 64 MiB for the others.
    pub fn reference_table_bits(self) -> u32 {
        match self {
            Workload::Steady16k => 26,
            _ => 24,
        }
    }

    /// Whether the round is scheduled by the sharded matcher.
    pub fn sharded(self) -> bool {
        self == Workload::ChurnFaults4k
    }

    fn params(self, n: usize) -> SystemParams {
        match self {
            Workload::Steady16k => SystemParams::new(n, 2.0, 8, 6, 4, 1.3, 40),
            Workload::Flash1k => SystemParams::new(n, 2.0, 8, 6, 4, 1.5, 24),
            Workload::ChurnFaults4k => SystemParams::new(n, 2.0, 4, 4, 3, 1.3, 16),
        }
    }

    /// Allocates the system of `n` boxes (the `vod-core` layer).
    pub fn system(self, n: usize, seed: u64) -> VideoSystem {
        let params = self.params(n);
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        let allocator = RandomPermutationAllocator::new(params.replication);
        let system = match self {
            Workload::ChurnFaults4k => {
                let catalog = (4 * n / 3) * 3 / 5;
                VideoSystem::homogeneous_with_catalog(params, catalog, &allocator, &mut rng)
            }
            _ => VideoSystem::homogeneous(params, &allocator, &mut rng),
        };
        system.expect("benchmark systems are valid and allocatable")
    }

    /// The simulator over `system`, with the workload's models attached.
    /// With `probes`, the scheduler (and the solver, when the workload uses
    /// the max-flow scheduler) are wrapped in timing wrappers.
    pub fn simulator<'a>(
        self,
        system: &'a VideoSystem,
        seed: u64,
        probes: Option<&Arc<Probes>>,
    ) -> Simulator<'a> {
        let rounds = self.warmup_rounds() + self.measured_rounds();
        let config = SimConfig::new(rounds)
            .continue_on_failure()
            .without_obstructions();
        let scheduler: Box<dyn Scheduler> = match (self.sharded(), probes) {
            (true, None) => Box::new(ShardedMatcher::new(2)),
            (true, Some(p)) => Box::new(TimedScheduler::new(ShardedMatcher::new(2), p.clone())),
            (false, None) => Box::new(MaxFlowScheduler::new()),
            (false, Some(p)) => Box::new(TimedScheduler::new(
                MaxFlowScheduler::with_solver(Box::new(TimedSolver::new(Dinic::new(), p.clone()))),
                p.clone(),
            )),
        };
        let mut sim = Simulator::with_scheduler(system, config, scheduler);
        if self == Workload::ChurnFaults4k {
            let n = system.n();
            sim.attach_churn(
                ChurnModel::new(system.boxes(), sub_seed(seed, 3))
                    .with_session(SessionLength::Geometric { leave_rate: 0.012 })
                    .with_crash_rate(0.003)
                    .with_rejoin_delay(1, 2)
                    .with_min_up(n * 9 / 10),
            );
            sim.attach_repair(RepairPlanner::for_system(system, 8));
            // The fault mix of the `exp_faults` pipeline-equivalence gate.
            sim.attach_faults(
                FaultModel::new(system.boxes(), sub_seed(seed, 4))
                    .with_degradation(0.04, vec![25, 50], 1, 3)
                    .with_flapping(0.02, 1, 2)
                    .with_drop_rate(40_000, 15_000)
                    .with_drop_surges(0.04, 150_000, 1, 3),
            );
            sim.attach_delivery(DeliveryPolicy::default());
            sim.attach_degradation(DegradationConfig::default());
        }
        sim
    }

    /// The demand generator, wrapped for timing when `probes` is given.
    pub fn generator(
        self,
        system: &VideoSystem,
        seed: u64,
        probes: Option<&Arc<Probes>>,
    ) -> Box<dyn DemandGenerator> {
        let (n, m) = (system.n(), system.m());
        let seed = sub_seed(seed, 2);
        let mu = system.params().swarm_growth;
        let inner: Box<dyn DemandGenerator> = match self {
            Workload::Steady16k => Box::new(SequentialViewing::new(
                n,
                m,
                NextVideoPolicy::UniformRandom,
                mu,
                seed,
            )),
            Workload::Flash1k => {
                // A new release every 8 rounds, each absorbing up to n/4
                // boxes, on distinct videos drawn from the seed.
                let releases = (self.warmup_rounds() + self.measured_rounds()).div_ceil(8) as usize;
                let mut videos: Vec<u32> = (0..m as u32).collect();
                videos.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EED));
                let crowds = videos
                    .iter()
                    .take(releases)
                    .enumerate()
                    .map(|(i, &v)| CrowdSpec {
                        video: VideoId(v),
                        start_round: 8 * i as u64,
                        max_viewers: n / 4,
                    })
                    .collect();
                Box::new(FlashCrowd::staggered(crowds, m, mu, seed))
            }
            Workload::ChurnFaults4k => {
                Box::new(MultiSwarmChurn::new(m, (n / 16).max(1), n / 8, mu, seed).with_rotation(4))
            }
        };
        match probes {
            Some(p) => Box::new(TimedGenerator::new(inner, p.clone())),
            None => inner,
        }
    }
}

/// Independent stream `tag` of the run seed (splitmix64 finalizer).
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
