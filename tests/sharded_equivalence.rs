//! Sharded-vs-global equivalence harness: the gate for the per-swarm
//! sharded scheduler.
//!
//! Sharding a round's Lemma-1 instance (per-swarm subproblems under a
//! budget split, solved in parallel, reconciled on the global residual
//! network) must never change *what* is schedulable — only how fast the
//! schedule is found. This suite locks that down with seeded property
//! loops over random multi-swarm rounds:
//!
//! * the [`ShardedMatcher`] and the global [`IncrementalMatcher`] agree
//!   with each other — and with a cold one-shot solve — on per-round
//!   feasibility and matched-request counts, for thread counts 1–8;
//! * the sharded schedule is deterministic: for a fixed seed the assigned
//!   supplier of every request — and the per-round [`ShardRoundStats`],
//!   including the budget split's water-filling iterations and the
//!   reconciliation counters — is identical for every thread count, and
//!   across re-runs;
//! * every assignment respects candidate sets and capacities, on every
//!   reconcile path (skipped, persistent, rebuilt) a round can take;
//! * the flat-CSR and relay-aware entry points schedule bit-identically to
//!   the slice-of-vecs path.
//!
//! Instance knobs (`n` boxes, `m` videos, `c` stripes per video, growth
//! factor `µ`) are drawn per seed, so every failure reproduces from the
//! printed seed alone.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vod_sim::scheduler::assignment_is_valid;

const SEEDS: u64 = 10;
const ROUNDS: u64 = 14;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Static shape of one generated scenario.
struct Scenario {
    /// Boxes in the system.
    n: usize,
    /// Videos (shards) in the catalog.
    m: usize,
    /// Stripes per video: each viewer spawns `c` requests.
    c: u16,
    /// Per-round growth factor of the viewer population (µ).
    mu: f64,
    /// Per-video holder sets (the static allocation).
    holders: Vec<Vec<BoxId>>,
    caps: Vec<u32>,
}

impl Scenario {
    fn draw(rng: &mut StdRng) -> Self {
        let n = rng.gen_range(4usize..20);
        let m = rng.gen_range(1usize..7);
        let c = rng.gen_range(1u16..5);
        let mu = 1.0 + rng.gen_range(0.2f64..2.0);
        let caps = (0..n).map(|_| rng.gen_range(0u32..5)).collect();
        let holders = (0..m)
            .map(|_| {
                let k = rng.gen_range(1usize..=n.min(5));
                (0..k)
                    .map(|_| BoxId(rng.gen_range(0usize..n) as u32))
                    .collect()
            })
            .collect();
        Scenario {
            n,
            m,
            c,
            mu,
            holders,
            caps,
        }
    }
}

/// One live playback: its viewer, video, and per-stripe candidate sets.
struct Playback {
    viewer: u32,
    video: u32,
    cands: Vec<Vec<BoxId>>,
}

/// Evolves a multi-swarm population of keyed requests: geometric arrivals
/// (bounded by µ), random departures, and candidate churn. Deterministic
/// per (scenario, rng) state.
struct RoundStream {
    live: Vec<Playback>,
    next_viewer: u32,
}

impl RoundStream {
    fn new() -> Self {
        RoundStream {
            live: Vec::new(),
            next_viewer: 0,
        }
    }

    fn random_cands(sc: &Scenario, video: usize, rng: &mut StdRng) -> Vec<BoxId> {
        let mut cands: Vec<BoxId> = sc.holders[video]
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.8))
            .collect();
        // Occasional cross-swarm supplier (a playback cache on a box busy
        // with another video) couples the shards through shared capacity.
        if rng.gen_bool(0.3) {
            cands.push(BoxId(rng.gen_range(0usize..sc.n) as u32));
        }
        cands.sort();
        cands.dedup();
        cands
    }

    fn advance(&mut self, sc: &Scenario, rng: &mut StdRng) {
        // Departures.
        self.live.retain(|_| !rng.gen_bool(0.15));
        // Arrivals: the population may grow by at most factor µ (the
        // admissibility bound), spread over random videos.
        let ceiling = ((self.live.len().max(1)) as f64 * sc.mu).ceil() as usize;
        let arrivals = rng.gen_range(0usize..=ceiling.saturating_sub(self.live.len()).min(6));
        for _ in 0..arrivals {
            let video = rng.gen_range(0usize..sc.m);
            let cands = (0..sc.c)
                .map(|_| RoundStream::random_cands(sc, video, rng))
                .collect();
            self.live.push(Playback {
                viewer: self.next_viewer,
                video: video as u32,
                cands,
            });
            self.next_viewer += 1;
        }
        // Candidate churn on one random survivor (a cache ageing out).
        if !self.live.is_empty() && rng.gen_bool(0.6) {
            let victim = rng.gen_range(0usize..self.live.len());
            let video = self.live[victim].video as usize;
            let stripe = rng.gen_range(0usize..self.live[victim].cands.len());
            self.live[victim].cands[stripe] = RoundStream::random_cands(sc, video, rng);
        }
    }

    fn round(&self) -> (Vec<RequestKey>, Vec<Vec<BoxId>>) {
        let mut keys = Vec::new();
        let mut cands = Vec::new();
        for playback in &self.live {
            for (idx, c) in playback.cands.iter().enumerate() {
                keys.push(RequestKey {
                    viewer: BoxId(playback.viewer),
                    stripe: StripeId::new(VideoId(playback.video), idx as u16),
                });
                cands.push(c.clone());
            }
        }
        (keys, cands)
    }
}

fn cold_served(caps: &[u32], cands: &[Vec<BoxId>]) -> usize {
    let mut problem = ConnectionProblem::new(caps.to_vec());
    for c in cands {
        problem.add_request(c.iter().copied());
    }
    problem.solve().served()
}

/// Replays one seeded scenario through a sharded matcher, returning the
/// full schedule and per-round stats history.
fn run_sharded(seed: u64, threads: usize) -> (Vec<Vec<Option<BoxId>>>, Vec<ShardRoundStats>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = Scenario::draw(&mut rng);
    let mut stream = RoundStream::new();
    let mut matcher = ShardedMatcher::new(threads);
    let mut out = Vec::new();
    let mut history = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..ROUNDS {
        stream.advance(&sc, &mut rng);
        let (keys, cands) = stream.round();
        matcher.schedule_keyed(&sc.caps, &keys, &cands, &mut out);
        history.push(out.clone());
        stats.push(matcher.last_round_stats());
    }
    (history, stats)
}

/// Sharded, incremental, and cold global solves agree on feasibility and
/// matched-request counts on random multi-swarm rounds, for 1–8 threads,
/// and every sharded assignment is valid.
#[test]
fn sharded_matches_global_on_random_multi_swarm_rounds() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let sc = Scenario::draw(&mut rng);
        let mut stream = RoundStream::new();
        let mut sharded: Vec<ShardedMatcher> = THREAD_COUNTS
            .iter()
            .map(|&t| ShardedMatcher::new(t))
            .collect();
        let mut incremental = IncrementalMatcher::default();
        let mut sharded_out: Vec<Vec<Option<BoxId>>> =
            THREAD_COUNTS.iter().map(|_| Vec::new()).collect();
        let mut incremental_out = Vec::new();

        for round in 0..ROUNDS {
            stream.advance(&sc, &mut rng);
            let (keys, cands) = stream.round();

            incremental.schedule_keyed(&sc.caps, &keys, &cands, &mut incremental_out);
            let reference = incremental_out.iter().flatten().count();
            let cold = cold_served(&sc.caps, &cands);
            assert_eq!(
                reference, cold,
                "seed {seed} round {round}: incremental vs cold"
            );

            let mut round_stats = Vec::new();
            for (slot, matcher) in sharded.iter_mut().enumerate() {
                matcher.schedule_keyed(&sc.caps, &keys, &cands, &mut sharded_out[slot]);
                round_stats.push(matcher.last_round_stats());
                let served = sharded_out[slot].iter().flatten().count();
                assert_eq!(
                    served,
                    reference,
                    "seed {seed} round {round} threads {}: sharded {served} vs global {reference}",
                    matcher.threads()
                );
                assert!(
                    assignment_is_valid(&sharded_out[slot], &sc.caps, &cands),
                    "seed {seed} round {round} threads {}",
                    matcher.threads()
                );
                // Feasibility verdicts agree with the scheduler's own stats.
                let stats = matcher.last_round_stats();
                assert_eq!(
                    stats.unmatched,
                    keys.len() - served,
                    "seed {seed} round {round}"
                );
            }
            // Identical schedules (not just counts) across thread counts —
            // and identical per-round stats, so the water-filling split and
            // the reconciliation path choices are thread-count-invariant
            // too.
            for slot in 1..sharded.len() {
                assert_eq!(
                    sharded_out[slot], sharded_out[0],
                    "seed {seed} round {round}: threads {} diverged from threads 1",
                    THREAD_COUNTS[slot]
                );
                assert_eq!(
                    round_stats[slot], round_stats[0],
                    "seed {seed} round {round}: threads {} stats diverged",
                    THREAD_COUNTS[slot]
                );
            }
        }
    }
}

/// The full schedule history (and the per-round stats) is a pure function
/// of the seed: re-running the same scenario — at any thread count —
/// reproduces it bit-for-bit.
#[test]
fn sharded_schedules_are_seed_deterministic() {
    for seed in 0..SEEDS / 2 {
        let reference = run_sharded(seed, 1);
        for &threads in &THREAD_COUNTS {
            assert_eq!(
                run_sharded(seed, threads),
                reference,
                "seed {seed} threads {threads}"
            );
        }
    }
}

/// Full-simulator equivalence: a multi-swarm churn workload scheduled by the
/// sharded matcher produces the same per-round service numbers as the
/// paper's global max-flow scheduler.
#[test]
fn simulator_level_sharded_equals_global() {
    let params = SystemParams::new(32, 2.0, 8, 4, 4, 1.5, 25);
    let mut rng = StdRng::seed_from_u64(11);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap();

    let run = |scheduler: Box<dyn Scheduler>| {
        let mut gen = MultiSwarmChurn::new(system.m(), 4, 6, 1.5, 3).with_rotation(5);
        Simulator::with_scheduler(&system, SimConfig::new(40).continue_on_failure(), scheduler)
            .run(&mut gen)
    };
    let global = run(Box::new(MaxFlowScheduler::new()));
    for threads in [1usize, 4] {
        let sharded = run(Box::new(ShardedMatcher::new(threads)));
        assert_eq!(sharded.round_count(), global.round_count());
        for (a, b) in sharded.rounds.iter().zip(&global.rounds) {
            assert_eq!(a.served, b.served, "round {} threads {threads}", a.round);
            assert_eq!(
                a.unserved, b.unserved,
                "round {} threads {threads}",
                a.round
            );
        }
    }
}

/// The matcher's split and reconcile policies are fixed, but each round
/// takes one of several path combinations through them: the budget split
/// water-fills or finds no backlog, and reconciliation is skipped, augments
/// the carried flow persistently, or rebuilds the global network. Every
/// combination the seeds reach serves exactly the cold global maximum with
/// valid assignments and is bit-identical across thread counts, and the
/// seeds reach each reconcile path.
#[test]
fn all_policy_combinations_match_global_and_are_thread_invariant() {
    let mut reached = std::collections::BTreeMap::new();
    for seed in 0..SEEDS / 2 {
        // Cold per-round reference, replayed once per seed.
        let mut rng = StdRng::seed_from_u64(seed);
        let sc = Scenario::draw(&mut rng);
        let mut stream = RoundStream::new();
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            stream.advance(&sc, &mut rng);
            rounds.push(stream.round().1);
        }

        let single = run_sharded(seed, 1);
        for (round, ((schedule, stats), cands)) in
            single.0.iter().zip(&single.1).zip(&rounds).enumerate()
        {
            let combination = (stats.split_iterations > 0, stats.reconciled, stats.rebuilt);
            *reached.entry(combination).or_insert(0usize) += 1;
            assert_eq!(
                schedule.iter().flatten().count(),
                cold_served(&sc.caps, cands),
                "seed {seed} round {round} path {combination:?}"
            );
            assert!(
                assignment_is_valid(schedule, &sc.caps, cands),
                "seed {seed} round {round} path {combination:?}"
            );
        }
        for threads in [2usize, 8] {
            assert_eq!(
                run_sharded(seed, threads),
                single,
                "seed {seed} threads {threads}"
            );
        }
    }
    for (reconciled, rebuilt) in [(false, false), (true, false), (true, true)] {
        assert!(
            reached
                .keys()
                .any(|&(_, r, b)| (r, b) == (reconciled, rebuilt)),
            "no round took reconciled={reconciled} rebuilt={rebuilt}: {reached:?}"
        );
    }
}

/// The flat-CSR entry point ([`Scheduler::schedule_keyed_view`]) is
/// bit-identical to the slice-of-vecs path for the sharded matcher — same
/// schedules, same per-round stats — across threads 1–8. This is the gate
/// that lets the engine drive the whole stack through one contiguous
/// candidate buffer.
#[test]
fn csr_view_path_is_bit_identical_to_slice_path_across_threads() {
    for seed in 0..SEEDS / 2 {
        // Reference: slice-of-vecs path, single thread.
        let reference = run_sharded(seed, 1);
        for &threads in &THREAD_COUNTS {
            // Same scenario, CSR path.
            let mut rng = StdRng::seed_from_u64(seed);
            let sc = Scenario::draw(&mut rng);
            let mut stream = RoundStream::new();
            let mut matcher = ShardedMatcher::new(threads);
            let mut out = Vec::new();
            let mut buf = CandidateBuf::new();
            for round in 0..ROUNDS as usize {
                stream.advance(&sc, &mut rng);
                let (keys, cands) = stream.round();
                buf.fill_from_slices(&cands);
                matcher.schedule_keyed_view(&sc.caps, &keys, buf.view(), &mut out);
                assert_eq!(
                    out, reference.0[round],
                    "seed {seed} round {round} threads {threads}: CSR schedule diverged"
                );
                assert_eq!(
                    matcher.last_round_stats(),
                    reference.1[round],
                    "seed {seed} round {round} threads {threads}: CSR stats diverged"
                );
            }
        }
    }
}

/// Deterministic relay attribution for a scenario round: every third
/// viewer's requests forward through a relay derived from its id, with a
/// fixed reservation table drawn per scenario.
fn synth_relays(
    sc: &Scenario,
    keys: &[RequestKey],
    rng: &mut StdRng,
) -> (Vec<Option<BoxId>>, Vec<u32>) {
    let reserved: Vec<u32> = (0..sc.n).map(|_| rng.gen_range(0u32..4)).collect();
    let relay_of = keys
        .iter()
        .map(|k| (k.viewer.0 % 3 == 0).then(|| BoxId(k.viewer.0 % sc.n as u32)))
        .collect();
    (relay_of, reserved)
}

/// Relay awareness is schedule-neutral: `schedule_relayed` produces the
/// exact schedule `schedule_keyed` produces on the same rounds (forwarding
/// draws on reserved capacity, never on the open budgets the matching
/// allocates), and its schedules and relay-lending stats are bit-identical
/// for every thread count. This is what keeps heterogeneous systems on the
/// sharded fast path while staying equivalent to the relay-blind global
/// matcher.
#[test]
fn relayed_scheduling_is_schedule_neutral_and_thread_invariant() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let sc = Scenario::draw(&mut rng);
        let mut stream = RoundStream::new();
        let mut blind = ShardedMatcher::new(1);
        let mut relayed: Vec<ShardedMatcher> = THREAD_COUNTS
            .iter()
            .map(|&t| ShardedMatcher::new(t))
            .collect();
        let mut blind_out = Vec::new();
        let mut relayed_out = Vec::new();
        for round in 0..ROUNDS {
            stream.advance(&sc, &mut rng);
            let (keys, cands) = stream.round();
            let (relay_of, reserved) = synth_relays(&sc, &keys, &mut rng);
            let view = RelayView {
                relay_of: &relay_of,
                reserved: &reserved,
            };
            blind.schedule_keyed(&sc.caps, &keys, &cands, &mut blind_out);
            let mut reference: Option<(Vec<Option<BoxId>>, _)> = None;
            for matcher in relayed.iter_mut() {
                matcher.schedule_relayed(&sc.caps, &keys, &cands, &view, &mut relayed_out);
                assert_eq!(
                    relayed_out,
                    blind_out,
                    "seed {seed} round {round} threads {}: relay awareness changed the schedule",
                    matcher.threads()
                );
                let lend = matcher
                    .relay_stats()
                    .expect("relay-aware round exposes lend stats");
                assert!(
                    lend.granted <= reserved.iter().sum::<u32>() as usize,
                    "seed {seed} round {round}"
                );
                match &reference {
                    None => reference = Some((relayed_out.clone(), lend)),
                    Some((schedule, ref_lend)) => {
                        assert_eq!(schedule, &relayed_out, "seed {seed} round {round}");
                        assert_eq!(
                            ref_lend, &lend,
                            "seed {seed} round {round}: lend stats diverged across threads"
                        );
                    }
                }
            }
        }
    }
}

/// Full-simulator heterogeneous equivalence: a rich/poor fleet with a
/// compensation plan, driven by a poor-box-prioritized multi-swarm churn
/// workload, schedules identically on the sharded path (threads 1–8,
/// bit-identical reports including relay stats) and serves exactly what
/// the relay-blind global max-flow scheduler serves round for round.
#[test]
fn heterogeneous_simulator_sharded_equals_global_across_threads() {
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 8];
    uploads.extend(vec![2.6f64; 16]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let avg_u = boxes.average_upload();
    let u_star = Bandwidth::from_streams(1.2);
    let k = 3u32;
    let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, 28, c);
    let params = SystemParams::new(n, avg_u, d_avg.round().max(1.0) as u32, c, k, 1.2, 28);
    let mut rng = StdRng::seed_from_u64(77);
    let system = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(u_star),
        &mut rng,
    )
    .expect("fleet is u*-compensable");
    let poor = system.boxes().poor_ids(u_star);

    let run = |scheduler: Box<dyn Scheduler>| {
        let mut gen = MultiSwarmChurn::new(system.m(), 4, 6, 1.2, 5)
            .with_rotation(6)
            .with_priority_boxes(poor.clone());
        Simulator::with_scheduler(&system, SimConfig::new(30).continue_on_failure(), scheduler)
            .run(&mut gen)
    };

    let global = run(Box::new(MaxFlowScheduler::new()));
    let reference = run(Box::new(ShardedMatcher::new(1)));
    assert_eq!(reference.round_count(), global.round_count());
    let mut saw_forwarding = false;
    for (a, b) in reference.rounds.iter().zip(&global.rounds) {
        assert_eq!(a.served, b.served, "round {}", a.round);
        assert_eq!(a.unserved, b.unserved, "round {}", a.round);
        // The relay subsystem observes both runs identically (it draws on
        // reserved capacity, not on what the scheduler allocates).
        let (ra, rb) = (
            a.relay.expect("heterogeneous"),
            b.relay.expect("heterogeneous"),
        );
        assert_eq!(
            ra.relayed_requests, rb.relayed_requests,
            "round {}",
            a.round
        );
        assert_eq!(ra.forwarded, rb.forwarded, "round {}", a.round);
        assert!(ra.forwarded <= ra.reserved_slots, "round {}", a.round);
        saw_forwarding |= ra.forwarded > 0;
    }
    assert!(saw_forwarding, "workload never exercised a relay");
    assert!(!reference.relays.is_empty(), "utilization profile missing");

    // Bit-identical reports (schedule, shard stats, relay stats, playback
    // records) for every thread count.
    for threads in [2usize, 4, 8] {
        let sharded = run(Box::new(ShardedMatcher::new(threads)));
        assert_eq!(sharded, reference, "threads {threads}");
    }
}
