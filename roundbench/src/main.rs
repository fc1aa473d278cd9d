//! roundbench — host cost of the simulated round, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path roundbench/Cargo.toml -- \
//!     --workload steady-16k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run repeats *episodes* until `--seconds` is spent (at least
//! [`MIN_EPISODES`]). An episode allocates the system, builds the
//! simulator, attaches the workload's models and steps the warm-up rounds
//! (together: set-up), then times each of the measured rounds of
//! `Simulator::step`. Every episode of a (workload, seed) is the same
//! simulation, and its served/unserved totals and final state signature
//! are checked against the recorded ones (`src/expected.rs`), or against
//! the run's first episode for a seed with no record.
//!
//! `--trace 0` measures the untouched program in CPU time, each round
//! scaled by the host-speed factor measured right after it
//! (`src/clock.rs`), and prints the end-to-end metrics. `--trace 1`
//! alternates untouched episodes with episodes whose generator, scheduler
//! and solver are wrapped in timing wrappers and whose simulator carries
//! the `vod-obs` recorder, checks that the two produce equal reports, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted` (measured rounds stepped), `failed`
//! (measured rounds of episodes that failed a check) and `metrics`.

mod account;
mod clock;
mod expected;
mod stats;
mod workloads;
mod wrappers;

use account::{closes, self_times, RoundSample, LAYERS, LAYER_COUNT};
use clock::{process_cpu_ns, speed_scale, Reference};
use expected::Outcome;
use stats::{nearest_rank, peak_rss_mb};
use std::process::ExitCode;
use std::time::Instant;
use vod_sim::{RoundMetrics, SimulationReport, Stage, TraceHandle};
use workloads::Workload;
use wrappers::Probes;

/// Episodes per run at least: set-up is reported as a median, and the
/// 90th percentile needs at least 100 measured rounds.
const MIN_EPISODES: usize = 3;

/// Span-ring capacity of the recorder. The benchmark reads the per-round
/// aggregates, so old records may be overwritten.
const RING: usize = 1 << 12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

/// Per-layer totals over the measured rounds of traced episodes.
#[derive(Default)]
struct LayerTally {
    episodes: u64,
    rounds: u64,
    requests: u64,
    wall_ns: u64,
    self_ns: [i64; LAYER_COUNT],
    /// Rounds whose self times failed the closure check.
    unclosed: u64,
    demands: u64,
    solver_calls: u64,
    pushed: u64,
    analyze_spans: u64,
    rebuilds: u64,
    arena_edges: u64,
    index_entries: u64,
    inserted: u64,
    expired: u64,
    row_hits: u64,
    row_misses: u64,
    shards: u64,
    largest_shard: u64,
    split_iterations: u64,
    shard_repaired: u64,
    shard_rebuilt: u64,
    repaired: u64,
    pending: u64,
    budget_slots: u64,
    retries: u64,
    dropped: u64,
    timed_out: u64,
    abandoned: u64,
}

/// One episode's measurements.
struct Episode {
    /// Set-up CPU time without the reference work, scaled by the median
    /// host-speed factor of the warm-up rounds.
    setup_s: f64,
    allocate_s: f64,
    outcome: Outcome,
    /// Wall time of each measured round.
    round_ns: Vec<u64>,
    /// CPU time of each measured round, scaled by its host-speed factor.
    round_scaled_ns: Vec<f64>,
    /// Median host-speed factor of the measured rounds.
    speed: f64,
    requests: u64,
    unserved: u64,
}

/// Runs one episode and returns it with the simulator's final report; with
/// `reference`, times a unit of reference work after every round; with
/// `tally`, wraps the layers, attaches the recorder and accounts each
/// measured round into it.
fn run_episode(
    workload: Workload,
    n: usize,
    seed: u64,
    mut reference: Option<&mut Reference>,
    mut tally: Option<&mut LayerTally>,
) -> (Episode, SimulationReport) {
    let traced = tally.is_some();
    // CPU ns of one unit of reference work; 0 without a reference.
    let mut time_reference = || reference.as_deref_mut().map_or(0, Reference::unit_ns);
    let start = Instant::now();
    let start_cpu = process_cpu_ns();
    let system = workload.system(n, seed);
    let allocate_s = start.elapsed().as_secs_f64();
    let probes = traced.then(Probes::new);
    let mut sim = workload.simulator(&system, seed, probes.as_ref());
    if traced {
        sim.attach_tracer(TraceHandle::recording(RING));
    }
    let mut generator = workload.generator(&system, seed, probes.as_ref());
    let mut warmup_units = Vec::new();
    for _ in 0..workload.warmup_rounds() {
        sim.step(generator.as_mut());
        warmup_units.push(time_reference());
    }
    let setup_cpu_ns = process_cpu_ns() - start_cpu - warmup_units.iter().sum::<u64>();
    let setup_s = setup_cpu_ns as f64 / 1e9 * median_factor(&warmup_units);

    let measured = workload.measured_rounds();
    let mut round_ns = Vec::with_capacity(measured as usize);
    let mut round_scaled_ns = Vec::with_capacity(measured as usize);
    let mut units = Vec::with_capacity(measured as usize);
    let (mut requests, mut unserved) = (0u64, 0u64);
    let rows_before = sim.candidate_row_cache_stats();
    for _ in 0..measured {
        let before = probes.as_ref().map(|p| p.sample());
        let cpu = process_cpu_ns();
        let clock = Instant::now();
        sim.step(generator.as_mut());
        let wall_ns = clock.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu;
        round_ns.push(wall_ns);
        // The unit right after the round tells how fast the host ran it.
        let unit = time_reference();
        round_scaled_ns.push(cpu_ns as f64 * speed_scale(unit));
        units.push(unit);
        let round = sim
            .report_so_far()
            .rounds
            .last()
            .expect("a stepped round is reported");
        requests += (round.served + round.unserved) as u64;
        unserved += round.unserved as u64;
        if let (Some(tally), Some(probes), Some(before)) = (tally.as_deref_mut(), &probes, before) {
            let sample = RoundSample {
                wall_ns,
                timing: round.timing.expect("a traced round carries its timings"),
                probes: probes.sample().since(before),
            };
            tally.add_round(&sample, round, workload.sharded());
        }
    }
    if let Some(tally) = tally {
        let rows_after = sim.candidate_row_cache_stats();
        tally.row_hits += rows_after.0 - rows_before.0;
        tally.row_misses += rows_after.1 - rows_before.1;
        tally.episodes += 1;
    }
    let report = sim.report_so_far();
    let outcome = Outcome {
        served: report.total_served(),
        unserved: report.total_unserved(),
        signature: sim.state_signature(),
    };
    let episode = Episode {
        setup_s,
        allocate_s,
        outcome,
        round_ns,
        round_scaled_ns,
        speed: median_factor(&units),
        requests,
        unserved,
    };
    (episode, sim.into_report())
}

/// Host-speed factor of the median of `units` (reference unit times).
fn median_factor(units: &[u64]) -> f64 {
    let units: Vec<f64> = units.iter().map(|&ns| ns as f64).collect();
    nearest_rank(&units, 50.0).map_or(1.0, |ns| speed_scale(ns as u64))
}

impl LayerTally {
    /// Accounts one traced round.
    fn add_round(&mut self, sample: &RoundSample, round: &RoundMetrics, sharded: bool) {
        let own = self_times(sample, sharded);
        // The wrapper sits inside the engine's own schedule span.
        let nested = sample.probes.scheduler.ns <= sample.timing.stage_ns(Stage::Schedule);
        if !closes(&own, sample.wall_ns) || !nested {
            self.unclosed += 1;
        }
        for (total, ns) in self.self_ns.iter_mut().zip(own) {
            *total += ns;
        }
        self.rounds += 1;
        self.requests += (round.served + round.unserved) as u64;
        self.wall_ns += sample.wall_ns;
        self.demands += sample.probes.generator.work;
        self.solver_calls += sample.probes.solver.calls;
        self.pushed += sample.probes.solver.work;
        self.analyze_spans += u64::from(sample.timing.stage_count(Stage::SolverAnalyze));
        self.rebuilds += sample.probes.rebuilds;
        self.arena_edges += sample.probes.arena_edges;
        if let Some(c) = &round.candidates {
            self.index_entries += c.index_entries as u64;
            self.inserted += c.inserted as u64;
            self.expired += c.expired as u64;
        }
        if let Some(s) = &round.shard {
            self.shards += s.shards as u64;
            self.largest_shard += s.largest_shard as u64;
            self.split_iterations += s.split_iterations as u64;
            self.shard_repaired += s.repaired as u64;
            self.shard_rebuilt += u64::from(s.rebuilt);
        }
        if let Some(r) = &round.repair {
            self.repaired += r.repaired as u64;
            self.pending += r.pending as u64;
            self.budget_slots += u64::from(r.budget_slots);
        }
        if let Some(d) = &round.delivery {
            self.retries += d.retries as u64;
            self.dropped += d.dropped as u64;
            self.timed_out += d.timed_out as u64;
            self.abandoned += d.abandoned as u64;
        }
    }

    /// Traced `Simulator::step` wall time per stripe request.
    fn request_ns(&self) -> f64 {
        ratio(self.wall_ns as f64, self.requests as f64)
    }

    /// Σ per-layer self ns/request (busy time excluded) minus the traced
    /// request_ns: zero when the layers account for the whole round once.
    fn closure_error_ns(&self) -> f64 {
        let sum: f64 = LAYERS
            .iter()
            .zip(&self.self_ns)
            .filter(|(l, _)| !l.busy())
            .map(|(_, &ns)| ratio(ns as f64, self.requests as f64))
            .sum();
        sum - self.request_ns()
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall time of the measured rounds per stripe request.
fn wall_request_ns(episodes: &[Episode]) -> f64 {
    let wall_ns: u64 = episodes.iter().flat_map(|e| &e.round_ns).sum();
    let requests: u64 = episodes.iter().map(|e| e.requests).sum();
    ratio(wall_ns as f64, requests as f64)
}

/// End-to-end metrics of the untouched episodes, from their scaled CPU
/// times. `peak_rss_mb` is read after the first episode: later episodes
/// reuse the allocator's freed memory, and their fragmentation would make
/// the peak depend on how many episodes fit in the run.
fn end_to_end(episodes: &[Episode], peak_rss_mb: f64) -> Vec<Metric> {
    let samples: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.round_scaled_ns.iter().map(|&ns| ns / 1e6))
        .collect();
    let cpu_ns = samples.iter().sum::<f64>() * 1e6;
    let requests: u64 = episodes.iter().map(|e| e.requests).sum();
    let unserved: u64 = episodes.iter().map(|e| e.unserved).sum();
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    vec![
        ("request_ns".into(), ratio(cpu_ns, requests as f64), "ns"),
        (
            "round_ms_p50".into(),
            nearest_rank(&samples, 50.0).unwrap_or(0.0),
            "ms",
        ),
        (
            "round_ms_p90".into(),
            nearest_rank(&samples, 90.0).unwrap_or(0.0),
            "ms",
        ),
        (
            "setup_s".into(),
            nearest_rank(&setups, 50.0).unwrap_or(0.0),
            "s",
        ),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
        (
            "served_share".into(),
            ratio((requests - unserved) as f64, requests as f64),
            "ratio",
        ),
    ]
}

/// Per-layer metrics of a traced run. `untraced_request_ns` comes from the
/// untouched episodes of the same run, for the recorder overhead.
fn per_layer(t: &LayerTally, allocate_s: &[f64], untraced_request_ns: f64) -> Vec<Metric> {
    let req = t.requests as f64;
    let per_round = |count: u64| ratio(count as f64, t.rounds as f64);
    let per_episode = |count: u64| ratio(count as f64, t.episodes as f64);
    let mut out: Vec<Metric> = vec![(
        "core.allocate_s".into(),
        nearest_rank(allocate_s, 50.0).unwrap_or(0.0),
        "s",
    )];
    out.extend(
        LAYERS
            .iter()
            .zip(&t.self_ns)
            .map(|(layer, &ns)| (layer.metric(), ratio(ns as f64, req), "ns")),
    );
    let row_lookups = (t.row_hits + t.row_misses) as f64;
    let counts: [(&str, f64, &'static str); 24] = [
        ("workloads.demands_per_round", per_round(t.demands), "count"),
        (
            "engine.untracked_share",
            ratio(t.self_ns[0] as f64, t.wall_ns as f64),
            "ratio",
        ),
        (
            "candidates.row_hit_ratio",
            ratio(t.row_hits as f64, row_lookups),
            "ratio",
        ),
        (
            "candidates.index_entries",
            per_round(t.index_entries),
            "count",
        ),
        ("candidates.inserted", per_round(t.inserted), "count"),
        ("candidates.expired", per_round(t.expired), "count"),
        ("scheduler.rebuilds", per_round(t.rebuilds), "count"),
        ("scheduler.arena_edges", per_round(t.arena_edges), "count"),
        ("shard.shards", per_round(t.shards), "count"),
        ("shard.largest_shard", per_round(t.largest_shard), "count"),
        (
            "shard.split_iterations",
            per_round(t.split_iterations),
            "count",
        ),
        ("shard.repaired", per_round(t.shard_repaired), "count"),
        (
            "shard.rebuilt_rounds",
            per_episode(t.shard_rebuilt),
            "count",
        ),
        ("flow.max_flow.calls", per_episode(t.solver_calls), "count"),
        ("flow.pushed", per_round(t.pushed), "count"),
        (
            "flow.solver-analyze.count",
            per_episode(t.analyze_spans),
            "count",
        ),
        ("repair.repaired", per_round(t.repaired), "count"),
        ("repair.pending", per_round(t.pending), "count"),
        ("repair.budget_slots", per_round(t.budget_slots), "count"),
        ("delivery.retries", per_round(t.retries), "count"),
        ("delivery.dropped", per_round(t.dropped), "count"),
        ("delivery.timed_out", per_round(t.timed_out), "count"),
        ("delivery.abandoned", per_round(t.abandoned), "count"),
        (
            "obs.overhead",
            ratio(t.request_ns(), untraced_request_ns) - 1.0,
            "ratio",
        ),
    ];
    out.extend(counts.into_iter().map(|(n, v, u)| (n.to_string(), v, u)));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    if args.record {
        let (e, _) = run_episode(workload, workload.boxes(), args.seed, None, None);
        println!(
            "    (\"{}\", {}, {}, {}, {:#018x}),",
            workload.name(),
            args.seed,
            e.outcome.served,
            e.outcome.unserved,
            e.outcome.signature
        );
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    let mut plain: Vec<Episode> = Vec::new();
    let mut allocate_s: Vec<f64> = Vec::new();
    let mut tally = LayerTally::default();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Every episode must reproduce the recorded outcome, or for a seed
    // with no record, the run's first episode.
    let mut reference = expected::recorded(workload.name(), args.seed);
    let mut peak_rss = 0.0;
    // Only the end-to-end run times the reference work; the per-layer run
    // compares untouched and wrapped episodes in wall time. The reference
    // is built before the first episode and kept to the end, so it adds a
    // known constant to the peak resident set.
    let mut host = (!args.trace).then(|| Reference::new(workload.reference_table_bits()));
    let host_mb = host
        .as_ref()
        .map_or(0.0, |r| r.resident_bytes() as f64 / (1024.0 * 1024.0));
    loop {
        let lap = Instant::now();
        let (episode, report) =
            run_episode(workload, workload.boxes(), args.seed, host.as_mut(), None);
        if plain.is_empty() {
            peak_rss = peak_rss_mb().map_or(0.0, |mb| mb - host_mb);
        }
        let mut rounds = episode.round_ns.len() as u64;
        let want = *reference.get_or_insert(episode.outcome);
        let mut ok = episode.outcome == want;
        if !ok {
            failures.push(format!(
                "episode {}: {:?}, expected {want:?}",
                plain.len(),
                episode.outcome
            ));
        }
        allocate_s.push(episode.allocate_s);
        if args.trace {
            let unclosed = tally.unclosed;
            let (wrapped, wrapped_report) = run_episode(
                workload,
                workload.boxes(),
                args.seed,
                None,
                Some(&mut tally),
            );
            rounds += wrapped.round_ns.len() as u64;
            allocate_s.push(wrapped.allocate_s);
            // Report equality ignores wall-clock timing, so any difference
            // is a schedule the wrappers or the recorder changed.
            if wrapped_report != report || wrapped.outcome != episode.outcome {
                ok = false;
                failures.push(format!(
                    "episode {}: wrapped and traced {:?} differs from untouched {:?}",
                    plain.len(),
                    wrapped.outcome,
                    episode.outcome
                ));
            }
            if tally.unclosed > unclosed {
                ok = false;
                failures.push(format!(
                    "episode {}: {} rounds fail the self-time closure check",
                    plain.len(),
                    tally.unclosed - unclosed
                ));
            }
        }
        attempted += rounds;
        if !ok {
            failed += rounds;
        }
        plain.push(episode);
        // Stop before an episode as long as the last would overrun.
        let next_end = start.elapsed().as_secs_f64() + lap.elapsed().as_secs_f64();
        if plain.len() >= MIN_EPISODES && next_end > args.seconds {
            break;
        }
    }

    let untouched = end_to_end(&plain, peak_rss);
    let metrics = if args.trace {
        let closure = tally.closure_error_ns();
        if closure.abs() > 1e-9 * tally.request_ns() {
            failures.push(format!(
                "per-layer self times miss the round by {closure} ns/request"
            ));
        }
        per_layer(&tally, &allocate_s, wall_request_ns(&plain))
    } else {
        untouched
    };
    let correct = failures.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    if !correct && failed == 0 {
        // A run-level check failed: no measured round can be trusted.
        failed = attempted;
    }

    println!(
        "roundbench {} seed {} trace {}: {} episodes of {} warm-up + {} measured rounds{}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        plain.len(),
        workload.warmup_rounds(),
        workload.measured_rounds(),
        if args.trace {
            ", each untouched and then wrapped and traced"
        } else {
            ""
        }
    );
    if !args.trace {
        let speeds: Vec<String> = plain.iter().map(|e| format!("{:.3}", e.speed)).collect();
        println!(
            "  median host-speed factor per episode: {}",
            speeds.join(" ")
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    if args.trace {
        println!(
            "  closure: Σ self = {:.3} ns/request of traced request_ns {:.3}",
            tally.request_ns() + tally.closure_error_ns(),
            tally.request_ns()
        );
    }
    for f in &failures {
        println!("  FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::Json;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = json.field(key).and_then(Json::as_arr).expect("metric list");
        list.iter()
            .map(|m| {
                let field = |k| m.field(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), unit.to_string()))
            .collect()
    }

    /// A small fleet per workload: the same recipe at a size a test can
    /// step through a whole episode quickly.
    fn small(workload: Workload) -> usize {
        match workload {
            Workload::ChurnFaults4k => 192,
            _ => 96,
        }
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let (episode, _) = run_episode(Workload::Flash1k, 64, 7, None, None);
        assert_eq!(
            printed(&end_to_end(&[episode], 1.0)),
            declared("end_to_end")
        );
        let layers = per_layer(&LayerTally::default(), &[0.5], 1.0);
        assert_eq!(printed(&layers), declared("per_layer"));
    }

    #[test]
    fn wrapped_traced_episodes_equal_untouched_ones_and_close() {
        for workload in Workload::ALL {
            let n = small(workload);
            let (plain, plain_report) = run_episode(workload, n, 3, None, None);
            let mut tally = LayerTally::default();
            let (wrapped, wrapped_report) = run_episode(workload, n, 3, None, Some(&mut tally));
            assert!(plain.outcome.served > 0, "{}", workload.name());
            assert_eq!(wrapped.outcome, plain.outcome, "{}", workload.name());
            assert!(wrapped_report == plain_report, "{}", workload.name());
            assert_eq!(tally.unclosed, 0, "{}", workload.name());
            assert!(tally.closure_error_ns().abs() < 1e-6, "{}", workload.name());
            assert_eq!(tally.rounds, workload.measured_rounds());
            // Every wrapped layer was actually reached.
            assert!(tally.demands > 0, "{}", workload.name());
            let scheduler = LAYERS
                .iter()
                .position(|&l| l == account::Layer::Scheduler)
                .expect("scheduler layer");
            assert!(tally.self_ns[scheduler] > 0, "{}", workload.name());
        }
    }

    #[test]
    fn episodes_are_reproducible_and_seeds_differ() {
        let (a, _) = run_episode(Workload::ChurnFaults4k, 192, 11, None, None);
        let (b, _) = run_episode(Workload::ChurnFaults4k, 192, 11, None, None);
        let (c, _) = run_episode(Workload::ChurnFaults4k, 192, 12, None, None);
        assert_eq!(a.outcome, b.outcome);
        assert_ne!(a.outcome.signature, c.outcome.signature);
    }
}
