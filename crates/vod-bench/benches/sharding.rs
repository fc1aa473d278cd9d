//! Criterion bench: per-swarm sharded scheduling vs the global incremental
//! matcher on multi-swarm churn and flash-crowd round scripts.
//!
//! Both schedulers replay the exact same pre-generated keyed round
//! sequences, so the timing difference is purely the matching layer:
//! partition + budget split + parallel shard solves + reconciliation
//! against one global warm-started incremental solve. Thread counts 1–8
//! are swept; on a single-core host the sharded numbers measure the
//! sharding overhead, on a multi-core host the parallel speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use vod_bench::{multi_swarm_script, replay_script, RoundScript};
use vod_sim::{MaxFlowScheduler, ShardedMatcher};

/// Churn shape: many medium swarms, steady viewer turnover.
fn churn_script() -> RoundScript {
    multi_swarm_script(96, 12, 56, 4, 25, 0x5A)
}

/// Flash-crowd shape: few large swarms, high request volume.
fn crowd_script() -> RoundScript {
    multi_swarm_script(96, 3, 56, 4, 25, 0xF1)
}

fn bench_sharding(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("sharding");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    for (label, script) in [("churn", churn_script()), ("flash-crowd", crowd_script())] {
        group.bench_with_input(
            BenchmarkId::new("incremental", label),
            &script,
            |b, script| {
                b.iter(|| {
                    let mut matcher = MaxFlowScheduler::new();
                    replay_script(script, &mut matcher)
                })
            },
        );
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("sharded-{threads}t"), label),
                &script,
                |b, script| {
                    b.iter(|| {
                        let mut matcher = ShardedMatcher::new(threads);
                        replay_script(script, &mut matcher)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
