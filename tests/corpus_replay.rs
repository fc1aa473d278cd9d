//! Regression corpus: every seed file under `tests/corpus/` is replayed
//! through every differential-gate pipeline — incremental, unstamped, and
//! sharded (1/2/4 threads) — and the normalized reports must be
//! bit-identical, with every replayed state's candidate-row memo matching
//! fresh builds.
//!
//! Seed files are self-contained [`SeedFile`] recipes (system parameters +
//! allocation seed + demand trace), so a divergence dumped by `exp_verify`
//! can be dropped into this directory and becomes a permanent regression
//! test. Counterexample seeds (note contains "counterexample") must keep
//! failing; all other seeds must keep serving every round. Mutated corpus
//! seeds must replay to `Ok` or `Err`, never panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vod_analysis::{is_admissible, replay_seed, SeedFile};
use vod_core::{Json, JsonCodec};

/// Mutants generated per corpus file by the fuzz test.
const MUTANTS_PER_FILE: usize = 200;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "regression corpus must not be empty");
    files
}

/// Every corpus seed replays bit-identically through every pipeline, its
/// trace is µ-admissible for its own system, and its outcome (served vs
/// counterexample) is pinned by its note.
#[test]
fn corpus_replays_identically_through_every_pipeline() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let seed = SeedFile::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            is_admissible(
                &seed.demands,
                seed.system.n,
                seed.system.duration as u64,
                seed.system.mu
            ),
            "{name}: corpus trace is not µ-admissible"
        );
        let report = replay_seed(&seed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.round_count(),
            seed.horizon as usize,
            "{name}: replay must run the full horizon"
        );
        let expect_failure = seed.note.contains("counterexample");
        assert_eq!(
            !report.failures.is_empty(),
            expect_failure,
            "{name}: outcome drifted — failures {:?}, note {:?}",
            report.failures.len(),
            seed.note
        );
    }
}

/// Corpus files round-trip through the JSON codec unchanged — the dump
/// format stays stable for replaying old divergence seeds.
#[test]
fn corpus_files_round_trip() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let seed = SeedFile::from_json_str(&text).unwrap();
        let back = SeedFile::from_json_str(&seed.to_json_string()).unwrap();
        assert_eq!(seed, back, "{}", path.display());
    }
}

/// Paths (child indices from the root) of every node of a JSON tree, in
/// pre-order.
fn node_paths(json: &Json, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(prefix.clone());
    let children: Vec<&Json> = match json {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(pairs) => pairs.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        prefix.push(i);
        node_paths(child, prefix, out);
        prefix.pop();
    }
}

fn node_at<'a>(json: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(json, |node, &i| match node {
        Json::Arr(items) => &mut items[i],
        Json::Obj(pairs) => &mut pairs[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// Applies one random mutation to one random node: numbers jump to edge
/// values (zero, off-by-one, huge), arrays lose or duplicate an element,
/// booleans flip.
fn mutate(json: &mut Json, rng: &mut StdRng) {
    let mut paths = Vec::new();
    node_paths(json, &mut Vec::new(), &mut paths);
    let node = node_at(json, &paths[rng.gen_range(0..paths.len())]);
    match node {
        Json::Num(x) => {
            *x = match rng.gen_range(0u32..9) {
                0 => 0.0,
                1 => *x + 1.0,
                2 => *x - 1.0,
                3 => *x * 2.0,
                4 => *x * 1e3,
                5 => 1e9,
                6 => u32::MAX as f64,
                7 => 1e15,
                _ => 0.5,
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let i = rng.gen_range(0..items.len());
            if rng.gen_bool(0.5) {
                items.remove(i);
            } else {
                let copy = items[i].clone();
                items.insert(i, copy);
            }
        }
        Json::Bool(b) => *b = !*b,
        _ => {}
    }
}

/// Seeded mutation fuzz over the corpus: every mutant that still parses as
/// a seed file must replay to `Ok` or `Err` — never panic, never abort on
/// an oversized allocation (the system size caps are checked before
/// anything is built).
#[test]
fn mutated_corpus_seeds_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF022);
    let mut parsed = 0;
    let mut panicked = Vec::new();
    for path in corpus_files() {
        let original = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for i in 0..MUTANTS_PER_FILE {
            let mut json = original.clone();
            for _ in 0..rng.gen_range(1usize..4) {
                mutate(&mut json, &mut rng);
            }
            let Ok(seed) = SeedFile::from_json(&json) else {
                continue;
            };
            parsed += 1;
            if std::panic::catch_unwind(|| replay_seed(&seed)).is_err() {
                panicked.push(format!("{} mutant {i}: {json}", path.display()));
            }
        }
    }
    assert!(parsed > 0, "no mutant parsed");
    assert!(
        panicked.is_empty(),
        "{} of {parsed} mutants panicked, first: {}",
        panicked.len(),
        panicked[0]
    );
}
