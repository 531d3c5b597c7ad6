//! Same seed ⇒ the same inputs and the same exact counts; another seed ⇒
//! other inputs; `serve_distinct` never repeats a request; the seed stays
//! on the generator side of the fence.

use peanut_benchmark::runner::{Rep, Workload};
use peanut_benchmark::workloads::direct::{Direct, LARGE, SMALL};
use peanut_benchmark::workloads::drift::DriftRemat;
use peanut_benchmark::workloads::fleet::FleetPaging;
use peanut_benchmark::workloads::serve::{ServeDistinct, ServeRepeat};
use peanut_benchmark::workloads::sessions::EvidenceSessions;
use std::collections::HashSet;
use std::path::PathBuf;

/// Where the fleet's store may write: the package's own ignored `out/`.
fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}", std::process::id()))
}

#[test]
fn direct_inputs_repeat_per_seed() {
    for cfg in [&SMALL, &LARGE] {
        let (a, b, c) = (
            Direct::new(cfg, 7),
            Direct::new(cfg, 7),
            Direct::new(cfg, 8),
        );
        assert_eq!((&a.train, &a.test), (&b.train, &b.test));
        assert_ne!(a.test, c.test);
        assert_ne!(a.train, c.train);
        assert!(a.checks() >= 64, "{} oracle references", a.checks());
    }
}

#[test]
fn serve_repeat_inputs_repeat_per_seed() {
    let (a, b, c) = (
        ServeRepeat::new(7),
        ServeRepeat::new(7),
        ServeRepeat::new(8),
    );
    assert_eq!((&a.pool, &a.draws), (&b.pool, &b.draws));
    assert_ne!(a.pool, c.pool);
    assert_ne!(a.draws, c.draws);
    let distinct: HashSet<_> = a.pool.iter().collect();
    assert_eq!(
        distinct.len(),
        a.pool.len(),
        "the pool holds distinct requests"
    );
}

#[test]
fn serve_distinct_stream_has_no_duplicates_and_repeats_per_seed() {
    let (a, b, c) = (
        ServeDistinct::new(7),
        ServeDistinct::new(7),
        ServeDistinct::new(8),
    );
    let all: Vec<_> = a.all_requests().collect();
    let distinct: HashSet<_> = all.iter().collect();
    assert_eq!(distinct.len(), all.len(), "a request repeats");
    assert_eq!(a.capacity, b.capacity);
    assert_ne!(a.capacity, c.capacity);
    assert_eq!(a.phases.len(), 3);
    for ((pa, pb), pc) in a.phases.iter().zip(&b.phases).zip(&c.phases) {
        assert_eq!((&pa.requests, &pa.schedule), (&pb.requests, &pb.schedule));
        assert_ne!(pa.requests, pc.requests);
        assert_ne!(pa.schedule, pc.schedule);
        assert!(pa.requests.len() >= 1000, "a p99 needs a thousand arrivals");
        assert!(pa.schedule.windows(2).all(|w| w[0] <= w[1]));
    }
    assert!(a.phases.windows(2).all(|p| p[0].rate < p[1].rate));
}

#[test]
fn other_inputs_repeat_per_seed() {
    let dir = scratch();
    let (a, b, c) = (
        FleetPaging::new(7, &dir),
        FleetPaging::new(7, &dir),
        FleetPaging::new(8, &dir),
    );
    assert_eq!(a.stream, b.stream);
    assert_ne!(a.stream, c.stream);

    let (a, b, c) = (DriftRemat::new(7), DriftRemat::new(7), DriftRemat::new(8));
    assert_eq!((&a.requests, &a.stream), (&b.requests, &b.stream));
    assert_ne!(a.stream, c.stream);

    let (a, b, c) = (
        EvidenceSessions::new(7),
        EvidenceSessions::new(7),
        EvidenceSessions::new(8),
    );
    let flat = |w: &EvidenceSessions| -> Vec<_> {
        w.sessions
            .iter()
            .map(|s| (s.evidence.clone(), s.targets.clone()))
            .collect()
    };
    assert_eq!(flat(&a), flat(&b));
    assert_ne!(flat(&a), flat(&c));
    for s in &a.sessions {
        assert!((2..=3).contains(&s.evidence.len()));
        assert_eq!(s.targets.len(), 32);
    }
}

/// Everything about a repetition that must not depend on timing.
fn exact(rep: &Rep) -> (u64, u64, u128, u128, Vec<(&'static str, u64)>) {
    (
        rep.attempted,
        rep.failed,
        rep.ops,
        rep.baseline_ops,
        rep.counts.iter().map(|&(n, v)| (n, v.to_bits())).collect(),
    )
}

fn assert_repeats(name: &str, build: impl Fn() -> Box<dyn Workload>) {
    let (first, second) = (build().rep(1), build().rep(1));
    assert_eq!(first.failed, 0, "{name}: failed requests");
    assert!(
        first.ops > 0 && first.baseline_ops > 0,
        "{name}: no operations counted"
    );
    assert_eq!(
        exact(&first),
        exact(&second),
        "{name}: exact counts differ between runs"
    );
}

#[test]
fn direct_small_counts_repeat() {
    assert_repeats("direct_small", || Box::new(Direct::new(&SMALL, 3)));
}

#[test]
fn serve_repeat_counts_repeat_and_the_cache_is_used() {
    assert_repeats("serve_repeat", || Box::new(ServeRepeat::new(3)));
    let rep = ServeRepeat::new(3).rep(1);
    let hit = rep
        .counts
        .iter()
        .find(|(n, _)| *n == "serving.cache_hit_frac")
        .unwrap()
        .1;
    assert!(hit >= 0.9, "cache hit fraction {hit}");
}

#[test]
fn serve_distinct_bypasses_cache_and_dedup() {
    let rep = ServeDistinct::new(3).rep(1);
    assert_eq!(rep.failed, 0);
    for (name, value) in rep.counts {
        assert_eq!(
            value, 0.0,
            "{name} must read 0 when every request is distinct"
        );
    }
}

#[test]
fn fleet_paging_counts_repeat_and_the_store_is_used() {
    let dir = scratch();
    assert_repeats("fleet_paging", || Box::new(FleetPaging::new(3, &dir)));
    let rep = FleetPaging::new(3, &dir).rep(1);
    let count = |n: &str| rep.counts.iter().find(|(m, _)| *m == n).unwrap().1;
    assert!(count("store.faults") > 0.0 && count("store.page_outs") > 0.0);
    assert_eq!(count("serving.swaps"), 7.0);
}

#[test]
fn drift_remat_swaps_repeat() {
    assert_repeats("drift_remat", || Box::new(DriftRemat::new(3)));
    let rep = DriftRemat::new(3).rep(1);
    let swaps = rep
        .counts
        .iter()
        .find(|(n, _)| *n == "serving.swaps")
        .unwrap()
        .1;
    assert!(swaps >= 20.0, "only {swaps} swaps over 26 regime steps");
}

/// The program under test must receive generated inputs only. Every line
/// of the workload and probe sources that mentions a seed has to be a
/// generator call, a declaration, or a comment — never an argument to the
/// program's own crates.
#[test]
fn the_seed_stays_with_the_generators() {
    const GENERATORS: &[&str] = &[
        "sub_seed(",
        "seed_from_u64(",
        "::new(",
        "fn new(",
        "fn paper_ops_saved(",
        "fn regional_pool(",
        "paper_ops_saved(self.seed)",
        "training(&model.tree, seed)",
        "seed: u64",
        "seed,",
    ];
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(format!("{src}/workloads"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.push(PathBuf::from(format!("{src}/micro.rs")));
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            let code = line.trim();
            if !code.contains("seed") || code.starts_with("//") || code.starts_with("use ") {
                continue;
            }
            assert!(
                GENERATORS.iter().any(|g| code.contains(g)),
                "{}:{}: `{code}` hands a seed to something that is not a generator",
                file.display(),
                n + 1
            );
        }
    }
    // and no workload name reaches the program: names only select inputs
    let build = std::fs::read_to_string(format!("{src}/workloads/mod.rs")).unwrap();
    assert!(build.contains("\"direct_small\" =>"));
}
