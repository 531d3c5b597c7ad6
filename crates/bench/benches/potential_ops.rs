//! Micro-benchmarks of the dense factor algebra — the inner loop of every
//! message-passing operation — plus the kernel-generation acceptance study.
//!
//! The criterion groups time the *current* (preallocated, lane-walk)
//! kernels. The acceptance study then races each current kernel against its
//! pre-arena original (`peanut_pgm::potential::legacy`: append-based stride
//! walks, `Vec::push`/`extend`) on identical inputs with interleaved
//! `Instant` timing, and records the speedups in
//! `results/bench_potential_ops.json` for the CI regression guard
//! (`bench_check` floors in `results/bench_baseline.json`). The two
//! generations are bitwise-identical (the `difftests` proptest suite), so
//! these ratios are pure layout/lane wins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use peanut_bench::harness::{is_quick, BenchSummary};
use peanut_pgm::potential::legacy;
use peanut_pgm::{Domain, Potential, Scope, Scratch};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn domain(n: usize, card: u32) -> Domain {
    Domain::uniform(n, card).expect("domain")
}

fn filled(scope: Scope, d: &Domain) -> Potential {
    let mut p = Potential::zeros(scope, d).expect("fits");
    for (i, v) in p.values_mut().iter_mut().enumerate() {
        // sprinkle exact zeros so divide exercises the Hugin 0/0 branch
        *v = if i % 13 == 7 {
            0.0
        } else {
            1.0 + (i % 7) as f64
        };
    }
    p
}

fn bench_product(c: &mut Criterion) {
    let mut g = c.benchmark_group("potential_product");
    for vars in [8usize, 12, 16] {
        let d = domain(vars + 4, 2);
        let f = filled(Scope::from_iter((0..vars as u32).map(peanut_pgm::Var)), &d);
        let h = filled(
            Scope::from_iter((4..vars as u32 + 4).map(peanut_pgm::Var)),
            &d,
        );
        g.bench_with_input(BenchmarkId::from_parameter(vars), &vars, |b, _| {
            b.iter(|| black_box(f.product(&h).expect("product")))
        });
    }
    g.finish();
}

fn bench_marginalize(c: &mut Criterion) {
    let mut g = c.benchmark_group("potential_marginalize");
    for vars in [10usize, 14, 18] {
        let d = domain(vars, 2);
        let f = filled(d.full_scope(), &d);
        let keep = Scope::from_iter((0..(vars as u32) / 2).map(peanut_pgm::Var));
        g.bench_with_input(BenchmarkId::from_parameter(vars), &vars, |b, _| {
            b.iter(|| black_box(f.marginalize(&keep).expect("marginal")))
        });
    }
    g.finish();
}

fn bench_divide(c: &mut Criterion) {
    let d = domain(14, 2);
    let f = filled(d.full_scope(), &d);
    let sep = filled(Scope::from_iter((0..7).map(peanut_pgm::Var)), &d);
    c.bench_function("potential_divide_14vars", |b| {
        b.iter(|| black_box(f.divide(&sep).expect("divide")))
    });
}

/// Interleaved best-of-`rounds` timing: each round times the legacy closure
/// then the new one back to back, so frequency drift on the shared core
/// hits both sides alike. Returns `legacy_time / new_time`.
fn race(rounds: usize, iters: usize, mut legacy_op: impl FnMut(), mut new_op: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed()
    };
    // warmup both sides (fills scratch pools, faults pages)
    legacy_op();
    new_op();
    let (mut best_legacy, mut best_new) = (Duration::MAX, Duration::MAX);
    for _ in 0..rounds {
        best_legacy = best_legacy.min(time(&mut legacy_op));
        best_new = best_new.min(time(&mut new_op));
    }
    best_legacy.as_secs_f64() / best_new.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// The acceptance study behind the `potential_ops.*` baseline floors.
fn bench_kernel_generations(_c: &mut Criterion) {
    let (rounds, iters) = if is_quick() { (3, 30) } else { (5, 120) };
    let mut summary = BenchSummary::new("potential_ops");

    let mut s_old = Scratch::default();
    let mut s_new = Scratch::default();

    // pairwise product: 12-var operands overlapping on 8 vars → 16-var result
    let d = domain(16, 2);
    let f = filled(Scope::from_iter((0..12).map(peanut_pgm::Var)), &d);
    let h = filled(Scope::from_iter((4..16).map(peanut_pgm::Var)), &d);
    let product = race(
        rounds,
        iters,
        || {
            black_box(legacy::product_in(&f, &h, &mut s_old).expect("legacy product"));
        },
        || {
            black_box(f.product_in(&h, &mut s_new).expect("product"));
        },
    );
    summary.push("product_speedup", product);

    // multi-factor product: four 10-var factors tiling a 16-var result, the
    // clique-initialization shape (one copy pass + three mul-assign passes
    // vs four append walks)
    let factors: Vec<Potential> = (0..4u32)
        .map(|k| {
            filled(
                Scope::from_iter((2 * k..2 * k + 10).map(peanut_pgm::Var)),
                &d,
            )
        })
        .collect();
    let refs: Vec<&Potential> = factors.iter().collect();
    let product_many = race(
        rounds,
        iters,
        || {
            black_box(legacy::product_many_in(&refs, &mut s_old).expect("legacy many"));
        },
        || {
            black_box(Potential::product_many_in(&refs, &mut s_new).expect("many"));
        },
    );
    summary.push("product_many_speedup", product_many);

    // marginalize: 18-var table down to its low-order half — the inner
    // summed axis has step 0 over a stride-1 target run, the peeled
    // 4-accumulator fast path
    let d18 = domain(18, 2);
    let big = filled(d18.full_scope(), &d18);
    let keep = Scope::from_iter((0..9).map(peanut_pgm::Var));
    let marginalize = race(
        rounds,
        iters,
        || {
            black_box(legacy::marginalize_in(&big, &keep, &mut s_old).expect("legacy marg"));
        },
        || {
            black_box(big.marginalize_in(&keep, &mut s_new).expect("marg"));
        },
    );
    summary.push("marginalize_speedup", marginalize);

    // divide: 14-var table by a 7-var separator (broadcast denominator with
    // zero cells → the Hugin 0/0 guard runs in the hot loop)
    let d14 = domain(14, 2);
    let num = filled(d14.full_scope(), &d14);
    let sep = filled(Scope::from_iter((0..7).map(peanut_pgm::Var)), &d14);
    let divide = race(
        rounds,
        iters,
        || {
            black_box(legacy::divide_in(&num, &sep, &mut s_old).expect("legacy div"));
        },
        || {
            black_box(num.divide_in(&sep, &mut s_new).expect("div"));
        },
    );
    summary.push("divide_speedup", divide);

    println!(
        "potential_ops kernel generations: product {product:.2}x, \
         product_many {product_many:.2}x, marginalize {marginalize:.2}x, \
         divide {divide:.2}x (legacy/new, best of {rounds}x{iters})"
    );
    // the layout wins (one copy + mul-assign passes instead of per-entry
    // append walks; peeled 4-chain sums) must show up as real speedups;
    // product and divide were already single-pass streams in the legacy
    // kernels, so those are parity guards with a noise allowance
    assert!(
        product_many >= 1.5 && marginalize >= 1.5,
        "kernel-generation speedups collapsed: product_many {product_many:.2} \
         marginalize {marginalize:.2} (want >= 1.5x)"
    );
    assert!(
        product >= 0.9 && divide >= 0.9,
        "new kernels regressed vs legacy: product {product:.2} divide {divide:.2} \
         (want >= 0.9x parity)"
    );
    match summary.write() {
        Ok(path) => println!("potential_ops/summary written to {}", path.display()),
        Err(e) => eprintln!("potential_ops/summary NOT written: {e}"),
    }
}

criterion_group!(
    benches,
    bench_product,
    bench_marginalize,
    bench_divide,
    bench_kernel_generations
);
criterion_main!(benches);
