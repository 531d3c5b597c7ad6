//! Allocation guard for the kernels: on a warm `Scratch` (its walk rows
//! and odometer sized, its pool holding a recycled result) a kernel call
//! allocates its result's own scope and cardinalities and nothing else —
//! and the fused kernel not even those: it fills a recycled result's.
//! Counted by the workspace's counting global allocator
//! (`counting-alloc`). Run with `--nocapture` to see what message passing
//! allocates per query.

use counting_alloc::{counted, CountingAlloc};
use peanut_junction::{build_junction_tree, NumericState, QueryEngine};
use peanut_pgm::{
    div_assign_bcast, divide_views, mul_assign_bcast, product_marginalize_views, product_onto,
    Domain, Potential, Scope, Scratch,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls of the second of two identical calls.
fn warm_calls(mut f: impl FnMut()) -> usize {
    f();
    counted(f).1.calls
}

#[test]
fn a_warm_kernel_allocates_only_its_result() {
    let d = Domain::from_pairs([("a", 3), ("b", 3), ("c", 3), ("e", 3)]).unwrap();
    let table = |ix: &[u32]| {
        let scope = Scope::from_indices(ix);
        let n = (3u32.pow(ix.len() as u32)) as usize;
        let values = (0..n).map(|i| 0.5 + i as f64).collect();
        Potential::new(scope.clone(), d.cards_of(&scope), values).unwrap()
    };
    let (full, abc, be) = (table(&[0, 1, 2, 3]), table(&[0, 1, 2]), table(&[1, 3]));
    let (scope, cards) = (full.scope(), full.cards());
    let mut s = Scratch::new();
    let mut dst = vec![0.0; full.len()];

    let mul_assign = warm_calls(|| {
        mul_assign_bcast(scope, cards, &mut dst, be.view(), &mut s).unwrap();
    });
    let product = warm_calls(|| {
        product_onto(scope, cards, &mut dst, &[abc.view(), be.view()], &mut s).unwrap();
    });
    let divide = warm_calls(|| {
        let q = divide_views(full.view(), be.view(), &mut s).unwrap();
        s.recycle(q);
    });
    let div_assign = warm_calls(|| {
        div_assign_bcast(scope, cards, &mut dst, be.view(), &mut s).unwrap();
    });
    // onto {b, e}: the inner run adds onto the target; onto {a, c}: the
    // inner run is summed out and the row outside it is the target's
    // innermost axis, four runs in lock-step
    let marginalize = [[1, 3], [0, 2]].map(|keep| {
        let keep = Scope::from_indices(&keep);
        warm_calls(|| {
            let m = full.marginalize_in(&keep, &mut s).unwrap();
            s.recycle(m);
        })
    });
    let keep = Scope::from_indices(&[0, 3]);
    let fused = warm_calls(|| {
        let m = product_marginalize_views(&[abc.view(), be.view()], &keep, &mut s).unwrap();
        s.recycle(m);
    });
    // the same product with an innermost axis of 17 values, too long for
    // the short-run walk that takes the one above: the run kernel
    let d17 = Domain::from_pairs([("a", 3), ("b", 3), ("c", 3), ("e", 17)]).unwrap();
    let be17 = {
        let scope = Scope::from_indices(&[1, 3]);
        let values = (0..3 * 17).map(|i| 0.25 + i as f64).collect();
        Potential::new(scope.clone(), d17.cards_of(&scope), values).unwrap()
    };
    let walked = s.short_walked();
    assert_eq!(walked, 2 * 81, "the short-run walk took both calls above");
    let fused_runs = warm_calls(|| {
        let m = product_marginalize_views(&[abc.view(), be17.view()], &keep, &mut s).unwrap();
        s.recycle(m);
    });
    assert_eq!(s.short_walked(), walked, "the run kernel took it");
    // each read 6, 10, 8 and [9, 9] when every call planned a fresh walk
    assert_eq!(mul_assign, 0, "mul_assign_bcast");
    assert_eq!(div_assign, 0, "div_assign_bcast");
    assert_eq!(product, 0, "two-factor product_onto");
    // the result's scope and cardinalities
    assert_eq!(divide, 2, "divide_views");
    assert_eq!(marginalize, [2, 2], "marginalize_in");
    // the product's scope and cardinalities, which size-check a product
    // that is never built, are built in the scratch, and the result's are
    // the recycled result's: 2 while those were allocated per call, 5
    // while the product's were one union per factor and a fresh list
    assert_eq!(fused, 0, "product_marginalize_views");
    assert_eq!(fused_runs, 0, "product_marginalize_views, long runs");
}

/// What message passing allocates per query: `ReducedTree::answer_in` over
/// every out-of-clique variable pair of Child on the plain tree, one warm
/// `Scratch` recycling each answer. The plans come from `reduced_for`, so
/// every pass goes through the message memo of the tables it borrows.
/// *Cold* answers each pair over a fresh copy of the tables, whose memo is
/// empty: every message is computed, and a copy of each admitted one is
/// filed. *Warm* answers the pairs again over tables that answered them
/// all once. Printed for the ledger, not asserted: cold 41.5 calls per
/// query (5.82 per node), warm 10.2 (1.43), over 157 queries of 7.1
/// nodes, with one anatomy per answer, plans linked and re-hung on their
/// own buffers and the fused kernel's results on recycled scopes and
/// cardinalities; 61.0 (8.56) and 15.8 (2.22) with three anatomies and
/// the product axes in the scratch; 78.2
/// (10.97) and 18.2 (2.56) while they were allocated per message, with
/// each message divided in its own buffer; 90.5 (12.68) and
/// 18.8 (2.63) when the division allocated a quotient. A pass without the
/// memo made 59.3 (8.31) once it lent one factor list to every node, 71.4
/// (10.01) when each node built its own.
#[test]
fn child_answer_in_allocations() {
    let bn = peanut_datasets::dataset("Child").unwrap().build().unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = engine.numeric_state().unwrap().arena().slab();
    let n = bn.n_vars() as u32;
    let pairs: Vec<Scope> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])))
        .collect();
    let mut s = Scratch::new();
    // (queries, nodes, calls) of answering every out-of-clique pair, each
    // over fresh tables or all over the engine's
    let mut stream = |cold: bool| {
        let (mut queries, mut nodes, mut calls) = (0usize, 0usize, 0usize);
        for q in &pairs {
            let fresh;
            let over = if cold {
                let ns = NumericState::from_calibrated_slab(&tree, slab).unwrap();
                fresh = QueryEngine::from_calibrated(&tree, ns);
                &fresh
            } else {
                &engine
            };
            let Some(rt) = over.reduced_for(q).unwrap() else {
                continue;
            };
            let (answer, c) = counted(|| rt.answer_in(q, tree.domain(), &mut s).unwrap().0);
            let c = c.calls;
            s.recycle(answer);
            queries += 1;
            nodes += rt.len();
            calls += c;
        }
        (queries, nodes, calls)
    };
    let cold = stream(true);
    stream(false);
    let warm = stream(false);
    assert!(cold.0 > 0 && cold.0 == warm.0);
    let per = |(queries, nodes, calls): (usize, usize, usize)| {
        let (q, n, c) = (queries as f64, nodes as f64, calls as f64);
        format!(
            "{:.1} allocator calls per query ({:.2} per node)",
            c / q,
            c / n
        )
    };
    println!(
        "Child: answer_in makes {} cold, {} warm ({} out-of-clique queries, {:.1} nodes each)",
        per(cold),
        per(warm),
        cold.0,
        cold.1 as f64 / cold.0 as f64
    );
}
