//! Allocation guard: planning an elimination costs a constant number of
//! allocator calls.
//!
//! `VePlan::new` sizes each of its buffers once, from the ancestral set,
//! and no step allocates: so a plan of 40 eliminations makes as many
//! allocator calls as one of 3, and no more than [`MAX_CALLS`]. This
//! binary installs the workspace's counting global allocator
//! (`counting-alloc`).
//!
//! Run with `--nocapture` to see the counts.

use counting_alloc::{counted, CountingAlloc};
use peanut_pgm::{fixtures, Scope, Var};
use peanut_ve::{Pinned, VePlan};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocator calls of one plan: two scratch bitset buffers (over the
/// network, and per free variable), the candidates' keys and slots, and
/// the plan's four vectors.
const MAX_CALLS: usize = 8;

/// The allocator calls `VePlan::new` makes for `P(x{len})` on a chain of
/// `len + 2` variables, which eliminates `x0 … x{len−1}`; with `pinned`,
/// the last variable, `x{len+1}`, is pinned, so its CPT is sliced.
fn calls(len: usize, pinned: bool) -> usize {
    let bn = fixtures::chain(len + 2, 3, 7);
    let evidence: &[(Var, u32)] = if pinned {
        &[(Var(len as u32 + 1), 1)]
    } else {
        &[]
    };
    let pinning = Pinned::new(&bn, evidence).unwrap();
    let target = Scope::from_indices(&[len as u32]);
    let (plan, allocs) = counted(|| VePlan::new(&bn, &pinning, &target));
    assert!(plan.unwrap().ops() > 0);
    allocs.calls
}

#[test]
fn a_plan_allocates_the_same_whatever_its_length() {
    for pinned in [false, true] {
        let (short, long) = (calls(3, pinned), calls(40, pinned));
        println!("pinned {pinned}: 3 eliminations {short} calls, 40 eliminations {long}");
        assert_eq!(short, long);
        assert!(long <= MAX_CALLS, "{long} calls");
    }
}
