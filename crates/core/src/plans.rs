//! The plan memo: per exact query scope, the plan an answer door ran,
//! kept without its tables, so that a later answer of that scope runs it
//! again and skips the online phase's planning — Steiner extraction, the
//! useful shortcuts and GWMIN, pricing, contraction, the count toward
//! `r_q` and the re-hang from the cheapest root.
//!
//! A plan depends only on the query scope, the junction tree and the
//! materialization's shortcuts, so a materialization keeps one memo
//! ([`Materialization`](crate::Materialization)) and it lives and dies
//! with it: a new one, a clone, a published epoch and a fault-in start
//! empty, and a page-out drops it. An entry is the plan hung from the
//! member its pass is cheapest toward, as a
//! [`PlanShape`] — per node, in plan order, its clique id or shortcut
//! position, its junction-tree edge and its parent, and what its pass
//! reads of that rooting: the node's table size and, as bits, the query
//! variables its subtree holds — together with the count toward `r_q` the
//! answer reports and the plain tree's baseline; or, for a scope inside
//! one clique, that clique. A hit rebuilds the view from the entry over
//! the engine's and the materialization's tables
//! ([`ReducedTree::from_shape`]) and runs the pass toward the plan's root
//! ([`ReducedTree::run_in`]) reading the shape, so it walks no anatomy;
//! an entry that does not fit the tables at hand, such as one naming a
//! shortcut the materialization no longer holds, is a miss, and the scope
//! is planned afresh. A plan of more than 32 query variables, which a
//! node's word cannot name, is not filed.
//!
//! The memo is an [`ExactMemo`], whose module states the cache
//! discipline. This module decides the key — the query scope — and the
//! bound, [`PLAN_BYTES`]; it admits every plan that fits. It is a cache,
//! not a protocol, so the interleaving models do not schedule it.
//!
//! [`ReducedTree::from_shape`]: peanut_junction::ReducedTree::from_shape
//! [`ReducedTree::run_in`]: peanut_junction::ReducedTree::run_in

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_junction::cost::QueryCost;
use peanut_junction::tree::CliqueId;
use peanut_junction::PlanShape;
use peanut_pgm::memo::Weigh;
use peanut_pgm::{ExactMemo, MemoUsage, Scope, Size, Var};

/// A memo holds plans of at most this many bytes, counting each entry's
/// map slot (64 bytes), its key and its shape (24 bytes a node — 16 of
/// links, 8 of what the pass reads — and 16 of reference counts). With the
/// map's spare slots and the allocator's rounding, the worst case — every
/// entry an in-clique scope of one variable, 30,840 of them — holds under
/// 5.5 MiB, below the message memo's 8 MiB.
pub(crate) const PLAN_BYTES: usize = 2 << 20;

/// What the memo keeps for one query scope.
#[derive(Debug)]
pub(crate) enum FiledPlan {
    /// Every query variable lies in this clique.
    InClique(CliqueId),
    /// The plan hung from its cheapest root with what its pass reads, the
    /// count toward `r_q` its answers report, and the plain tree's count
    /// for the same scope.
    Tree {
        shape: PlanShape,
        cost: QueryCost,
        baseline_ops: Size,
    },
}

/// An entry weighs its bytes: its map slot, its key and its shape.
impl Weigh<Var> for FiledPlan {
    fn weight(&self, key: &[Var]) -> usize {
        let shape = match self {
            FiledPlan::InClique(_) => 0,
            FiledPlan::Tree { shape, .. } => shape.heap_bytes(),
        };
        size_of::<(Box<[Var]>, FiledPlan)>() + size_of_val(key) + shape
    }
}

/// A materialization's plans, by exact query scope (module docs).
#[derive(Clone, Debug)]
pub(crate) struct PlanMemo(ExactMemo<Var, FiledPlan>);

impl PlanMemo {
    /// An empty memo that may hold [`PLAN_BYTES`].
    pub(crate) fn new() -> Self {
        Self::with_cap(PLAN_BYTES)
    }

    /// An empty memo that may hold `cap` bytes.
    pub(crate) fn with_cap(cap: usize) -> Self {
        PlanMemo(ExactMemo::new(cap))
    }

    /// The plans and bytes held, the cap, and the answers that ran a
    /// filed plan.
    pub(crate) fn usage(&self) -> MemoUsage {
        self.0.usage()
    }

    /// What `rebuild` makes of the plan filed for `query`, counted as
    /// taken; `None` when none is filed, the lock is poisoned, or
    /// `rebuild` finds that the plan does not fit.
    pub(crate) fn recall<R>(
        &self,
        query: &Scope,
        rebuild: impl FnOnce(&FiledPlan) -> Option<R>,
    ) -> Option<R> {
        self.0.take(query.vars(), rebuild)
    }

    /// Files `plan` for `query` while it fits, unless a plan is filed for
    /// it already (another answer may have filed one since).
    pub(crate) fn file(&self, query: &Scope, plan: FiledPlan) {
        if let Some(mut shelf) = self.0.open() {
            let _ = shelf.file(query.vars(), plan);
        }
    }
}

impl Default for PlanMemo {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bound counts an entry as its map slot, its key and its shape;
    /// a plan is filed once, while it fits, and only a rebuilt plan counts
    /// as taken.
    #[test]
    fn a_plan_is_filed_once_while_it_fits() {
        // a shape is a shared slice, as wide as the boxed one it replaced
        assert_eq!(size_of::<(Box<[Var]>, FiledPlan)>(), 64, "PLAN_BYTES' docs");
        let (ab, bc) = (Scope::from_indices(&[0, 1]), Scope::from_indices(&[1, 2]));
        let memo = PlanMemo::with_cap(100);
        memo.file(&ab, FiledPlan::InClique(3));
        memo.file(&ab, FiledPlan::InClique(4));
        memo.file(&bc, FiledPlan::InClique(5));
        assert_eq!(
            (memo.usage().held, memo.usage().cap),
            (72, 100),
            "one entry: the second scope does not fit"
        );
        let clique = |plan: &FiledPlan| match plan {
            FiledPlan::InClique(u) => Some(*u),
            FiledPlan::Tree { .. } => None,
        };
        assert_eq!(
            memo.recall(&ab, clique),
            Some(3),
            "the first plan filed stays"
        );
        assert_eq!(memo.recall(&bc, clique), None);
        assert_eq!(
            memo.recall(&ab, |_| None::<()>),
            None,
            "a plan that does not fit"
        );
        assert_eq!((memo.usage().filed, memo.usage().taken), (1, 1));
        let clone = memo.clone().usage();
        assert_eq!((clone.filed, clone.taken), (0, 0), "a clone starts empty");
    }

    /// A lock poisoned by a panic under it reads as a miss and files
    /// nothing.
    #[test]
    fn a_poisoned_memo_reads_as_a_miss() {
        let q = Scope::from_indices(&[0]);
        let memo = PlanMemo::new();
        memo.file(&q, FiledPlan::InClique(0));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.recall(&q, |_| -> Option<()> { panic!("under the lock") })
        }));
        assert!(poisoned.is_err());
        assert_eq!(memo.recall(&q, |_| Some(())), None);
        memo.file(&Scope::from_indices(&[1]), FiledPlan::InClique(0));
        assert_eq!((memo.usage().filed, memo.usage().taken), (0, 0));
    }
}
