//! One counted value for everything the serving engines do.
//!
//! [`Counters`] is a plain struct of `u64` counts: arrivals and their
//! answers, the summed [`Work`] of the answers computed, paging and store
//! traffic. Each engine keeps one cumulatively and hands out a copy
//! ([`ServingEngine::counters`](crate::ServingEngine::counters),
//! [`ShardedServingEngine::counters`](crate::ShardedServingEngine::counters));
//! what happened between two snapshots is `after - before`. The counts
//! wrap at 2⁶⁴ and the subtraction wraps with them, so a difference is
//! exact across a wrap.
//!
//! Answers are folded in at one place, `BatchRun::finish`; fault-ins,
//! page-outs and store writes where they happen. A serving call fills a
//! value of its own and folds it into its engine's total under one leaf
//! lock, once per call.

use peanut_junction::cost::QueryCost;
use peanut_pgm::{Size, Work};

/// Declares [`Counters`] from one field list, with the field-wise
/// (wrapping) `+=` and `-`.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// What a serving engine counted ([module docs](self)).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl std::ops::AddAssign for Counters {
            fn add_assign(&mut self, other: Counters) {
                $(self.$field = self.$field.wrapping_add(other.$field);)*
            }
        }

        impl std::ops::Sub for Counters {
            type Output = Counters;

            fn sub(mut self, earlier: Counters) -> Counters {
                $(self.$field = self.$field.wrapping_sub(earlier.$field);)*
                self
            }
        }
    };
}

counters! {
    /// Arrivals: requests submitted, duplicates and cache hits included.
    requests,
    /// Arrivals answered with an error: a failed computation (each of its
    /// arrivals), an unknown tenant, a tenant whose fault-in failed.
    failed,
    /// Answers computed: a computation counts once however many arrivals
    /// share it; cache hits and failures are not computations.
    computed,
    /// Operations charged to the answers computed (`QueryCost::ops`).
    ops,
    /// What the plain junction tree charges for the same answers.
    baseline_ops,
    /// Unique requests answered from an answer cache.
    cache_hits,
    /// Shortcuts the answers computed used.
    shortcuts_used,
    /// Answers whose plan came from a plan memo ([`Work::plan_taken`]).
    plans_taken,
    /// Answers computed by pruned variable elimination
    /// ([`Work::eliminated`]).
    eliminated,
    /// Elimination steps taken from the factor memos.
    factors_taken,
    /// Messages taken from the message memos.
    messages_taken,
    /// Messages computed, answers included.
    messages_computed,
    /// Product entries the kernels walked.
    entries_walked,
    /// Of those, the entries the fused kernel's short-run walk summed
    /// ([`Work::short_walked`]).
    short_walked,
    /// Query anatomies the answers built, in planning, re-hanging and
    /// their passes ([`Work::anatomies_walked`]).
    anatomies_walked,
    /// Tenants faulted in from the store.
    faults,
    /// Fault-ins that failed. A page-out whose save failed (the tenant
    /// stayed resident) is a failed write, counted in `store_errors`.
    fault_errors,
    /// Tenants paged out.
    page_outs,
    /// Message-memo entries the fault-ins resumed from a parked front.
    memo_resumed,
    /// Time spent faulting tenants in, in nanoseconds.
    fault_nanos,
    /// Bytes of the epoch files fault-ins read.
    store_bytes_read,
    /// Bytes of the epoch files persists wrote.
    store_bytes_written,
    /// Store writes that failed: persists, a page-out's save included,
    /// and page-outs' removals of old epoch files.
    store_errors,
}

impl Counters {
    /// Folds in one computed answer: its charge, its plain-tree baseline
    /// and the work its pass executed.
    pub fn add_answer(&mut self, cost: &QueryCost, baseline_ops: Size, work: &Work) {
        *self += Counters {
            computed: 1,
            ops: cost.ops,
            baseline_ops,
            shortcuts_used: cost.shortcuts_used as u64,
            plans_taken: u64::from(work.plan_taken),
            eliminated: u64::from(work.eliminated),
            factors_taken: work.factors_taken,
            messages_taken: work.messages_taken,
            messages_computed: work.messages_computed,
            entries_walked: work.entries_walked,
            short_walked: work.short_walked,
            anatomies_walked: work.anatomies_walked,
            ..Counters::default()
        };
    }

    /// [`fault_nanos`](Self::fault_nanos) as a duration.
    pub fn fault_wall(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.fault_nanos)
    }
}
