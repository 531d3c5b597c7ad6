//! Overload control: admission limits, deadline-aware shedding, and the
//! typed per-query outcomes they produce.
//!
//! A closed-loop replay ([`replay`](crate::replay::replay) without an
//! arrival schedule) can never overload the engine — it offers the next batch only after
//! the previous one completed, so measured "latency" is pure service
//! time and the queue never grows. Real traffic is *open-loop*: arrivals
//! come on their own schedule, and when offered load exceeds capacity
//! the backlog — and with it every query's sojourn time — grows without
//! bound. A production front-end has exactly two defensible responses,
//! and both must be **typed outcomes**, never silent errors:
//!
//! * **Admission control** ([`AdmissionConfig::max_backlog`],
//!   [`AdmissionConfig::max_tenant_backlog`]) — refuse a query at
//!   arrival when the backlog (global, or the arriving tenant's share of
//!   it) is already at its limit. Refusing early is the cheapest
//!   possible shed: the query never occupies queue memory and never
//!   delays anyone else. The per-tenant cap doubles as fairness
//!   isolation — one tenant's burst cannot consume the whole backlog.
//! * **Deadline shedding** ([`AdmissionConfig::deadline`]) — at dispatch
//!   time, drop queries whose latency budget is already blown by
//!   queueing alone. Serving them would waste capacity on answers the
//!   client has stopped waiting for, which is precisely what drives the
//!   FIFO baseline's p99 collapse under saturation.
//!
//! Every offered query resolves to exactly one [`ServeOutcome`]:
//! [`Served`](ServeOutcome::Served) with the answer,
//! [`Shed`](ServeOutcome::Shed) with a typed [`ShedReason`], or
//! [`Failed`](ServeOutcome::Failed) with the engine error. The replay
//! drivers in [`replay`](mod@crate::replay) consume an
//! [`AdmissionConfig`] and, on a timed arrival schedule, report
//! the served-query sojourn p99 next to the shed counts, so the
//! saturation tests can show shedding holding p99 bounded while the
//! unbounded-FIFO configuration (the [`AdmissionConfig::fifo`] default)
//! degrades.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::Served;
use crate::shard::TenantId;
use peanut_pgm::PgmError;
use std::time::Duration;

/// Why the overload controller refused to serve a query. Always surfaced
/// as a [`ServeOutcome::Shed`], never a silent error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The query's latency budget was already exhausted by queueing
    /// delay when it reached the front of the backlog; computing it
    /// would burn capacity on an answer nobody is waiting for.
    DeadlineBlown {
        /// How long the query had waited in the backlog at dispatch.
        waited: Duration,
        /// The configured deadline it blew.
        deadline: Duration,
    },
    /// Admission control refused the query at arrival: the backlog
    /// (global, or the arriving tenant's share) was at its limit.
    AdmissionLimit {
        /// The tenant whose per-tenant cap was hit, or `None` when the
        /// *global* backlog cap rejected the query.
        tenant: Option<TenantId>,
        /// Backlog occupancy (of the limiting scope) at arrival.
        backlog: usize,
        /// The configured limit it collided with.
        limit: usize,
    },
}

/// The resolution of one offered query under overload control.
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// Computed (or cache-served) successfully.
    Served(Served),
    /// Deliberately not served; the typed reason says why.
    Shed(ShedReason),
    /// Dispatched, but the engine returned an error.
    Failed(PgmError),
}

impl ServeOutcome {
    /// The answer, when the query was served.
    pub fn served(&self) -> Option<&Served> {
        match self {
            ServeOutcome::Served(s) => Some(s),
            _ => None,
        }
    }

    /// The shed reason, when the query was shed.
    pub fn shed_reason(&self) -> Option<&ShedReason> {
        match self {
            ServeOutcome::Shed(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the query was served.
    pub fn is_served(&self) -> bool {
        matches!(self, ServeOutcome::Served(_))
    }

    /// Whether the query was shed (by admission or deadline).
    pub fn is_shed(&self) -> bool {
        matches!(self, ServeOutcome::Shed(_))
    }

    /// The engine error, when dispatch failed.
    pub fn failure(&self) -> Option<&PgmError> {
        match self {
            ServeOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Overload-control knobs for the replay drivers.
///
/// The default ([`AdmissionConfig::fifo`]) disables everything —
/// unbounded backlog, no deadline — which is exactly the head-of-line
/// FIFO baseline whose p99 collapses under saturation; the overload
/// tests measure shedding configurations against it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries waiting in the backlog before arrivals are
    /// refused ([`ShedReason::AdmissionLimit`] with `tenant: None`).
    /// `0` means unbounded.
    pub max_backlog: usize,
    /// Maximum backlog entries *per tenant* (mixed replays only) before
    /// that tenant's arrivals are refused. `0` means unbounded.
    pub max_tenant_backlog: usize,
    /// Sojourn budget: queries still queued this long after arrival are
    /// shed at dispatch ([`ShedReason::DeadlineBlown`]) instead of
    /// computed. `None` means never shed — serve everything, however
    /// late.
    pub deadline: Option<Duration>,
}

impl AdmissionConfig {
    /// The unprotected FIFO baseline: admit everything, shed nothing.
    pub fn fifo() -> Self {
        AdmissionConfig::default()
    }

    /// Sets the sojourn deadline (chainable, like every `with_*` knob on
    /// the serving configs).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the global backlog cap (chainable). `0` means unbounded.
    pub fn with_max_backlog(mut self, max_backlog: usize) -> Self {
        self.max_backlog = max_backlog;
        self
    }

    /// Sets the per-tenant backlog cap (chainable). `0` means unbounded.
    pub fn with_max_tenant_backlog(mut self, max_tenant_backlog: usize) -> Self {
        self.max_tenant_backlog = max_tenant_backlog;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors_discriminate() {
        let shed = ServeOutcome::Shed(ShedReason::DeadlineBlown {
            waited: Duration::from_millis(30),
            deadline: Duration::from_millis(10),
        });
        assert!(shed.is_shed());
        assert!(!shed.is_served());
        assert!(shed.served().is_none());
        assert!(matches!(
            shed.shed_reason(),
            Some(ShedReason::DeadlineBlown { .. })
        ));
        let failed = ServeOutcome::Failed(PgmError::EmptyNetwork);
        assert!(!failed.is_shed());
        assert!(!failed.is_served());
        assert!(failed.shed_reason().is_none());
        assert_eq!(failed.failure(), Some(&PgmError::EmptyNetwork));
        assert!(shed.failure().is_none());
    }

    #[test]
    fn fifo_baseline_disables_everything() {
        let fifo = AdmissionConfig::fifo();
        assert_eq!(fifo.max_backlog, 0);
        assert_eq!(fifo.max_tenant_backlog, 0);
        assert!(fifo.deadline.is_none());
        let shed = AdmissionConfig::fifo()
            .with_deadline(Duration::from_millis(25))
            .with_max_backlog(128)
            .with_max_tenant_backlog(32);
        assert_eq!(shed.deadline, Some(Duration::from_millis(25)));
        assert_eq!(shed.max_backlog, 128);
        assert_eq!(shed.max_tenant_backlog, 32);
    }
}
