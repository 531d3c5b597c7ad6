//! Workload drift: the λ-mixtures of the robustness experiments
//! (paper §5.3, Figures 8–9), both as a fixed mix ([`mix`]) and as a
//! *streaming* schedule where λ changes over the lifetime of a served
//! query stream ([`DriftSchedule`] / [`DriftStream`]) — the traffic shape
//! the epoch-versioned re-materialization lifecycle reacts to.

use peanut_pgm::Scope;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `n` queries where each comes from `primary` with probability `λ`
/// and from `secondary` otherwise (sampling the pools with replacement).
///
/// `λ = 1` reproduces the training distribution; `λ = 0` is a full drift to
/// the other workload. The first `n` arrivals of a
/// [`DriftSchedule::Constant`] stream.
pub fn mix(primary: &[Scope], secondary: &[Scope], lambda: f64, n: usize, seed: u64) -> Vec<Scope> {
    let schedule = DriftSchedule::Constant(lambda);
    drifting_queries(primary, secondary, &schedule, n, seed)
}

/// How the mixing coefficient λ evolves over a query stream: λ(i) is the
/// probability that arrival `i` comes from the *primary* (training) pool.
///
/// All variants clamp sensibly outside their defined range, so a stream can
/// be drawn past the end of the schedule (λ holds its final value).
#[derive(Clone, Debug, PartialEq)]
pub enum DriftSchedule {
    /// A fixed mix: λ never changes (the paper's static λ-mix).
    Constant(f64),
    /// λ interpolates linearly from `from` (arrival 0) to `to` (arrival
    /// `over`), then holds `to`.
    Linear {
        /// λ at the first arrival.
        from: f64,
        /// λ from arrival `over` on.
        to: f64,
        /// Number of arrivals the ramp spans (0 jumps straight to `to`).
        over: usize,
    },
    /// An abrupt regime change: λ is `before` until arrival `at`, then
    /// `after`.
    Step {
        /// λ for arrivals `0..at`.
        before: f64,
        /// λ from arrival `at` on.
        after: f64,
        /// First arrival of the new regime.
        at: usize,
    },
}

impl DriftSchedule {
    /// Checks every configured λ lies in `[0, 1]`; panics otherwise.
    /// [`DriftStream::new`] calls this up front, so a malformed schedule
    /// fails at construction rather than at some later draw.
    pub fn validate(&self) {
        let check = |l: f64| {
            assert!((0.0..=1.0).contains(&l), "lambda must be in [0, 1]");
        };
        match self {
            DriftSchedule::Constant(l) => check(*l),
            DriftSchedule::Linear { from, to, .. } => {
                check(*from);
                check(*to);
            }
            DriftSchedule::Step { before, after, .. } => {
                check(*before);
                check(*after);
            }
        }
    }

    /// λ at arrival `i`. Evaluation is pure interpolation; call
    /// [`validate`](Self::validate) (or construct a [`DriftStream`]) to
    /// check the schedule itself.
    pub fn lambda_at(&self, i: usize) -> f64 {
        match self {
            DriftSchedule::Constant(l) => *l,
            DriftSchedule::Linear { from, to, over } => {
                if i >= *over || *over == 0 {
                    *to
                } else {
                    let t = i as f64 / *over as f64;
                    from + (to - from) * t
                }
            }
            DriftSchedule::Step { before, after, at } => {
                if i < *at {
                    *before
                } else {
                    *after
                }
            }
        }
    }
}

/// A lazily drawn drifting query stream: arrival `i` comes from `primary`
/// with probability `schedule.lambda_at(i)` and from `secondary` otherwise
/// (pools sampled with replacement). Deterministic in `seed`; the stream is
/// unbounded, so callers `take(n)` what they need.
pub struct DriftStream<'a> {
    primary: &'a [Scope],
    secondary: &'a [Scope],
    schedule: DriftSchedule,
    rng: StdRng,
    next_arrival: usize,
}

impl<'a> DriftStream<'a> {
    /// Builds a stream; both pools must be non-empty and the schedule
    /// must pass [`DriftSchedule::validate`] (checked here, so malformed
    /// schedules fail at construction).
    pub fn new(
        primary: &'a [Scope],
        secondary: &'a [Scope],
        schedule: DriftSchedule,
        seed: u64,
    ) -> Self {
        assert!(
            !primary.is_empty() && !secondary.is_empty(),
            "both pools must be non-empty"
        );
        schedule.validate();
        DriftStream {
            primary,
            secondary,
            schedule,
            rng: StdRng::seed_from_u64(seed),
            next_arrival: 0,
        }
    }

    /// Index of the next arrival the stream will draw.
    pub fn position(&self) -> usize {
        self.next_arrival
    }
}

impl Iterator for DriftStream<'_> {
    type Item = Scope;

    fn next(&mut self) -> Option<Scope> {
        let lambda = self.schedule.lambda_at(self.next_arrival);
        self.next_arrival += 1;
        let pool = if self.rng.gen_range(0.0..1.0) < lambda {
            self.primary
        } else {
            self.secondary
        };
        Some(pool[self.rng.gen_range(0..pool.len())].clone())
    }
}

/// Draws the first `n` arrivals of a [`DriftStream`].
pub fn drifting_queries(
    primary: &[Scope],
    secondary: &[Scope],
    schedule: &DriftSchedule,
    n: usize,
    seed: u64,
) -> Vec<Scope> {
    DriftStream::new(primary, secondary, schedule.clone(), seed)
        .take(n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> (Vec<Scope>, Vec<Scope>) {
        let a: Vec<Scope> = (0..5u32).map(|i| Scope::from_indices(&[i])).collect();
        let b: Vec<Scope> = (10..15u32).map(|i| Scope::from_indices(&[i])).collect();
        (a, b)
    }

    #[test]
    fn extremes_use_single_pool() {
        let (a, b) = pools();
        for q in mix(&a, &b, 1.0, 100, 3) {
            assert!(q.vars()[0].0 < 5);
        }
        for q in mix(&a, &b, 0.0, 100, 3) {
            assert!(q.vars()[0].0 >= 10);
        }
    }

    #[test]
    fn half_mix_draws_from_both() {
        let (a, b) = pools();
        let m = mix(&a, &b, 0.5, 400, 7);
        let from_a = m.iter().filter(|q| q.vars()[0].0 < 5).count();
        assert!(from_a > 100 && from_a < 300, "from_a = {from_a}");
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn invalid_lambda_panics() {
        let (a, b) = pools();
        mix(&a, &b, 1.5, 10, 0);
    }

    fn from_primary(q: &Scope) -> bool {
        q.vars()[0].0 < 5
    }

    #[test]
    fn schedule_shapes() {
        let lin = DriftSchedule::Linear {
            from: 1.0,
            to: 0.0,
            over: 100,
        };
        assert_eq!(lin.lambda_at(0), 1.0);
        assert!((lin.lambda_at(50) - 0.5).abs() < 1e-12);
        assert_eq!(lin.lambda_at(100), 0.0);
        assert_eq!(lin.lambda_at(10_000), 0.0);

        let step = DriftSchedule::Step {
            before: 0.9,
            after: 0.1,
            at: 10,
        };
        assert_eq!(step.lambda_at(9), 0.9);
        assert_eq!(step.lambda_at(10), 0.1);

        assert_eq!(DriftSchedule::Constant(0.3).lambda_at(7), 0.3);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn stream_rejects_invalid_schedule_at_construction() {
        let (a, b) = pools();
        DriftStream::new(&a, &b, DriftSchedule::Constant(1.5), 0);
    }

    #[test]
    fn stream_follows_the_schedule() {
        let (a, b) = pools();
        let schedule = DriftSchedule::Step {
            before: 1.0,
            after: 0.0,
            at: 200,
        };
        let qs = drifting_queries(&a, &b, &schedule, 400, 11);
        assert_eq!(qs.len(), 400);
        assert!(qs[..200].iter().all(from_primary), "pre-step all primary");
        assert!(
            !qs[200..].iter().any(from_primary),
            "post-step all secondary"
        );
    }

    #[test]
    fn linear_drift_shifts_the_mix_gradually() {
        let (a, b) = pools();
        let schedule = DriftSchedule::Linear {
            from: 1.0,
            to: 0.0,
            over: 900,
        };
        let qs = drifting_queries(&a, &b, &schedule, 900, 23);
        let head = qs[..300].iter().filter(|q| from_primary(q)).count();
        let tail = qs[600..].iter().filter(|q| from_primary(q)).count();
        assert!(
            head > 220 && tail < 80,
            "head {head} should be mostly primary, tail {tail} mostly secondary"
        );
    }

    #[test]
    fn stream_is_deterministic_and_resumable() {
        let (a, b) = pools();
        let schedule = DriftSchedule::Linear {
            from: 0.8,
            to: 0.2,
            over: 50,
        };
        let all = drifting_queries(&a, &b, &schedule, 80, 7);
        let mut stream = DriftStream::new(&a, &b, schedule.clone(), 7);
        assert_eq!(stream.position(), 0);
        let first: Vec<Scope> = stream.by_ref().take(30).collect();
        assert_eq!(stream.position(), 30);
        let rest: Vec<Scope> = stream.take(50).collect();
        assert_eq!(all[..30], first[..]);
        assert_eq!(all[30..], rest[..]);
    }
}
