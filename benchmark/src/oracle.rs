//! The correctness gate: answers are compared against variable
//! elimination on the original network (`peanut_ve::ve_answer`), an
//! implementation that shares no junction-tree code with the program under
//! test. Conditionals use the textbook reduction — joint over targets ∪
//! evidence, restrict, renormalize.

use peanut_pgm::{BayesianNetwork, Potential};
use peanut_serving::ServeRequest;
use peanut_ve::{ve_answer, ve_cost};

/// Absolute tolerance on every table entry and on the total mass.
pub const TOL: f64 = 1e-9;

/// Largest intermediate table (entries) the oracle will build: 8 MiB.
/// Elimination on TPC-H can need intermediates of hundreds of megabytes,
/// which would make the oracle, not the program, set `peak_rss_mb`.
pub const MAX_ORACLE_TABLE: u64 = 1 << 20;

/// `P(targets | evidence)` by variable elimination. `None` when the
/// oracle would need an intermediate above [`MAX_ORACLE_TABLE`] (decided
/// from the symbolic elimination cost, a property of the request alone) —
/// such a request cannot serve as a check sample.
pub fn reference(bn: &BayesianNetwork, req: &ServeRequest) -> Option<Potential> {
    let scope = req.stat_scope();
    if ve_cost(bn, &scope).peak_table > MAX_ORACLE_TABLE {
        return None;
    }
    let (joint, _) = ve_answer(bn, &scope).ok()?;
    let mut p = joint;
    for &(v, value) in &req.evidence {
        p = p.restrict(v, value).ok()?;
    }
    if !req.is_marginal() {
        p.normalize();
    }
    Some(p)
}

/// Whether `p` is a normalized distribution (mass 1 ± [`TOL`], no NaN).
pub fn sums_to_one(p: &Potential) -> bool {
    (p.sum() - 1.0).abs() <= TOL
}

/// Whether `got` equals the reference entry by entry within [`TOL`].
pub fn matches(got: &Potential, want: &Potential) -> bool {
    got.max_abs_diff(want).is_ok_and(|d| d <= TOL)
}

/// A fixed check sample: positions in a request list and their reference
/// answers.
pub struct CheckSample {
    /// `(position in the request list, reference answer)`, ascending by
    /// position.
    pub refs: Vec<(usize, Potential)>,
    /// Candidate positions skipped because the oracle could not build
    /// their joint.
    pub skipped: usize,
}

impl CheckSample {
    /// Builds references for up to `want` of the `candidates` (positions
    /// into `requests`, tried in order).
    pub fn build(
        bn: &BayesianNetwork,
        requests: &[ServeRequest],
        candidates: impl IntoIterator<Item = usize>,
        want: usize,
    ) -> CheckSample {
        let mut refs = Vec::new();
        let mut skipped = 0;
        for i in candidates {
            if refs.len() >= want {
                break;
            }
            match reference(bn, &requests[i]) {
                Some(p) => refs.push((i, p)),
                None => skipped += 1,
            }
        }
        refs.sort_by_key(|&(i, _)| i);
        CheckSample { refs, skipped }
    }

    /// Positions of the sample, ascending.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.refs.iter().map(|&(i, _)| i)
    }

    /// Counts the sample positions in `range` whose answer is wrong.
    /// `kept` holds the answers the program gave, `(position, answer)`
    /// ascending by position; a position without one counts as wrong.
    pub fn mismatches(&self, kept: &[(usize, Potential)], range: std::ops::Range<usize>) -> u64 {
        self.refs
            .iter()
            .filter(|(i, _)| range.contains(i))
            .filter(|(i, want)| {
                !kept
                    .binary_search_by_key(i, |&(k, _)| k)
                    .is_ok_and(|at| sums_to_one(&kept[at].1) && matches(&kept[at].1, want))
            })
            .count() as u64
    }
}

/// Evenly strided candidate positions over `0..n`, about `k` of them.
pub fn strided(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let step = (n / k.max(1)).max(1);
    (0..n).step_by(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::{fixtures, joint, Scope, Var};

    #[test]
    fn reference_matches_brute_force_and_conditionals_normalize() {
        let bn = fixtures::asia();
        let marginal = ServeRequest::marginal(Scope::from_indices(&[0, 3]));
        let want = joint::marginal(&bn, &marginal.targets).unwrap();
        let got = reference(&bn, &marginal).unwrap();
        assert!(matches(&got, &want));
        assert!(sums_to_one(&got));
        let cond = ServeRequest::new(Scope::from_indices(&[2]), vec![(Var(0), 1)]);
        let got = reference(&bn, &cond).unwrap();
        assert_eq!(got.scope(), &cond.targets);
        assert!(sums_to_one(&got));
    }

    #[test]
    fn a_wrong_or_missing_answer_is_a_mismatch() {
        let bn = fixtures::asia();
        let reqs = vec![
            ServeRequest::marginal(Scope::from_indices(&[1])),
            ServeRequest::marginal(Scope::from_indices(&[2])),
        ];
        let sample = CheckSample::build(&bn, &reqs, 0..2, 2);
        assert_eq!(sample.refs.len(), 2);
        let right: Vec<(usize, Potential)> = reqs
            .iter()
            .map(|r| reference(&bn, r).unwrap())
            .enumerate()
            .collect();
        assert_eq!(sample.mismatches(&right, 0..2), 0);
        // answer 1 swapped for answer 0's table, answer 0 missing
        let wrong = [(1, right[0].1.clone())];
        assert_eq!(sample.mismatches(&wrong, 0..2), 2);
        // only positions inside the range are judged
        assert_eq!(sample.mismatches(&wrong, 0..1), 1);
    }
}
