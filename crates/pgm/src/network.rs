//! Discrete Bayesian networks: DAG structure plus one CPT per variable.

use crate::domain::Domain;
use crate::error::PgmError;
use crate::potential::{Potential, Size};
use crate::scope::Scope;
use crate::var::Var;
use crate::Result;

/// A discrete Bayesian network.
///
/// Each variable `v` owns a conditional probability table `P(v | parents(v))`
/// stored as a [`Potential`] over the *family* scope `{v} ∪ parents(v)`.
/// The joint distribution is the product of all CPTs.
#[derive(Clone, Debug)]
pub struct BayesianNetwork {
    domain: Domain,
    parents: Vec<Vec<Var>>,
    cpts: Vec<Potential>,
}

impl BayesianNetwork {
    /// The network's domain.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.domain.len()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Parents of a variable (unsorted, insertion order).
    #[inline]
    pub fn parents(&self, v: Var) -> &[Var] {
        &self.parents[v.index()]
    }

    /// The CPT `P(v | parents(v))` over the sorted family scope.
    #[inline]
    pub fn cpt(&self, v: Var) -> &Potential {
        &self.cpts[v.index()]
    }

    /// All CPTs in variable order.
    pub fn cpts(&self) -> impl Iterator<Item = &Potential> {
        self.cpts.iter()
    }

    /// The family scope `{v} ∪ parents(v)`.
    pub fn family(&self, v: Var) -> Scope {
        let mut s = Scope::from_iter(self.parents[v.index()].iter().copied());
        s.insert(v);
        s
    }

    /// All directed edges `(parent, child)`.
    pub fn edges(&self) -> impl Iterator<Item = (Var, Var)> + '_ {
        self.parents.iter().enumerate().flat_map(|(c, ps)| {
            let child = Var(c as u32);
            ps.iter().map(move |&p| (p, child))
        })
    }

    /// Maximum in-degree over all variables.
    pub fn max_in_degree(&self) -> usize {
        self.parents.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of *independent* parameters: Σ_v (α(v) − 1) · Π_p α(p).
    ///
    /// This matches the convention of the bnlearn repository used in the
    /// paper's Table 1.
    pub fn n_parameters(&self) -> Size {
        self.domain
            .all_vars()
            .map(|v| {
                let child = (self.domain.card(v) as u64).saturating_sub(1);
                self.parents[v.index()].iter().fold(child, |acc, &p| {
                    acc.saturating_mul(self.domain.card(p) as u64)
                })
            })
            .fold(0u64, u64::saturating_add)
    }

    /// A topological order of the variables (parents before children).
    pub fn topological_order(&self) -> Vec<Var> {
        let n = self.n_vars();
        let mut indeg = vec![0usize; n];
        let mut children: Vec<Vec<Var>> = vec![Vec::new(); n];
        for (c, ps) in self.parents.iter().enumerate() {
            indeg[c] = ps.len();
            for &p in ps {
                children[p.index()].push(Var(c as u32));
            }
        }
        let mut stack: Vec<Var> = (0..n as u32)
            .map(Var)
            .filter(|v| indeg[v.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in &children[v.index()] {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    stack.push(c);
                }
            }
        }
        // On a cyclic parent relation the order is shorter than `n`;
        // `NetworkBuilder::build` turns that into `CycleDetected`.
        order
    }

    /// Validates normalization of every CPT: summing out the child must give
    /// (approximately) the all-ones table over the parents.
    pub fn validate_cpts(&self) -> Result<()> {
        for v in self.domain.all_vars() {
            let summed = self.cpts[v.index()].sum_out(&Scope::singleton(v))?;
            for (row, &s) in summed.values().iter().enumerate() {
                // a NaN sum must fail, and `NaN > 1e-6` is false
                if s.is_nan() || (s - 1.0).abs() > 1e-6 {
                    return Err(PgmError::UnnormalizedCpt {
                        var: v,
                        row,
                        sum: s,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Incremental constructor for [`BayesianNetwork`].
///
/// ```
/// use peanut_pgm::NetworkBuilder;
///
/// let mut b = NetworkBuilder::new();
/// let rain = b.var("rain", 2);
/// let wet = b.var("wet", 2);
/// b.cpt(rain, &[], &[&[0.8, 0.2]]).unwrap();
/// // rows indexed by the parent assignment (rain=0, rain=1)
/// b.cpt(wet, &[rain], &[&[0.9, 0.1], &[0.2, 0.8]]).unwrap();
/// let bn = b.build().unwrap();
/// assert_eq!(bn.n_edges(), 1);
/// ```
#[derive(Default)]
pub struct NetworkBuilder {
    domain: Domain,
    parents: Vec<Vec<Var>>,
    cpts: Vec<Option<Potential>>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a variable.
    pub fn var(&mut self, name: &str, card: u32) -> Var {
        let v = self.domain.add(name, card).expect("valid cardinality");
        self.parents.push(Vec::new());
        self.cpts.push(None);
        v
    }

    /// Declares a variable, returning an error on invalid cardinality.
    pub fn try_var(&mut self, name: &str, card: u32) -> Result<Var> {
        let v = self.domain.add(name, card)?;
        self.parents.push(Vec::new());
        self.cpts.push(None);
        Ok(v)
    }

    /// Read access to the domain built so far.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Validates a CPT's family — known variables, no duplicate parent,
    /// the child not its own parent — and returns how many rows (parent
    /// assignments) its table has. The product is checked: `read_network`
    /// sizes its row loop with it, from cardinalities a file chose.
    pub(crate) fn cpt_rows(&self, child: Var, parents: &[Var]) -> Result<usize> {
        self.domain.try_card(child)?;
        let scope = Scope::from_iter(parents.iter().copied());
        if scope.contains(child) || scope.len() != parents.len() {
            return Err(PgmError::BadCptScope { var: child });
        }
        let mut n_rows = 1usize;
        for &p in parents {
            n_rows = n_rows
                .checked_mul(self.domain.try_card(p)? as usize)
                .ok_or(PgmError::BadCptScope { var: child })?;
        }
        Ok(n_rows)
    }

    /// Sets the CPT `P(child | parents)`.
    ///
    /// `rows` is indexed by the parent assignment in the *given* parent order
    /// (last listed parent varies fastest); each row is the distribution over
    /// the child's values. This human-friendly layout is rewritten into the
    /// sorted-scope [`Potential`] layout internally.
    pub fn cpt(&mut self, child: Var, parents: &[Var], rows: &[&[f64]]) -> Result<()> {
        if rows.len() != self.cpt_rows(child, parents)? {
            return Err(PgmError::BadCptScope { var: child });
        }
        let child_card = self.domain.card(child);
        let parent_cards: Vec<u32> = parents.iter().map(|&p| self.domain.card(p)).collect();
        let mut scope = Scope::from_iter(parents.iter().copied());
        scope.insert(child);
        let mut table = Potential::zeros(scope.clone(), &self.domain)?;

        // walk parent assignments in the *listed* order
        let mut passign = vec![0u32; parents.len()];
        for (row_idx, row) in rows.iter().enumerate() {
            if row.len() != child_card as usize {
                return Err(PgmError::BadCptScope { var: child });
            }
            let mut sum = 0.0;
            for (val, &p) in row.iter().enumerate() {
                sum += p;
                // assemble the full sorted-scope assignment
                let full: Vec<u32> = scope
                    .iter()
                    .map(|sv| {
                        if sv == child {
                            val as u32
                        } else {
                            let pos = parents.iter().position(|&pp| pp == sv).unwrap();
                            passign[pos]
                        }
                    })
                    .collect();
                let idx = table.index_of(&full);
                table.values_mut()[idx] = p;
            }
            // a distribution: every entry finite and non-negative. The sum
            // alone cannot tell: `-0.5 1.5` sums to 1, and NaN compares false
            let valid = row.iter().all(|p| p.is_finite() && *p >= 0.0);
            if !(valid && (sum - 1.0).abs() <= 1e-6) {
                return Err(PgmError::UnnormalizedCpt {
                    var: child,
                    row: row_idx,
                    sum,
                });
            }
            // odometer over the listed parent order, last fastest
            for ax in (0..parents.len()).rev() {
                passign[ax] += 1;
                if passign[ax] < parent_cards[ax] {
                    break;
                }
                passign[ax] = 0;
            }
        }
        self.parents[child.index()] = parents.to_vec();
        self.cpts[child.index()] = Some(table);
        Ok(())
    }

    /// Sets an already-assembled CPT potential over the family scope.
    pub fn cpt_potential(&mut self, child: Var, parents: &[Var], table: Potential) -> Result<()> {
        let mut scope = Scope::from_iter(parents.iter().copied());
        scope.insert(child);
        if table.scope() != &scope {
            return Err(PgmError::BadCptScope { var: child });
        }
        self.parents[child.index()] = parents.to_vec();
        self.cpts[child.index()] = Some(table);
        Ok(())
    }

    /// Finalizes the network: every variable must have a CPT and the parent
    /// relation must be acyclic.
    pub fn build(self) -> Result<BayesianNetwork> {
        if self.domain.is_empty() {
            return Err(PgmError::EmptyNetwork);
        }
        let mut cpts = Vec::with_capacity(self.cpts.len());
        for (i, c) in self.cpts.into_iter().enumerate() {
            cpts.push(c.ok_or(PgmError::BadCptScope { var: Var(i as u32) })?);
        }
        let bn = BayesianNetwork {
            domain: self.domain,
            parents: self.parents,
            cpts,
        };
        // acyclicity via Kahn completion
        if bn.topological_order().len() != bn.n_vars() {
            return Err(PgmError::CycleDetected);
        }
        bn.validate_cpts()?;
        Ok(bn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sprinkler() -> BayesianNetwork {
        let mut b = NetworkBuilder::new();
        let cloudy = b.var("cloudy", 2);
        let sprinkler = b.var("sprinkler", 2);
        let rain = b.var("rain", 2);
        let wet = b.var("wet", 2);
        b.cpt(cloudy, &[], &[&[0.5, 0.5]]).unwrap();
        b.cpt(sprinkler, &[cloudy], &[&[0.5, 0.5], &[0.9, 0.1]])
            .unwrap();
        b.cpt(rain, &[cloudy], &[&[0.8, 0.2], &[0.2, 0.8]]).unwrap();
        b.cpt(
            wet,
            &[sprinkler, rain],
            &[&[1.0, 0.0], &[0.1, 0.9], &[0.1, 0.9], &[0.01, 0.99]],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_sprinkler() {
        let bn = sprinkler();
        assert_eq!(bn.n_vars(), 4);
        assert_eq!(bn.n_edges(), 4);
        assert_eq!(bn.max_in_degree(), 2);
        // params: 1 + 2*1 + 2*1 + 4*1 = 9
        assert_eq!(bn.n_parameters(), 9);
        bn.validate_cpts().unwrap();
    }

    #[test]
    fn cpt_layout_matches_rows() {
        let bn = sprinkler();
        let wet = bn.domain().var("wet").unwrap();
        let spr = bn.domain().var("sprinkler").unwrap();
        let rain = bn.domain().var("rain").unwrap();
        let cpt = bn.cpt(wet);
        // P(wet=1 | sprinkler=1, rain=0) = 0.9
        let scope = cpt.scope().clone();
        let asg: Vec<u32> = scope
            .iter()
            .map(|v| {
                if v == wet || v == spr {
                    1
                } else if v == rain {
                    0
                } else {
                    unreachable!()
                }
            })
            .collect();
        assert!((cpt.get(&asg) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn topological_order_respects_edges() {
        let bn = sprinkler();
        let order = bn.topological_order();
        let pos: Vec<usize> = bn
            .domain()
            .all_vars()
            .map(|v| order.iter().position(|&o| o == v).unwrap())
            .collect();
        for (p, c) in bn.edges() {
            assert!(pos[p.index()] < pos[c.index()]);
        }
    }

    #[test]
    fn missing_cpt_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.var("a", 2);
        let _b2 = b.var("b", 2);
        b.cpt(a, &[], &[&[0.4, 0.6]]).unwrap();
        assert!(matches!(b.build(), Err(PgmError::BadCptScope { .. })));
    }

    #[test]
    fn unnormalized_row_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.var("a", 2);
        // the last three sum to 1 or to NaN: a row is a distribution only
        // if every entry is a finite, non-negative number
        for row in [
            [0.4, 0.4],
            [f64::NAN, f64::NAN],
            [f64::INFINITY, f64::NEG_INFINITY],
            [-0.5, 1.5],
        ] {
            assert!(
                matches!(
                    b.cpt(a, &[], &[&row]),
                    Err(PgmError::UnnormalizedCpt { .. })
                ),
                "accepted {row:?}"
            );
        }
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.var("a", 2);
        let c = b.var("c", 2);
        b.cpt(a, &[c], &[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        b.cpt(c, &[a], &[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        assert!(matches!(b.build(), Err(PgmError::CycleDetected)));
    }

    #[test]
    fn self_parent_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.var("a", 2);
        assert!(b.cpt(a, &[a], &[&[0.5, 0.5], &[0.5, 0.5]]).is_err());
    }

    #[test]
    fn empty_network_rejected() {
        let b = NetworkBuilder::new();
        assert!(matches!(b.build(), Err(PgmError::EmptyNetwork)));
    }

    #[test]
    fn wrong_row_count_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.var("a", 2);
        let c = b.var("c", 2);
        b.cpt(a, &[], &[&[0.5, 0.5]]).unwrap();
        assert!(b.cpt(c, &[a], &[&[0.5, 0.5]]).is_err());
    }

    #[test]
    fn family_scope_sorted() {
        let bn = sprinkler();
        let wet = bn.domain().var("wet").unwrap();
        let fam = bn.family(wet);
        assert_eq!(fam.len(), 3);
        assert!(fam.contains(wet));
    }
}
