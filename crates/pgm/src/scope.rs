//! Sorted variable sets with merge-join set algebra.

use crate::var::Var;
use std::fmt;

/// An ordered set of variables: the scope of a potential, clique or
/// separator.
///
/// Internally a sorted, deduplicated `Vec<Var>`; all set operations are
/// linear merge joins, which keeps the hot paths of the message-passing and
/// DP code allocation-light and branch-predictable. Scopes in this workspace
/// are small (bounded by treewidth + query size), so a sorted vector
/// outperforms hash sets.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Scope {
    vars: Vec<Var>,
}

impl Scope {
    /// The empty scope.
    pub fn empty() -> Self {
        Scope { vars: Vec::new() }
    }

    /// Scope containing a single variable.
    pub fn singleton(v: Var) -> Self {
        Scope { vars: vec![v] }
    }

    /// Builds a scope from any iterator of variables (sorts and dedups).
    /// Also available through the `FromIterator` impl; the inherent method
    /// avoids type annotations at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        let mut vars: Vec<Var> = iter.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        Scope { vars }
    }

    /// Replaces the variables with `iter`'s (sorted and deduplicated),
    /// keeping the allocation.
    pub fn refill<I: IntoIterator<Item = Var>>(&mut self, iter: I) {
        self.vars.clear();
        self.vars.extend(iter);
        self.vars.sort_unstable();
        self.vars.dedup();
    }

    /// Builds a scope from a slice of raw indices (test convenience).
    pub fn from_indices(ix: &[u32]) -> Self {
        Self::from_iter(ix.iter().copied().map(Var))
    }

    /// Number of variables in the scope.
    #[inline]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when the scope contains no variables.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The variables in ascending order.
    #[inline]
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Iterator over the variables in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.vars.iter().copied()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        self.vars.binary_search(&v).is_ok()
    }

    /// Position of `v` within the sorted scope, if present.
    #[inline]
    pub fn position(&self, v: Var) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    /// True when every variable of `self` belongs to `other`.
    pub fn is_subset_of(&self, other: &Scope) -> bool {
        let mut it = other.vars.iter();
        'outer: for v in &self.vars {
            for w in it.by_ref() {
                match w.cmp(v) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// True when the scopes share no variable.
    pub fn is_disjoint_from(&self, other: &Scope) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() && j < other.vars.len() {
            match self.vars[i].cmp(&other.vars[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Makes this scope the union of `scopes`, on its own allocation.
    pub(crate) fn assign_union<'s>(&mut self, scopes: impl Iterator<Item = &'s Scope> + Clone) {
        self.vars.clear();
        self.vars.reserve(scopes.clone().map(Scope::len).sum());
        for scope in scopes {
            self.vars.extend_from_slice(&scope.vars);
        }
        self.vars.sort_unstable();
        self.vars.dedup();
    }

    /// Set union (merge join).
    pub fn union(&self, other: &Scope) -> Scope {
        let mut out = Vec::with_capacity(self.vars.len() + other.vars.len());
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() && j < other.vars.len() {
            match self.vars[i].cmp(&other.vars[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.vars[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.vars[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.vars[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.vars[i..]);
        out.extend_from_slice(&other.vars[j..]);
        Scope { vars: out }
    }

    /// Set intersection (merge join).
    pub fn intersect(&self, other: &Scope) -> Scope {
        let mut out = Scope {
            vars: Vec::with_capacity(self.vars.len().min(other.vars.len())),
        };
        out.assign_intersection(self, other);
        out
    }

    /// Replaces the variables with `a ∩ b` (merge join), keeping the
    /// allocation.
    pub(crate) fn assign_intersection(&mut self, a: &Scope, b: &Scope) {
        let out = &mut self.vars;
        out.clear();
        let (mut i, mut j) = (0, 0);
        while i < a.vars.len() && j < b.vars.len() {
            match a.vars[i].cmp(&b.vars[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a.vars[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Variables the scope's allocation holds room for.
    pub(crate) fn capacity(&self) -> usize {
        self.vars.capacity()
    }

    /// Set difference `self \ other` (merge join).
    pub fn minus(&self, other: &Scope) -> Scope {
        let mut out = Vec::with_capacity(self.vars.len());
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() {
            if j >= other.vars.len() {
                out.extend_from_slice(&self.vars[i..]);
                break;
            }
            match self.vars[i].cmp(&other.vars[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.vars[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        Scope { vars: out }
    }

    /// Inserts a variable, keeping order; no-op when already present.
    pub fn insert(&mut self, v: Var) {
        if let Err(pos) = self.vars.binary_search(&v) {
            self.vars.insert(pos, v);
        }
    }

    /// Removes a variable when present.
    pub fn remove(&mut self, v: Var) {
        if let Ok(pos) = self.vars.binary_search(&v) {
            self.vars.remove(pos);
        }
    }
}

impl fmt::Debug for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, v) in self.vars.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Var> for Scope {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        Scope::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a Scope {
    type Item = Var;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Var>>;
    fn into_iter(self) -> Self::IntoIter {
        self.vars.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ix: &[u32]) -> Scope {
        Scope::from_indices(ix)
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let sc = s(&[3, 1, 3, 2, 1]);
        assert_eq!(sc.vars(), &[Var(1), Var(2), Var(3)]);
        assert_eq!(sc.len(), 3);
    }

    #[test]
    fn union_merges() {
        assert_eq!(s(&[1, 3]).union(&s(&[2, 3, 4])), s(&[1, 2, 3, 4]));
        assert_eq!(s(&[]).union(&s(&[5])), s(&[5]));
        assert_eq!(s(&[7]).union(&s(&[])), s(&[7]));
    }

    #[test]
    fn intersect_and_minus() {
        assert_eq!(s(&[1, 2, 3]).intersect(&s(&[2, 3, 4])), s(&[2, 3]));
        assert_eq!(s(&[1, 2, 3]).minus(&s(&[2])), s(&[1, 3]));
        assert_eq!(s(&[1, 2]).minus(&s(&[1, 2])), s(&[]));
        assert!(s(&[1, 2]).intersect(&s(&[3])).is_empty());
    }

    #[test]
    fn subset_and_disjoint() {
        assert!(s(&[2, 3]).is_subset_of(&s(&[1, 2, 3, 4])));
        assert!(!s(&[2, 5]).is_subset_of(&s(&[1, 2, 3, 4])));
        assert!(s(&[]).is_subset_of(&s(&[1])));
        assert!(s(&[1, 2]).is_disjoint_from(&s(&[3, 4])));
        assert!(!s(&[1, 2]).is_disjoint_from(&s(&[2])));
        assert!(s(&[]).is_disjoint_from(&s(&[])));
    }

    #[test]
    fn insert_remove_keep_order() {
        let mut sc = s(&[1, 3]);
        sc.insert(Var(2));
        assert_eq!(sc, s(&[1, 2, 3]));
        sc.insert(Var(2));
        assert_eq!(sc.len(), 3);
        sc.remove(Var(1));
        assert_eq!(sc, s(&[2, 3]));
        sc.remove(Var(9));
        assert_eq!(sc, s(&[2, 3]));
    }

    #[test]
    fn contains_and_position() {
        let sc = s(&[10, 20, 30]);
        assert!(sc.contains(Var(20)));
        assert!(!sc.contains(Var(25)));
        assert_eq!(sc.position(Var(30)), Some(2));
        assert_eq!(sc.position(Var(5)), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(s(&[1, 2]).to_string(), "{x1,x2}");
        assert_eq!(s(&[]).to_string(), "{}");
    }
}
