//! The junction-tree data structure: cliques, separators, tree adjacency.

use peanut_pgm::{table_size, Domain, PgmError, Scope, Size, Var};

/// Identifier of a clique node within a [`JunctionTree`].
pub type CliqueId = usize;

/// Identifier of a tree edge (separator) within a [`JunctionTree`].
pub type EdgeId = usize;

/// A junction tree: clique nodes connected by separator edges, satisfying
/// the running-intersection property.
///
/// The tree owns a copy of the [`Domain`] so that all size computations
/// (`μ(v)`, separator sizes, message-table sizes) are self-contained.
#[derive(Clone, Debug)]
pub struct JunctionTree {
    domain: Domain,
    cliques: Vec<Scope>,
    /// `edges[e] = (u, v)` with `u < v`; the separator scope is their
    /// intersection.
    edges: Vec<(CliqueId, CliqueId)>,
    separators: Vec<Scope>,
    /// CSR adjacency: neighbors of `u` are
    /// `adj_flat[adj_first[u]..adj_first[u + 1]]` — one flat `(neighbor,
    /// edge id)` array plus offsets, instead of a `Vec` per node.
    adj_first: Vec<u32>,
    adj_flat: Vec<(CliqueId, EdgeId)>,
    /// Factors (variables, since each variable owns one CPT) assigned to each
    /// clique.
    assigned: Vec<Vec<Var>>,
    /// Each assigned variable's parents in the network, as one flat list:
    /// those of `v` are `parents[parents_first[v]..parents_first[v + 1]]`.
    /// No variable has any in a tree assembled from cliques alone.
    parents_first: Vec<u32>,
    parents: Vec<Var>,
    pivot: CliqueId,
}

impl JunctionTree {
    /// Assembles a junction tree from maximal cliques via the classic
    /// maximum-spanning-tree construction (Kruskal on separator size).
    ///
    /// If the clique graph is disconnected (the moral graph had several
    /// components), components are linked by empty separators — message
    /// passing across them degenerates to scalar messages, which is sound.
    pub fn from_cliques(domain: Domain, cliques: Vec<Scope>) -> Result<Self, PgmError> {
        if cliques.is_empty() {
            return Err(PgmError::EmptyNetwork);
        }
        let n = cliques.len();
        // candidate edges with weight = |intersection|
        let mut cands: Vec<(usize, CliqueId, CliqueId)> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let w = cliques[i].intersect(&cliques[j]).len();
                if w > 0 {
                    cands.push((w, i, j));
                }
            }
        }
        // maximum spanning tree: sort descending by weight (stable ⇒
        // deterministic)
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut dsu = Dsu::new(n);
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        for (_, i, j) in cands {
            if dsu.union(i, j) {
                edges.push((i, j));
            }
        }
        // link remaining components with empty separators
        for j in 1..n {
            if dsu.union(0, j) {
                edges.push((0, j));
            }
        }
        let separators: Vec<Scope> = edges
            .iter()
            .map(|&(i, j)| cliques[i].intersect(&cliques[j]))
            .collect();
        // CSR adjacency: degree count, prefix sum, then placement
        let mut adj_first = vec![0u32; n + 1];
        for &(i, j) in &edges {
            adj_first[i + 1] += 1;
            adj_first[j + 1] += 1;
        }
        for u in 0..n {
            adj_first[u + 1] += adj_first[u];
        }
        let mut adj_flat = vec![(0, 0); 2 * edges.len()];
        let mut cursor: Vec<u32> = adj_first[..n].to_vec();
        for (e, &(i, j)) in edges.iter().enumerate() {
            adj_flat[cursor[i] as usize] = (j, e);
            cursor[i] += 1;
            adj_flat[cursor[j] as usize] = (i, e);
            cursor[j] += 1;
        }
        let tree = JunctionTree {
            domain,
            assigned: vec![Vec::new(); n],
            parents_first: vec![0],
            parents: Vec::new(),
            cliques,
            edges,
            separators,
            adj_first,
            adj_flat,
            pivot: 0,
        };
        tree.check_running_intersection()?;
        Ok(tree)
    }

    /// The variable domain.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of clique nodes.
    #[inline]
    pub fn n_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Scope of a clique node.
    #[inline]
    pub fn clique(&self, u: CliqueId) -> &Scope {
        &self.cliques[u]
    }

    /// All clique scopes.
    #[inline]
    pub fn cliques(&self) -> &[Scope] {
        &self.cliques
    }

    /// Tree edges `(u, v)` with `u < v`.
    #[inline]
    pub fn edges(&self) -> &[(CliqueId, CliqueId)] {
        &self.edges
    }

    /// Separator scope of an edge.
    #[inline]
    pub fn separator(&self, e: EdgeId) -> &Scope {
        &self.separators[e]
    }

    /// Neighbors of a clique with the connecting edge ids (a slice of the
    /// flat CSR adjacency array).
    #[inline]
    pub fn neighbors(&self, u: CliqueId) -> &[(CliqueId, EdgeId)] {
        &self.adj_flat[self.adj_first[u] as usize..self.adj_first[u + 1] as usize]
    }

    /// Table size `μ(u)` of a clique potential.
    pub fn clique_size(&self, u: CliqueId) -> Size {
        table_size(&self.cliques[u], &self.domain)
    }

    /// Table size of a separator potential.
    pub fn separator_size(&self, e: EdgeId) -> Size {
        table_size(&self.separators[e], &self.domain)
    }

    /// Total separator potential size `b_T` — the budget unit used throughout
    /// the paper's experiments (`K` is expressed as multiples of `b_T`).
    pub fn total_separator_size(&self) -> Size {
        (0..self.edges.len())
            .map(|e| self.separator_size(e))
            .fold(0u64, u64::saturating_add)
    }

    /// The pivot (root) clique toward which all messages flow.
    #[inline]
    pub fn pivot(&self) -> CliqueId {
        self.pivot
    }

    /// Re-roots the tree at a different pivot.
    pub fn set_pivot(&mut self, pivot: CliqueId) {
        assert!(pivot < self.n_cliques());
        self.pivot = pivot;
    }

    /// Variables assigned (CPT factors) to a clique.
    #[inline]
    pub fn assigned_factors(&self, u: CliqueId) -> &[Var] {
        &self.assigned[u]
    }

    /// The parents of `v` in the network this tree was built from; `v`'s
    /// CPT must be assigned to a clique.
    pub(crate) fn parents(&self, v: Var) -> &[Var] {
        let first = &self.parents_first[v.index()..];
        &self.parents[first[0] as usize..first[1] as usize]
    }

    /// Records that variable `v`'s CPT, over `v` and `parents`, is
    /// multiplied into clique `u` (performed by [`build`](crate::build), in
    /// variable order).
    pub(crate) fn assign_factor(&mut self, u: CliqueId, v: Var, parents: &[Var]) {
        debug_assert_eq!(v.index() + 1, self.parents_first.len(), "variable order");
        self.assigned[u].push(v);
        self.parents.extend_from_slice(parents);
        self.parents_first.push(self.parents.len() as u32);
    }

    /// Treewidth of this tree: max clique size − 1.
    pub fn treewidth(&self) -> usize {
        self.cliques.iter().map(Scope::len).max().unwrap_or(1) - 1
    }

    /// Diameter of the tree in edges (longest path), via double BFS.
    pub fn diameter(&self) -> usize {
        if self.n_cliques() <= 1 {
            return 0;
        }
        let (far, _) = self.bfs_farthest(0);
        let (_, d) = self.bfs_farthest(far);
        d
    }

    fn bfs_farthest(&self, start: CliqueId) -> (CliqueId, usize) {
        let mut dist = vec![usize::MAX; self.n_cliques()];
        dist[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        let mut best = (start, 0);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    if dist[v] > best.1 {
                        best = (v, dist[v]);
                    }
                    queue.push_back(v);
                }
            }
        }
        best
    }

    /// Cliques containing a variable.
    pub fn cliques_with(&self, v: Var) -> impl Iterator<Item = CliqueId> + '_ {
        (0..self.n_cliques()).filter(move |&u| self.cliques[u].contains(v))
    }

    /// Validates the running-intersection property: for every variable, the
    /// cliques containing it induce a connected subtree.
    pub fn check_running_intersection(&self) -> Result<(), PgmError> {
        for v in self.domain.all_vars() {
            let members: Vec<CliqueId> = self.cliques_with(v).collect();
            if members.len() <= 1 {
                continue;
            }
            // BFS within the induced subgraph
            let in_set = |u: CliqueId| self.cliques[u].contains(v);
            let mut seen = vec![false; self.n_cliques()];
            let mut queue = std::collections::VecDeque::from([members[0]]);
            seen[members[0]] = true;
            let mut count = 1;
            while let Some(u) = queue.pop_front() {
                for &(w, _) in self.neighbors(u) {
                    if !seen[w] && in_set(w) {
                        seen[w] = true;
                        count += 1;
                        queue.push_back(w);
                    }
                }
            }
            if count != members.len() {
                return Err(PgmError::InfeasibleGenerator(format!(
                    "running-intersection violated for {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Disjoint-set union for Kruskal.
struct Dsu {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            self.parent[x] = self.find(self.parent[x]);
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_tree() -> JunctionTree {
        // cliques {0,1}, {1,2}, {2,3}, {1,4}
        let domain = Domain::uniform(5, 2).unwrap();
        let cliques = vec![
            Scope::from_indices(&[0, 1]),
            Scope::from_indices(&[1, 2]),
            Scope::from_indices(&[2, 3]),
            Scope::from_indices(&[1, 4]),
        ];
        JunctionTree::from_cliques(domain, cliques).unwrap()
    }

    #[test]
    fn builds_spanning_tree() {
        let t = diamond_tree();
        assert_eq!(t.n_cliques(), 4);
        assert_eq!(t.edges().len(), 3);
        t.check_running_intersection().unwrap();
    }

    #[test]
    fn separators_are_intersections() {
        let t = diamond_tree();
        for (e, &(u, v)) in t.edges().iter().enumerate() {
            assert_eq!(t.separator(e), &t.clique(u).intersect(t.clique(v)));
        }
    }

    #[test]
    fn sizes() {
        let t = diamond_tree();
        assert_eq!(t.clique_size(0), 4);
        assert_eq!(t.treewidth(), 1);
        // every separator has one binary variable
        assert_eq!(t.total_separator_size(), 6);
    }

    #[test]
    fn diameter_of_path() {
        let domain = Domain::uniform(5, 2).unwrap();
        let cliques = vec![
            Scope::from_indices(&[0, 1]),
            Scope::from_indices(&[1, 2]),
            Scope::from_indices(&[2, 3]),
            Scope::from_indices(&[3, 4]),
        ];
        let t = JunctionTree::from_cliques(domain, cliques).unwrap();
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn disconnected_components_get_linked() {
        let domain = Domain::uniform(4, 2).unwrap();
        let cliques = vec![Scope::from_indices(&[0, 1]), Scope::from_indices(&[2, 3])];
        let t = JunctionTree::from_cliques(domain, cliques).unwrap();
        assert_eq!(t.edges().len(), 1);
        assert!(t.separator(0).is_empty());
        t.check_running_intersection().unwrap();
    }

    #[test]
    fn empty_rejected() {
        let domain = Domain::uniform(1, 2).unwrap();
        assert!(JunctionTree::from_cliques(domain, vec![]).is_err());
    }

    #[test]
    fn pivot_settable() {
        let mut t = diamond_tree();
        assert_eq!(t.pivot(), 0);
        t.set_pivot(2);
        assert_eq!(t.pivot(), 2);
    }
}
