//! GWMIN — the greedy maximum-weight-independent-set heuristic of Sakai,
//! Togasaki and Yamazaki (2003), used by PEANUT+'s online phase to pick a
//! non-conflicting set of overlapping shortcut potentials (§4.6).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

/// Selects an independent set of the conflict graph greedily: repeatedly
/// take the vertex maximizing `w(v) / (deg(v) + 1)` among the remaining
/// vertices, then delete it and its neighbors.
///
/// `adj[i]` lists the neighbors of vertex `i` (a simple undirected graph:
/// `j ∈ adj[i]` iff `i ∈ adj[j]`); `weights[i] ≥ 0`. Returns the chosen
/// vertex indices in selection order. GWMIN guarantees a total weight of at
/// least `Σ_v w(v)/(deg(v)+1)`. The adjacency-list form, for references
/// and tests: it lays the lists out as bit rows and runs the online
/// phase's GWMIN (`gwmin_rows`) over every vertex.
pub fn gwmin(weights: &[f64], adj: &[Vec<usize>]) -> Vec<usize> {
    debug_assert_eq!(adj.len(), weights.len());
    let rows = ConflictRows::new(weights.len(), |i, j| adj[i].contains(&j));
    let mut alive = vec![u64::MAX; rows.stride];
    if weights.len() % 64 != 0 {
        alive[rows.stride - 1] = (1 << (weights.len() % 64)) - 1;
    }
    gwmin_rows(|v| weights[v], &rows, &mut alive)
}

/// A conflict graph as an `n × ⌈n/64⌉` bit matrix in one vector: row `i`
/// holds the vertices `i` conflicts with.
#[derive(Clone, Debug)]
pub(crate) struct ConflictRows {
    rows: Vec<u64>,
    /// Words per row.
    stride: usize,
}

impl ConflictRows {
    /// The graph on `n` vertices whose edges `conflict(i, j)` reports,
    /// asked once per pair `i < j`.
    pub(crate) fn new(n: usize, mut conflict: impl FnMut(usize, usize) -> bool) -> Self {
        let stride = n.div_ceil(64);
        let mut rows = vec![0u64; n * stride];
        for i in 0..n {
            for j in i + 1..n {
                if conflict(i, j) {
                    rows[i * stride + j / 64] |= 1 << (j % 64);
                    rows[j * stride + i / 64] |= 1 << (i % 64);
                }
            }
        }
        ConflictRows { rows, stride }
    }

    /// Words of a vertex set over this graph's vertices.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.stride..][..self.stride]
    }
}

/// GWMIN ([`gwmin`]'s rule) over the vertices set in `alive` (`rows`'
/// stride of words) of the graph `rows` holds, vertex `v` weighing
/// `weight(v)`; `alive` ends empty. A live vertex's degree is
/// `popcount(row & alive)` — its number of live neighbors, so deleting a
/// vertex is clearing a bit and nothing is kept up to date — and the
/// vertices outside `alive` at the start are as if absent: the picks and
/// their order are those of GWMIN on the subgraph `alive` induces.
pub(crate) fn gwmin_rows(
    weight: impl Fn(usize) -> f64,
    rows: &ConflictRows,
    alive: &mut [u64],
) -> Vec<usize> {
    let mut chosen = Vec::new();
    loop {
        let mut best: Option<(f64, usize)> = None;
        for w in 0..alive.len() {
            let mut word = alive[w];
            while word != 0 {
                let v = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let live = |(r, a): (&u64, &u64)| (r & a).count_ones();
                let degree: u32 = rows.row(v).iter().zip(&*alive).map(live).sum();
                let score = weight(v) / f64::from(degree + 1);
                // vertices come in ascending order, so a tie stays with the
                // lower index
                if best.is_none_or(|(bs, _)| score > bs) {
                    best = Some((score, v));
                }
            }
        }
        let Some((_, v)) = best else { break };
        chosen.push(v);
        alive[v / 64] &= !(1 << (v % 64));
        for (a, r) in alive.iter_mut().zip(rows.row(v)) {
            *a &= !r;
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// GWMIN over neighbor lists with decrement bookkeeping — the form
    /// [`gwmin_rows`] replaced, kept as its reference.
    fn gwmin_lists(weights: &[f64], adj: &[Vec<usize>]) -> Vec<usize> {
        let n = weights.len();
        let mut alive = vec![true; n];
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut chosen = Vec::new();
        loop {
            let mut best: Option<(f64, usize)> = None;
            for v in 0..n {
                if !alive[v] {
                    continue;
                }
                let score = weights[v] / (degree[v] + 1) as f64;
                if best.is_none_or(|(bs, bv)| score > bs || (score == bs && v < bv)) {
                    best = Some((score, v));
                }
            }
            let Some((_, v)) = best else { break };
            chosen.push(v);
            alive[v] = false;
            for &u in &adj[v] {
                if alive[u] {
                    alive[u] = false;
                    for &w in &adj[u] {
                        degree[w] = degree[w].saturating_sub(1);
                    }
                }
            }
        }
        chosen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The bit-row core picks the same vertices in the same order as
        /// the list form: at the word boundaries, with scores that tie
        /// (weights from a handful of values, zero included) and with
        /// isolated vertices (every third vertex of a sparse graph).
        #[test]
        fn bit_rows_choose_as_lists_do(seed in 0u64..1 << 32, size in 0usize..10, density in 0u32..4) {
            let n = [0, 1, 63, 64, 65, 130, 7, 20, 33, 100][size];
            let mut rng = TestRng::seed_from_u64(seed);
            let weights: Vec<f64> =
                (0..n).map(|_| [0.0, 0.5, 1.0, 1.0, 2.0, 3.0][rng.sample(0..6usize)]).collect();
            let mut adj = vec![Vec::new(); n];
            for i in 0..n {
                for j in i + 1..n {
                    let isolated = density == 0 && (i % 3 == 0 || j % 3 == 0);
                    if !isolated && rng.sample(0..[n.max(1), 8, 3, 2][density as usize]) == 0 {
                        adj[i].push(j);
                        adj[j].push(i);
                    }
                }
            }
            let want = gwmin_lists(&weights, &adj);
            prop_assert_eq!(gwmin(&weights, &adj), want.clone());
            // a live subset picks as the lists do on the subgraph it induces
            let subset: Vec<usize> = (0..n).filter(|_| rng.sample(0..3u32) > 0).collect();
            let sub_adj: Vec<Vec<usize>> = subset
                .iter()
                .map(|&i| (0..subset.len()).filter(|&k| adj[i].contains(&subset[k])).collect())
                .collect();
            let sub_weights: Vec<f64> = subset.iter().map(|&i| weights[i]).collect();
            let rows = ConflictRows::new(n, |i, j| adj[i].contains(&j));
            let mut alive = vec![0u64; rows.stride()];
            for &i in &subset {
                alive[i / 64] |= 1 << (i % 64);
            }
            let picked: Vec<usize> =
                gwmin_lists(&sub_weights, &sub_adj).into_iter().map(|k| subset[k]).collect();
            prop_assert_eq!(gwmin_rows(|v| weights[v], &rows, &mut alive), picked);
            for (i, &a) in want.iter().enumerate() {
                prop_assert!(want[i + 1..].iter().all(|b| !adj[a].contains(b)));
            }
        }
    }

    #[test]
    fn empty_graph() {
        assert!(gwmin(&[], &[]).is_empty());
    }

    #[test]
    fn isolated_vertices_all_chosen() {
        let w = [1.0, 2.0, 3.0];
        let adj = vec![vec![], vec![], vec![]];
        let mut got = gwmin(&w, &adj);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn triangle_picks_heaviest() {
        let w = [1.0, 5.0, 2.0];
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        assert_eq!(gwmin(&w, &adj), vec![1]);
    }

    #[test]
    fn path_alternates() {
        // path 0-1-2-3 with equal weights: degree heuristic takes the
        // endpoints first
        let w = [1.0, 1.0, 1.0, 1.0];
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        let mut got = gwmin(&w, &adj);
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn result_is_independent() {
        // star: center heavy but high degree
        let w = [10.0, 4.0, 4.0, 4.0, 4.0];
        let adj = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
        let got = gwmin(&w, &adj);
        for (i, &a) in got.iter().enumerate() {
            for &b in &got[i + 1..] {
                assert!(!adj[a].contains(&b));
            }
        }
        // leaves total 16 > center 10; scores: center 10/5 = 2, leaves 4/2 = 2
        // → tie broken toward center (index 0)... then leaves die. Check
        // independence held regardless.
        assert!(!got.is_empty());
    }
}
