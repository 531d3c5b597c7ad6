//! Pins what the online phase *selects* and the *bits* it answers with.
//!
//! The reference below is a test-local model of the online component as it
//! stood before query plans became views: an owned reduced tree whose
//! clique, separator and shortcut tables are copies
//! (`TableRef::to_potential()`), a by-value `replace_region` evaluated on a
//! clone per candidate shortcut, Scope-union cost accounting, and message
//! passing through the owned `Potential::{product_many_in, divide_in,
//! marginalize_in}` wrappers. It touches only surface that predates the
//! view refactor. Two things follow the engine:
//! * a message is summed onto its target *before* it is divided by the
//!   parent separator (the same two calls the other way round — the
//!   engine's fused kernel never builds the product the division used to
//!   run over);
//! * the answer is computed toward the member where the count is smallest:
//!   the model re-roots its reduced tree at every member by brute force
//!   (parent links reversed, each separator handed to the new child),
//!   prices each rooting with its own Scope-union count and keeps the
//!   first cheapest in pre-order — `r_q` on a tie. The count it reports
//!   stays the one toward `r_q`.
//!
//! For every query the engine's answer must equal the model's entry by
//! entry under `f64::to_bits`, `QueryCost` and `baseline_ops` must be
//! equal, and the multiset of shortcut ids in the reduced tree must be
//! equal; variable elimination is the outer oracle.

use peanut_core::context::SteinerCover;
use peanut_core::gwmin::gwmin;
use peanut_core::{Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload};
use peanut_junction::cost::{marginalization_ops, node_ops, QueryCost};
use peanut_junction::{build_junction_tree, NodeLabel, QueryEngine, QueryPlan, SteinerTree};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, BayesianNetwork, Domain, PgmError, Potential, Scope, Scratch, Size};
use peanut_ve::ve_answer;

/// One node of the owned reference tree.
#[derive(Clone)]
struct RefNode {
    scope: Scope,
    label: NodeLabel,
    potential: Potential,
    sep_to_parent: Option<Potential>,
    parent: Option<usize>,
    children: Vec<usize>,
}

/// The owned reference tree: every table is a copy.
#[derive(Clone)]
struct RefTree {
    nodes: Vec<RefNode>,
    root: usize,
    shortcuts_used: usize,
}

impl RefTree {
    fn from_steiner(engine: &QueryEngine<'_>, st: &SteinerTree) -> RefTree {
        let (tree, rooted) = (engine.tree(), engine.rooted());
        let ns = engine.numeric_state().expect("numeric engine");
        let ids = st.nodes();
        let index_of = |u: usize| ids.binary_search(&u).expect("steiner member");
        let mut nodes: Vec<RefNode> = ids
            .iter()
            .map(|&u| {
                let is_root = u == st.root();
                RefNode {
                    scope: tree.clique(u).clone(),
                    label: NodeLabel::Clique(u),
                    potential: ns.clique_table(u).to_potential(),
                    sep_to_parent: (!is_root).then(|| {
                        let e = rooted.parent_edge(u).expect("non-root");
                        ns.separator_table(e).to_potential()
                    }),
                    parent: (!is_root).then(|| index_of(rooted.parent(u).expect("non-root"))),
                    children: Vec::new(),
                }
            })
            .collect();
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                nodes[p].children.push(i);
            }
        }
        RefTree {
            nodes,
            root: index_of(st.root()),
            shortcuts_used: 0,
        }
    }

    /// The by-value replacement: kept nodes keep their relative order, the
    /// shortcut node goes last, child lists are rebuilt in index order.
    fn replace_region(
        mut self,
        region: &[usize],
        scope: Scope,
        potential: Potential,
        shortcut_id: usize,
    ) -> RefTree {
        let in_region = |i: usize| region.contains(&i);
        let tops: Vec<usize> = region
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].parent.is_none_or(|p| !in_region(p)))
            .collect();
        assert_eq!(tops.len(), 1, "region must be connected");
        let top = tops[0];
        let new_parent = self.nodes[top].parent;
        let sep_to_parent = self.nodes[top].sep_to_parent.take();
        let mut keep_map = vec![usize::MAX; self.nodes.len()];
        let mut new_nodes = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !in_region(i) {
                keep_map[i] = new_nodes.len();
                new_nodes.push(n.clone());
            }
        }
        let shortcut_idx = new_nodes.len();
        new_nodes.push(RefNode {
            scope,
            label: NodeLabel::Shortcut(shortcut_id),
            potential,
            sep_to_parent,
            parent: new_parent.map(|p| keep_map[p]),
            children: Vec::new(),
        });
        for (i, n) in new_nodes.iter_mut().enumerate() {
            if i != shortcut_idx {
                n.parent = n.parent.map(|old| match keep_map[old] {
                    usize::MAX => shortcut_idx,
                    kept => kept,
                });
            }
            n.children.clear();
        }
        for i in 0..new_nodes.len() {
            if let Some(p) = new_nodes[i].parent {
                new_nodes[p].children.push(i);
            }
        }
        RefTree {
            root: if in_region(self.root) {
                shortcut_idx
            } else {
                keep_map[self.root]
            },
            nodes: new_nodes,
            shortcuts_used: self.shortcuts_used + 1,
        }
    }

    /// The same tree rooted at `root`: the parent links on the path up to
    /// the old root reversed, each edge's separator moved to the endpoint
    /// that is now the child, child lists rebuilt in index order.
    fn rerooted(&self, root: usize) -> RefTree {
        let mut t = self.clone();
        let mut path = vec![root];
        while let Some(p) = self.nodes[*path.last().unwrap()].parent {
            path.push(p);
        }
        t.nodes[root].parent = None;
        t.nodes[root].sep_to_parent = None;
        for w in path.windows(2) {
            let (child, parent) = (w[0], w[1]);
            t.nodes[parent].parent = Some(child);
            t.nodes[parent].sep_to_parent = self.nodes[child].sep_to_parent.clone();
        }
        for n in &mut t.nodes {
            n.children.clear();
        }
        for i in 0..t.nodes.len() {
            if let Some(p) = t.nodes[i].parent {
                t.nodes[p].children.push(i);
            }
        }
        t.root = root;
        t
    }

    /// The rooting the answer is computed on: every member tried, the
    /// first cheapest in pre-order (children ascending, `r_q` first) kept.
    fn cheapest_rooting(&self, query: &Scope, domain: &Domain) -> RefTree {
        let mut best = (self.cost(query, domain).ops, self.clone());
        for m in self.post_order().into_iter().rev() {
            let t = self.rerooted(m);
            let ops = t.cost(query, domain).ops;
            if ops < best.0 {
                best = (ops, t);
            }
        }
        best.1
    }

    fn post_order(&self) -> Vec<usize> {
        let mut order = Vec::new();
        let mut stack = vec![(self.root, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                order.push(u);
            } else {
                stack.push((u, true));
                for &c in &self.nodes[u].children {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    fn message_scope(&self, u: usize, query: &Scope, carried: &Scope) -> Scope {
        let p = self.nodes[u].parent.expect("non-root");
        let sep = self.nodes[u].scope.intersect(&self.nodes[p].scope);
        sep.union(&carried.intersect(query))
    }

    fn cost(&self, query: &Scope, domain: &Domain) -> QueryCost {
        let mut cost = QueryCost {
            shortcuts_used: self.shortcuts_used,
            ..QueryCost::default()
        };
        let mut msg_scope: Vec<Option<Scope>> = vec![None; self.nodes.len()];
        let mut carried: Vec<Scope> = vec![Scope::empty(); self.nodes.len()];
        for u in self.post_order() {
            let n = &self.nodes[u];
            let mut product_scope = n.scope.clone();
            let mut carry = n.scope.intersect(query);
            for &c in &n.children {
                product_scope = product_scope.union(msg_scope[c].as_ref().expect("child done"));
                carry = carry.union(&carried[c].intersect(query));
            }
            carried[u] = carry.clone();
            if u == self.root {
                cost.add_node(node_ops(&product_scope, n.children.len(), domain));
            } else {
                cost.add_node(node_ops(&product_scope, n.children.len() + 1, domain));
                cost.messages += 1;
                msg_scope[u] = Some(self.message_scope(u, query, &carry));
            }
        }
        cost
    }

    fn answer(&self, query: &Scope) -> Potential {
        let scratch = &mut Scratch::new();
        let mut messages: Vec<Option<Potential>> = vec![None; self.nodes.len()];
        let mut carried: Vec<Scope> = vec![Scope::empty(); self.nodes.len()];
        let mut answer = None;
        for u in self.post_order() {
            let n = &self.nodes[u];
            let mut factors: Vec<&Potential> = vec![&n.potential];
            let mut carry = n.scope.intersect(query);
            for &c in &n.children {
                factors.push(messages[c].as_ref().expect("child done"));
                carry = carry.union(&carried[c].intersect(query));
            }
            let product = Potential::product_many_in(&factors, scratch).unwrap();
            carried[u] = carry.clone();
            if u == self.root {
                answer = Some(product.marginalize_in(query, scratch).unwrap());
            } else {
                let target = self.message_scope(u, query, &carry);
                let summed = product.marginalize_in(&target, scratch).unwrap();
                messages[u] = Some(match &n.sep_to_parent {
                    Some(sep) => summed.divide_in(sep, scratch).unwrap(),
                    None => summed,
                });
            }
        }
        answer.expect("root visited")
    }

    fn shortcut_ids(&self) -> Vec<usize> {
        sorted_shortcut_ids(self.nodes.iter().map(|n| n.label))
    }
}

fn sorted_shortcut_ids(labels: impl Iterator<Item = NodeLabel>) -> Vec<usize> {
    let mut ids: Vec<usize> = labels
        .filter_map(|l| match l {
            NodeLabel::Shortcut(i) => Some(i),
            NodeLabel::Clique(_) => None,
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// The reference online phase: useful shortcuts (Def. 3.1), GWMIN on the
/// conflict graph when shortcuts overlap, then replacements in decreasing
/// ratio order, each kept only if it strictly lowers the operation count.
/// Returns the reduced tree (`None` for in-clique queries) and the
/// plain-tree baseline.
fn reference_reduce(
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    query: &Scope,
) -> (Option<RefTree>, Size) {
    let (tree, domain) = (engine.tree(), engine.tree().domain());
    let st = match engine.plan(query).unwrap() {
        QueryPlan::InClique(u) => return (None, marginalization_ops(tree.clique(u), domain)),
        QueryPlan::OutOfClique(st) => st,
    };
    let mut rt = RefTree::from_steiner(engine, &st);
    let baseline = rt.cost(query, domain).ops;
    let cover = SteinerCover::new(tree, query, &st);
    let useful: Vec<usize> = (0..mat.shortcuts.len())
        .filter(|&i| cover.useful(&mat.shortcuts[i].shortcut, query))
        .collect();
    let mut order: Vec<usize> = if mat.overlapping {
        let weights: Vec<f64> = useful.iter().map(|&i| mat.shortcuts[i].ratio).collect();
        let adj: Vec<Vec<usize>> = useful
            .iter()
            .map(|&i| {
                (0..useful.len())
                    .filter(|&jj| {
                        let j = useful[jj];
                        j != i
                            && mat.shortcuts[i]
                                .shortcut
                                .overlaps(&mat.shortcuts[j].shortcut)
                    })
                    .collect()
            })
            .collect();
        gwmin(&weights, &adj)
            .into_iter()
            .map(|k| useful[k])
            .collect()
    } else {
        useful
    };
    order.sort_by(|&a, &b| {
        mat.shortcuts[b]
            .ratio
            .partial_cmp(&mat.shortcuts[a].ratio)
            .expect("finite ratios")
            .then(a.cmp(&b))
    });
    let mut cost = baseline;
    for i in order {
        let ms = &mat.shortcuts[i];
        let region: Vec<usize> = (0..rt.nodes.len())
            .filter(|&k| match rt.nodes[k].label {
                NodeLabel::Clique(u) => ms.shortcut.node_set().contains(u),
                NodeLabel::Shortcut(_) => false,
            })
            .collect();
        if region.is_empty() || region.len() == rt.nodes.len() {
            continue;
        }
        let candidate = rt.clone().replace_region(
            &region,
            ms.shortcut.scope().clone(),
            ms.potential.clone().expect("numeric materialization"),
            i,
        );
        let new_cost = candidate.cost(query, domain).ops;
        if new_cost < cost {
            rt = candidate;
            cost = new_cost;
        }
    }
    (Some(rt), baseline)
}

fn assert_same_bits(got: &Potential, want: &Potential, what: &str) {
    assert_eq!(got.scope(), want.scope(), "{what}: scope");
    assert_eq!(got.cards(), want.cards(), "{what}: cards");
    let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}

/// A deterministic query sample: every single variable and pair (strided
/// down to `pairs` of them) plus `wider` seeded 3–5-variable scopes.
fn sample_queries(n_vars: u32, pairs: usize, wider: usize, seed: u64) -> Vec<Scope> {
    let mut all_pairs = Vec::new();
    for a in 0..n_vars {
        for b in a + 1..n_vars {
            all_pairs.push(Scope::from_indices(&[a, b]));
        }
    }
    let stride = all_pairs.len().div_ceil(pairs.max(1)).max(1);
    let mut queries: Vec<Scope> = all_pairs.into_iter().step_by(stride).collect();
    queries.extend((0..n_vars.min(4)).map(|v| Scope::from_indices(&[v])));
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |bound: u32| {
        // splitmix-style step; quality is irrelevant, determinism is not
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u32) % bound
    };
    for _ in 0..wider {
        let k = 3 + next(3) as usize;
        let picks: Vec<u32> = (0..k).map(|_| next(n_vars)).collect();
        queries.push(Scope::from_indices(&picks));
    }
    queries
}

/// Runs the whole differential on one network: PEANUT and PEANUT+
/// materializations trained on the queries themselves, each query through
/// `answer_in`, `answer_traced_in` and `reduce`, against the reference
/// model; `oracle_every` picks the stride of the VE check.
fn check_network(name: &str, bn: &BayesianNetwork, queries: &[Scope], oracle_every: usize) {
    let tree = build_junction_tree(bn).unwrap();
    let engine = QueryEngine::numeric(&tree, bn).unwrap();
    let ns = engine.numeric_state().unwrap();
    let domain = tree.domain();
    let ctx = OfflineContext::new(&tree, &Workload::from_queries(queries.iter().cloned())).unwrap();
    let budget = tree.total_separator_size().max(1) * 10;
    let mut shortcuts_seen = 0usize;
    for (variant, cfg) in [
        ("PEANUT", PeanutConfig::disjoint(budget)),
        ("PEANUT+", PeanutConfig::plus(budget)),
    ] {
        let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, ns).unwrap();
        let online = OnlineEngine::new(&engine, &mat);
        let mut scratch = Scratch::new();
        for (k, q) in queries.iter().enumerate() {
            let what = format!("{name}/{variant}/{q}");
            let (reference, baseline) = reference_reduce(&engine, &mat, q);
            let (want, want_cost) = match &reference {
                Some(rt) => (rt.cheapest_rooting(q, domain).answer(q), rt.cost(q, domain)),
                None => {
                    let QueryPlan::InClique(u) = engine.plan(q).unwrap() else {
                        panic!("{what}: reference says in-clique");
                    };
                    let pot = ns.clique_table(u).to_potential();
                    let cost = QueryCost {
                        ops: marginalization_ops(tree.clique(u), domain),
                        ..QueryCost::default()
                    };
                    (pot.marginalize(q).unwrap(), cost)
                }
            };

            let traced = online.answer_traced_in(q, &mut scratch).unwrap();
            assert_same_bits(&traced.potential, &want, &what);
            assert_eq!(traced.cost, want_cost, "{what}: traced cost");
            assert_eq!(traced.baseline_ops, baseline, "{what}: baseline ops");
            let (got, cost) = online.answer_in(q, &mut scratch).unwrap();
            assert_same_bits(&got, &want, &what);
            assert_eq!(cost, want_cost, "{what}: cost");
            assert_eq!(online.cost(q).unwrap(), want_cost, "{what}: symbolic cost");

            let reduced = online.reduce(q).unwrap();
            assert_eq!(reduced.is_some(), reference.is_some(), "{what}: plan kind");
            if let (Some(rt), Some(reference)) = (&reduced, &reference) {
                let ids = sorted_shortcut_ids(rt.nodes().iter().map(|n| n.label));
                assert_eq!(ids, reference.shortcut_ids(), "{what}: shortcuts applied");
                assert_eq!(
                    ids.len(),
                    want_cost.shortcuts_used,
                    "{what}: shortcut count"
                );
                shortcuts_seen += ids.len();
            }

            if k % oracle_every == 0 {
                let (oracle, _) = ve_answer(bn, q).unwrap();
                let diff = got.max_abs_diff(&oracle).unwrap();
                assert!(diff < 1e-9, "{what}: off VE by {diff}");
            }
        }
    }
    assert!(shortcuts_seen > 0, "{name}: no query exercised a shortcut");
}

#[test]
fn fixtures_match_reference() {
    for (name, bn) in [("figure1", fixtures::figure1()), ("asia", fixtures::asia())] {
        let queries = sample_queries(bn.n_vars() as u32, 64, 12, 7);
        check_network(name, &bn, &queries, 1);
    }
}

#[test]
fn generated_networks_match_reference() {
    for seed in [3u64, 11, 29, 71] {
        let cfg = DagConfig {
            n_nodes: 14,
            n_edges: 17,
            max_in_degree: 2,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let bn = match generate_network(&cfg, seed) {
            Ok(bn) => bn,
            Err(PgmError::InfeasibleGenerator(_)) => continue,
            Err(e) => panic!("generator: {e}"),
        };
        let queries = sample_queries(bn.n_vars() as u32, 48, 12, seed);
        check_network(&format!("generated#{seed}"), &bn, &queries, 1);
    }
}

#[test]
fn child_matches_reference() {
    let bn = peanut_datasets::dataset("Child").unwrap().build().unwrap();
    let queries = sample_queries(bn.n_vars() as u32, 120, 40, 1);
    check_network("Child", &bn, &queries, 4);
}

#[test]
fn tpch_two_variable_sample_matches_reference() {
    let bn = peanut_datasets::dataset("TPC-H").unwrap().build().unwrap();
    let queries = sample_queries(bn.n_vars() as u32, 40, 0, 1)
        .into_iter()
        .filter(|q| q.len() == 2)
        .collect::<Vec<_>>();
    check_network("TPC-H", &bn, &queries, 8);
}
