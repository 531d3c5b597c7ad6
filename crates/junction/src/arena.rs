//! Flat storage arena for a junction tree's numeric tables.
//!
//! A [`TreeArena`] owns every clique and separator potential of one tree as
//! spans of a **single contiguous `f64` slab**, replacing the per-node
//! `Vec<f64>` layout. Table metadata (scopes, cardinalities, spans) lives in
//! CSR-style index arrays, the same `first`/`flat` idiom the tree itself
//! uses for adjacency:
//!
//! ```text
//! tables:      [ clique 0 | clique 1 | ... | sep 0 | sep 1 | ... ]
//! card_first:  [ 0, 3, 5, ... ]          offsets into cards_flat
//! cards_flat:  [ 2,3,2, 3,4, ... ]       per-table cardinalities
//! span_off/len:[ (0,12), (12,12), ... ]  per-table slab spans
//! slab:        [ ............................................. ]  one Vec<f64>
//! ```
//!
//! Calibration reads and writes the slab in place through
//! [`TableRef`] views and the span-writing kernels
//! ([`peanut_pgm::product_onto`], [`peanut_pgm::mul_assign_bcast`]), so a
//! calibrated tree is one relocatable buffer: the index arrays never
//! reference slab addresses, only offsets. They sit behind an `Arc`, next
//! to the owned slab, so a slab produced elsewhere — a copy, a decoded
//! store file — attaches to an existing layout without rebuilding
//! anything. That is the relocation seam the materialization store
//! (`peanut-store`) plugs into: an engine rebuilt from a slab read back
//! from disk
//! ([`QueryEngine::with_calibrated_slab`](crate::QueryEngine::with_calibrated_slab))
//! moves the slab in and shares the layout of the engine it was rebuilt
//! from, so a fleet's fault-in lays nothing out.

use crate::tree::{CliqueId, EdgeId, JunctionTree};
use peanut_pgm::potential::MAX_DENSE_ENTRIES;
use peanut_pgm::{PgmError, Scope, TableRef};
use std::sync::Arc;

/// The index arrays of a tree's arena: per-table scopes, cardinalities and
/// slab spans. Nothing writes them after [`of`](Self::of), so every arena
/// laid out for one tree can share one copy.
#[derive(Debug)]
pub(crate) struct ArenaLayout {
    /// Per-table scopes, cliques first, then separators.
    scopes: Vec<Scope>,
    /// CSR offsets into `cards_flat`; `card_first.len() == n_tables + 1`.
    card_first: Vec<u32>,
    cards_flat: Vec<u32>,
    /// Per-table `(offset, len)` spans into the slab.
    span_off: Vec<usize>,
    span_len: Vec<usize>,
    n_cliques: usize,
    /// Slab length: the spans tile `0..len` back to back.
    len: usize,
}

impl ArenaLayout {
    /// Lays out the tables of `tree`: clique spans first, separator spans
    /// after. Fails with [`PgmError::TableTooLarge`] when any single table
    /// exceeds the dense materialization limit (the symbolic-pipeline
    /// fallback, as for TPC-H/Munin/Barley in the paper).
    pub(crate) fn of(tree: &JunctionTree) -> Result<Self, PgmError> {
        let n_cliques = tree.n_cliques();
        let n_seps = tree.edges().len();
        let n_tables = n_cliques + n_seps;
        let mut scopes = Vec::with_capacity(n_tables);
        scopes.extend(tree.cliques().iter().cloned());
        scopes.extend((0..n_seps).map(|e| tree.separator(e).clone()));

        let mut card_first = Vec::with_capacity(n_tables + 1);
        let mut cards_flat = Vec::new();
        let mut span_off = Vec::with_capacity(n_tables);
        let mut span_len = Vec::with_capacity(n_tables);
        let mut off = 0usize;
        card_first.push(0);
        for scope in &scopes {
            let cards = tree.domain().cards_of(scope);
            let entries = cards.iter().fold(1u64, |n, &c| n.saturating_mul(c as u64));
            if entries > MAX_DENSE_ENTRIES {
                return Err(PgmError::TableTooLarge {
                    entries,
                    limit: MAX_DENSE_ENTRIES,
                });
            }
            cards_flat.extend_from_slice(&cards);
            card_first.push(cards_flat.len() as u32);
            span_off.push(off);
            span_len.push(entries as usize);
            off += entries as usize;
        }
        Ok(ArenaLayout {
            scopes,
            card_first,
            cards_flat,
            span_off,
            span_len,
            n_cliques,
            len: off,
        })
    }

    #[inline]
    fn cards_of(&self, i: usize) -> &[u32] {
        &self.cards_flat[self.card_first[i] as usize..self.card_first[i + 1] as usize]
    }
}

/// Contiguous flat storage for all clique and separator tables of one
/// junction tree. Cliques occupy table slots `0..n_cliques`, separators the
/// `n_cliques..n_cliques + n_separators` that follow.
#[derive(Clone, Debug)]
pub struct TreeArena {
    /// The index arrays, shared by every arena laid out for the tree.
    layout: Arc<ArenaLayout>,
    /// One contiguous value buffer holding every table back to back.
    slab: Vec<f64>,
}

impl TreeArena {
    /// An arena over `layout` holding `slab` — moved in, not copied. A slab
    /// of another length fails with [`PgmError::CorruptStore`] rather than
    /// attaching values to the wrong spans.
    pub(crate) fn with_slab(layout: Arc<ArenaLayout>, slab: Vec<f64>) -> Result<Self, PgmError> {
        if slab.len() != layout.len {
            return Err(PgmError::CorruptStore {
                path: "<calibrated slab>".into(),
                detail: format!(
                    "arena slab length {} does not match the tree's layout ({} entries)",
                    slab.len(),
                    layout.len
                ),
            });
        }
        Ok(TreeArena { layout, slab })
    }

    /// An all-zero arena for `tree`, the buffer initialization multiplies
    /// the CPTs into.
    pub(crate) fn zeroed(tree: &JunctionTree) -> Result<Self, PgmError> {
        let layout = ArenaLayout::of(tree)?;
        let slab = vec![0.0; layout.len];
        Ok(TreeArena {
            layout: Arc::new(layout),
            slab,
        })
    }

    /// The shared index arrays.
    #[inline]
    pub(crate) fn layout(&self) -> &Arc<ArenaLayout> {
        &self.layout
    }

    /// Number of clique tables.
    #[inline]
    pub fn n_cliques(&self) -> usize {
        self.layout.n_cliques
    }

    /// Number of separator tables.
    #[inline]
    pub fn n_separators(&self) -> usize {
        self.layout.scopes.len() - self.layout.n_cliques
    }

    /// Borrowed view of table slot `i` (clique order, then separator order).
    #[inline]
    fn table(&self, i: usize) -> TableRef<'_> {
        let off = self.layout.span_off[i];
        TableRef::new(
            &self.layout.scopes[i],
            self.layout.cards_of(i),
            &self.slab[off..off + self.layout.span_len[i]],
        )
    }

    /// Scope, cardinalities and mutable values of table slot `i`. The
    /// metadata borrows and the value borrow come from disjoint fields, so
    /// kernels can read the layout while writing the span — no `unsafe`,
    /// no slab splitting.
    #[inline]
    fn table_mut(&mut self, i: usize) -> (&Scope, &[u32], &mut [f64]) {
        let layout = &*self.layout;
        let off = layout.span_off[i];
        (
            &layout.scopes[i],
            layout.cards_of(i),
            &mut self.slab[off..off + layout.span_len[i]],
        )
    }

    /// Borrowed view of a clique table.
    #[inline]
    pub fn clique(&self, u: CliqueId) -> TableRef<'_> {
        debug_assert!(u < self.n_cliques());
        self.table(u)
    }

    /// Borrowed view of a separator table.
    #[inline]
    pub fn separator(&self, e: EdgeId) -> TableRef<'_> {
        self.table(self.n_cliques() + e)
    }

    /// Scope, cardinalities and mutable values of a clique table.
    #[inline]
    pub fn clique_mut(&mut self, u: CliqueId) -> (&Scope, &[u32], &mut [f64]) {
        debug_assert!(u < self.n_cliques());
        self.table_mut(u)
    }

    /// Mutable values of a separator table.
    #[inline]
    pub fn separator_values_mut(&mut self, e: EdgeId) -> &mut [f64] {
        let i = self.n_cliques() + e;
        let off = self.layout.span_off[i];
        &mut self.slab[off..off + self.layout.span_len[i]]
    }

    /// The whole value slab (cliques first, separators after) — one
    /// relocatable buffer.
    #[inline]
    pub fn slab(&self) -> &[f64] {
        &self.slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_junction_tree;
    use peanut_pgm::fixtures;

    #[test]
    fn layout_is_contiguous_and_ordered() {
        let bn = fixtures::asia();
        let tree = build_junction_tree(&bn).unwrap();
        let arena = TreeArena::zeroed(&tree).unwrap();
        assert_eq!(arena.n_cliques(), tree.n_cliques());
        assert_eq!(arena.n_separators(), tree.edges().len());
        // spans tile the slab back to back: cliques first, then separators
        let span = |i: usize| (arena.layout.span_off[i], arena.layout.span_len[i]);
        let mut expect_off = 0;
        for u in 0..arena.n_cliques() {
            let (off, len) = span(u);
            assert_eq!(off, expect_off);
            assert_eq!(len, arena.clique(u).len());
            expect_off += len;
        }
        for e in 0..arena.n_separators() {
            let (off, len) = span(arena.n_cliques() + e);
            assert_eq!(off, expect_off);
            assert_eq!(len, arena.separator(e).len());
            expect_off += len;
        }
        assert_eq!(expect_off, arena.slab().len());
        // views carry the tree's scopes and domain cardinalities
        for u in 0..arena.n_cliques() {
            assert_eq!(arena.clique(u).scope(), tree.clique(u));
        }
        for e in 0..arena.n_separators() {
            assert_eq!(arena.separator(e).scope(), tree.separator(e));
        }
    }

    #[test]
    fn replace_slab_relocates_values() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let mut arena = TreeArena::zeroed(&tree).unwrap();
        let (_, _, vals) = arena.clique_mut(0);
        vals.fill(3.25);
        // copy the slab elsewhere (stand-in for a snapshot or a store file)
        // and attach it to the same layout: the same bytes read through the
        // same views, and the index arrays are shared, not rebuilt
        let copy = arena.slab().to_vec();
        let other = TreeArena::with_slab(Arc::clone(arena.layout()), copy).unwrap();
        assert!(Arc::ptr_eq(other.layout(), arena.layout()));
        assert!(other.clique(0).values().iter().all(|&v| v == 3.25));
        // a slab of another length attaches nowhere
        let short = vec![0.0; arena.slab().len() - 1];
        assert!(matches!(
            TreeArena::with_slab(Arc::clone(arena.layout()), short),
            Err(PgmError::CorruptStore { .. })
        ));
    }

    #[test]
    fn oversized_clique_rejected() {
        use peanut_pgm::Domain;
        let mut dm = Domain::new();
        for i in 0..8 {
            dm.add(&format!("v{i}"), 1000).unwrap();
        }
        let full: Scope = dm.full_scope();
        let tree = crate::tree::JunctionTree::from_cliques(dm, vec![full]).unwrap();
        assert!(matches!(
            ArenaLayout::of(&tree),
            Err(PgmError::TableTooLarge { .. })
        ));
    }
}
