//! Flat packing of a materialization's shortcut tables.
//!
//! A [`FlatMaterialization`] is the serving-side counterpart of the
//! junction tree's [`TreeArena`](peanut_junction::TreeArena): every
//! materialized shortcut table of one [`Materialization`] copied into a
//! single contiguous `f64` slab, addressed by per-shortcut `(offset, len)`
//! spans — one *relocatable* buffer per epoch. The materialization store
//! (`peanut-store`) writes the spans and the slab into the epoch's file;
//! the file layout, and reading it back, are the store's alone.

use crate::online::Materialization;

/// All dense shortcut tables of one materialization, packed back to back
/// into a single slab. Spans are parallel to
/// [`Materialization::shortcuts`]; symbolic shortcuts (no table) carry no
/// span.
#[derive(Clone, Debug, Default)]
pub struct FlatMaterialization {
    /// Lifecycle epoch of the packed artifact.
    epoch: u64,
    /// Per-shortcut `(offset, len)` into `slab`; `None` for symbolic
    /// (table-less) shortcuts.
    spans: Vec<Option<(usize, usize)>>,
    /// One contiguous value buffer holding every packed table.
    slab: Vec<f64>,
}

impl FlatMaterialization {
    /// Packs every dense table of `mat` into one contiguous slab, in
    /// shortcut order.
    pub fn pack(mat: &Materialization) -> Self {
        let mut spans = Vec::with_capacity(mat.shortcuts.len());
        let total: usize = mat
            .shortcuts
            .iter()
            .filter_map(|s| s.potential.as_ref().map(|p| p.len()))
            .sum();
        let mut slab = Vec::with_capacity(total);
        for s in &mat.shortcuts {
            spans.push(s.potential.as_ref().map(|p| {
                let off = slab.len();
                slab.extend_from_slice(p.values());
                (off, p.len())
            }));
        }
        FlatMaterialization {
            epoch: mat.epoch,
            spans,
            slab,
        }
    }

    /// The lifecycle epoch this pack was taken from.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shortcut slots (dense or symbolic).
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no shortcuts are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The whole packed slab — one relocatable buffer.
    #[inline]
    pub fn slab(&self) -> &[f64] {
        &self.slab
    }

    /// `(offset, len)` span of shortcut `i`'s table, `None` if symbolic.
    #[inline]
    pub fn span(&self, i: usize) -> Option<(usize, usize)> {
        self.spans[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::MaterializedShortcut;
    use crate::shortcut::Shortcut;
    use peanut_junction::{build_junction_tree, NumericState, RootedTree};
    use peanut_pgm::fixtures;

    fn sample_mat() -> Materialization {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mut ns = NumericState::initialize(&tree, &bn).unwrap();
        ns.calibrate(&tree, &rooted).unwrap();
        let shortcuts = [vec![0], vec![1]]
            .into_iter()
            .filter_map(|nodes| Shortcut::from_nodes(&tree, &rooted, nodes).ok())
            .enumerate()
            .map(|(i, s)| {
                // leave every other shortcut symbolic to cover the None span
                let potential = (i % 2 == 0).then(|| s.materialize(&tree, &rooted, &ns).unwrap().0);
                MaterializedShortcut {
                    ratio: 1.0,
                    benefit: 1.0,
                    potential,
                    shortcut: s,
                }
            })
            .collect();
        Materialization::new(shortcuts, false).with_epoch(7)
    }

    #[test]
    fn pack_round_trips_bitwise() {
        let mat = sample_mat();
        let flat = FlatMaterialization::pack(&mat);
        assert_eq!(flat.epoch(), 7);
        assert_eq!(flat.len(), mat.shortcuts.len());
        // packed tables are byte-identical to the owned ones
        for (i, s) in mat.shortcuts.iter().enumerate() {
            match (&s.potential, flat.span(i)) {
                (Some(p), Some((off, len))) => {
                    let t = &flat.slab()[off..off + len];
                    assert_eq!(p.len(), len);
                    for (a, b) in p.values().iter().zip(t) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                (None, None) => {}
                other => panic!("span/table mismatch at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_materialization_packs_empty() {
        let flat = FlatMaterialization::pack(&Materialization::default());
        assert!(flat.is_empty());
        assert!(flat.slab().is_empty());
    }
}
