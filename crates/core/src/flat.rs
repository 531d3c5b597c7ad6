//! Flat packing of a materialization's shortcut tables.
//!
//! A [`FlatMaterialization`] is the serving-side counterpart of the
//! junction tree's [`TreeArena`](peanut_junction::TreeArena): every
//! materialized shortcut table of one [`Materialization`] copied into a
//! single contiguous `f64` slab, addressed by per-shortcut `(offset, len)`
//! spans — one *relocatable* buffer per epoch. The materialization store
//! (`peanut-store`) writes the pack into the epoch's file and maps it
//! back as a [`FlatView`]: span arrays and slab borrowed straight from the
//! mapping, from which it rebuilds the shortcut tables
//! ([`FlatView::table`]).

use crate::online::Materialization;
use peanut_pgm::Size;

/// Sentinel offset marking a symbolic (table-less) shortcut slot in the
/// on-disk span arrays a [`FlatView`] borrows. Dense spans always carry a
/// real offset, so the all-ones pattern can never collide with one.
pub const SYMBOLIC_SPAN: u64 = u64::MAX;

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

    /// Total packed entries (the dense portion of the actual budget).
    #[inline]
    pub fn packed_entries(&self) -> Size {
        self.slab.len() as Size
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

    /// The packed values of shortcut `i`'s table, `None` if symbolic.
    pub fn table(&self, i: usize) -> Option<&[f64]> {
        self.spans[i].map(|(off, len)| &self.slab[off..off + len])
    }

    /// Writes the packed values back into `mat`'s shortcut tables
    /// (reattaching a pack to a re-derived materialization of the same
    /// shape). Returns `false` without touching anything when the
    /// shapes disagree — wrong shortcut count, a dense/symbolic mismatch,
    /// or a table length drift.
    #[must_use]
    pub fn unpack_into(&self, mat: &mut Materialization) -> bool {
        if mat.shortcuts.len() != self.spans.len() {
            return false;
        }
        let compatible =
            mat.shortcuts
                .iter()
                .zip(&self.spans)
                .all(|(s, span)| match (&s.potential, span) {
                    (Some(p), Some((_, len))) => p.len() == *len,
                    (None, None) => true,
                    _ => false,
                });
        if !compatible {
            return false;
        }
        for (s, span) in mat.shortcuts.iter_mut().zip(&self.spans) {
            if let (Some(p), Some((off, len))) = (&mut s.potential, span) {
                p.values_mut().copy_from_slice(&self.slab[*off..off + len]);
            }
        }
        mat.epoch = self.epoch;
        true
    }
}

/// A [`FlatMaterialization`] borrowed straight from someone else's memory —
/// the zero-copy read side of the materialization store. The span arrays
/// and the value slab are slices into an mmap'd (or otherwise externally
/// owned) buffer; constructing a view performs **no** deserialization pass
/// and no allocation. Symbolic shortcuts are marked with
/// [`SYMBOLIC_SPAN`] in the offset array.
///
/// The view is a safe type: whoever produces the slices (the store's
/// audited byte-cast module) is responsible for alignment and bounds; the
/// accessors here re-check span bounds so a corrupt file can at worst
/// return `None`, never read out of range.
#[derive(Clone, Copy, Debug)]
pub struct FlatView<'a> {
    epoch: u64,
    span_off: &'a [u64],
    span_len: &'a [u64],
    slab: &'a [f64],
}

impl<'a> FlatView<'a> {
    /// Wraps borrowed span arrays and a value slab as a view. Returns
    /// `None` when the two span arrays disagree in length (a malformed
    /// file) — span/slab *bounds* are checked lazily per access.
    pub fn new(
        epoch: u64,
        span_off: &'a [u64],
        span_len: &'a [u64],
        slab: &'a [f64],
    ) -> Option<Self> {
        if span_off.len() != span_len.len() {
            return None;
        }
        Some(FlatView {
            epoch,
            span_off,
            span_len,
            slab,
        })
    }

    /// The lifecycle epoch the viewed pack was taken from.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shortcut slots (dense or symbolic).
    #[inline]
    pub fn len(&self) -> usize {
        self.span_off.len()
    }

    /// True when no shortcuts are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.span_off.is_empty()
    }

    /// Total packed entries (the dense portion of the actual budget).
    #[inline]
    pub fn packed_entries(&self) -> Size {
        self.slab.len() as Size
    }

    /// The whole borrowed slab.
    #[inline]
    pub fn slab(&self) -> &'a [f64] {
        self.slab
    }

    /// `(offset, len)` span of shortcut `i`'s table; `None` if symbolic
    /// or out of the slab's bounds (corrupt span).
    pub fn span(&self, i: usize) -> Option<(usize, usize)> {
        let off = self.span_off[i];
        if off == SYMBOLIC_SPAN {
            return None;
        }
        let (off, len) = (off as usize, self.span_len[i] as usize);
        (off.checked_add(len)? <= self.slab.len()).then_some((off, len))
    }

    /// The borrowed values of shortcut `i`'s table, `None` if symbolic.
    pub fn table(&self, i: usize) -> Option<&'a [f64]> {
        self.span(i).map(|(off, len)| &self.slab[off..off + len])
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
        Materialization {
            shortcuts,
            overlapping: false,
            epoch: 7,
        }
    }

    #[test]
    fn pack_round_trips_bitwise() {
        let mat = sample_mat();
        let flat = FlatMaterialization::pack(&mat);
        assert_eq!(flat.epoch(), 7);
        assert_eq!(flat.len(), mat.shortcuts.len());
        // packed tables are byte-identical to the owned ones
        for (i, s) in mat.shortcuts.iter().enumerate() {
            match (&s.potential, flat.table(i)) {
                (Some(p), Some(t)) => {
                    assert_eq!(p.len(), t.len());
                    for (a, b) in p.values().iter().zip(t) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                (None, None) => {}
                other => panic!("span/table mismatch at {i}: {other:?}"),
            }
        }
        // relocate: zero the owned tables, reattach from the pack
        let mut blank = mat.clone();
        for s in &mut blank.shortcuts {
            if let Some(p) = &mut s.potential {
                p.values_mut().fill(0.0);
            }
        }
        blank.epoch = 0;
        assert!(flat.unpack_into(&mut blank));
        assert_eq!(blank.epoch, 7);
        for (a, b) in blank.shortcuts.iter().zip(&mat.shortcuts) {
            match (&a.potential, &b.potential) {
                (Some(pa), Some(pb)) => {
                    for (x, y) in pa.values().iter().zip(pb.values()) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (None, None) => {}
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn unpack_rejects_shape_drift() {
        let mat = sample_mat();
        let flat = FlatMaterialization::pack(&mat);
        let mut fewer = mat.clone();
        fewer.shortcuts.pop();
        assert!(!flat.unpack_into(&mut fewer));
        let mut symbolic = mat.clone();
        for s in &mut symbolic.shortcuts {
            s.potential = None;
        }
        let before = symbolic.epoch;
        assert!(!flat.unpack_into(&mut symbolic));
        assert_eq!(symbolic.epoch, before, "failed unpack must not stamp");
    }

    #[test]
    fn empty_materialization_packs_empty() {
        let flat = FlatMaterialization::pack(&Materialization::default());
        assert!(flat.is_empty());
        assert_eq!(flat.packed_entries(), 0);
        assert!(flat.slab().is_empty());
    }

    /// Encodes a pack the way the store file does: `u64` span arrays with
    /// the symbolic sentinel.
    fn spans_of(flat: &FlatMaterialization) -> (Vec<u64>, Vec<u64>) {
        (0..flat.len())
            .map(|i| match flat.span(i) {
                Some((off, len)) => (off as u64, len as u64),
                None => (SYMBOLIC_SPAN, 0),
            })
            .unzip()
    }

    #[test]
    fn view_round_trips_bitwise_and_rebuilds_owned() {
        let mat = sample_mat();
        let flat = FlatMaterialization::pack(&mat);
        let (off, len) = spans_of(&flat);
        let view = FlatView::new(flat.epoch(), &off, &len, flat.slab()).unwrap();
        assert_eq!(view.epoch(), 7);
        assert_eq!(view.len(), flat.len());
        assert_eq!(view.packed_entries(), flat.packed_entries());
        for i in 0..flat.len() {
            match (flat.table(i), view.table(i)) {
                (Some(a), Some(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (None, None) => assert_eq!(view.span(i), None),
                other => panic!("table mismatch at {i}: {other:?}"),
            }
        }
        // the store rehydrates owned tables through `table`: they come
        // back bitwise equal to the materialization's own
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, m) in mat.shortcuts.iter().enumerate() {
            assert_eq!(
                view.table(i).map(bits),
                m.potential.as_ref().map(|p| bits(p.values()))
            );
        }
    }

    #[test]
    fn view_rejects_malformed_spans() {
        // disagreeing span-array lengths never construct
        assert!(FlatView::new(0, &[0], &[], &[]).is_none());
        // a span pointing past the slab is reported as absent, not read
        let slab = [1.0, 2.0];
        let view = FlatView::new(3, &[1], &[4], &slab).unwrap();
        assert_eq!(view.span(0), None);
        assert_eq!(view.table(0), None);
        // an overflowing offset+len must not wrap around
        let view = FlatView::new(3, &[u64::MAX - 1], &[4], &slab).unwrap();
        assert_eq!(view.span(0), None);
        // one corrupt span among good ones hides only its own table
        let flat = FlatMaterialization::pack(&sample_mat());
        let (mut off, len) = spans_of(&flat);
        off[0] = 10_000; // out of the slab
        let view = FlatView::new(7, &off, &len, flat.slab()).unwrap();
        assert_eq!(view.table(0), None);
    }
}
