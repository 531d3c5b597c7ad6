//! The page-out trim ([`ExactMemo::take_trimmed`]). It lives apart from
//! the lookups and the filing every pass runs through: beside them it
//! moved how a default release build laid out the passes' code, and
//! `direct_small` read slower; with every function aligned it did not.

use super::{ExactMemo, Filed, Saves, Weigh};
use std::hash::Hash;
use std::sync::Mutex;

impl<K: Ord + Hash + Clone, V: Weigh<K> + Saves> ExactMemo<K, V> {
    /// Moves every filed entry out into a new memo of the same cap that
    /// keeps at most `budget` of their weight, leaving this one empty: the
    /// entries in decreasing order of work saved per weight held, ties by
    /// key, each kept while it fits in what is left of `budget`. The result
    /// does not depend on the order the entries were filed in. It counts
    /// nothing taken yet, and this memo keeps its count. Moving rather
    /// than sharing keeps the result within `budget` even while passes
    /// still running on this memo file into it. A poisoned memo gives an
    /// empty one.
    #[cold]
    #[inline(never)]
    pub fn take_trimmed(&self, budget: usize) -> Self {
        let mut filed = self.filed.lock().map_or_else(
            |_| Filed::default(),
            |mut source| {
                let taken = source.taken;
                let out = std::mem::take(&mut *source);
                source.taken = taken;
                Filed { taken: 0, ..out }
            },
        );
        if filed.held > budget {
            let mut ranked: Vec<(Box<[K]>, V)> = filed.entries.drain().collect();
            // saved per weight, `a.saved() / wa > b.saved() / wb`
            // cross-multiplied: exact, and no entry weighs 0
            ranked.sort_unstable_by(|(ka, a), (kb, b)| {
                let (sa, wa) = (u128::from(a.saved()), a.weight(ka) as u128);
                let (sb, wb) = (u128::from(b.saved()), b.weight(kb) as u128);
                (sb * wa).cmp(&(sa * wb)).then_with(|| ka.cmp(kb))
            });
            let mut room = budget;
            for (key, value) in ranked {
                let weight = value.weight(&key);
                if weight <= room {
                    room -= weight;
                    filed.entries.insert(key, value);
                }
            }
            filed.held = budget - room;
        }
        ExactMemo {
            cap: self.cap,
            filed: Mutex::new(filed),
        }
    }
}
