//! The page-out trim ([`MessageMemo::take_trimmed`]). It lives apart from
//! the lookups and the filing every pass runs through: beside them it
//! moved how a default release build laid out the passes' code, and
//! `direct_small` read slower; with every function aligned it did not.

use super::{MessageMemo, Priced};
use std::sync::Mutex;

impl MessageMemo {
    /// Moves every filed message out into a new memo of the same cap that
    /// keeps at most `budget` entries of them, leaving this one empty: the
    /// messages in decreasing order of walk saved per entry held, ties by
    /// key, each kept while it fits in what is left of `budget`. The result
    /// does not depend on the order the messages were filed in. Moving
    /// rather than sharing keeps the result within `budget` even while
    /// passes still running on this memo file into it. A poisoned memo
    /// gives an empty one.
    #[cold]
    #[inline(never)]
    pub(crate) fn take_trimmed(&self, budget: usize) -> MessageMemo {
        let mut filed = self
            .filed
            .lock()
            .map(|mut filed| std::mem::take(&mut *filed))
            .unwrap_or_default();
        if filed.entries > budget {
            let mut ranked: Vec<(&Box<[u32]>, &mut Priced)> = filed.messages.iter_mut().collect();
            // walk per entry, `a.walked / a.len() > b.walked / b.len()`
            // cross-multiplied: exact, and no message is empty
            ranked.sort_unstable_by(|(ka, a), (kb, b)| {
                let (wa, na) = (u128::from(a.walked), a.message.len() as u128);
                let (wb, nb) = (u128::from(b.walked), b.message.len() as u128);
                (wb * na).cmp(&(wa * nb)).then_with(|| ka.cmp(kb))
            });
            let mut room = budget;
            for (_, priced) in ranked {
                priced.kept = priced.message.len() <= room;
                if priced.kept {
                    room -= priced.message.len();
                }
            }
            filed.messages.retain(|_, priced| priced.kept);
            filed.entries = budget - room;
        }
        MessageMemo {
            cap: self.cap,
            filed: Mutex::new(filed),
        }
    }
}
