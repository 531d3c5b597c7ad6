//! The message memos: directed messages, computed once by any numeric pass
//! and taken by every later pass that would send them again — the engine's
//! doors, the online phase's contracted plans, a caller's `from_steiner`
//! plan and `region_joints` alike.
//!
//! A memo has one of two owners. A calibrated
//! [`NumericState`](crate::NumericState) owns the memo of messages made only
//! of its cliques. An epoch's materialization (`peanut_core`) owns the memo
//! of messages whose sending subtree holds a shortcut node, made of its
//! shortcut tables as well: it lives and dies with the epoch — a clone or a
//! new materialization starts empty, so a publish starts empty and a
//! retired epoch drops its messages.
//!
//! A message to clique `p` is filed under `[p, member count, members…,
//! held…]`: the members of the sending subtree in the plan's post-order
//! (the sender last), and the query variables held below, ascending. A
//! member is a clique id, or a shortcut node's id tagged with
//! [`SHORTCUT_TAG`] — bit 31, above every clique id — the id being the
//! shortcut's position in its materialization. The key names every clique
//! and every shortcut the message is made of. A connected set of cliques
//! induces one subtree of the junction tree, so the members and the sender
//! fix the subtree's edges, its separators and its rooting; a shortcut node
//! stands for its region, which a clique outside it meets in at most one
//! edge, so that holds of a subtree with shortcut nodes too. Children are
//! ordered by node index in every plan: kept cliques by clique id, then the
//! shortcut nodes, which a contraction appends after the kept nodes in
//! accepted (ratio) order — and the post-order in the key records that
//! order. Each member's target — its parent separator plus the held
//! variables its own subtree holds — is the held set cut down to that
//! subtree. With the tables unchanged, a taken message is therefore bit for
//! bit the one the pass would compute, on any plan over them: a clique-only
//! message on any plan over the state's tables, a shortcut-holding one on
//! any plan over those tables and the one materialization that owns the
//! memo. That holds for a sender into a shortcut too: `p` is then
//! the region's clique at the other end of the sender's junction-tree edge
//! `e`. By running intersection the sender meets the shortcut's scope `X_S`
//! in the cut separator `S_e`, which is what it meets `p` in, and it
//! divides by `S_e`'s table either way — the target, the factor order and
//! the division of the message a plan without that shortcut sends to `p`.
//! The reduced-tree pass decides which nodes qualify, which memo each goes
//! to, and checks that premise (`crate::reduced`, "The message memo"); this
//! module stores.
//!
//! A memo is bounded and never evicts. It holds at most [`MEMO_ENTRIES`]
//! table entries, whatever the size of the tables: what a stream files
//! follows its separators and its traffic, not the calibrated slab, so one
//! constant bounds every memo alike — each session, resident tenant,
//! rehydrated engine and epoch. It files a message only when the kernels of
//! its subtree walked at least [`MIN_WALK_PER_ENTRY`] times its entries,
//! and only while the message fits in what is left. A state's memo lives
//! exactly as long as the tables: a state starts with an empty memo
//! wherever its tables are made — initialized, calibrated, reattached from
//! a slab or cloned — so a state restricted to evidence or rehydrated
//! starts empty. The one exception is a page cycle of a serving tenant:
//! page-out moves the state's messages out, trimmed to at most the entries
//! the page-out frees ([`MessageMemo::take_trimmed`]), and a fault-in that
//! rehydrates the same epoch — tables bit-identical to the ones the
//! messages were sent over, read back from the checksummed file the
//! engine saved — adopts them; any other fault-in starts empty.
//!
//! Each message is filed with its price: the product entries its
//! subtree's kernels walked when it was computed, the walk a later pass
//! saves by taking it. The trim keeps the messages that save the most walk
//! per entry held (Query the model's price for a precomputed factor).
//!
//! One `Mutex` guards each memo; a pass takes each it deals with once for
//! its lookups, never both at a time, and once for what it files. A
//! poisoned lock reads as a miss and files nothing.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_pgm::{Potential, Size, Var};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

mod trim;

/// A memo holds at most this many table entries: 8 MiB of message values.
pub(crate) const MEMO_ENTRIES: usize = 1 << 20;

/// A message is filed only if the kernels of its subtree walked at least
/// this many product entries per entry of the message.
const MIN_WALK_PER_ENTRY: Size = 4;

/// Set on a key member that is a shortcut node's id (module docs).
pub(crate) const SHORTCUT_TAG: usize = 1 << 31;

/// Directed messages, filed by key: a calibrated state's, or an epoch's
/// materialization's (module docs).
pub struct MessageMemo {
    /// Entries the memo may hold.
    cap: usize,
    filed: Mutex<Filed>,
}

/// What the lock guards.
#[derive(Default)]
struct Filed {
    /// Key (module docs) → the divided message and its price.
    messages: HashMap<Box<[u32]>, Priced>,
    /// Table entries of `messages`.
    entries: usize,
}

/// A filed message and the product entries its subtree's kernels walked
/// to compute it: what a pass that takes it saves.
struct Priced {
    message: Arc<Potential>,
    walked: Size,
    /// Whether the last trim kept it.
    kept: bool,
}

impl Priced {
    fn new(message: Potential, walked: Size) -> Self {
        Priced {
            message: Arc::new(message),
            walked,
            kept: false,
        }
    }
}

impl MessageMemo {
    /// An empty memo that may hold 2²⁰ entries.
    pub fn new() -> Self {
        Self::with_cap(MEMO_ENTRIES)
    }

    /// An empty memo that may hold `cap` entries.
    pub(crate) fn with_cap(cap: usize) -> Self {
        MessageMemo {
            cap,
            filed: Mutex::default(),
        }
    }

    /// The entries held and the cap.
    pub fn usage(&self) -> (usize, usize) {
        let held = self.filed.lock().map_or(0, |f| f.entries);
        (held, self.cap)
    }

    /// The memo locked for a pass's lookups; `None` when poisoned.
    pub(crate) fn open(&self) -> Option<Shelf<'_>> {
        let filed = self.filed.lock().ok()?;
        Some(Shelf {
            room: self.cap.saturating_sub(filed.entries),
            filed,
        })
    }

    /// Files `(key, message, walked)` triples one pass computed, each
    /// while it fits and its key is not filed yet (another pass may have
    /// filed it since); `walked` is the message's price (module docs).
    pub(crate) fn file(&self, sent: Vec<(Box<[u32]>, Potential, Size)>) {
        let Ok(mut filed) = self.filed.lock() else {
            return;
        };
        for (key, message, walked) in sent {
            let entries = message.len();
            if filed.entries + entries > self.cap || filed.messages.contains_key(&key) {
                continue;
            }
            filed.entries += entries;
            filed.messages.insert(key, Priced::new(message, walked));
        }
    }

    /// Files `message` under `key` whatever it holds, for tests that
    /// check who reads the memo.
    #[cfg(test)]
    pub(crate) fn plant(&self, key: Vec<u32>, message: Potential) {
        if let Ok(mut filed) = self.filed.lock() {
            filed.entries += message.len();
            filed.messages.insert(key.into(), Priced::new(message, 0));
        }
    }
}

impl Default for MessageMemo {
    fn default() -> Self {
        Self::new()
    }
}

/// A clone's tables are a copy about to be changed or kept apart: it starts
/// with an empty memo of the same cap.
impl Clone for MessageMemo {
    fn clone(&self) -> Self {
        Self::with_cap(self.cap)
    }
}

/// The cap only: formatting never takes the lock, so a plan can be printed
/// while its pass holds it.
impl fmt::Debug for MessageMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageMemo")
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

/// The memo as one pass's lookups see it, locked.
pub(crate) struct Shelf<'m> {
    filed: MutexGuard<'m, Filed>,
    /// Entries the memo could still take when the pass looked.
    pub(crate) room: usize,
}

impl Shelf<'_> {
    /// The message filed under `key`.
    pub(crate) fn get(&self, key: &[u32]) -> Option<Arc<Potential>> {
        self.filed.messages.get(key).map(|p| Arc::clone(&p.message))
    }
}

/// Appends to `keys` the key of the message to clique `parent` from the
/// subtree of `members` (post-order, the sender last; cliques, and
/// shortcut nodes tagged) carrying `held`, the query variables held below
/// (ascending).
pub(crate) fn push_key(
    keys: &mut Vec<u32>,
    parent: usize,
    members: impl Iterator<Item = usize>,
    held: impl Iterator<Item = Var>,
) {
    // clique ids are far below 2³¹, the tag above them; the count keeps
    // members and variables apart
    let start = keys.len();
    keys.extend([parent as u32, 0]);
    keys.extend(members.map(|u| u as u32));
    keys[start + 1] = (keys.len() - start - 2) as u32;
    keys.extend(held.map(|x| x.0));
}

/// Whether a message of `entries` entries, whose subtree's kernels walked
/// `walked` product entries, is worth filing.
#[inline]
pub(crate) fn admits(walked: Size, entries: usize) -> bool {
    walked >= (entries as Size).saturating_mul(MIN_WALK_PER_ENTRY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::Scope;

    /// A message of `entries` entries.
    fn message(entries: u32) -> Potential {
        let values = vec![1.0; entries as usize];
        Potential::new(Scope::from_indices(&[0]), vec![entries], values).unwrap()
    }

    /// The keys `memo` holds, ascending, and its entries.
    fn held(memo: &MessageMemo) -> (Vec<Vec<u32>>, usize) {
        let filed = memo.filed.lock().unwrap();
        let mut keys: Vec<Vec<u32>> = filed.messages.keys().map(|k| k.to_vec()).collect();
        keys.sort_unstable();
        (keys, filed.entries)
    }

    /// Every order of `0..n`, by Heap's algorithm.
    fn orders(n: usize) -> Vec<Vec<usize>> {
        fn heap(k: usize, a: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(a.clone());
                return;
            }
            for i in 0..k {
                heap(k - 1, a, out);
                a.swap(if k % 2 == 0 { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        heap(n, &mut (0..n).collect(), &mut out);
        out
    }

    /// The trim keeps messages by walk saved per entry, highest first,
    /// ties by key, each while it fits: whatever order they were filed
    /// in, the same messages, never more entries than the budget, and the
    /// source memo left empty with its cap.
    #[test]
    fn the_trim_keeps_the_most_walk_per_entry_within_the_budget() {
        // (key, entries, walked): per entry 50, 25, 25, 20, 10
        let planted: [(u32, u32, Size); 5] = [
            (1, 2, 100),
            (2, 4, 100),
            (3, 2, 50),
            (0, 8, 160),
            (4, 1, 10),
        ];
        // budget → the keys kept: 7 takes 1 and 2, skips 3 and 0 (they no
        // longer fit) and takes 4; 6 takes 2 before 3, the tie going to the
        // smaller key; 17 holds everything
        let want: [(usize, &[u32]); 4] = [
            (7, &[1, 2, 4]),
            (6, &[1, 2]),
            (1, &[4]),
            (17, &[0, 1, 2, 3, 4]),
        ];
        let orders = orders(planted.len());
        assert_eq!(orders.len(), 120);
        for (budget, keys) in want {
            for order in &orders {
                let memo = MessageMemo::with_cap(64);
                let sent = order
                    .iter()
                    .map(|&i| {
                        let (key, entries, walked) = planted[i];
                        (vec![key].into(), message(entries), walked)
                    })
                    .collect();
                memo.file(sent);
                assert_eq!(memo.usage(), (17, 64));
                let kept = memo.take_trimmed(budget);
                let (got, entries) = held(&kept);
                let want: Vec<Vec<u32>> = keys.iter().map(|&k| vec![k]).collect();
                assert_eq!(got, want, "budget {budget}, filed in order {order:?}");
                assert!(entries <= budget);
                assert_eq!(kept.usage(), (entries, 64));
                assert_eq!(memo.usage(), (0, 64), "the source is left empty");
                // a kept message is the one filed, with its price
                let shelf = kept.open().unwrap();
                for key in &got {
                    let (_, n, _) = planted.iter().find(|p| p.0 == key[0]).unwrap();
                    assert_eq!(shelf.get(key).unwrap().len(), *n as usize);
                }
            }
        }
    }
}
