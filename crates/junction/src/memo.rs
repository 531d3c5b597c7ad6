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
//! a slab or cloned — so a state restricted to evidence, rehydrated or
//! faulted in starts empty, and page-out drops it with the engine.
//!
//! One `Mutex` guards each memo; a pass takes each it deals with once for
//! its lookups, never both at a time, and once for what it files. A
//! poisoned lock reads as a miss and files nothing.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_pgm::{Potential, Size, Var};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// Key (module docs) → the divided message.
    messages: HashMap<Box<[u32]>, Arc<Potential>>,
    /// Table entries of `messages`.
    entries: usize,
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

    /// Files `(key, message)` pairs one pass computed, each while it fits
    /// and its key is not filed yet (another pass may have filed it since).
    pub(crate) fn file(&self, sent: Vec<(Box<[u32]>, Potential)>) {
        let Ok(mut filed) = self.filed.lock() else {
            return;
        };
        for (key, message) in sent {
            let entries = message.len();
            if filed.entries + entries > self.cap || filed.messages.contains_key(&key) {
                continue;
            }
            filed.entries += entries;
            filed.messages.insert(key, Arc::new(message));
        }
    }

    /// Files `message` under `key` whatever it holds, for tests that
    /// check who reads the memo.
    #[cfg(test)]
    pub(crate) fn plant(&self, key: Vec<u32>, message: Potential) {
        if let Ok(mut filed) = self.filed.lock() {
            filed.entries += message.len();
            filed.messages.insert(key.into(), Arc::new(message));
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
        self.filed.messages.get(key).cloned()
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
