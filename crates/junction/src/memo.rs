//! The message memo a numeric [`QueryEngine`](crate::QueryEngine) keeps for
//! its lifetime: directed messages of its calibrated tree, computed once and
//! taken by every later query whose pass would send them again.
//!
//! A message is filed under `(clique, parent clique, query variables held
//! below)`. On a plan that is the Steiner tree of the query it answers, that
//! key fixes everything the message is made of. A Steiner tree is the union
//! of the paths from its terminals, and each query variable's terminal is
//! chosen by the variable alone ([`SteinerTree`](crate::SteinerTree)). So
//! the part of the plan below the edge `u → p` is the union of the paths to
//! `u` from the terminals of the held variables that lie on `u`'s side —
//! the same cliques for every query that holds the same variables there.
//! Children are ordered by clique id, and the target is the separator plus
//! the held variables. A taken message is therefore bit for bit the one the
//! pass would compute. The reduced-tree pass decides which plans and nodes
//! qualify (`crate::reduced`, "The message memo"); this module stores.
//!
//! The memo is bounded and never evicts. It holds at most [`MEMO_SLABS`]
//! times the calibrated slab's entries. It files a message only when the
//! kernels of its subtree walked at least [`MIN_WALK_PER_ENTRY`] times its
//! entries, and only while the message fits in what is left. A
//! message of an all-clique subtree depends on the calibrated tables alone.
//! So it stays valid across materialization epochs, and lives exactly as
//! long as the tables: an engine restricted to evidence, rehydrated or
//! faulted in starts with an empty memo, and page-out drops it with the
//! engine.
//!
//! One `Mutex` guards it; a pass takes it once for its lookups and once for
//! what it files. A poisoned lock reads as a miss and files nothing.

use peanut_pgm::{Potential, Size, Var};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The memo holds at most this many times the calibrated slab's entries.
const MEMO_SLABS: usize = 8;

/// A message is filed only if the kernels of its subtree walked at least
/// this many product entries per entry of the message.
const MIN_WALK_PER_ENTRY: Size = 4;

/// An engine's directed messages, filed by key (module docs).
pub(crate) struct MessageMemo {
    /// Entries the memo may hold.
    cap: usize,
    filed: Mutex<Filed>,
}

/// What the lock guards.
#[derive(Default)]
struct Filed {
    /// `[clique, parent clique, held variables…]` → the divided message.
    messages: HashMap<Box<[u32]>, Arc<Potential>>,
    /// Table entries of `messages`.
    entries: usize,
}

impl MessageMemo {
    /// An empty memo for a calibrated slab of `slab_entries` entries.
    pub(crate) fn new(slab_entries: usize) -> Self {
        MessageMemo {
            cap: slab_entries.saturating_mul(MEMO_SLABS),
            filed: Mutex::default(),
        }
    }

    /// The entries held and the cap.
    pub(crate) fn usage(&self) -> (usize, usize) {
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

    /// A memo whose cap is `cap` entries, for tests that overrun it.
    #[cfg(test)]
    pub(crate) fn with_cap(cap: usize) -> Self {
        MessageMemo {
            cap,
            filed: Mutex::default(),
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

/// Appends the key of the message `clique → parent` carrying `held` (the
/// query variables held below, ascending) to `keys`.
pub(crate) fn push_key(
    keys: &mut Vec<u32>,
    clique: usize,
    parent: usize,
    held: impl Iterator<Item = Var>,
) {
    // clique ids are far below 2³²
    keys.extend([clique as u32, parent as u32]);
    keys.extend(held.map(|x| x.0));
}

/// Whether a message of `entries` entries, whose subtree's kernels walked
/// `walked` product entries, is worth filing.
#[inline]
pub(crate) fn admits(walked: Size, entries: usize) -> bool {
    walked >= (entries as Size).saturating_mul(MIN_WALK_PER_ENTRY)
}
