//! One cache discipline for every memo of the workspace: the junction
//! tree's message memos, a materialization's plan memo and a pinning's
//! factor memo each hold an [`ExactMemo`]. An owner decides its key
//! layout, what it admits, what an entry weighs ([`Weigh`]) and its bound;
//! this module decides the rest, once:
//!
//! * **An exact key.** An entry is filed under a slice of `K`, and only
//!   that slice finds it.
//! * **One constant bound, no eviction.** A memo holds at most `cap` of
//!   weight — table entries or bytes, as its values report — and files an
//!   entry only while it fits in what is left. Nothing filed is dropped
//!   while the memo lives; only a page-out's trim
//!   ([`ExactMemo::take_trimmed`]) moves entries out.
//! * **The first filing wins.** A key already filed keeps its value:
//!   another pass may have filed it between a lookup and a filing, and
//!   what an owner files under one key is bit for bit the same.
//! * **A poisoned lock is a miss.** A memo whose lock a panic poisoned
//!   opens as `None`, takes nothing, files nothing and reports nothing
//!   held.
//! * **A clone starts empty**, with the same cap: an owner's values are
//!   valid only for the tables it was filed over, and a clone's tables
//!   are a copy about to change or be kept apart.
//! * **Formatting never locks.** `{:?}` prints the cap only, so a pass
//!   may print while it holds the memo.
//! * **One usage shape**, [`MemoUsage`]: keys filed, weight held, the cap
//!   and the lookups that took an entry.
//!
//! One `std` `Mutex` guards a memo. It is a cache, not a protocol, so the
//! interleaving models do not schedule it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::Size;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

mod trim;

/// What an entry weighs against its memo's bound.
pub trait Weigh<K> {
    /// The weight of this value filed under `key`.
    fn weight(&self, key: &[K]) -> usize;
}

/// The work an entry saves each pass that takes it: the page-out trim's
/// price.
pub trait Saves {
    /// The work saved, in the owner's unit.
    fn saved(&self) -> Size;
}

/// What a memo holds ([module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoUsage {
    /// Keys filed.
    pub filed: usize,
    /// Weight held.
    pub held: usize,
    /// Weight the memo may hold.
    pub cap: usize,
    /// Lookups that took a filed entry.
    pub taken: u64,
}

/// What one answer's own pass executed, counted where the work happens —
/// the junction tree's pass, the plan memo's lookup, a variable-elimination
/// run — and carried with the answer. The memos count their takes too
/// ([`MemoUsage::taken`]): between two reads of a memo that only answers
/// read (no region build of a re-selection, say), the takes summed over
/// the answers computed equal its count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Messages the pass computed, the root's — the answer — included; an
    /// answer inside one table computes one.
    pub messages_computed: u64,
    /// Messages the pass took from a message memo, the calibrated tables'
    /// or a materialization's.
    pub messages_taken: u64,
    /// Product entries the kernels walked: per message computed, or per
    /// elimination step computed, the entries of the product it sums.
    pub entries_walked: Size,
    /// Of those, the entries the fused kernel's short-run walk summed
    /// ([`product_marginalize_views`](crate::product_marginalize_views)).
    pub short_walked: Size,
    /// Query anatomies (`peanut_junction::QueryAnatomy`) built for the
    /// answer, in planning, re-hanging and the pass: one for a plan
    /// planned now, one more for a shortcut-reduced one, none for a plan
    /// taken from the plan memo.
    pub anatomies_walked: u64,
    /// Whether the plan came from a materialization's plan memo.
    pub plan_taken: bool,
    /// Whether the answer was computed by pruned variable elimination.
    pub eliminated: bool,
    /// Elimination steps taken from the factor memos: a pinning's own,
    /// or the one its network's pinnings share.
    pub factors_taken: u64,
}

/// A bounded, never-evicting cache with an exact key ([module
/// docs](self)).
pub struct ExactMemo<K, V> {
    cap: usize,
    filed: Mutex<Filed<K, V>>,
}

/// What the lock guards.
struct Filed<K, V> {
    entries: HashMap<Box<[K]>, V>,
    /// Weight of `entries`.
    held: usize,
    taken: u64,
}

impl<K, V> Default for Filed<K, V> {
    fn default() -> Self {
        Filed {
            entries: HashMap::new(),
            held: 0,
            taken: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Weigh<K>> ExactMemo<K, V> {
    /// An empty memo that may hold `cap` of weight.
    pub fn new(cap: usize) -> Self {
        ExactMemo {
            cap,
            filed: Mutex::default(),
        }
    }

    /// What the memo holds; nothing but the cap when poisoned.
    pub fn usage(&self) -> MemoUsage {
        let mut usage = MemoUsage {
            cap: self.cap,
            ..MemoUsage::default()
        };
        if let Ok(f) = self.filed.lock() {
            (usage.filed, usage.held, usage.taken) = (f.entries.len(), f.held, f.taken);
        }
        usage
    }

    /// The memo locked, for a pass's lookups and filings; `None` when
    /// poisoned.
    pub fn open(&self) -> Option<Shelf<'_, K, V>> {
        Some(Shelf {
            filed: self.filed.lock().ok()?,
            cap: self.cap,
        })
    }

    /// What `f` makes of the entry filed under `key`, counted as taken
    /// when it makes something.
    pub fn take<R>(&self, key: &[K], f: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        self.open()?.take(key, f)
    }

    /// Files each `(key, value)` under one lock ([`Shelf::file`]).
    pub fn file(&self, filing: impl IntoIterator<Item = (Box<[K]>, V)>) {
        if let Some(mut shelf) = self.open() {
            for (key, value) in filing {
                let _ = shelf.file(key, value);
            }
        }
    }
}

/// A clone starts empty, with the same cap.
impl<K, V> Clone for ExactMemo<K, V> {
    fn clone(&self) -> Self {
        ExactMemo {
            cap: self.cap,
            filed: Mutex::default(),
        }
    }
}

/// The cap only: formatting never takes the lock.
impl<K, V> fmt::Debug for ExactMemo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactMemo")
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

/// A memo locked by one pass.
pub struct Shelf<'m, K, V> {
    filed: MutexGuard<'m, Filed<K, V>>,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V: Weigh<K>> Shelf<'_, K, V> {
    /// The weight the memo can still take.
    pub fn room(&self) -> usize {
        self.cap - self.filed.held
    }

    /// Keys filed.
    pub fn filed(&self) -> usize {
        self.filed.entries.len()
    }

    /// What `f` makes of the entry filed under `key`, counted as taken
    /// when it makes something.
    pub fn take<R>(&mut self, key: &[K], f: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let made = f(self.filed.entries.get(key)?)?;
        self.filed.taken += 1;
        Some(made)
    }

    /// Files `value` under `key` unless the key is filed already or the
    /// value does not fit in the room left. Returns the value filed under
    /// `key` then — the first one filed — or `value` back when it is not.
    pub fn file<Q>(&mut self, key: Q, value: V) -> Result<&V, V>
    where
        Q: Borrow<[K]> + Into<Box<[K]>>,
    {
        let filed = &mut *self.filed;
        if filed.entries.contains_key(key.borrow()) {
            return Ok(&filed.entries[key.borrow()]);
        }
        let weight = value.weight(key.borrow());
        if weight > self.cap - filed.held {
            return Err(value);
        }
        filed.held += weight;
        Ok(filed.entries.entry(key.into()).or_insert(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value weighing one per entry of a table of its size.
    #[derive(Clone, Debug, PartialEq)]
    struct Table(usize);

    impl Weigh<u32> for Table {
        fn weight(&self, _: &[u32]) -> usize {
            self.0
        }
    }

    /// A value weighing its key's bytes, as a plan weighs its key.
    struct Keyed;

    impl Weigh<u32> for Keyed {
        fn weight(&self, key: &[u32]) -> usize {
            size_of_val(key)
        }
    }

    fn memo(cap: usize) -> ExactMemo<u32, Table> {
        ExactMemo::new(cap)
    }

    fn usage(filed: usize, held: usize, cap: usize, taken: u64) -> MemoUsage {
        MemoUsage {
            filed,
            held,
            cap,
            taken,
        }
    }

    /// What `memo` holds under `key`, as a counted lookup.
    fn get(memo: &ExactMemo<u32, Table>, key: &[u32]) -> Option<Table> {
        memo.take(key, |t| Some(t.clone()))
    }

    #[test]
    fn an_entry_is_filed_only_while_it_fits() {
        let m = memo(5);
        m.file([(vec![1].into(), Table(3)), (vec![2].into(), Table(3))]);
        assert_eq!(m.usage(), usage(1, 3, 5, 0), "the second does not fit");
        let mut shelf = m.open().unwrap();
        assert_eq!(shelf.room(), 2);
        assert_eq!(
            shelf.file(&[3][..], Table(2)),
            Ok(&Table(2)),
            "it fits exactly"
        );
        assert_eq!(shelf.file(&[4][..], Table(1)), Err(Table(1)));
        assert_eq!(shelf.file(&[5][..], Table(0)), Ok(&Table(0)));
        assert_eq!((shelf.room(), shelf.filed()), (0, 3));
        drop(shelf);
        assert_eq!(get(&m, &[2]), None);
        assert_eq!(ExactMemo::<u32, Table>::new(0).open().unwrap().room(), 0);
    }

    #[test]
    fn a_byte_weighted_entry_is_bounded_by_its_key() {
        let m = ExactMemo::<u32, Keyed>::new(12);
        m.file([(vec![1, 2].into(), Keyed), (vec![3, 4].into(), Keyed)]);
        m.file([(vec![5].into(), Keyed)]);
        assert_eq!(m.usage(), usage(2, 12, 12, 0));
    }

    #[test]
    fn the_first_filing_wins() {
        let m = memo(10);
        m.file([(vec![1].into(), Table(1)), (vec![1].into(), Table(2))]);
        let mut shelf = m.open().unwrap();
        assert_eq!(shelf.file(vec![1], Table(3)), Ok(&Table(1)));
        drop(shelf);
        assert_eq!(get(&m, &[1]), Some(Table(1)));
        assert_eq!(
            m.usage(),
            usage(1, 1, 10, 1),
            "the later filings weigh nothing"
        );
    }

    #[test]
    fn a_poisoned_memo_is_a_miss_and_files_nothing() {
        let m = memo(10);
        m.file([(vec![1].into(), Table(1))]);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.take(&[1], |_| -> Option<()> { panic!("under the lock") })
        }));
        assert!(poisoned.is_err());
        assert!(m.open().is_none(), "open");
        assert_eq!(get(&m, &[1]), None, "a counted lookup");
        m.file([(vec![2].into(), Table(1))]);
        assert_eq!(m.usage(), usage(0, 0, 10, 0), "file");
    }

    #[test]
    fn a_clone_starts_empty_with_the_same_cap() {
        let m = memo(10);
        m.file([(vec![1].into(), Table(4))]);
        get(&m, &[1]);
        assert_eq!(m.clone().usage(), usage(0, 0, 10, 0));
        assert_eq!(m.usage(), usage(1, 4, 10, 1));
    }

    #[test]
    fn formatting_never_takes_the_lock() {
        let m = memo(7);
        let _shelf = m.open().unwrap();
        assert_eq!(format!("{m:?}"), "ExactMemo { cap: 7, .. }");
    }

    /// A lookup counts as taken only when it makes something.
    #[test]
    fn only_a_lookup_that_takes_counts() {
        let m = memo(10);
        m.file([(vec![1].into(), Table(1))]);
        assert_eq!(get(&m, &[2]), None);
        assert_eq!(m.take(&[1], |_| None::<()>), None);
        assert_eq!(get(&m, &[1]), Some(Table(1)));
        let mut shelf = m.open().unwrap();
        assert_eq!(shelf.take(&[1], |t| Some(t.0)), Some(1));
        drop(shelf);
        assert_eq!(m.usage().taken, 2);
    }
}
