#![warn(missing_docs)]
//! # peanut-store
//!
//! Persistence for published serving epochs: one file per
//! `(tenant, epoch)` holding everything a tenant needs to serve — the
//! calibrated [`TreeArena`](peanut_junction::TreeArena) slab, the
//! span-packed [`FlatMaterialization`] slab, and the structural shortcut
//! descriptions (clique node lists, ratios, benefits) the selection DP
//! produced. Cold start becomes one file read instead of re-running
//! initialization, two Hugin calibration passes, and the selection DP; the
//! sharded serving layer uses the same files to page cold tenants out of
//! RAM and fault them back in on demand.
//!
//! ## Read path
//!
//! [`StoredEpoch::open`] reads the file once (`fs::read`), validates it,
//! and decodes every table once, straight from the file bytes into the
//! `Vec` that will serve it: the calibrated slab, and each shortcut table
//! on its own (there is no intermediate table slab). Nothing refers to
//! the file after `open` returns, so truncating, overwriting or unlinking
//! it cannot reach an open epoch. `open` is the single place a hostile
//! file is rejected — a rehydrate only checks the decoded tables and node
//! lists against the tree it is handed. The checksum reads the file a
//! word at a time in four independent lanes ([`lane_checksum`]): about
//! 80 µs for a 648 kB epoch on a 2-vCPU x86-64 host, where the
//! byte-serial FNV-1a of version 1 took 1.0 ms and was 70 % of a
//! fault-in.
//!
//! [`StoredEpoch::rehydrate`] moves those tables into a serving engine
//! and materialization built on a structure the caller already holds:
//! the tree's rooting and arena layout, and shortcut structures whose
//! node lists the file's are compared with. A fleet's fault-in is `open`,
//! then `rehydrate` on what the tenant's parked front kept, so it rebuilds
//! only the tables; a cold start ([`rehydrate_engine`]) is the same
//! routine with that structure built from the tree. What is left of a
//! fault-in is the read, the checksum and the one decode of each table.
//!
//! ## File format (version 2)
//!
//! Everything in the file is a little-endian 8-byte word (`u64` or `f64`
//! bits). This module is the only code that knows the layout.
//!
//! ```text
//! word  0  MAGIC        "PNUTSTOR" as a little-endian u64
//! word  1  VERSION      2
//! word  2  checksum     lane_checksum over every word after this one
//! word  3  epoch        lifecycle epoch of the artifact
//! word  4  flags        bit 0: overlapping (PEANUT+) selection
//! word  5  arena_len    calibrated tree-arena slab length (f64 count)
//! word  6  n_shortcuts  materialized shortcut count
//! word  7  nodes_len    total clique-node index count
//! word  8  mat_slab_len flat-materialization slab length (f64 count)
//! word  9  reserved     0
//! ---- sections, back to back ----
//! f64[arena_len]       calibrated arena slab
//! u64[n_shortcuts + 1] node_first — CSR index into nodes_flat
//! u64[nodes_len]       nodes_flat — clique ids, shortcut-major
//! f64[n_shortcuts]     ratios   (benefit / size, the selection key)
//! f64[n_shortcuts]     benefits
//! u64[n_shortcuts]     span_off — u64::MAX marks a table-less slot
//! u64[n_shortcuts]     span_len
//! f64[mat_slab_len]    flat materialization slab
//! ```
//!
//! The header states exactly how long the file must be; `open` rejects
//! any length mismatch, so truncation can never read garbage. The
//! checksum catches bit rot and torn writes (each save writes its own
//! temp file, `<file>.<pid>.<n>.tmp`, and renames it into place, so a
//! crash mid-write leaves no partial file under the real name and two
//! saves of one epoch never share one; the directory is synced after the
//! rename, so a saved epoch survives a crash); `open` verifies it before it
//! trusts any word it covers. A wrong version is a typed
//! [`PgmError::StoreVersion`], every other validation failure a
//! [`PgmError::CorruptStore`] — loud, never a silent wrong answer.
//!
//! Version 1 files are read-only: `open` still accepts them and verifies
//! them with [`fnv1a64`] over the same bytes, and `save` writes version 2
//! only. Nothing else differs: a version-2 file is the version-1 file of
//! the same epoch with words 1 and 2 replaced.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_core::{FlatMaterialization, Materialization, MaterializedShortcut, Shortcut};
use peanut_junction::{JunctionTree, QueryEngine};
use peanut_pgm::{PgmError, Potential};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Saves started by this process: the `n` of a temp file name.
static TEMP_FILES: AtomicU64 = AtomicU64::new(0);

/// `"PNUTSTOR"` read as a little-endian word — the first word of every
/// store file.
pub const MAGIC: u64 = u64::from_le_bytes(*b"PNUTSTOR");

/// The format version this build writes. It also reads version 1, which
/// differs only in its checksum ([`fnv1a64`]).
pub const VERSION: u64 = 2;

/// Header length in 8-byte words.
const HEADER_WORDS: usize = 10;

/// `span_off` value of a symbolic (table-less) shortcut slot. Dense spans
/// carry an offset into the table slab, which `open` bounds-checks, so the
/// all-ones pattern can never collide with one.
const SYMBOLIC_SPAN: u64 = u64::MAX;

/// Starting states of the four checksum lanes: distinct and non-zero, so
/// a run of zero words still moves every lane.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Multiplier of the lane step. Odd, so multiplying by it is a bijection.
const LANE_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step: absorb word `w` into lane state `h`. For a fixed `w` it
/// is a bijection of `h` (xor, odd multiply, xorshift), and for a fixed
/// `h` a bijection of `w`.
fn lane_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(LANE_K);
    h ^ (h >> 29)
}

/// The store's integrity checksum (format version 2) over the
/// little-endian words of `bytes`, whose length must be a multiple of 8
/// (`open` checks it before hashing). Word `i` goes to lane `i % 4`, so
/// the four dependency chains run side by side; the words past the last
/// full group of four go to lanes 0, 1, 2 in order, and the lanes are
/// folded into one word with the same step.
///
/// Every step is a bijection of the state it updates, so changing any one
/// word — any single-bit flip included — changes the result with
/// certainty. Like [`fnv1a64`] this catches torn writes and bit rot; it
/// is not a cryptographic seal.
pub fn lane_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let groups = bytes.chunks_exact(32);
    let tail = groups.remainder();
    for group in groups {
        for (h, w) in lanes.iter_mut().zip(le_words(group)) {
            *h = lane_step(*h, w);
        }
    }
    for (h, w) in lanes.iter_mut().zip(le_words(tail)) {
        *h = lane_step(*h, w);
    }
    let [first, rest @ ..] = lanes;
    rest.into_iter().fold(first, lane_step)
}

/// FNV-1a 64-bit over `bytes` — the checksum of format version 1, kept to
/// verify version-1 files. Byte-serial: one multiply per byte, each
/// waiting on the last.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where a fleet persists epochs: the directory store files live in.
/// Cloned freely (it is a path), carried by engines that persist and
/// shards that page. A store directory belongs to one fleet at a time: a
/// fleet reads back only the epochs it saved itself, and a save overwrites
/// an earlier fleet's file of the same `(tenant, epoch)`.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding one `.pnut` file per persisted `(tenant, epoch)`.
    pub dir: PathBuf,
}

impl StoreConfig {
    /// A store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig { dir: dir.into() }
    }

    /// The file path for `(tenant, epoch)`. Epochs are zero-padded so
    /// lexicographic order is numeric order.
    pub fn epoch_path(&self, tenant: u32, epoch: u64) -> PathBuf {
        self.dir
            .join(format!("tenant{tenant}-epoch{epoch:020}.pnut"))
    }

    /// Persists one epoch for `tenant`, creating the store directory on
    /// first use. Returns the file path written.
    pub fn save_epoch(
        &self,
        tenant: u32,
        mat: &Materialization,
        flat: &FlatMaterialization,
        arena_slab: &[f64],
    ) -> Result<PathBuf, PgmError> {
        let path = self.epoch_path(tenant, flat.epoch());
        if !self.dir.is_dir() {
            fs::create_dir_all(&self.dir).map_err(|e| store_io(&self.dir, &e))?;
            // the new directory's own entry, or a crash can lose it with
            // every epoch saved in it
            sync_dir(parent_dir(&self.dir))?;
        }
        save(&path, mat, flat, arena_slab)?;
        Ok(path)
    }
}

fn store_io(path: &Path, e: &std::io::Error) -> PgmError {
    PgmError::StoreIo {
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

/// The directory that holds `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    path.parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
}

/// Makes the entries of `dir` durable: a file created or renamed into it
/// survives a crash once this returns.
fn sync_dir(dir: &Path) -> Result<(), PgmError> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| store_io(dir, &e))
}

fn corrupt(path: &Path, detail: impl Into<String>) -> PgmError {
    PgmError::CorruptStore {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Serializes one epoch — the materialization's structure, its flat
/// table pack, and the calibrated arena slab — to `path`, atomically and
/// durably (temp file synced, renamed, directory synced). The three
/// artifacts must describe the same epoch: `flat` must be the pack of
/// `mat`, `arena_slab` the calibrated slab of the tree `mat` was selected
/// on.
pub fn save(
    path: &Path,
    mat: &Materialization,
    flat: &FlatMaterialization,
    arena_slab: &[f64],
) -> Result<(), PgmError> {
    if flat.len() != mat.shortcuts.len() || flat.epoch() != mat.epoch {
        return Err(corrupt(
            path,
            format!(
                "refusing to persist mismatched artifacts: pack has {} spans at epoch {}, \
                 materialization {} shortcuts at epoch {}",
                flat.len(),
                flat.epoch(),
                mat.shortcuts.len(),
                mat.epoch
            ),
        ));
    }
    let n = mat.shortcuts.len();
    let nodes_len: usize = mat.shortcuts.iter().map(|s| s.shortcut.nodes().len()).sum();
    let total_words = HEADER_WORDS
        + arena_slab.len()
        + (n + 1)
        + nodes_len
        + n // ratios
        + n // benefits
        + n // span_off
        + n // span_len
        + flat.slab().len();
    let mut buf: Vec<u8> = Vec::with_capacity(total_words * 8);
    let mut put = |w: u64| buf.extend_from_slice(&w.to_le_bytes());
    let header: [u64; HEADER_WORDS] = [
        MAGIC,
        VERSION,
        0, // checksum, patched below
        mat.epoch,
        u64::from(mat.overlapping),
        arena_slab.len() as u64,
        n as u64,
        nodes_len as u64,
        flat.slab().len() as u64,
        0, // reserved
    ];
    header.into_iter().for_each(&mut put);
    arena_slab.iter().for_each(|v| put(v.to_bits()));
    // node_first: CSR prefix over the per-shortcut node lists
    let mut acc = 0u64;
    put(0);
    for s in &mat.shortcuts {
        acc += s.shortcut.nodes().len() as u64;
        put(acc);
    }
    for s in &mat.shortcuts {
        s.shortcut.nodes().iter().for_each(|&u| put(u as u64));
    }
    mat.shortcuts.iter().for_each(|s| put(s.ratio.to_bits()));
    mat.shortcuts.iter().for_each(|s| put(s.benefit.to_bits()));
    (0..n).for_each(|i| put(flat.span(i).map_or(SYMBOLIC_SPAN, |(off, _)| off as u64)));
    (0..n).for_each(|i| put(flat.span(i).map_or(0, |(_, len)| len as u64)));
    flat.slab().iter().for_each(|v| put(v.to_bits()));
    debug_assert_eq!(buf.len(), total_words * 8);
    let checksum = lane_checksum(&buf[3 * 8..]);
    buf[2 * 8..3 * 8].copy_from_slice(&checksum.to_le_bytes());

    let file_name = path
        .file_name()
        .ok_or_else(|| corrupt(path, "store path has no file name"))?
        .to_string_lossy()
        .into_owned();
    // each save its own temp file: two persists of one epoch racing each
    // other must not truncate one another's bytes or rename them away
    // ordering: the counter only makes names unique; nothing is published
    // through it
    let n = TEMP_FILES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!("{file_name}.{}.{n}.tmp", std::process::id()));
    let mut f = fs::File::create(&tmp).map_err(|e| store_io(&tmp, &e))?;
    let synced = f.write_all(&buf).and_then(|()| f.sync_all());
    drop(f);
    let saved = synced
        .map_err(|e| store_io(&tmp, &e))
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| store_io(path, &e)))
        // the rename is durable only once the directory is: a caller may
        // drop its last in-memory copy when this returns
        .and_then(|()| sync_dir(parent_dir(path)));
    if saved.is_err() {
        // best effort: a failed persist must not leave a whole epoch of
        // garbage on a disk that may already be full; the error returned
        // is the one that failed the save
        let _ = fs::remove_file(&tmp);
    }
    saved
}

/// Little-endian words of `bytes`; a ragged tail (fewer than 8 bytes) is
/// not a word and is skipped.
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|c| {
        #[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields 8-byte chunks only")]
        u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"))
    })
}

/// One store file, read, fully validated and decoded by
/// [`open`](Self::open): magic, version, checksum (unless skipped), exact
/// length against the header, CSR monotonicity and span bounds. Every
/// table is decoded once, straight from the file bytes into the `Vec` a
/// rehydrated engine serves it from; the file is not referred to again.
#[derive(Clone)]
pub struct StoredEpoch {
    path: PathBuf,
    file_len: u64,
    epoch: u64,
    overlapping: bool,
    arena: Vec<f64>,
    node_first: Vec<u64>,
    nodes_flat: Vec<u64>,
    ratios: Vec<f64>,
    benefits: Vec<f64>,
    /// Per-shortcut dense table; `None` for a symbolic (table-less) slot.
    tables: Vec<Option<Vec<f64>>>,
}

impl StoredEpoch {
    /// Reads, validates and decodes `path`, a version-2 file or a
    /// version-1 one. `verify_checksum: false` skips only the checksum
    /// pass; every structural check still runs.
    pub fn open(path: &Path, verify_checksum: bool) -> Result<StoredEpoch, PgmError> {
        let buf = fs::read(path).map_err(|e| store_io(path, &e))?;
        if buf.len() < HEADER_WORDS * 8 {
            return Err(corrupt(
                path,
                format!(
                    "{} bytes is shorter than the {}-byte header",
                    buf.len(),
                    HEADER_WORDS * 8
                ),
            ));
        }
        if buf.len() % 8 != 0 {
            return Err(corrupt(
                path,
                format!("length {} is not a multiple of 8", buf.len()),
            ));
        }
        let mut header = [0u64; HEADER_WORDS];
        for (h, w) in header.iter_mut().zip(le_words(&buf)) {
            *h = w;
        }
        let [magic, version, checksum, epoch, flags, counts @ ..] = header;
        let [arena_len, n_shortcuts, nodes_len, mat_slab_len, _reserved] = counts;
        if magic != MAGIC {
            return Err(corrupt(path, format!("bad magic {magic:#018x}")));
        }
        let checksum_of: fn(&[u8]) -> u64 = match version {
            VERSION => lane_checksum,
            1 => fnv1a64,
            found => {
                return Err(PgmError::StoreVersion {
                    found,
                    expected: VERSION,
                })
            }
        };
        // verified before any word it covers is trusted, so bit rot in a
        // flag or count word is reported as bit rot
        if verify_checksum {
            let got = checksum_of(&buf[3 * 8..]);
            if got != checksum {
                return Err(corrupt(
                    path,
                    format!("checksum mismatch: stored {checksum:#018x}, computed {got:#018x}"),
                ));
            }
        }
        if flags & !1 != 0 {
            return Err(corrupt(path, format!("unknown flags {flags:#x}")));
        }
        // Exact expected length, in checked u64 arithmetic so corrupt
        // headers cannot overflow their way past the comparison.
        let words = [
            Some(HEADER_WORDS as u64),
            Some(arena_len),
            n_shortcuts.checked_add(1),
            Some(nodes_len),
            n_shortcuts.checked_mul(4), // ratios + benefits + span_off + span_len
            Some(mat_slab_len),
        ]
        .into_iter()
        .try_fold(0u64, |a, w| a.checked_add(w?));
        let expected = words.and_then(|w| w.checked_mul(8));
        if expected != Some(buf.len() as u64) {
            return Err(corrupt(
                path,
                format!(
                    "file is {} bytes but the header describes {} (truncated or oversized)",
                    buf.len(),
                    expected.map_or_else(|| "an overflowing size".into(), |e| e.to_string()),
                ),
            ));
        }
        // Sections, back to back; every count fits usize on this host
        // because it summed into the (usize) file length above.
        let n = n_shortcuts as usize;
        let mut rest = &buf[HEADER_WORDS * 8..];
        let mut take = |words: usize| {
            let (section, tail) = rest.split_at(words * 8);
            rest = tail;
            section
        };
        let u64s = |section: &[u8]| le_words(section).collect::<Vec<u64>>();
        let f64s = |section: &[u8]| le_words(section).map(f64::from_bits).collect::<Vec<f64>>();
        let arena = f64s(take(arena_len as usize));
        let node_first = u64s(take(n + 1));
        let nodes_flat = u64s(take(nodes_len as usize));
        let ratios = f64s(take(n));
        let benefits = f64s(take(n));
        let (span_off, span_len) = (take(n), take(n));
        let mat_slab = take(mat_slab_len as usize);
        debug_assert!(rest.is_empty());

        // CSR must be monotone and end exactly at nodes_len, or
        // shortcut_nodes would slice nodes_flat out of range.
        if node_first[0] != 0
            || node_first.windows(2).any(|w| w[0] > w[1])
            || node_first[n] != nodes_len
        {
            return Err(corrupt(
                path,
                "shortcut node index (node_first) is not a monotone CSR over nodes_flat",
            ));
        }
        // every span is checked before any table is decoded
        let spans = le_words(span_off)
            .zip(le_words(span_len))
            .enumerate()
            .map(|(i, (off, len))| match off.checked_add(len) {
                _ if off == SYMBOLIC_SPAN => Ok(None),
                Some(end) if end <= mat_slab_len => Ok(Some((off as usize, len as usize))),
                _ => Err(corrupt(
                    path,
                    format!("shortcut {i} has a dense span outside the table slab"),
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tables = spans
            .into_iter()
            .map(|span| span.map(|(off, len)| f64s(&mat_slab[off * 8..(off + len) * 8])))
            .collect();
        Ok(StoredEpoch {
            path: path.to_path_buf(),
            file_len: buf.len() as u64,
            epoch,
            overlapping: flags & 1 != 0,
            arena,
            node_first,
            nodes_flat,
            ratios,
            benefits,
            tables,
        })
    }

    /// The file this epoch was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of the file as it was read.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Lifecycle epoch stamped in the header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the persisted selection allowed overlapping shortcuts
    /// (PEANUT+).
    pub fn overlapping(&self) -> bool {
        self.overlapping
    }

    /// Number of persisted shortcuts.
    pub fn n_shortcuts(&self) -> usize {
        self.tables.len()
    }

    /// The calibrated tree-arena slab.
    pub fn arena_slab(&self) -> &[f64] {
        &self.arena
    }

    /// Clique ids of shortcut `i`'s subtree.
    pub fn shortcut_nodes(&self, i: usize) -> &[u64] {
        let (a, b) = (self.node_first[i] as usize, self.node_first[i + 1] as usize);
        &self.nodes_flat[a..b]
    }

    /// Selection ratio of shortcut `i`.
    pub fn ratio(&self, i: usize) -> f64 {
        self.ratios[i]
    }

    /// Workload benefit of shortcut `i`.
    pub fn benefit(&self, i: usize) -> f64 {
        self.benefits[i]
    }

    /// Rebuilds the serving artifact this file was saved from, on the
    /// structure `frame` fixes: an engine over `frame`'s tree, rooting and
    /// arena layout holding this file's calibrated slab
    /// ([`QueryEngine::with_calibrated_slab`]), and the [`Materialization`]
    /// with this file's tables. Both move out of `self`; nothing is copied.
    ///
    /// A persisted shortcut whose node list equals the one of `kept` at
    /// its position is taken from `kept` — the structure `frame`'s tree
    /// derived for those nodes before. Every other one is derived from its
    /// node list ([`Shortcut::from_nodes`]) and validated against the tree.
    /// Everything numeric is bit-identical to what was saved; what does not
    /// fit the tree is a [`PgmError::CorruptStore`] naming this file.
    pub fn rehydrate<'t>(
        self,
        frame: &QueryEngine<'t>,
        kept: Vec<Shortcut>,
    ) -> Result<(QueryEngine<'t>, Materialization), PgmError> {
        let StoredEpoch {
            path,
            file_len: _,
            epoch,
            overlapping,
            arena,
            node_first,
            nodes_flat,
            ratios,
            benefits,
            tables,
        } = self;
        let engine = frame.with_calibrated_slab(arena).map_err(|e| match e {
            PgmError::CorruptStore { detail, .. } => corrupt(&path, detail),
            e => e,
        })?;
        let tree = engine.tree();
        let mut kept = kept.into_iter();
        let mut shortcuts = Vec::with_capacity(tables.len());
        for (i, table) in tables.into_iter().enumerate() {
            let persisted = &nodes_flat[node_first[i] as usize..node_first[i + 1] as usize];
            let in_file = |e: PgmError| corrupt(&path, format!("shortcut {i}: {e}"));
            let same = |s: &Shortcut| {
                s.nodes()
                    .iter()
                    .map(|&u| u as u64)
                    .eq(persisted.iter().copied())
            };
            let shortcut = match kept.next().filter(same) {
                Some(shortcut) => shortcut,
                None => {
                    let mut nodes = Vec::with_capacity(persisted.len());
                    for &u in persisted {
                        let u = usize::try_from(u)
                            .ok()
                            .filter(|&u| u < tree.n_cliques())
                            .ok_or_else(|| {
                                corrupt(
                                    &path,
                                    format!(
                                        "shortcut {i} references clique {u}, tree has {}",
                                        tree.n_cliques()
                                    ),
                                )
                            })?;
                        nodes.push(u);
                    }
                    Shortcut::from_nodes(tree, engine.rooted(), nodes).map_err(in_file)?
                }
            };
            let potential = match table {
                Some(values) => {
                    let scope = shortcut.scope().clone();
                    let cards = tree.domain().cards_of(&scope);
                    Some(Potential::new(scope, cards, values).map_err(in_file)?)
                }
                None => None,
            };
            shortcuts.push(MaterializedShortcut {
                shortcut,
                potential,
                benefit: benefits[i],
                ratio: ratios[i],
            });
        }
        let mat = Materialization::new(shortcuts, overlapping).with_epoch(epoch);
        Ok((engine, mat))
    }
}

/// Rehydrates a full serving artifact from a stored epoch: the calibrated
/// arena slab reattached (skipping initialization and both Hugin passes)
/// and the materialization rebuilt structurally (skipping the selection
/// DP), returning an engine answering bit-identically to the one that was
/// persisted. This is [`StoredEpoch::rehydrate`] with the structure built
/// from `tree` — rooting, arena layout, every shortcut — on a copy of
/// `stored`'s tables. A file that does not fit `tree` is a
/// [`PgmError::CorruptStore`] naming that file.
pub fn rehydrate_engine<'t>(
    tree: &'t JunctionTree,
    stored: &StoredEpoch,
) -> Result<(QueryEngine<'t>, Materialization), PgmError> {
    stored
        .clone()
        .rehydrate(&QueryEngine::symbolic(tree), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_core::OnlineEngine;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, Scope, Var};

    /// `tests/data/v1_sprinkler.pnut` is a version-1 file written by an
    /// earlier build (commit e5bbf7e). It must keep opening and rehydrate
    /// to the answers of the engine it was saved from. What `save` writes
    /// for the same inputs is that file with words 1–2 replaced — version
    /// 2 and the lane checksum of every byte after word 2 — and otherwise
    /// equal byte for byte: the layout has not moved.
    #[test]
    fn golden_v1_file_opens_and_its_v2_save_differs_only_in_version_and_checksum() {
        let golden = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/v1_sprinkler.pnut"
        ));
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let ns = engine.numeric_state().unwrap();
        // one single-clique shortcut per clique, every other one symbolic
        let shortcuts = (0..tree.n_cliques())
            .map(|u| {
                let shortcut = Shortcut::from_nodes(&tree, engine.rooted(), vec![u]).unwrap();
                let potential = (u % 2 == 0)
                    .then(|| shortcut.materialize(&tree, engine.rooted(), ns).unwrap().0);
                MaterializedShortcut {
                    ratio: 0.5 + u as f64,
                    benefit: 3.25 * (u + 1) as f64,
                    potential,
                    shortcut,
                }
            })
            .collect();
        let mat = Materialization::new(shortcuts, true).with_epoch(7);

        let stored = StoredEpoch::open(golden, true).unwrap();
        assert_eq!((stored.epoch(), stored.overlapping()), (7, true));
        assert_eq!(stored.n_shortcuts(), 2);
        assert_eq!(stored.shortcut_nodes(1), [1]);
        let (rengine, rmat) = rehydrate_engine(&tree, &stored).unwrap();
        assert!(rmat.shortcuts[0].potential.is_some() && rmat.shortcuts[1].potential.is_none());
        let (fresh, rehydrated) = (
            OnlineEngine::new(&engine, &mat),
            OnlineEngine::new(&rengine, &rmat),
        );
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for a in 0..4 {
            for b in a..4 {
                let q = Scope::from_iter([Var(a), Var(b)]);
                let (x, y) = (fresh.answer(&q).unwrap(), rehydrated.answer(&q).unwrap());
                assert_eq!(bits(&x.0), bits(&y.0), "query {q}");
                assert_eq!(x.1.ops, y.1.ops, "query {q}");
            }
        }

        let dir = std::env::temp_dir().join(format!("peanut-golden-{}", std::process::id()));
        let path = StoreConfig::new(&dir)
            .save_epoch(0, &mat, &FlatMaterialization::pack(&mat), ns.arena().slab())
            .unwrap();
        let (v2, v1) = (fs::read(&path).unwrap(), fs::read(golden).unwrap());
        assert_eq!(v2.len(), v1.len());
        assert_eq!(v2[..8], v1[..8], "magic");
        assert_eq!(v2[24..], v1[24..], "everything after the checksum word");
        let word = |w: usize| u64::from_le_bytes(v2[w * 8..w * 8 + 8].try_into().unwrap());
        assert_eq!(word(1), 2);
        assert_eq!(word(2), lane_checksum(&v2[24..]));
        // pins the lane checksum itself: seeds, multiplier, shift, fold
        assert_eq!(word(2), 0xd98a_6e89_04fb_2f44);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = StoredEpoch::open(Path::new("/nonexistent/peanut.pnut"), true).err();
        assert!(matches!(err, Some(PgmError::StoreIo { .. })), "{err:?}");
    }

    #[test]
    fn magic_spells_pnutstor() {
        assert_eq!(&MAGIC.to_le_bytes(), b"PNUTSTOR");
    }

    #[test]
    fn fnv_vectors() {
        // standard FNV-1a 64 test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// The lane layout as documented: word `i` to lane `i % 4`, a tail of
    /// fewer than four words to the first lanes in order, one fold.
    #[test]
    fn lane_checksum_matches_its_definition() {
        let words: Vec<u64> = (0..11u64)
            .map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef))
            .collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        for n in 0..=words.len() {
            let mut lanes = LANE_SEEDS;
            for (i, &w) in words[..n].iter().enumerate() {
                lanes[i % 4] = lane_step(lanes[i % 4], w);
            }
            let want = lane_step(lane_step(lane_step(lanes[0], lanes[1]), lanes[2]), lanes[3]);
            assert_eq!(lane_checksum(&bytes[..n * 8]), want, "{n} words");
        }
    }

    #[test]
    fn epoch_paths_sort_numerically() {
        let cfg = StoreConfig::new("/tmp/peanut-store");
        let p9 = cfg.epoch_path(3, 9);
        let p10 = cfg.epoch_path(3, 10);
        assert!(p9 < p10, "zero-padding must keep lexicographic = numeric");
        assert!(p9.to_string_lossy().ends_with(".pnut"));
    }
}
