//! Persistence round-trip guarantees:
//!
//! * publish → persist → rehydrate reproduces the serving artifact
//!   **bit-identically** — arena slab, table pack, shortcut structure,
//!   and every answer (marginal and evidence-conditioned), on fixtures
//!   and on random networks;
//! * rehydrated answers also agree with a single-threaded VE oracle, the
//!   rehydrated tables are locally consistent, and a rehydrated engine
//!   starts with an empty message memo;
//! * corrupted, truncated, or wrong-version files fail loudly with the
//!   typed [`PgmError`] variants — never a silent wrong answer; every
//!   single-bit flip of a version-1 or version-2 file is refused;
//! * an open epoch owns its tables: truncating, overwriting or unlinking
//!   the file afterwards cannot reach it, a crashed save's leftover
//!   temp file is never mistaken for an epoch, and a save that fails
//!   removes its own;
//! * a file that does not fit the tree it is rehydrated against fails as
//!   `CorruptStore` naming that file.

use peanut_core::{
    FlatMaterialization, Materialization, MaterializedShortcut, OfflineContext, OnlineEngine,
    Peanut, PeanutConfig, Shortcut, Workload,
};
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, BayesianNetwork, PgmError, Potential, Scope, Var};
use peanut_store::{rehydrate_engine, save, StoreConfig, StoredEpoch, VERSION};
use peanut_ve::ve_answer;
use peanut_workload::{uniform_queries, with_evidence, QuerySpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peanut-roundtrip-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens `path` expecting a failure; returns the typed error.
fn open_err(path: &Path, verify: bool) -> PgmError {
    match StoredEpoch::open(path, verify) {
        Ok(_) => panic!("expected {} to fail validation", path.display()),
        Err(e) => e,
    }
}

/// Oracle: `P(targets | evidence)` via single-threaded VE.
fn ve_conditional(bn: &BayesianNetwork, targets: &Scope, evidence: &[(Var, u32)]) -> Potential {
    let ev_scope = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let q = targets.union(&ev_scope);
    let (mut joint, _) = ve_answer(bn, &q).unwrap();
    for &(v, val) in evidence {
        joint = joint.restrict(v, val).unwrap();
    }
    joint.normalize();
    joint
}

/// Selects a PEANUT+ materialization for a uniform workload over `bn`.
fn select_mat(
    bn: &BayesianNetwork,
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    budget: u64,
    seed: u64,
) -> Materialization {
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 3,
    };
    let scopes = uniform_queries(bn.domain(), 24, spec, seed);
    let ctx = OfflineContext::new(tree, &Workload::from_queries(scopes)).unwrap();
    Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(budget).with_epsilon(1.0),
        engine.numeric_state().unwrap(),
    )
    .unwrap()
    .0
}

/// Saves `(mat, pack, slab)` and asserts the reopened file reproduces the
/// artifact and its answers bit for bit. Returns the stored path.
fn assert_round_trip(
    bn: &BayesianNetwork,
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    path: &Path,
    seed: u64,
) {
    let flat = FlatMaterialization::pack(mat);
    let slab = engine.numeric_state().unwrap().arena().slab();
    save(path, mat, &flat, slab).unwrap();

    let stored = StoredEpoch::open(path, true).unwrap();
    assert_eq!(stored.epoch(), mat.epoch);
    assert_eq!(stored.overlapping(), mat.overlapping);
    assert_eq!(stored.n_shortcuts(), mat.shortcuts.len());
    // arena slab and table slab are bitwise identical to what was saved
    assert_eq!(stored.arena_slab().len(), slab.len());
    for (a, b) in stored.arena_slab().iter().zip(slab) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for i in 0..flat.len() {
        assert_eq!(stored.ratio(i).to_bits(), mat.shortcuts[i].ratio.to_bits());
        assert_eq!(
            stored.benefit(i).to_bits(),
            mat.shortcuts[i].benefit.to_bits()
        );
        assert_eq!(
            stored.shortcut_nodes(i),
            mat.shortcuts[i]
                .shortcut
                .nodes()
                .iter()
                .map(|&u| u as u64)
                .collect::<Vec<_>>()
        );
    }

    assert_rehydrates_identically(bn, tree, engine, mat, &stored, seed);
}

/// Rehydrates `stored` and asserts the tables and every answer are
/// bit-identical to the in-RAM `(engine, mat)` and within 1e-9 of the VE
/// oracle, and that the rehydrated engine's message memo starts empty.
fn assert_rehydrates_identically(
    bn: &BayesianNetwork,
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    stored: &StoredEpoch,
    seed: u64,
) {
    let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (rengine, rmat) = rehydrate_engine(tree, stored).unwrap();
    assert_eq!(
        (rengine.memo_usage().held, rengine.memo_usage().cap),
        (0, engine.memo_usage().cap)
    );
    // the second oracle: the rehydrated tables are a consistent tree
    let ns = rengine.numeric_state().unwrap();
    assert!(ns.local_consistency_error(tree).unwrap() <= 1e-9);
    assert_eq!(rmat.epoch, mat.epoch);
    assert_eq!(rmat.len(), mat.len());
    for (a, b) in rmat.shortcuts.iter().zip(&mat.shortcuts) {
        assert_eq!(
            a.potential.as_ref().map(bits),
            b.potential.as_ref().map(bits)
        );
    }
    let fresh = OnlineEngine::new(engine, mat);
    let rehydrated = OnlineEngine::new(&rengine, &rmat);
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 3,
    };
    let scopes = uniform_queries(bn.domain(), 12, spec, seed ^ 0x5eed);
    for q in with_evidence(bn.domain(), &scopes, 0.4, seed ^ 0xf00d) {
        let (targets, evidence) = (q.targets, q.evidence);
        let (a, ca) = fresh.conditional(&targets, &evidence).unwrap();
        let (b, cb) = rehydrated.conditional(&targets, &evidence).unwrap();
        assert_eq!(ca.ops, cb.ops, "rehydrated plan must match");
        assert_eq!(a.values().len(), b.values().len());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "query {targets}");
        }
        let oracle = ve_conditional(bn, &targets, &evidence);
        assert!(b.max_abs_diff(&oracle).unwrap() < 1e-9, "query {targets}");
    }
}

#[test]
fn fixture_epochs_round_trip_bit_identically() {
    let dir = temp_dir("fixtures");
    for (i, bn) in [fixtures::figure1(), fixtures::asia(), fixtures::sprinkler()]
        .into_iter()
        .enumerate()
    {
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let mat = select_mat(&bn, &tree, &engine, 512, 7 + i as u64).with_epoch(3 + i as u64);
        let path = dir.join(format!("fixture{i}.pnut"));
        assert_round_trip(&bn, &tree, &engine, &mat, &path, 11 * i as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// However warm the persisted engine's message memo, the rehydrated engine
/// starts with an empty one and answers bit for bit as the warm one does.
#[test]
fn a_rehydrated_engine_starts_with_an_empty_memo() {
    let dir = temp_dir("memo");
    let bn = fixtures::chain(10, 3, 4);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = select_mat(&bn, &tree, &engine, 256, 5);
    let online = OnlineEngine::new(&engine, &mat);
    for a in 0..10 {
        for b in a + 1..10 {
            online.answer(&Scope::from_indices(&[a, b])).unwrap();
        }
    }
    assert!(engine.memo_usage().held > 0, "test premise: a warm memo");
    assert_round_trip(&bn, &tree, &engine, &mat, &dir.join("warm.pnut"), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_materialization_round_trips() {
    let dir = temp_dir("empty");
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = Materialization::default().with_epoch(1);
    let path = dir.join("empty.pnut");
    assert_round_trip(&bn, &tree, &engine, &mat, &path, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// ROADMAP item 4's fault injection: whatever happens to the file after
/// `open` returned, the open epoch still rehydrates bit-identically.
#[test]
fn open_epoch_outlives_its_file() {
    let dir = temp_dir("outlives");
    let bn = fixtures::asia();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = select_mat(&bn, &tree, &engine, 256, 3).with_epoch(9);
    let flat = FlatMaterialization::pack(&mat);
    let slab = engine.numeric_state().unwrap().arena().slab();
    let path = dir.join("epoch.pnut");
    save(&path, &mat, &flat, slab).unwrap();
    let len = std::fs::metadata(&path).unwrap().len();

    let stored = StoredEpoch::open(&path, true).unwrap();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len / 2).unwrap();
    assert_rehydrates_identically(&bn, &tree, &engine, &mat, &stored, 1);
    std::fs::write(&path, vec![0xa5u8; len as usize]).unwrap();
    assert_rehydrates_identically(&bn, &tree, &engine, &mat, &stored, 2);
    std::fs::remove_file(&path).unwrap();
    assert_rehydrates_identically(&bn, &tree, &engine, &mat, &stored, 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Each `(tenant, epoch)` is saved at its own path. A crashed save
/// leaves `<name>.pnut.<pid>.<n>.tmp` behind: never an epoch, left
/// untouched by later saves, and no obstacle to saving that epoch for
/// real.
#[test]
fn store_config_saves_each_epoch_at_its_own_path() {
    let dir = temp_dir("paths");
    let cfg = StoreConfig::new(&dir);
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = engine.numeric_state().unwrap().arena().slab();
    let save_at = |epoch: u64| {
        let mat = Materialization::default().with_epoch(epoch);
        cfg.save_epoch(4, &mat, &FlatMaterialization::pack(&mat), slab)
            .unwrap()
    };
    for epoch in [1u64, 5, 3] {
        let path = save_at(epoch);
        assert_eq!(path, cfg.epoch_path(4, epoch));
        assert!(path.exists());
    }
    // other tenants are untouched
    assert!(!cfg.epoch_path(5, 5).exists());

    let stale = dir.join("tenant4-epoch00000000000000000009.pnut.1.0.tmp");
    std::fs::write(&stale, b"torn").unwrap();
    assert!(
        !cfg.epoch_path(4, 9).exists(),
        "a temp file is not an epoch"
    );
    let path = save_at(9);
    assert_eq!(path, cfg.epoch_path(4, 9));
    assert_eq!(StoredEpoch::open(&path, true).unwrap().epoch(), 9);
    assert_eq!(
        std::fs::read(&stale).unwrap(),
        b"torn",
        "a save writes only its own temp file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two threads persisting one epoch at once, as a publish's write-behind
/// persist and a page-out's may, each of 300 saves started together by a
/// barrier: each save writes its own temp file, so neither truncates nor
/// renames away the other's. Every save succeeds, the file verifies, and
/// no temp file is left.
#[test]
fn concurrent_saves_of_one_epoch_all_succeed() {
    let dir = temp_dir("concurrent");
    let cfg = StoreConfig::new(&dir);
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = engine.numeric_state().unwrap().arena().slab();
    let mat = Materialization::default().with_epoch(2);
    let flat = FlatMaterialization::pack(&mat);
    // both threads start every save together
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for i in 0..300 {
                    start.wait();
                    let saved = cfg.save_epoch(0, &mat, &flat, slab);
                    assert!(saved.is_ok(), "save {i}: {saved:?}");
                }
            });
        }
    });
    let path = cfg.epoch_path(0, 2);
    assert_eq!(StoredEpoch::open(&path, true).unwrap().epoch(), 2);
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, [path.file_name().unwrap()], "temp files left behind");
    std::fs::remove_dir_all(&dir).ok();
}

/// A save that fails after its temp file exists — here `rename` onto a
/// directory, `EISDIR` — removes the temp file and returns the failure.
#[test]
fn failed_save_leaves_no_temp_file() {
    let dir = temp_dir("failed-save");
    let path = dir.join("epoch.pnut");
    std::fs::create_dir_all(&path).unwrap();
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = Materialization::default().with_epoch(1);
    let slab = engine.numeric_state().unwrap().arena().slab();
    let err = save(&path, &mat, &FlatMaterialization::pack(&mat), slab).unwrap_err();
    assert!(matches!(err, PgmError::StoreIo { .. }), "{err}");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["epoch.pnut"], "temp file left behind");
    assert!(path.is_dir(), "the directory in the way is untouched");
    std::fs::remove_dir_all(&dir).ok();
}

/// Set in the child [`under_file_size_limit`] starts.
#[cfg(target_os = "linux")]
const FILE_LIMIT_ENV: &str = "PEANUT_TEST_FILE_SIZE_LIMIT";

/// Runs this binary's test `name` again in a child whose file-size limit
/// is `blocks` 512-byte blocks, with `SIGXFSZ` ignored, so a write past the
/// limit fails with `EFBIG` instead of killing it. The child's output is
/// piped, so the limit never reaches a log file it would print to.
#[cfg(target_os = "linux")]
fn under_file_size_limit(name: &str, blocks: u64) {
    let exe = std::env::current_exe().unwrap();
    let script =
        format!("trap '' XFSZ; ulimit -f {blocks}; exec \"$0\" --exact {name} --nocapture");
    let out = std::process::Command::new("sh")
        .args(["-c", &script])
        .arg(&exe)
        .env(FILE_LIMIT_ENV, "1")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} under the limit:\n{text}");
    assert!(text.contains("1 passed"), "{name} did not run:\n{text}");
}

/// ROADMAP item 8's short write, injected: under a file-size limit of 16
/// blocks (8 KiB) an epoch file below it saves, and one past it fails at
/// the write (`EFBIG`) with `StoreIo`, leaving nothing under its name and
/// no temp file; the first file still opens and verifies. The unlimited
/// run pins both file sizes first, so a layout change cannot void the
/// test.
#[cfg(target_os = "linux")]
#[test]
fn a_save_past_the_disk_limit_fails_and_leaves_no_file() {
    const BLOCKS: u64 = 16;
    let epoch = |bn: &BayesianNetwork, path: &Path| {
        let tree = build_junction_tree(bn).unwrap();
        let engine = QueryEngine::numeric(&tree, bn).unwrap();
        let mat = Materialization::default().with_epoch(1);
        let slab = engine.numeric_state().unwrap().arena().slab();
        save(path, &mat, &FlatMaterialization::pack(&mat), slab)
    };
    let (small, large) = (fixtures::sprinkler(), fixtures::chain(8, 20, 5));
    let limited = std::env::var_os(FILE_LIMIT_ENV).is_some();
    let dir = temp_dir(if limited {
        "short-write"
    } else {
        "short-write-sizes"
    });
    let (first, second) = (dir.join("small.pnut"), dir.join("large.pnut"));
    epoch(&small, &first).unwrap();
    if !limited {
        epoch(&large, &second).unwrap();
        let len = |p: &Path| std::fs::metadata(p).unwrap().len();
        assert_eq!([len(&first), len(&second)], [248, 23_448]);
        assert!(len(&first) < BLOCKS * 512 && len(&second) > BLOCKS * 512);
        std::fs::remove_dir_all(&dir).ok();
        return under_file_size_limit(
            "a_save_past_the_disk_limit_fails_and_leaves_no_file",
            BLOCKS,
        );
    }
    let err = epoch(&large, &second).unwrap_err();
    assert!(matches!(err, PgmError::StoreIo { .. }), "{err}");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["small.pnut"], "a partial file was left behind");
    let stored = StoredEpoch::open(&first, true).unwrap();
    assert_eq!(stored.epoch(), 1);
    rehydrate_engine(&build_junction_tree(&small).unwrap(), &stored).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Word `w` of a store file (the header's counts are words 5 to 8).
fn word(bytes: &[u8], w: usize) -> usize {
    u64::from_le_bytes(bytes[w * 8..w * 8 + 8].try_into().unwrap()) as usize
}

/// The committed version-1 file `tests/data/v1_sprinkler.pnut`.
fn golden_v1() -> Vec<u8> {
    std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/v1_sprinkler.pnut"
    ))
    .unwrap()
}

/// Writes a valid store file for a small fixture and returns its path
/// together with its raw bytes (for corruption tests).
fn valid_file(dir: &Path) -> (PathBuf, Vec<u8>) {
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = select_mat(&bn, &tree, &engine, 128, 1).with_epoch(2);
    let flat = FlatMaterialization::pack(&mat);
    let path = dir.join("valid.pnut");
    save(
        &path,
        &mat,
        &flat,
        engine.numeric_state().unwrap().arena().slab(),
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn corrupted_files_fail_loudly() {
    let dir = temp_dir("corrupt");
    let (path, bytes) = valid_file(&dir);
    let write = |name: &str, content: &[u8]| {
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    };

    // truncation: cut anywhere — in particular at every section boundary
    // and one word either side — and the header comparison rejects it,
    // with or without checksum verification
    let [arena_len, n, nodes_len, mat_slab_len] = [5, 6, 7, 8].map(|w| word(&bytes, w));
    let mut cuts = vec![0, 8, 79, 80, bytes.len() / 2, bytes.len() - 8];
    let mut boundary = 0;
    // header, arena, node_first, nodes_flat, ratios, benefits, span_off,
    // span_len, table slab
    for words in [10, arena_len, n + 1, nodes_len, n, n, n, n, mat_slab_len] {
        boundary += words * 8;
        cuts.extend([boundary - 8, boundary, boundary + 8]);
    }
    assert_eq!(boundary, bytes.len(), "the sections tile the file");
    for cut in cuts.into_iter().filter(|&cut| cut < bytes.len()) {
        let p = write("trunc.pnut", &bytes[..cut]);
        for verify in [true, false] {
            let err = open_err(&p, verify);
            assert!(
                matches!(err, PgmError::CorruptStore { .. }),
                "cut at {cut}: {err}"
            );
        }
    }
    // ragged length (not a multiple of 8)
    let p = write("ragged.pnut", &bytes[..bytes.len() - 3]);
    assert!(matches!(open_err(&p, false), PgmError::CorruptStore { .. }));

    // bad magic
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    let p = write("magic.pnut", &bad);
    assert!(matches!(open_err(&p, true), PgmError::CorruptStore { .. }));

    // unsupported version is its own typed error
    let mut bad = bytes.clone();
    bad[8..16].copy_from_slice(&(VERSION + 1).to_le_bytes());
    let p = write("version.pnut", &bad);
    assert_eq!(
        open_err(&p, true),
        PgmError::StoreVersion {
            found: VERSION + 1,
            expected: VERSION
        }
    );

    // a flipped payload byte fails the checksum
    let mut bad = bytes.clone();
    let mid = 80 + (bad.len() - 80) / 2;
    bad[mid] ^= 0x10;
    let p = write("bitrot.pnut", &bad);
    let err = open_err(&p, true);
    assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");
    assert!(err.to_string().contains("checksum"));

    // oversized: extra trailing bytes are rejected too
    let mut bad = bytes.clone();
    bad.extend_from_slice(&[0u8; 16]);
    let p = write("oversized.pnut", &bad);
    assert!(matches!(open_err(&p, false), PgmError::CorruptStore { .. }));

    // a corrupt CSR (node_first not monotone) is rejected at open; patch
    // the first two node_first words and re-checksum so only the CSR check
    // can object
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = select_mat(&bn, &tree, &engine, 128, 1).with_epoch(2);
    if !mat.shortcuts.is_empty() {
        let mut bad = bytes.clone();
        let arena_len = engine.numeric_state().unwrap().arena().slab().len();
        let node_first_at = (10 + arena_len) * 8;
        bad[node_first_at..node_first_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let checksum = peanut_store::lane_checksum(&bad[24..]);
        bad[16..24].copy_from_slice(&checksum.to_le_bytes());
        let p = write("csr.pnut", &bad);
        let err = open_err(&p, true);
        assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");
    }

    // a dense span reaching past the table slab is rejected at open too.
    // The golden file's shortcut 0 is dense; span_off follows node_first,
    // nodes_flat, ratios and benefits. It is a version-1 file, so it is
    // re-sealed with the version-1 checksum.
    let golden = golden_v1();
    let [arena_len, n, nodes_len, mat_slab_len] = [5, 6, 7, 8].map(|w| word(&golden, w));
    let span_off_at = (10 + arena_len + (n + 1) + nodes_len + 2 * n) * 8;
    for off in [mat_slab_len as u64, u64::MAX - 1] {
        let mut bad = golden.clone();
        bad[span_off_at..span_off_at + 8].copy_from_slice(&off.to_le_bytes());
        let checksum = peanut_store::fnv1a64(&bad[24..]);
        bad[16..24].copy_from_slice(&checksum.to_le_bytes());
        let err = open_err(&write("span.pnut", &bad), true);
        assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");
        assert!(err.to_string().contains("span"), "{err}");
    }

    // the intact original still opens fine after all of the above
    assert!(StoredEpoch::open(&path, true).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Both checksums catch what they claim: every single-bit flip of the
/// version-1 golden file and of a fresh version-2 save is refused. From
/// word 2 on the refusal names the checksum, which `open` verifies before
/// it trusts any word the checksum covers; a flip in the magic or the
/// version word is refused as what it is.
#[test]
fn every_single_bit_flip_is_refused() {
    let dir = temp_dir("bitflip");
    let (_, fresh) = valid_file(&dir);
    let golden = golden_v1();
    assert_eq!((word(&golden, 1), word(&fresh, 1)), (1, VERSION as usize));
    let p = dir.join("flipped.pnut");
    for bytes in [golden, fresh] {
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&p, &bad).unwrap();
            let err = open_err(&p, true);
            let named = match bit / 64 {
                0 => err.to_string().contains("magic"),
                1 => matches!(err, PgmError::StoreVersion { .. }),
                _ => {
                    matches!(err, PgmError::CorruptStore { .. })
                        && err.to_string().contains("checksum")
                }
            };
            assert!(named, "v{} bit {bit}: {err}", word(&bytes, 1));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The lane checksum's tail: epochs whose checksummed word count (every
/// word after word 2) is not a multiple of four save, verify and
/// round-trip like the rest — one, two and three tail words each.
#[test]
fn ragged_lane_tails_round_trip() {
    let dir = temp_dir("lane-tail");
    let bn = fixtures::asia();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let full = select_mat(&bn, &tree, &engine, 512, 5);
    let mut tails = Vec::new();
    // every prefix of the selection is a smaller epoch of its own
    for k in 0..=full.shortcuts.len() {
        let mat = Materialization::new(full.shortcuts[..k].to_vec(), full.overlapping)
            .with_epoch(k as u64 + 1);
        let path = dir.join(format!("prefix{k}.pnut"));
        assert_round_trip(&bn, &tree, &engine, &mat, &path, k as u64);
        let words = std::fs::metadata(&path).unwrap().len() / 8;
        tails.push((words - 3) % 4);
    }
    for tail in 1..4 {
        assert!(
            tails.contains(&tail),
            "no epoch with {tail} tail words: {tails:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rehydration_validates_against_the_tree() {
    let dir = temp_dir("wrong-tree");
    let (path, _) = valid_file(&dir);
    let stored = StoredEpoch::open(&path, true).unwrap();
    // a different network: the arena slab length cannot match
    let other_bn = fixtures::figure1();
    let other_tree = build_junction_tree(&other_bn).unwrap();
    let Err(err) = rehydrate_engine(&other_tree, &stored) else {
        panic!("rehydration against the wrong tree must fail");
    };
    assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A file that does not fit the tree it is rehydrated against names
/// itself: an arena slab of another tree's length, and a shortcut node
/// list that is not a connected subtree, are both `CorruptStore` errors
/// whose path is the file.
#[test]
fn rehydration_errors_name_their_file() {
    let dir = temp_dir("named");
    let bn = fixtures::chain(8, 2, 1);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let rooted = engine.rooted();
    let ns = engine.numeric_state().unwrap();
    // one two-clique shortcut: a clique and its parent
    let (child, parent) = (0..tree.n_cliques())
        .find_map(|u| Some((u, rooted.parent(u)?)))
        .unwrap();
    let shortcut = Shortcut::from_nodes(&tree, rooted, vec![child, parent]).unwrap();
    let mat = Materialization::new(
        vec![MaterializedShortcut {
            shortcut,
            potential: None,
            benefit: 1.0,
            ratio: 1.0,
        }],
        true,
    );
    let path = dir.join("chain8.pnut");
    save(
        &path,
        &mat,
        &FlatMaterialization::pack(&mat),
        ns.arena().slab(),
    )
    .unwrap();
    let named = |err: PgmError| match err {
        PgmError::CorruptStore { path: named, .. } => named == path.display().to_string(),
        _ => false,
    };

    // another tree: chain(9, …) has a longer arena slab
    let longer = build_junction_tree(&fixtures::chain(9, 2, 1)).unwrap();
    let stored = StoredEpoch::open(&path, true).unwrap();
    let Err(err) = rehydrate_engine(&longer, &stored) else {
        panic!("rehydration against chain(9, …) must fail");
    };
    assert!(named(err.clone()), "{err:?}");

    // the same tree, the shortcut's parent clique swapped for one that
    // leaves its node list disconnected
    let apart = (0..tree.n_cliques())
        .find(|&w| Shortcut::from_nodes(&tree, rooted, vec![child, w]).is_err())
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let nodes_at = (10 + word(&bytes, 5) + 2) * 8;
    assert_eq!(word(&bytes[nodes_at..], 0), child.min(parent));
    assert_eq!(word(&bytes[nodes_at..], 1), child.max(parent));
    let slot = nodes_at + if parent > child { 8 } else { 0 };
    bytes[slot..slot + 8].copy_from_slice(&(apart as u64).to_le_bytes());
    let checksum = peanut_store::lane_checksum(&bytes[24..]);
    bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let stored = StoredEpoch::open(&path, true).unwrap();
    let Err(err) = rehydrate_engine(&tree, &stored) else {
        panic!("a disconnected node list must fail");
    };
    assert!(named(err.clone()), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random networks, random budgets: persist → rehydrate → serve is
    /// bit-identical to the in-RAM epoch and matches the VE oracle.
    #[test]
    fn random_epochs_round_trip(seed in 0u64..500, n in 5usize..9, budget in 64u64..2048) {
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 3,
            max_in_degree: 3,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let mat = select_mat(&bn, &tree, &engine, budget, seed).with_epoch(seed + 1);
        let dir = temp_dir(&format!("prop-{seed}-{n}-{budget}"));
        let path = dir.join("epoch.pnut");
        assert_round_trip(&bn, &tree, &engine, &mat, &path, seed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
