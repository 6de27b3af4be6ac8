//! Truncated-tail torture suite (ISSUE 6 tentpole): crash the log at an
//! arbitrary byte offset, recover, and demand the rebuilt window is
//! **bit-identical** to applying the surviving admitted-op prefix without
//! interruption. The prefix length is whatever `Recovery::generation`
//! reports — the invariant under test is that recovery never invents,
//! duplicates, reorders, or misparses a record: a torn or corrupted frame
//! (and everything after it) is discarded, full stop.
//!
//! Three crash families:
//!
//! * **truncation** — the file simply ends early (lost writes). Small
//!   stores are cut at *every* byte offset of *every* segment
//!   (exhaustive); a larger store is cut at a deterministic stride plus
//!   every offset in its final records (sampled).
//! * **corruption** — a byte is flipped in place (torn sector rewritten
//!   with junk). The CRC must reject the frame; the recovered state must
//!   still be an exact prefix.
//! * **mid-checkpoint crash** — the newest checkpoint file is torn or
//!   only its `.tmp` exists. Recovery must fall back to the previous
//!   checkpoint, and — because segment retention is keyed to the *older*
//!   kept checkpoint — still reach the full final generation.

use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_sliding::{SwConnEager, WindowCheckpoint};
use bimst_wal::{recover_dir, Checkpoint, Meta, Recovery, Store, Write};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bimst_wal_torture_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// A deterministic write script: the writes of a mixed op stream
/// (queries carry no durable state).
fn script(n: u32, ops: usize, seed: u64) -> Vec<Write> {
    let cfg = MixedConfig {
        n,
        topology: MixedTopology::ErdosRenyi,
        insert_batch: 3,
        query_batch: 1,
        queries_per_insert: 0,
        window: 8,
        tenants: 0,
    };
    MixedStream::new(cfg, seed)
        .filter_map(|op| match op {
            Op::Insert(edges) => Some(Write::Insert(edges)),
            Op::Expire(delta) => Some(Write::Expire(delta)),
            _ => None,
        })
        .take(ops)
        .collect()
}

fn apply(w: &mut SwConnEager, op: &Write) {
    match op {
        Write::Insert(edges) => {
            w.batch_insert(edges);
        }
        Write::Expire(delta) => w.batch_expire(*delta),
    }
}

/// The uninterrupted run: `prefix` ops applied one at a time.
fn replay_prefix(n: usize, seed: u64, ops: &[Write], prefix: usize) -> SwConnEager {
    let mut w = SwConnEager::new(n, seed);
    for op in &ops[..prefix] {
        apply(&mut w, op);
    }
    w
}

/// What recovery rebuilds: newest valid checkpoint + intact tail replay —
/// the same procedure `Service::recover` runs.
fn rebuild(meta: &Meta, rec: &Recovery) -> SwConnEager {
    assert!(meta.eager);
    let mut w = SwConnEager::new(meta.n as usize, meta.seed);
    if let Some(ck) = &rec.checkpoint {
        w.restore(&ck.edges, ck.tw, ck.t);
    }
    for op in &rec.tail {
        apply(&mut w, op);
    }
    w
}

/// Everything observable about a window: all-pairs connectivity, all
/// component sizes, the window position. "Bit-identical answers" means
/// these match.
fn fingerprint(w: &SwConnEager, n: u32) -> (Vec<bool>, Vec<usize>, (u64, u64)) {
    let mut conn = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            conn.push(w.is_connected(u, v));
        }
    }
    let sizes = (0..n).map(|v| w.msf().component_size(v)).collect();
    (conn, sizes, w.window())
}

/// Writes the whole script into a fresh store at `dir` with a checkpoint
/// every `ckpt_every` ops (0 = never), syncing each record so the pristine
/// image contains every byte the crash families then destroy.
fn run_store(dir: &Path, n: u32, seed: u64, ops: &[Write], ckpt_every: usize) -> SwConnEager {
    let meta = Meta {
        n: n as u64,
        seed,
        eager: true,
    };
    let mut store = Store::create(dir, &meta).unwrap();
    let mut w = SwConnEager::new(n as usize, seed);
    for (i, op) in ops.iter().enumerate() {
        store.append(op).unwrap();
        store.sync().unwrap();
        apply(&mut w, op);
        let generation = i as u64 + 1;
        if ckpt_every > 0 && (i + 1) % ckpt_every == 0 {
            let (tw, t) = w.window();
            store
                .checkpoint(&Checkpoint {
                    generation,
                    tw,
                    t,
                    edges: w.compact_edges(),
                })
                .unwrap();
        }
    }
    store.sync().unwrap();
    w
}

/// The invariant every crash family asserts: recovering the (damaged)
/// copy yields some prefix length `g ≤ ops.len()`, and the rebuilt window
/// fingerprints identically to the uninterrupted run of that prefix.
fn assert_prefix_equivalent(dir: &Path, n: u32, seed: u64, ops: &[Write], what: &str) -> u64 {
    let (meta, rec) = recover_dir(dir).unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    assert!(
        rec.generation <= ops.len() as u64,
        "{what}: recovered generation {} beyond the {} admitted ops",
        rec.generation,
        ops.len()
    );
    let got = fingerprint(&rebuild(&meta, &rec), n);
    let want = fingerprint(
        &replay_prefix(n as usize, seed, ops, rec.generation as usize),
        n,
    );
    assert_eq!(got, want, "{what}: recovered ≠ prefix replay");
    rec.generation
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

fn checkpoints(dir: &Path) -> Vec<PathBuf> {
    let mut cks: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    cks.sort();
    cks
}

/// Exhaustive: a small store (no checkpoints — the pure-tail path) is cut
/// at every byte offset of its only segment. The recovered generation must
/// also be *monotone* in the cut offset and reach the full count at the
/// intact length.
#[test]
fn exhaustive_truncation_of_a_small_log() {
    let (n, seed) = (10u32, 42u64);
    let ops = script(n, 12, seed);
    let pristine = tmpdir("exh_pristine");
    run_store(&pristine, n, seed, &ops, 0);

    let segs = segments(&pristine);
    assert_eq!(segs.len(), 1, "no checkpoints → no segment roll");
    let len = fs::metadata(&segs[0]).unwrap().len();
    let scratch = tmpdir("exh_scratch");

    let mut prev_gen = 0;
    for cut in 0..=len {
        let _ = fs::remove_dir_all(&scratch);
        copy_dir(&pristine, &scratch);
        let seg = segments(&scratch).pop().unwrap();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let g = assert_prefix_equivalent(&scratch, n, seed, &ops, &format!("cut at byte {cut}"));
        assert!(g >= prev_gen, "generation not monotone at cut {cut}");
        prev_gen = g;
    }
    assert_eq!(
        prev_gen,
        ops.len() as u64,
        "the intact log recovers every op"
    );
    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

/// Sampled: a larger, checkpointed, multi-segment store is cut at a
/// deterministic stride across *every* segment file (old segments too —
/// damage behind the checkpoint must not confuse recovery) plus every
/// offset inside the final 64 bytes, where torn tails actually land.
#[test]
fn sampled_truncation_of_a_checkpointed_log() {
    let (n, seed) = (24u32, 7u64);
    let ops = script(n, 120, seed);
    let pristine = tmpdir("samp_pristine");
    run_store(&pristine, n, seed, &ops, 16);
    assert!(
        checkpoints(&pristine).len() >= 2,
        "script too short to exercise retention"
    );

    let scratch = tmpdir("samp_scratch");
    for seg_ix in 0..segments(&pristine).len() {
        let len = fs::metadata(&segments(&pristine)[seg_ix]).unwrap().len();
        let tail_from = len.saturating_sub(64);
        let cuts = (0..tail_from).step_by(31).chain(tail_from..=len);
        for cut in cuts {
            let _ = fs::remove_dir_all(&scratch);
            copy_dir(&pristine, &scratch);
            OpenOptions::new()
                .write(true)
                .open(&segments(&scratch)[seg_ix])
                .unwrap()
                .set_len(cut)
                .unwrap();
            assert_prefix_equivalent(
                &scratch,
                n,
                seed,
                &ops,
                &format!("segment {seg_ix} cut at byte {cut}"),
            );
        }
    }
    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

/// Corruption: flip single bytes across the final segment (stride 7 —
/// hits length fields, CRCs, payloads, and the file magic). A flipped
/// record must be *discarded*, never misparsed into a different op.
#[test]
fn byte_flips_are_discarded_never_misparsed() {
    let (n, seed) = (12u32, 99u64);
    let ops = script(n, 40, seed);
    let pristine = tmpdir("flip_pristine");
    run_store(&pristine, n, seed, &ops, 16);

    let scratch = tmpdir("flip_scratch");
    let last_ix = segments(&pristine).len() - 1;
    let len = fs::metadata(&segments(&pristine)[last_ix]).unwrap().len();
    for at in (0..len).step_by(7) {
        let _ = fs::remove_dir_all(&scratch);
        copy_dir(&pristine, &scratch);
        let seg = segments(&scratch)[last_ix].clone();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[at as usize] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        assert_prefix_equivalent(&scratch, n, seed, &ops, &format!("flip at byte {at}"));
    }
    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

/// Mid-checkpoint crash: tear the *newest* checkpoint at every byte
/// offset. Recovery must fall back to the previous checkpoint — and since
/// retention keeps every segment from that older checkpoint onward, it
/// must still reach the full final generation, not a prefix.
#[test]
fn torn_newest_checkpoint_falls_back_to_previous() {
    let (n, seed) = (16u32, 5u64);
    let ops = script(n, 64, seed);
    let pristine = tmpdir("ckpt_pristine");
    run_store(&pristine, n, seed, &ops, 16);
    let cks = checkpoints(&pristine);
    assert!(cks.len() >= 2);
    let newest = cks.last().unwrap().file_name().unwrap().to_owned();
    let len = fs::metadata(cks.last().unwrap()).unwrap().len();

    let scratch = tmpdir("ckpt_scratch");
    for cut in 0..len {
        let _ = fs::remove_dir_all(&scratch);
        copy_dir(&pristine, &scratch);
        OpenOptions::new()
            .write(true)
            .open(scratch.join(&newest))
            .unwrap()
            .set_len(cut)
            .unwrap();
        let g = assert_prefix_equivalent(
            &scratch,
            n,
            seed,
            &ops,
            &format!("newest checkpoint cut at {cut}"),
        );
        assert_eq!(
            g,
            ops.len() as u64,
            "fallback checkpoint + retained segments must reach the full \
             generation (cut at {cut})"
        );
    }
    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

/// A crash *before* the atomic rename leaves only `<name>.tmp`. The scan
/// must treat it as unreferenced garbage and `Store::open` must delete it
/// while recovering everything.
#[test]
fn leftover_tmp_files_are_ignored_and_reaped() {
    let (n, seed) = (8u32, 3u64);
    let ops = script(n, 24, seed);
    let dir = tmpdir("tmpfile");
    run_store(&dir, n, seed, &ops, 8);

    let newest = checkpoints(&dir).pop().unwrap();
    let tmp = dir.join(format!(
        "{}.tmp",
        newest.file_name().unwrap().to_str().unwrap()
    ));
    // Half-written junk where the next checkpoint was headed.
    fs::write(&tmp, b"BWALCKP1 half-written garbage").unwrap();

    let g = assert_prefix_equivalent(&dir, n, seed, &ops, "tmp left behind");
    assert_eq!(g, ops.len() as u64);

    let (store, _, rec) = Store::open(&dir).unwrap();
    assert_eq!(rec.generation, ops.len() as u64);
    drop(store);
    assert!(!tmp.exists(), "open() reaps crash debris");
    fs::remove_dir_all(&dir).unwrap();
}

/// A lost segment *file* (not just a torn tail) leaves a hole in the
/// record sequence. Records past the hole are CRC-valid but sit at the
/// wrong stream positions, so the replay must cut **at the gap** and stand
/// exactly on the fallback checkpoint — replaying the survivors would be
/// the misparse this suite exists to rule out.
#[test]
fn a_missing_segment_cuts_at_the_gap() {
    let (n, seed) = (16u32, 11u64);
    let ops = script(n, 40, seed);
    let pristine = tmpdir("gap_pristine");
    run_store(&pristine, n, seed, &ops, 12);
    let cks = checkpoints(&pristine);
    assert!(cks.len() >= 2 && segments(&pristine).len() >= 2);
    let older_base: u64 = cks[cks.len() - 2]
        .file_stem()
        .unwrap()
        .to_str()
        .unwrap()
        .strip_prefix("ckpt-")
        .unwrap()
        .parse()
        .unwrap();

    let scratch = tmpdir("gap_scratch");
    copy_dir(&pristine, &scratch);
    // Tear the newest checkpoint so recovery must replay from the older
    // one, then delete the first segment of that replay range: the newer
    // segment's records now sit past a hole.
    let newest_ck = checkpoints(&scratch).pop().unwrap();
    OpenOptions::new()
        .write(true)
        .open(&newest_ck)
        .unwrap()
        .set_len(10)
        .unwrap();
    fs::remove_file(&segments(&scratch)[0]).unwrap();

    let g = assert_prefix_equivalent(&scratch, n, seed, &ops, "hole in the replay range");
    assert_eq!(
        g, older_base,
        "recovery must stop at the gap, not replay past the hole"
    );
    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}
