//! The on-disk store: a directory of CRC-framed files plus the recovery
//! scan that reads them back after a crash.
//!
//! Layout (all files start with an 8-byte magic, then CRC-framed payloads
//! — see [`crate::frame`]):
//!
//! * `meta` — immutable identity, written once at create time via
//!   tmp-file + rename: vertex count, structure seed, expiry discipline.
//!   [`Store::open`] refuses a store whose meta is unreadable (identity is
//!   not guessable), but every *log* file degrades gracefully.
//! * `wal-<g>.seg` — one record per applied write group, appended by the
//!   service's writer thread. `<g>` is the generation the segment starts
//!   at; records are generations `g, g+1, …` in order, so segment name +
//!   record index = generation, with no per-record header.
//! * `ckpt-<g>.ckpt` — a compacted checkpoint of the admitted-op prefix up
//!   to generation `g` (window endpoints + the retained MSF edges — the
//!   recent-edge property makes that prefix-equivalent; see
//!   `bimst_sliding::WindowCheckpoint`). Written via tmp + rename, so a
//!   crash mid-checkpoint leaves the previous checkpoint intact.
//!
//! **Recovery** ([`recover_dir`] read-only, [`Store::open`] to resume
//! appending) = newest fully-CRC-valid checkpoint + replay of the segment
//! records from its generation on. Torn or corrupted suffixes are
//! discarded at the last intact record; a corrupted newest checkpoint
//! falls back to the previous one (retention always keeps the newest two
//! checkpoints and the segments reaching back to the older of them).
//! `Store::open` then truncates the torn suffix and deletes dead files so
//! the resumed log stays linear.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use bimst_graphgen::Op;

use crate::codec;
use crate::frame::{write_frame, Frames};

/// Bytes of file-magic overhead at the head of every store file.
pub const FILE_HEADER: usize = 8;

const MAGIC_META: &[u8; FILE_HEADER] = b"BWALMET1";
const MAGIC_SEG: &[u8; FILE_HEADER] = b"BWALSEG1";
const MAGIC_CKPT: &[u8; FILE_HEADER] = b"BWALCKP1";
const META: &str = "meta";

/// When the writer thread forces WAL appends to stable storage. What an
/// *acked* (admitted) but not yet synced op means under each policy is
/// spelled out per variant; "lost" always means lost to a machine crash —
/// an orderly shutdown syncs under every policy, and answers never reflect
/// un-applied ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// One record + one fsync per admitted write op, before it is applied
    /// (group commit is disabled so the record boundary *is* the op
    /// boundary). An acked write is durable as soon as it is visible to
    /// any query: a crash loses at most ops still queued, never applied
    /// ones.
    Always,
    /// One record + one fsync per applied write group (the
    /// `write_budget`-merged batch): the fsync cost amortizes over the
    /// group exactly like the structural batch bound. A crash loses at
    /// most the groups whose fsync had not returned — acked-but-unsynced
    /// ops may vanish on crash, but recovery still ends at a group
    /// boundary (prefix of the admitted sequence), never mid-group.
    GroupCommit,
    /// Append records but never fsync on the admission path (the OS
    /// flushes when it pleases). In-memory-speed admission; a crash may
    /// lose any acked suffix of the stream. Orderly shutdown still syncs,
    /// so this is "durable across restarts, best-effort across crashes".
    None,
}

/// Immutable identity of a store, fixed at [`Store::create`]: what
/// `Service::recover` needs to rebuild the right structure before
/// replaying ops into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta {
    /// Vertex count of the served window structure.
    pub n: u64,
    /// Structure seed (answers are seed-independent, but recovery rebuilds
    /// with the original seed so internal shapes match too).
    pub seed: u64,
    /// `true` for eager expiry (`SwConnEager`), `false` for lazy
    /// (`SwConn`).
    pub eager: bool,
    /// `true` when the store is (or would be) tagged as backing a
    /// multi-tenant window set. Durable recovery of a tenant registry
    /// (its tenant windows and expiry floor) is future work, so the tag
    /// exists only to fail loudly: [`Store::create`] refuses to create a
    /// tenant-tagged store and every recovery entry point refuses to open
    /// one, instead of silently rebuilding a single-window structure under
    /// a registry that was never logged.
    pub tenants: bool,
}

impl Meta {
    /// Checks this (stored) identity against a caller-supplied
    /// expectation. `Err` names every disagreeing field, so a recovery
    /// pointed at the wrong directory reports *what* is wrong (vertex
    /// count, seed, expiry discipline, tenant tag) rather than silently
    /// rebuilding a structure the caller's config does not describe.
    pub fn matches(&self, expect: &Meta) -> Result<(), String> {
        let disc = |eager: bool| if eager { "eager" } else { "lazy" };
        let mut bad: Vec<String> = Vec::new();
        if self.n != expect.n {
            bad.push(format!("n {} != expected {}", self.n, expect.n));
        }
        if self.seed != expect.seed {
            bad.push(format!(
                "seed {:#x} != expected {:#x}",
                self.seed, expect.seed
            ));
        }
        if self.eager != expect.eager {
            bad.push(format!(
                "discipline {} != expected {}",
                disc(self.eager),
                disc(expect.eager)
            ));
        }
        if self.tenants != expect.tenants {
            bad.push(format!(
                "tenant tag {} != expected {}",
                self.tenants, expect.tenants
            ));
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join(", "))
        }
    }
}

/// A compacted prefix of the admitted-op sequence: everything a fresh
/// structure needs to answer exactly like one that applied generations
/// `0..generation` op by op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of applied write groups (= WAL records) the checkpoint
    /// covers; replay resumes at this generation.
    pub generation: u64,
    /// Window left endpoint at the checkpoint.
    pub tw: u64,
    /// Next stream position at the checkpoint.
    pub t: u64,
    /// Retained MSF edges as `(τ, u, v)`, τ strictly ascending.
    pub edges: Vec<(u64, u32, u32)>,
}

/// What a recovery scan found: the state to rebuild and the ops to replay
/// on top of it. The default is a fresh store's: nothing to rebuild.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Newest fully-valid checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Intact records after the checkpoint, in generation order. The
    /// service only logs writes, but the scan returns whatever decodes.
    pub tail: Vec<Op>,
    /// Generation to resume at: checkpoint generation + `tail.len()`.
    pub generation: u64,
}

fn seg_name(g: u64) -> String {
    format!("wal-{g:020}.seg")
}

fn ckpt_name(g: u64) -> String {
    format!("ckpt-{g:020}.ckpt")
}

fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Best-effort directory fsync (makes renames and new files durable on
/// POSIX; a platform where directories cannot be opened just skips it).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` to `dir/name` atomically: tmp file, fsync, rename,
/// directory fsync. A crash leaves either the old file or the new one,
/// never a torn hybrid.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir);
    Ok(())
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bimst-wal: {what}"))
}

fn tenants_unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "bimst-wal: tenant-tagged store: durable recovery of a tenant \
         registry (tenant windows, expiry floor) is not \
         implemented — serve tenant window sets in-memory",
    )
}

/// Reads the single framed payload of a magic-headed file; `None` when the
/// file is missing, torn, or fails its CRC (log files degrade gracefully).
fn read_framed(path: &Path, magic: &[u8; FILE_HEADER]) -> Option<Vec<u8>> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < FILE_HEADER || &bytes[..FILE_HEADER] != magic {
        return None;
    }
    let mut frames = Frames::new(&bytes[FILE_HEADER..]);
    let payload = frames.next_frame()?;
    // Exactly one frame: trailing bytes mean the file is not what the
    // writer produces, so treat it as corrupt rather than guessing.
    if frames.valid_len() != bytes.len() - FILE_HEADER {
        return None;
    }
    Some(payload.to_vec())
}

fn encode_meta(meta: &Meta, out: &mut Vec<u8>) {
    out.extend_from_slice(&meta.n.to_le_bytes());
    out.extend_from_slice(&meta.seed.to_le_bytes());
    out.push(meta.eager as u8);
    out.push(meta.tenants as u8);
}

fn decode_meta(payload: &[u8]) -> Option<Meta> {
    // 17-byte payloads predate the tenant tag; absence means untagged.
    let tenants = match payload.len() {
        17 => false,
        18 if payload[17] <= 1 => payload[17] == 1,
        _ => return None,
    };
    if payload[16] > 1 {
        return None;
    }
    Some(Meta {
        n: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
        seed: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
        eager: payload[16] == 1,
        tenants,
    })
}

fn encode_ckpt(ck: &Checkpoint, out: &mut Vec<u8>) {
    out.extend_from_slice(&ck.generation.to_le_bytes());
    out.extend_from_slice(&ck.tw.to_le_bytes());
    out.extend_from_slice(&ck.t.to_le_bytes());
    out.extend_from_slice(&(ck.edges.len() as u64).to_le_bytes());
    for &(tau, u, v) in &ck.edges {
        out.extend_from_slice(&tau.to_le_bytes());
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_ckpt(payload: &[u8]) -> Option<Checkpoint> {
    if payload.len() < 32 {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(payload[8 * i..8 * i + 8].try_into().unwrap());
    let count = word(3) as usize;
    if payload.len() != 32 + count.checked_mul(16)? {
        return None;
    }
    let mut edges = Vec::with_capacity(count);
    for k in 0..count {
        let at = 32 + 16 * k;
        edges.push((
            u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()),
            u32::from_le_bytes(payload[at + 8..at + 12].try_into().unwrap()),
            u32::from_le_bytes(payload[at + 12..at + 16].try_into().unwrap()),
        ));
    }
    Some(Checkpoint {
        generation: word(0),
        tw: word(1),
        t: word(2),
        edges,
    })
}

/// Everything one pass over the directory learns; shared by the read-only
/// and resuming entry points so they cannot disagree.
struct Scan {
    meta: Meta,
    checkpoint: Option<Checkpoint>,
    tail: Vec<Op>,
    generation: u64,
    /// Segment appends resume into: (start generation, path, valid bytes).
    resume: Option<(u64, PathBuf, u64)>,
    /// Files the scan proved dead: segments past a tear and `*.tmp` files.
    dead: Vec<PathBuf>,
}

fn scan(dir: &Path) -> io::Result<Scan> {
    let meta = read_framed(&dir.join(META), MAGIC_META)
        .as_deref()
        .and_then(decode_meta)
        .ok_or_else(|| corrupt("store meta missing or corrupt (not a WAL store?)"))?;
    if meta.tenants {
        // A tenant-tagged store can only come from a foreign writer:
        // Store::create refuses to make one precisely because recovery
        // of a tenant registry is future work. Refusing here covers every
        // entry point (open, open_expecting, recover_dir) at once.
        return Err(tenants_unsupported());
    }

    let mut ckpt_gens: Vec<u64> = Vec::new();
    let mut seg_gens: Vec<u64> = Vec::new();
    let mut dead: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = parse_gen(name, "ckpt-", ".ckpt") {
            ckpt_gens.push(g);
        } else if let Some(g) = parse_gen(name, "wal-", ".seg") {
            seg_gens.push(g);
        } else if name.ends_with(".tmp") {
            // A crash mid-atomic-write: the rename never happened, so the
            // content is unreferenced by definition.
            dead.push(entry.path());
        }
    }

    // Newest checkpoint that reads back fully valid wins; a torn or
    // corrupted one falls back to its predecessor (retention keeps two).
    ckpt_gens.sort_unstable_by(|a, b| b.cmp(a));
    let mut checkpoint = None;
    for &g in &ckpt_gens {
        if let Some(ck) = read_framed(&dir.join(ckpt_name(g)), MAGIC_CKPT)
            .as_deref()
            .and_then(decode_ckpt)
        {
            if ck.generation == g {
                checkpoint = Some(ck);
                break;
            }
        }
    }
    let base = checkpoint.as_ref().map_or(0, |c: &Checkpoint| c.generation);

    seg_gens.sort_unstable();
    let mut tail = Vec::new();
    let mut generation = base;
    let mut resume: Option<(u64, PathBuf, u64)> = None;
    let mut cut = false;
    for &sg in seg_gens.iter().filter(|&&g| g >= base) {
        let path = dir.join(seg_name(sg));
        // Segments are rolled exactly at checkpoints, so the next segment
        // must start exactly where the record sequence stands. Past a tear
        // — or a gap, which means a lost file — nothing is trustworthy.
        if cut || sg != generation {
            dead.push(path);
            cut = true;
            continue;
        }
        let bytes = fs::read(&path)?;
        let mut valid = 0usize;
        if bytes.len() >= FILE_HEADER && &bytes[..FILE_HEADER] == MAGIC_SEG {
            let data = &bytes[FILE_HEADER..];
            let mut frames = Frames::new(data);
            loop {
                let before = frames.valid_len();
                match frames.next_frame().map(codec::decode_op) {
                    Some(Ok(op)) => {
                        tail.push(op);
                        generation += 1;
                    }
                    // CRC-valid but undecodable payload: corruption; the
                    // record and everything after it is dead.
                    Some(Err(_)) => {
                        valid = before;
                        cut = true;
                        break;
                    }
                    None => {
                        valid = frames.valid_len();
                        cut = frames.valid_len() != data.len();
                        break;
                    }
                }
            }
            valid += FILE_HEADER;
        } else {
            // Magic torn or missing: an empty segment for resume purposes.
            cut = true;
        }
        resume = Some((sg, path, valid as u64));
    }

    Ok(Scan {
        meta,
        checkpoint,
        tail,
        generation,
        resume,
        dead,
    })
}

/// Read-only recovery: what a [`Store::open`] of `dir` would rebuild,
/// without touching any file (the torture suite runs it against crashed
/// copies).
pub fn recover_dir(dir: impl AsRef<Path>) -> io::Result<(Meta, Recovery)> {
    let s = scan(dir.as_ref())?;
    Ok((
        s.meta,
        Recovery {
            checkpoint: s.checkpoint,
            tail: s.tail,
            generation: s.generation,
        },
    ))
}

/// Metric handles for the store's hot paths, cached at attach time so the
/// append/sync paths never touch a registry. Observe-only: recording never
/// changes what gets written or when.
struct WalObs {
    /// `wal_records_appended`: one per appended record (== one per applied
    /// write group under the service's log-before-apply discipline).
    records: bimst_obs::Counter,
    /// `wal_bytes_appended`: framed bytes written to the segment.
    bytes: bimst_obs::Counter,
    /// `wal_fsync_ns`: latency of each [`Store::sync`].
    fsync: bimst_obs::Histogram,
    /// `wal_checkpoint_ns`: duration of each non-trivial checkpoint
    /// (install + segment roll + retention).
    checkpoint: bimst_obs::Histogram,
}

/// An open, appendable WAL store. One writer at a time (the service's
/// writer thread); the file cursor is the append position.
pub struct Store {
    dir: PathBuf,
    seg: File,
    /// Generation the current segment starts at (its name).
    seg_start: u64,
    /// Scratch for one record's payload / frame, reused across appends.
    payload: Vec<u8>,
    frame: Vec<u8>,
    /// Metric handles, when a recorder has been attached.
    obs: Option<WalObs>,
}

impl Store {
    /// Creates a fresh store in `dir` (created if missing; must not
    /// already hold a store).
    pub fn create(dir: impl AsRef<Path>, meta: &Meta) -> io::Result<Store> {
        if meta.tenants {
            // Refuse before touching the filesystem: a caller asking for a
            // durable tenant registry must get a loud error, not a store
            // that silently logs only the single-window subset of its
            // state. (See `Meta::tenants`.)
            return Err(tenants_unsupported());
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(META).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "bimst-wal: store already exists (Store::open recovers it)",
            ));
        }
        let mut payload = Vec::new();
        encode_meta(meta, &mut payload);
        let mut bytes = MAGIC_META.to_vec();
        write_frame(&mut bytes, &payload);
        write_atomic(&dir, META, &bytes)?;
        let seg = new_segment(&dir, 0)?;
        sync_dir(&dir);
        Ok(Store {
            dir,
            seg,
            seg_start: 0,
            payload: Vec::new(),
            frame: Vec::new(),
            obs: None,
        })
    }

    /// Registers this store's metrics (`wal_records_appended`,
    /// `wal_bytes_appended`, `wal_fsync_ns`, `wal_checkpoint_ns`) on
    /// `rec` and starts recording into them. Call once, before serving.
    pub fn attach_obs(&mut self, rec: &bimst_obs::Recorder) {
        self.obs = Some(WalObs {
            records: rec.counter("wal_records_appended"),
            bytes: rec.counter("wal_bytes_appended"),
            fsync: rec.histogram("wal_fsync_ns"),
            checkpoint: rec.histogram("wal_checkpoint_ns"),
        });
    }

    /// Recovers the store in `dir` and prepares it for appending: the torn
    /// suffix (if any) is truncated away, dead files are deleted, and the
    /// returned [`Recovery`] holds the state to rebuild. The caller
    /// replays `tail` and resumes at `generation` — appends continue the
    /// record sequence exactly there.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Store, Meta, Recovery)> {
        Store::open_impl(dir.as_ref(), None)
    }

    /// [`Store::open`], but the caller states the identity it expects the
    /// store to have. Any disagreement between the stored `meta` and
    /// `expect` — vertex count, seed, expiry discipline — is a loud
    /// [`io::ErrorKind::InvalidInput`] naming the mismatched fields,
    /// raised **before** any file is touched, instead of trusting the
    /// store and silently rebuilding a structure the caller's recover
    /// config does not describe.
    pub fn open_expecting(
        dir: impl AsRef<Path>,
        expect: &Meta,
    ) -> io::Result<(Store, Meta, Recovery)> {
        Store::open_impl(dir.as_ref(), Some(expect))
    }

    fn open_impl(dir: &Path, expect: Option<&Meta>) -> io::Result<(Store, Meta, Recovery)> {
        let dir = dir.to_path_buf();
        let s = scan(&dir)?;
        if let Some(expect) = expect {
            if let Err(why) = s.meta.matches(expect) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "bimst-wal: store at {} is not the one the recover \
                         config describes: {why}",
                        dir.display()
                    ),
                ));
            }
        }
        for p in &s.dead {
            let _ = fs::remove_file(p);
        }
        let (seg, seg_start) = match s.resume {
            Some((g, path, valid)) => {
                let mut f = OpenOptions::new().read(true).write(true).open(&path)?;
                if valid < FILE_HEADER as u64 {
                    // Even the magic was torn: rewrite the header.
                    f.set_len(0)?;
                    f.write_all(MAGIC_SEG)?;
                } else {
                    f.set_len(valid)?;
                }
                f.sync_all()?;
                f.seek(SeekFrom::End(0))?;
                (f, g)
            }
            // No segment at or past the checkpoint (e.g. crash between
            // checkpoint rename and segment roll): start a fresh one.
            None => (new_segment(&dir, s.generation)?, s.generation),
        };
        sync_dir(&dir);
        Ok((
            Store {
                dir,
                seg,
                seg_start,
                payload: Vec::new(),
                frame: Vec::new(),
                obs: None,
            },
            s.meta,
            Recovery {
                checkpoint: s.checkpoint,
                tail: s.tail,
                generation: s.generation,
            },
        ))
    }

    /// Appends one record (no fsync — see [`Store::sync`]).
    pub fn append_op(&mut self, op: &Op) -> io::Result<()> {
        self.payload.clear();
        codec::encode_op(op, &mut self.payload);
        self.write_record()
    }

    /// Appends one `Insert` record from the writer's merged group buffer.
    pub fn append_insert(&mut self, edges: &[(u32, u32)]) -> io::Result<()> {
        self.payload.clear();
        codec::encode_insert(edges, &mut self.payload);
        self.write_record()
    }

    /// Appends one `Expire` record.
    pub fn append_expire(&mut self, delta: u64) -> io::Result<()> {
        self.payload.clear();
        codec::encode_expire(delta, &mut self.payload);
        self.write_record()
    }

    fn write_record(&mut self) -> io::Result<()> {
        self.frame.clear();
        write_frame(&mut self.frame, &self.payload);
        if let Some(o) = &self.obs {
            o.records.inc();
            o.bytes.add(self.frame.len() as u64);
        }
        self.seg.write_all(&self.frame)
    }

    /// Forces every appended record to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        let _span = self.obs.as_ref().map(|o| o.fsync.time());
        self.seg.sync_data()
    }

    /// Installs a checkpoint and rolls the segment: syncs the current
    /// segment (the checkpointed prefix must not out-survive its cover),
    /// writes `ckpt-<g>.ckpt` atomically, starts `wal-<g>.seg` for the
    /// records that follow, then applies retention — keep the newest two
    /// checkpoints and every segment needed to recover from the older one,
    /// so a torn newest checkpoint always has a fallback.
    pub fn checkpoint(&mut self, ck: &Checkpoint) -> io::Result<()> {
        if ck.generation == self.seg_start {
            // No records since the last roll: the existing checkpoint (or
            // empty store) already covers this state.
            return Ok(());
        }
        let ck_hist = self.obs.as_ref().map(|o| o.checkpoint.clone());
        let _span = ck_hist.as_ref().map(bimst_obs::Histogram::time);
        self.sync()?;
        self.payload.clear();
        encode_ckpt(ck, &mut self.payload);
        let mut bytes = MAGIC_CKPT.to_vec();
        write_frame(&mut bytes, &self.payload);
        write_atomic(&self.dir, &ckpt_name(ck.generation), &bytes)?;
        self.seg = new_segment(&self.dir, ck.generation)?;
        self.seg_start = ck.generation;
        sync_dir(&self.dir);

        // Retention (best-effort: a failed delete only costs disk).
        let mut ckpts: Vec<u64> = Vec::new();
        let mut segs: Vec<u64> = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(g) = parse_gen(name, "ckpt-", ".ckpt") {
                    ckpts.push(g);
                } else if let Some(g) = parse_gen(name, "wal-", ".seg") {
                    segs.push(g);
                }
            }
        }
        ckpts.sort_unstable_by(|a, b| b.cmp(a));
        let keep_from = ckpts.get(1).copied().unwrap_or(0);
        for &g in ckpts.iter().skip(2) {
            let _ = fs::remove_file(self.dir.join(ckpt_name(g)));
        }
        for &g in segs.iter().filter(|&&g| g < keep_from) {
            let _ = fs::remove_file(self.dir.join(seg_name(g)));
        }
        Ok(())
    }
}

/// Creates `wal-<g>.seg` with its magic, synced.
fn new_segment(dir: &Path, g: u64) -> io::Result<File> {
    let mut f = File::create(dir.join(seg_name(g)))?;
    f.write_all(MAGIC_SEG)?;
    f.sync_all()?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_HEADER;

    fn tmpdir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bimst_wal_store_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    #[test]
    fn create_append_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let meta = Meta {
            n: 64,
            seed: 9,
            eager: true,
            tenants: false,
        };
        let mut store = Store::create(&dir, &meta).unwrap();
        assert!(
            Store::create(&dir, &meta).is_err(),
            "double create must refuse"
        );
        let ops = vec![
            Op::Insert(vec![(0, 1), (1, 2)]),
            Op::Expire(1),
            Op::Insert(vec![(2, 3)]),
        ];
        for op in &ops {
            store.append_op(op).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (mut store, got_meta, rec) = Store::open(&dir).unwrap();
        assert_eq!(got_meta, meta);
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.tail, ops);
        assert_eq!(rec.generation, 3);

        // Appends resume the same record sequence.
        store.append_expire(2).unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, rec2) = recover_dir(&dir).unwrap();
        assert_eq!(rec2.generation, 4);
        assert_eq!(rec2.tail[3], Op::Expire(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_splits_prefix_from_tail() {
        let dir = tmpdir("ckpt");
        let meta = Meta {
            n: 8,
            seed: 1,
            eager: false,
            tenants: false,
        };
        let mut store = Store::create(&dir, &meta).unwrap();
        store.append_insert(&[(0, 1)]).unwrap();
        store.append_insert(&[(1, 2)]).unwrap();
        let ck = Checkpoint {
            generation: 2,
            tw: 0,
            t: 2,
            edges: vec![(0, 0, 1), (1, 1, 2)],
        };
        store.checkpoint(&ck).unwrap();
        store.append_expire(1).unwrap();
        store.sync().unwrap();
        drop(store);

        let (_, rec) = recover_dir(&dir).unwrap();
        assert_eq!(rec.checkpoint, Some(ck));
        assert_eq!(rec.tail, vec![Op::Expire(1)]);
        assert_eq!(rec.generation, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_a_fallback_checkpoint() {
        let dir = tmpdir("retain");
        let meta = Meta {
            n: 8,
            seed: 1,
            eager: true,
            tenants: false,
        };
        let mut store = Store::create(&dir, &meta).unwrap();
        for g in 1..=4u64 {
            store.append_insert(&[(0, g as u32)]).unwrap();
            store
                .checkpoint(&Checkpoint {
                    generation: g,
                    tw: 0,
                    t: g,
                    edges: vec![],
                })
                .unwrap();
        }
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let ckpts = names.iter().filter(|n| n.starts_with("ckpt-")).count();
        assert_eq!(ckpts, 2, "exactly the newest two checkpoints survive");
        assert!(
            !names.contains(&seg_name(0)) && !names.contains(&seg_name(1)),
            "segments before the fallback checkpoint are reclaimed"
        );
        // Destroy the newest checkpoint: recovery falls back to g=3 and
        // replays the g=3 segment's record.
        fs::remove_file(dir.join(ckpt_name(4))).unwrap();
        let (_, rec) = recover_dir(&dir).unwrap();
        assert_eq!(rec.checkpoint.as_ref().unwrap().generation, 3);
        assert_eq!(rec.tail, vec![Op::Insert(vec![(0, 4)])]);
        assert_eq!(rec.generation, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_ignored_and_cleaned() {
        let dir = tmpdir("tmpfiles");
        let meta = Meta {
            n: 4,
            seed: 2,
            eager: true,
            tenants: false,
        };
        let mut store = Store::create(&dir, &meta).unwrap();
        store.append_insert(&[(0, 1)]).unwrap();
        store.sync().unwrap();
        drop(store);
        // Simulate a crash mid-checkpoint: a half-written tmp file.
        fs::write(
            dir.join("ckpt-00000000000000000001.ckpt.tmp"),
            b"BWALCKP1gar",
        )
        .unwrap();
        let (store, _, rec) = Store::open(&dir).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.generation, 1);
        drop(store);
        assert!(
            !dir.join("ckpt-00000000000000000001.ckpt.tmp").exists(),
            "open cleans tmp leftovers"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_corrupt_meta_is_a_hard_error() {
        let dir = tmpdir("badmeta");
        fs::create_dir_all(&dir).unwrap();
        assert!(Store::open(&dir).is_err(), "no meta: not a store");
        fs::write(dir.join(META), b"BWALMET1 but then garbage").unwrap();
        assert!(Store::open(&dir).is_err(), "corrupt meta must not guess");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Frame-size arithmetic used by the torture suite must match the
    /// writer: a record is FRAME_HEADER + encoded_len bytes.
    #[test]
    fn record_sizes_are_predictable() {
        let dir = tmpdir("sizes");
        let meta = Meta {
            n: 4,
            seed: 3,
            eager: true,
            tenants: false,
        };
        let mut store = Store::create(&dir, &meta).unwrap();
        let ops = [Op::Insert(vec![(0, 1), (2, 3)]), Op::Expire(7)];
        for op in &ops {
            store.append_op(op).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let expect: usize = FILE_HEADER
            + ops
                .iter()
                .map(|op| FRAME_HEADER + codec::encoded_len(op))
                .sum::<usize>();
        let got = fs::metadata(dir.join(seg_name(0))).unwrap().len();
        assert_eq!(got as usize, expect);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Durable tenant registries are future work, so the tag must be a
    /// loud `Unsupported` everywhere: `create` refuses to make a tagged
    /// store (before touching the filesystem), and every recovery entry
    /// point refuses to open one that a foreign writer produced.
    #[test]
    fn tenant_tagged_stores_are_refused_everywhere() {
        let dir = tmpdir("tenants");
        let meta = Meta {
            n: 8,
            seed: 1,
            eager: false,
            tenants: true,
        };
        let err = Store::create(&dir, &meta).err().expect("tagged create");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(!dir.exists(), "refusal must leave no store behind");

        // Hand-craft the tagged store create refuses to make.
        fs::create_dir_all(&dir).unwrap();
        let mut payload = Vec::new();
        encode_meta(&meta, &mut payload);
        let mut bytes = MAGIC_META.to_vec();
        write_frame(&mut bytes, &payload);
        fs::write(dir.join(META), &bytes).unwrap();
        let err = Store::open(&dir).err().expect("tagged open");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        let err = recover_dir(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Pre-tenant-tag stores carry a 17-byte meta; they must keep opening
    /// (as untagged), while anything else stays corrupt.
    #[test]
    fn legacy_17_byte_meta_still_decodes() {
        let meta = Meta {
            n: 64,
            seed: 9,
            eager: true,
            tenants: false,
        };
        let mut payload = Vec::new();
        encode_meta(&meta, &mut payload);
        assert_eq!(payload.len(), 18);
        assert_eq!(decode_meta(&payload), Some(meta));
        assert_eq!(decode_meta(&payload[..17]), Some(meta), "legacy width");
        let mut bad = payload.clone();
        bad[17] = 2;
        assert_eq!(decode_meta(&bad), None, "non-boolean tenant byte");
        bad.push(0);
        assert_eq!(decode_meta(&bad[..16]), None);
        assert_eq!(decode_meta(&bad), None, "over-long meta");
    }

    /// `open_expecting` pins recovery to the caller's config: a store
    /// whose identity disagrees is rejected (naming every bad field)
    /// before any file is mutated, instead of being trusted silently.
    #[test]
    fn open_expecting_rejects_identity_mismatch() {
        let dir = tmpdir("expect");
        let meta = Meta {
            n: 64,
            seed: 9,
            eager: true,
            tenants: false,
        };
        let mut store = Store::create(&dir, &meta).unwrap();
        store.append_insert(&[(0, 1)]).unwrap();
        store.sync().unwrap();
        drop(store);

        let (store, got, rec) = Store::open_expecting(&dir, &meta).unwrap();
        assert_eq!(got, meta);
        assert_eq!(rec.generation, 1);
        drop(store);

        let wrong = Meta {
            n: 63,
            seed: 10,
            eager: false,
            tenants: false,
        };
        let err = Store::open_expecting(&dir, &wrong).err().expect("mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(
            msg.contains("n 64 != expected 63")
                && msg.contains("seed")
                && msg.contains("discipline eager != expected lazy"),
            "every disagreeing field is named: {msg}"
        );
        // The refusal must not have mutated anything: the store still
        // opens cleanly under its true identity.
        let (_, _, rec) = Store::open_expecting(&dir, &meta).unwrap();
        assert_eq!(rec.generation, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
