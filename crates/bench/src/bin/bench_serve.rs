//! Machine-readable perf trajectory for the sharded serving runtime.
//!
//! Emits `BENCH_serve.json` (in the current directory): what the
//! `bimst-service` channel architecture — admission queue, writer thread,
//! group commit, coalescing, reader-pool fan-out — costs and buys relative
//! to driving the *identical op stream* inline on the caller thread (one
//! `SwConnEager` + one `QueryBatch`, the PR 3 unsharded serving shape).
//! Every PR that touches the service, the query engine, or the channel
//! protocol should re-run this and commit the refreshed file:
//!
//! ```sh
//! cargo run --release -p bimst-bench --bin bench_serve
//! ```
//!
//! Shape: two `SwConnEager` windows over n = 1,000,000 vertices (same
//! structure seed), driven round-for-round by two identical
//! `MixedStream`s (same stream seed): one through a `Service`, one inline
//! — the paired same-run baseline (`engine: "inline"` rows). Each round
//! interleaves one insert batch of 4,096, six query batches (three kinds ×
//! two measurement modes), and one expiry:
//!
//! * **Pipelined mode** (first three query batches): submitted together,
//!   awaited together — the writer can group-commit and coalesce. The
//!   whole round's wall time becomes the `kind: "round"` rows (sustained
//!   mixed throughput, ns per op over insert edges + all queries).
//! * **Latency mode** (last three): submit → wait, one at a time. Per
//!   batch admission-to-answer time becomes the per-kind rows
//!   (`window_connected` / `path_max` / `component_size`), with the
//!   `batch_median` / `batch_p99` / `batch_max` tail columns that gate
//!   reviews (means advise; see ROADMAP). For the inline engine,
//!   admission-to-answer is pure compute — the difference *is* the
//!   serving stack's overhead.
//! * `kind: "insert"` rows: service = submit + write barrier
//!   (admission-to-applied); inline = `batch_insert` wall time. ns/edge.
//!
//! The harness also cross-checks every latency-mode answer against the
//! inline engine (same seeds ⇒ same state ⇒ answers must be identical), so
//! a run doubles as an end-to-end protocol check at full scale.
//!
//! Two more paired families ride along: `kind: "wal_insert"` rows price
//! the durability admission path per sync policy against an in-memory
//! twin, and `kind: "obs_insert"` / `"obs_query"` rows price the
//! compiled-in `bimst-obs` instrumentation against a twin running with
//! the process-wide kill switch off (`obs: "on"/"off"`, `pair: "obs"`).
//!
//! Scale knobs (positional): `bench_serve [n] [window] [rounds] [readers]`.
//! `--stage-breakdown` additionally embeds a `stage_breakdown` object
//! (fsync p99, merge width, queue depth max, …) snapshot from the WAL
//! service's recorder. CI runs a tiny instance as a smoke test; committed
//! numbers use the defaults.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bimst_bench::Samples;
use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_query::QueryBatch;
use bimst_service::{Answered, Service, ServiceConfig, SyncPolicy};
use bimst_sliding::SwConnEager;

const INSERT_BATCH: usize = 4096;
const STRUCT_SEED: u64 = 7;
const STREAM_SEED: u64 = 42;

/// Three pipelined query batches, then three latency-mode ones, per round.
const QUERIES_PER_INSERT: usize = 6;

fn stream(n: usize, window: u64, qbatch: usize) -> MixedStream {
    MixedStream::new(
        MixedConfig {
            n: n as u32,
            topology: MixedTopology::ErdosRenyi,
            insert_batch: INSERT_BATCH,
            query_batch: qbatch,
            queries_per_insert: QUERIES_PER_INSERT,
            window,
            tenants: 0,
        },
        STREAM_SEED,
    )
}

fn structure(n: usize, window: u64) -> SwConnEager {
    SwConnEager::with_edge_capacity(n, STRUCT_SEED, (window as usize).min(n.saturating_sub(1)))
}

/// Per-engine measurement cells for one configuration.
#[derive(Default)]
struct Cells {
    conn: Samples,
    pm: Samples,
    cs: Samples,
    insert: Samples,
    round: Samples,
}

impl Cells {
    fn rows(&mut self, engine: &str, qbatch: usize) -> Vec<String> {
        vec![
            self.conn.row("window_connected", engine, qbatch),
            self.pm.row("path_max", engine, qbatch),
            self.cs.row("component_size", engine, qbatch),
            self.insert
                .row_as("insert", engine, qbatch, "edges", "ns_per_edge"),
            self.round
                .row_as("round", engine, qbatch, "ops", "ns_per_op"),
        ]
    }
}

/// Number of queries in a query op (0 for writes).
fn op_len(op: &Op) -> usize {
    match op {
        Op::ConnectedQueries(q)
        | Op::PathMaxQueries(q)
        | Op::TenantConnectedQueries(_, q)
        | Op::PathFoldQueries(_, q) => q.len(),
        Op::ComponentSizeQueries(q) => q.len(),
        _ => 0,
    }
}

/// The inline (unsharded, channel-free) engine: the paired baseline.
struct Inline {
    w: SwConnEager,
    q: QueryBatch,
}

impl Inline {
    /// Runs one query op and returns its answers (for the cross-check).
    fn answer(&mut self, op: &Op) -> Answered {
        let resp = match op {
            Op::ConnectedQueries(qs) => bimst_service::QueryResp::WindowConnected(
                self.q.batch_window_connected(&self.w, qs),
            ),
            Op::PathMaxQueries(qs) => {
                let h = bimst_query::ReadHandle::new(self.w.msf());
                bimst_service::QueryResp::PathMax(self.q.batch_path_max(h, qs))
            }
            Op::ComponentSizeQueries(vs) => {
                let h = bimst_query::ReadHandle::new(self.w.msf());
                bimst_service::QueryResp::ComponentSize(self.q.batch_component_size(h, vs))
            }
            _ => unreachable!("answer() is only called on query ops"),
        };
        Answered {
            generation: 0,
            resp,
        }
    }
}

/// Drives one `(qbatch, rounds)` configuration end to end and returns its
/// JSON rows: service and inline engines interleaved round-for-round so
/// host noise hits both alike.
fn run_config(n: usize, window: u64, rounds: usize, qbatch: usize, readers: usize) -> Vec<String> {
    let svc_cfg = ServiceConfig {
        readers,
        queue_cap: 64,
        write_budget: INSERT_BATCH,
        ..ServiceConfig::default()
    };
    let svc = Service::start(structure(n, window), svc_cfg);
    let mut inl = Inline {
        w: structure(n, window),
        q: QueryBatch::new(),
    };
    let mut svc_stream = stream(n, window, qbatch);
    let mut inl_stream = stream(n, window, qbatch);

    let ops_per_round = 2 + QUERIES_PER_INSERT;
    let round_items = INSERT_BATCH + QUERIES_PER_INSERT * qbatch;
    let warm_rounds = (window / INSERT_BATCH as u64 + 2) as usize;

    // Warmup until the window slides: both engines process every op so
    // arenas, maps, and scratch reach steady state before timing starts.
    for _ in 0..warm_rounds * ops_per_round {
        match svc_stream.next_op() {
            op @ (Op::Insert(_) | Op::Expire(_)) => {
                svc.submit_op(op).expect("service alive");
            }
            op => {
                let t = svc.submit_op(op).expect("service alive").unwrap();
                black_box(t.wait().expect("service answers"));
            }
        }
        match inl_stream.next_op() {
            Op::Insert(b) => {
                inl.w.batch_insert(&b);
            }
            Op::Expire(d) => inl.w.batch_expire(d),
            op => {
                black_box(inl.answer(&op));
            }
        }
    }

    let mut svc_cells = Cells::default();
    let mut inl_cells = Cells::default();

    for _ in 0..rounds {
        // --- service round ---
        let ops: Vec<Op> = (0..ops_per_round).map(|_| svc_stream.next_op()).collect();
        let mut qseen = 0usize;
        let mut pipelined = Vec::new();
        // Latency-mode answers, kept for the cross-check against the
        // inline engine's answers to the twin ops.
        let mut svc_answers: Vec<Answered> = Vec::new();
        let t_round = Instant::now();
        for op in &ops {
            match op {
                Op::Insert(b) => {
                    let t0 = Instant::now();
                    svc.insert(b.clone()).expect("service alive");
                    svc.barrier()
                        .expect("service alive")
                        .wait()
                        .expect("barrier resolves");
                    svc_cells.insert.record(t0.elapsed().as_secs_f64(), b.len());
                }
                Op::Expire(d) => svc.expire(*d).expect("service alive"),
                q => {
                    qseen += 1;
                    if qseen <= 3 {
                        // Pipelined: queue now, await after the triple.
                        pipelined.push(svc.submit_op(q.clone()).expect("service alive").unwrap());
                        if qseen == 3 {
                            for t in pipelined.drain(..) {
                                black_box(t.wait().expect("service answers"));
                            }
                        }
                    } else {
                        // Latency mode: admission-to-answer, one at a time.
                        let cell = match q {
                            Op::ConnectedQueries(_) => &mut svc_cells.conn,
                            Op::PathMaxQueries(_) => &mut svc_cells.pm,
                            _ => &mut svc_cells.cs,
                        };
                        let t0 = Instant::now();
                        let ticket = svc.submit_op(q.clone()).expect("service alive").unwrap();
                        let answered = ticket.wait().expect("service answers");
                        cell.record(t0.elapsed().as_secs_f64(), op_len(q));
                        svc_answers.push(answered);
                    }
                }
            }
        }
        svc_cells
            .round
            .record(t_round.elapsed().as_secs_f64(), round_items);

        // --- inline round (identical ops from the twin stream) ---
        let iops: Vec<Op> = (0..ops_per_round).map(|_| inl_stream.next_op()).collect();
        let mut qseen = 0usize;
        let mut check_idx = 0usize;
        let t_round = Instant::now();
        for op in &iops {
            match op {
                Op::Insert(b) => {
                    let t0 = Instant::now();
                    inl.w.batch_insert(b);
                    inl_cells.insert.record(t0.elapsed().as_secs_f64(), b.len());
                }
                Op::Expire(d) => inl.w.batch_expire(*d),
                q => {
                    qseen += 1;
                    if qseen <= 3 {
                        black_box(inl.answer(q));
                    } else {
                        let cell = match q {
                            Op::ConnectedQueries(_) => &mut inl_cells.conn,
                            Op::PathMaxQueries(_) => &mut inl_cells.pm,
                            _ => &mut inl_cells.cs,
                        };
                        let t0 = Instant::now();
                        let answered = inl.answer(q);
                        cell.record(t0.elapsed().as_secs_f64(), op_len(q));
                        // Same seeds, same state: served answers must be
                        // bit-identical to the inline engine's.
                        let served = &svc_answers[check_idx];
                        check_idx += 1;
                        assert_eq!(
                            served.resp, answered.resp,
                            "service answers diverged from the inline engine"
                        );
                    }
                }
            }
        }
        inl_cells
            .round
            .record(t_round.elapsed().as_secs_f64(), round_items);
    }

    svc.shutdown();
    let mut rows = svc_cells.rows("service", qbatch);
    rows.extend(inl_cells.rows("inline", qbatch));
    for r in &rows {
        eprintln!("qbatch={qbatch}: {r}");
    }
    rows
}

/// The admission-path cost of durability (`kind: "wal_insert"` rows): for
/// one sync policy, a WAL-backed service and an in-memory twin (`sync:
/// "off"`, tagged `pair: <policy>`) drive identical write streams
/// interleaved round-for-round — the paired same-run protocol of the
/// query phase, applied to the write path. Each sample is one insert
/// batch, submit-to-applied (write barrier), so it prices exactly what
/// the WAL adds in front of `batch_insert`: encode + append under
/// `GroupCommit`/`None`, plus the fsync under `Always`/`GroupCommit`.
fn run_wal_config(
    n: usize,
    window: u64,
    rounds: usize,
    readers: usize,
    sync: SyncPolicy,
    capture_breakdown: bool,
) -> (Vec<String>, Option<String>) {
    let tag = match sync {
        SyncPolicy::Always => "always",
        SyncPolicy::GroupCommit => "group_commit",
        SyncPolicy::None => "none",
    };
    let dir = std::env::temp_dir().join(format!("bimst_bench_wal_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc_cfg = ServiceConfig {
        readers,
        queue_cap: 64,
        write_budget: INSERT_BATCH,
        sync,
        // Off: checkpoint compaction cost is a different axis; these rows
        // price the per-batch logging overhead alone.
        checkpoint_every: 0,
    };
    let wal =
        Service::eager_durable(&dir, n, STRUCT_SEED, svc_cfg).expect("create bench WAL store");
    let off = Service::eager(n, STRUCT_SEED, svc_cfg);
    let mut wal_stream = stream(n, window, 1);
    let mut off_stream = stream(n, window, 1);

    let mut wal_cell = Samples::default();
    let mut off_cell = Samples::default();
    let warm = (window / INSERT_BATCH as u64 + 2) as usize;
    for round in 0..warm + rounds {
        for (svc, s, cell) in [
            (&wal, &mut wal_stream, &mut wal_cell),
            (&off, &mut off_stream, &mut off_cell),
        ] {
            loop {
                match s.next_op() {
                    Op::Insert(b) => {
                        let len = b.len();
                        let t0 = Instant::now();
                        svc.insert(b).expect("service alive");
                        svc.barrier()
                            .expect("service alive")
                            .wait()
                            .expect("barrier resolves");
                        if round >= warm {
                            cell.record(t0.elapsed().as_secs_f64(), len);
                        }
                        break; // one insert batch per engine per round
                    }
                    Op::Expire(d) => svc.expire(d).expect("service alive"),
                    _ => {} // write-path bench: skip query ops
                }
            }
        }
    }
    // `--stage-breakdown`: snapshot the WAL service's recorder before it
    // drains, so the emitted JSON carries the stage-level obs columns for
    // exactly the run that produced the rows.
    let breakdown =
        capture_breakdown.then(|| breakdown_block(&wal.metrics_snapshot().expect("service alive")));
    wal.shutdown();
    off.shutdown();
    std::fs::remove_dir_all(&dir).expect("clean bench WAL store");

    let extra_wal = format!("\"sync\": \"{tag}\", \"pair\": \"{tag}\"");
    let extra_off = format!("\"sync\": \"off\", \"pair\": \"{tag}\"");
    let rows = vec![
        wal_cell.row_with(
            "wal_insert",
            "service",
            0,
            "edges",
            "ns_per_edge",
            &extra_wal,
        ),
        off_cell.row_with(
            "wal_insert",
            "service",
            0,
            "edges",
            "ns_per_edge",
            &extra_off,
        ),
    ];
    for r in &rows {
        eprintln!("wal sync={tag}: {r}");
    }
    (rows, breakdown)
}

/// Formats the `--stage-breakdown` JSON object from a service snapshot:
/// the stage-level obs columns (fsync tail, merge width, queue depth)
/// that `bench_schema` validates when the block is present. Missing
/// metrics (e.g. an `obs`-off build) render as zeros, keeping the block
/// shape stable.
fn breakdown_block(snap: &bimst_obs::Snapshot) -> String {
    let hist = |name: &str| snap.histogram(name).unwrap_or_default();
    let ctr = |name: &str| snap.counter(name).unwrap_or(0);
    let fsync = hist("wal_fsync_ns");
    let merge = hist("service_merge_width_ops");
    let depth = hist("service_queue_depth");
    let serve = hist("service_serve_ns");
    format!(
        "{{\"wal_fsync_p99_ns\": {}, \"wal_fsync_count\": {}, \
          \"wal_records\": {}, \"wal_bytes\": {}, \
          \"merge_width_p50\": {}, \"merge_width_max\": {}, \
          \"queue_depth_max\": {}, \"serve_p99_ns\": {}}}",
        fsync.p99,
        fsync.count,
        ctr("wal_records_appended"),
        ctr("wal_bytes_appended"),
        merge.p50,
        merge.max,
        depth.max,
        serve.p99,
    )
}

/// The observability tax (`kind: "obs_insert"` / `"obs_query"` rows): two
/// in-memory services drive identical streams interleaved
/// round-for-round, one recording and one with the process-wide kill
/// switch off (`bimst_obs::set_enabled(false)`) — the compiled-in
/// instrumentation priced by the standing paired same-run protocol. Rows
/// carry `obs: "on"/"off"` and `pair: "obs"`; the schema gate requires
/// the pair and reviews hold the batch_median delta within the noise
/// band (±5%), which is what "metrics are observe-only" means in
/// numbers.
fn run_obs_config(n: usize, window: u64, rounds: usize, readers: usize) -> Vec<String> {
    const QBATCH: usize = 64;
    let svc_cfg = ServiceConfig {
        readers,
        queue_cap: 64,
        write_budget: INSERT_BATCH,
        ..ServiceConfig::default()
    };
    let on = Service::start(structure(n, window), svc_cfg);
    let off = Service::start(structure(n, window), svc_cfg);
    let mut on_stream = stream(n, window, QBATCH);
    let mut off_stream = stream(n, window, QBATCH);

    let mut on_ins = Samples::default();
    let mut off_ins = Samples::default();
    let mut on_q = Samples::default();
    let mut off_q = Samples::default();

    let ops_per_round = 2 + QUERIES_PER_INSERT;
    let warm = (window / INSERT_BATCH as u64 + 2) as usize;
    for round in 0..warm + rounds {
        for (svc, s, enabled, ins, qcell) in [
            (&on, &mut on_stream, true, &mut on_ins, &mut on_q),
            (&off, &mut off_stream, false, &mut off_ins, &mut off_q),
        ] {
            // The switch is process-wide; every submission below is
            // awaited (barrier / ticket), so the writer processes it
            // while the switch still holds this engine's state.
            bimst_obs::set_enabled(enabled);
            for _ in 0..ops_per_round {
                match s.next_op() {
                    Op::Insert(b) => {
                        let len = b.len();
                        let t0 = Instant::now();
                        svc.insert(b).expect("service alive");
                        svc.barrier()
                            .expect("service alive")
                            .wait()
                            .expect("barrier resolves");
                        if round >= warm {
                            ins.record(t0.elapsed().as_secs_f64(), len);
                        }
                    }
                    Op::Expire(d) => svc.expire(d).expect("service alive"),
                    q => {
                        let len = op_len(&q);
                        let t0 = Instant::now();
                        let ticket = svc.submit_op(q).expect("service alive").unwrap();
                        black_box(ticket.wait().expect("service answers"));
                        if round >= warm {
                            qcell.record(t0.elapsed().as_secs_f64(), len);
                        }
                    }
                }
            }
        }
    }
    bimst_obs::set_enabled(true);
    on.shutdown();
    off.shutdown();

    let rows = vec![
        on_ins.row_with(
            "obs_insert",
            "service",
            QBATCH,
            "edges",
            "ns_per_edge",
            "\"obs\": \"on\", \"pair\": \"obs\"",
        ),
        off_ins.row_with(
            "obs_insert",
            "service",
            QBATCH,
            "edges",
            "ns_per_edge",
            "\"obs\": \"off\", \"pair\": \"obs\"",
        ),
        on_q.row_with(
            "obs_query",
            "service",
            QBATCH,
            "queries",
            "ns_per_query",
            "\"obs\": \"on\", \"pair\": \"obs\"",
        ),
        off_q.row_with(
            "obs_query",
            "service",
            QBATCH,
            "queries",
            "ns_per_query",
            "\"obs\": \"off\", \"pair\": \"obs\"",
        ),
    ];
    for r in &rows {
        eprintln!("obs pair: {r}");
    }
    rows
}

fn main() {
    let raw: Vec<String> = std::env::args().collect();
    let breakdown_wanted = raw.iter().any(|a| a == "--stage-breakdown");
    let args: Vec<&String> = raw.iter().filter(|a| !a.starts_with("--")).collect();
    let n: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let window: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1 << 18);
    let rounds: usize = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
        .max(1);
    let readers: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(2);
    let all = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Process-level warmup, as in bench_json / bench_mixed.
    eprintln!("warmup...");
    run_config(n, window, 1, 64, readers);

    let mut rows: Vec<String> = Vec::new();
    for (qbatch, mult) in [(1usize, 8usize), (64, 2), (4096, 1)] {
        rows.extend(run_config(n, window, rounds * mult, qbatch, readers));
    }
    // Durability pricing: each sync policy against its own in-memory twin.
    // 6× rounds: these rows gate on batch_p99, and with fewer samples the
    // ceiling-index percentile degenerates to batch_max — a single
    // scheduler spike on a 1-CPU host would decide the gate.
    let mut breakdown: Option<String> = None;
    for sync in [
        SyncPolicy::Always,
        SyncPolicy::GroupCommit,
        SyncPolicy::None,
    ] {
        // The breakdown block comes from the GroupCommit run: it is the
        // default policy, and its snapshot exercises every stage column.
        let capture = breakdown_wanted && matches!(sync, SyncPolicy::GroupCommit);
        let (r, b) = run_wal_config(n, window, rounds * 6, readers, sync, capture);
        rows.extend(r);
        breakdown = breakdown.or(b);
    }
    // Observability pricing: recording on vs the kill switch off, same
    // paired protocol (6× rounds, same percentile reasoning as above).
    rows.extend(run_obs_config(n, window, rounds * 6, readers));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"window\": {window},");
    let _ = writeln!(json, "  \"insert_batch\": {INSERT_BATCH},");
    let _ = writeln!(json, "  \"readers\": {readers},");
    let _ = writeln!(json, "  \"host_threads\": {all},");
    let _ = writeln!(
        json,
        "  \"unit\": \"ns_per_query (query kinds: admission-to-answer), ns_per_edge (insert: admission-to-applied via write barrier for the service), ns_per_op (round: sustained mixed throughput incl. pipelined batches)\","
    );
    let _ = writeln!(
        json,
        "  \"baseline\": \"engine=inline rows drive the identical op stream (same structure and stream seeds) on the caller thread — one SwConnEager + one QueryBatch, no channels — interleaved round-for-round with the service in the same run (paired same-day); latency-mode answers are asserted bit-identical across engines. kind=wal_insert rows price the durability admission path: for each sync policy (sync=always/group_commit/none) a WAL-backed service is interleaved round-for-round with an in-memory twin (sync=off) tagged pair=<policy> in the same run\","
    );
    if let Some(b) = &breakdown {
        let _ = writeln!(json, "  \"stage_breakdown\": {b},");
    }
    json.push_str("  \"measurements\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    {r}{comma}");
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");
}
