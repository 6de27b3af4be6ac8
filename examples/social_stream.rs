//! Serving a mixed read/write workload over a social interaction stream —
//! through the real serving path (`bimst-service`), with the write stream
//! logged to a write-ahead log so the window survives the process.
//!
//! ```sh
//! cargo run --release --example social_stream
//! ```
//!
//! The scenario from the paper's motivation, at the serving shape the
//! ROADMAP targets: an endless stream of interactions (edges) where only
//! the most recent window matters, interleaved with *batches of queries* —
//! "are these two users connected right now?", "how big is this user's
//! community?", "how stale is the link between them?" — submitted to a
//! persistent sharded runtime rather than driven inline:
//!
//! * a `MixedStream` generates the op mix and is drained straight into the
//!   service (it is an iterator of ops; `ServiceHandle::submit_op` is the
//!   channel adapter);
//! * the service's writer thread owns the `SwConnEager` window, group-
//!   commits the write batches, and logs every applied write group to the
//!   WAL (one fsync per merged group under the default `GroupCommit`
//!   policy) *before* applying it;
//! * the writer answers each query ticket between two write groups — the
//!   `generation` stamp on every answer says exactly which prefix of the
//!   write stream it reflects;
//! * shutdown drains: every admitted ticket resolves before the structure
//!   is dropped — and then the demo **recovers**: `Service::recover`
//!   rebuilds the window from the log (newest checkpoint + tail replay)
//!   and resumes serving at the exact generation the first incarnation
//!   reached, which the spot queries at the end run against.

use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_service::{QueryReq, QueryResp, Service, ServiceConfig};
use bimst_sliding::TenantSpec;

/// Prints the phase's metrics digest and schema-validates both exports —
/// the JSON must round-trip through the offline bench parser with every
/// `required` metric present, and every Prometheus line must be a
/// comment or a `bimst_`-prefixed sample. The CI smoke run leans on
/// these asserts: a rename or a malformed export fails the example, not
/// just a dashboard somewhere.
fn report_metrics(phase: &str, snap: &bimst_obs::Snapshot, required: &[&str]) {
    if !bimst_obs::enabled() {
        println!("\n[{phase}] metrics: recording disabled");
        return;
    }
    let json = snap.to_json();
    let doc = bimst_bench::json::parse(&json).expect("snapshot JSON parses");
    let lookup = |name: &str| {
        ["counters", "gauges"]
            .iter()
            .find_map(|sect| doc.get(sect)?.get(name)?.as_f64())
            .or_else(|| doc.get("histograms")?.get(name)?.get("count")?.as_f64())
    };
    for name in required {
        assert!(
            lookup(name).is_some(),
            "[{phase}] metric {name} missing from the exported snapshot"
        );
    }
    for line in snap.to_prometheus().lines() {
        assert!(
            line.starts_with("# TYPE bimst_")
                || (line.starts_with("bimst_") && line.rsplit(' ').next().is_some()),
            "[{phase}] malformed Prometheus line: {line}"
        );
    }
    println!("\n[{phase}] metrics snapshot (JSON + Prometheus exports validated):");
    for name in required {
        println!("  {name:<34} {}", lookup(name).unwrap_or(0.0));
    }
}

fn main() {
    let n = 2_000u32;
    let seed = 1u64;
    let cfg = MixedConfig {
        n,
        topology: MixedTopology::PowerLaw, // hubs, like a real social graph
        insert_batch: 1_000,
        query_batch: 512,
        queries_per_insert: 3, // one batch each: connected / path-max / size
        window: 6_000,         // keep the last 6k interactions
        tenants: 0,            // the durable phase serves one window
    };
    let svc_cfg = ServiceConfig {
        queue_cap: 64,
        write_budget: cfg.insert_batch,
        // Defaults: sync = GroupCommit (one fsync per merged write group),
        // periodic compacted checkpoints.
        ..ServiceConfig::default()
    };
    let mut stream = MixedStream::new(cfg, 99);

    // The durable log lives in a directory; a real deployment would point
    // this at persistent storage.
    let dir = std::env::temp_dir().join(format!("bimst_social_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::eager_durable(&dir, n as usize, seed, svc_cfg).expect("create WAL store");

    println!(
        "serving {n}-vertex interaction stream: window = {}, {} writes + 3×{} queries per round,\n\
         one writer thread behind a bounded queue, WAL at {}\n",
        cfg.window,
        cfg.insert_batch,
        cfg.query_batch,
        dir.display()
    );
    println!(
        "{:>6} {:>4} {:>9} {:>11} {:>13} {:>12}",
        "round", "gen", "arrived", "connected%", "max-comp-size", "oldest-link"
    );

    let mut round = 0u64;
    let mut arrived = 0u64;
    let mut generation = 0u64;
    let (mut connected_pct, mut max_comp, mut oldest) = (0.0f64, 0usize, None::<u64>);
    while round < 12 {
        let op = stream.next_op();
        let is_expire = matches!(op, Op::Expire(_));
        if let Op::Insert(batch) = &op {
            arrived += batch.len() as u64;
        }
        // A closed-loop client: submit each query batch, await its
        // answers. (Concurrent clients would pipeline their tickets and
        // let the writer coalesce the queued batches.)
        if let Some(t) = svc.submit_op(op).expect("service alive") {
            let answered = t.wait().expect("admitted queries are answered");
            generation = answered.generation;
            match answered.resp {
                QueryResp::WindowConnected(hits) => {
                    connected_pct =
                        100.0 * hits.iter().filter(|&&c| c).count() as f64 / hits.len() as f64;
                }
                QueryResp::ComponentSize(sizes) => {
                    max_comp = sizes.into_iter().max().unwrap_or(0);
                }
                QueryResp::PathMax(keys) => {
                    // Recency weights are −τ, so the path *maximum* is the
                    // oldest link on the connecting path: a staleness probe.
                    oldest = keys.into_iter().flatten().map(|k| k.id).min();
                }
                // This stream is built without fold ops (`MixedStream::new`).
                _ => {}
            }
        }
        if is_expire {
            let stale = oldest.map_or("-".into(), |tau| format!("τ={tau}"));
            println!(
                "{round:>6} {generation:>4} {arrived:>9} {connected_pct:>10.1}% {max_comp:>13} {stale:>12}"
            );
            round += 1;
        }
    }

    // Crash-free shutdown: drain (nothing admitted is lost), final sync.
    // The barrier reads the generation the writer actually reached (the
    // last *answered query*'s stamp is older: writes kept landing).
    let final_gen = svc
        .barrier()
        .expect("service alive")
        .wait()
        .expect("barrier resolves");
    // The snapshot rides the same admission queue as the ops it counts,
    // so it covers exactly the phase's workload. `wal_records_appended`
    // equals the generation: one log record per applied write group.
    report_metrics(
        "durable serving",
        &svc.metrics_snapshot().expect("service alive"),
        &[
            "service_write_groups",
            "service_generation",
            "service_queries_window_connected",
            "service_answer_ns_window_connected",
            "service_merge_width_ops",
            "service_queue_depth",
            "wal_records_appended",
            "wal_fsync_ns",
            "engine_rounds",
            "query_batch_size",
        ],
    );
    svc.shutdown();
    println!("\nshutdown at generation {final_gen}; recovering from the log...");

    // Recovery: rebuild from the newest checkpoint + WAL tail. The store
    // remembers its own identity (n, seed, expiry discipline); serving
    // resumes at the recovered generation.
    let svc = Service::recover(&dir, svc_cfg).expect("recover from WAL");
    let recovered = svc
        .barrier()
        .expect("service alive")
        .wait()
        .expect("barrier resolves");
    println!("recovered at generation {recovered} — spot queries against the restored window:");

    // A final hand-written spot batch through the recovered serving path.
    let pairs = vec![(0u32, 1u32), (10, 20), (100, 1999)];
    let answers = svc
        .query(QueryReq::WindowConnected(pairs.clone()))
        .expect("service alive")
        .wait()
        .expect("answered");
    let hits = answers.resp.into_window_connected().unwrap();
    for ((u, v), c) in pairs.iter().zip(hits) {
        println!("  connected({u}, {v}) = {c}");
    }
    assert_eq!(
        recovered, final_gen,
        "recovery must resume exactly where the shutdown left off"
    );
    // A fresh incarnation, a fresh recorder: only the spot queries above
    // have landed, and the generation gauge shows the recovered value.
    report_metrics(
        "recovery",
        &svc.metrics_snapshot().expect("service alive"),
        &[
            "service_generation",
            "service_queries_window_connected",
            "service_submitted_ops",
        ],
    );
    svc.shutdown();
    std::fs::remove_dir_all(&dir).expect("clean up the demo log");

    // --- Multi-tenant serving: two logical windows over one stream ---
    //
    // Two products watch the same interaction firehose with very different
    // retention: the feed ranker wants the full 6k-interaction window, the
    // abuse detector only the freshest 256. One shared structure serves
    // both through per-tenant cutoffs behind the same service, with the
    // stream's tenant-tagged query batches routed by `submit_op`.
    println!("\nmulti-tenant phase: feed window 6000 vs abuse window 256, one stream:");
    let specs = [
        TenantSpec {
            id: 0,
            window: 6_000,
        }, // feed ranker
        TenantSpec { id: 1, window: 256 }, // abuse detector
    ];
    let tsvc = Service::tenants(n as usize, seed, &specs, svc_cfg);
    let tcfg_stream = MixedConfig {
        queries_per_insert: 2, // connectivity batches rotate tenants 0, 1
        tenants: 2,
        ..cfg
    };
    let mut per_tenant_hits = [0usize; 2];
    let mut per_tenant_total = [0usize; 2];
    for op in MixedStream::new(tcfg_stream, 7).take(60) {
        let tenant = match &op {
            Op::TenantConnectedQueries(t, _) => Some(*t),
            _ => None,
        };
        if let Some(t) = tsvc.submit_op(op).expect("service alive") {
            let answered = t.wait().expect("admitted queries are answered");
            if let (Some(tenant), QueryResp::WindowConnected(hits)) = (tenant, answered.resp) {
                per_tenant_hits[tenant as usize] += hits.iter().filter(|&&c| c).count();
                per_tenant_total[tenant as usize] += hits.len();
            }
        }
    }
    for (t, label) in [(0usize, "feed (ℓ=6000)"), (1, "abuse (ℓ=256)")] {
        println!(
            "  tenant {t} {label:>14}: {:>5.1}% of sampled pairs connected",
            100.0 * per_tenant_hits[t] as f64 / per_tenant_total[t].max(1) as f64
        );
    }
    // The shorter window can only see a subset of the longer one's edges
    // (nested suffixes), so its hit rate cannot exceed the feed's.
    assert!(
        per_tenant_hits[1] * per_tenant_total[0] <= per_tenant_hits[0] * per_tenant_total[1],
        "a nested shorter window cannot be better-connected than the full one"
    );
    // The tenant snapshot folds the `TenantSet`'s own recorder in: the
    // cutoff-lag histogram (τ_tenant − τ_shared per advance).
    report_metrics(
        "multi-tenant",
        &tsvc.metrics_snapshot().expect("service alive"),
        &["service_queries_tenant_connected", "tenant_cutoff_lag"],
    );
    tsvc.shutdown();
}
