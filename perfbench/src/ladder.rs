//! The traced run: the workload's system once more with spans on every
//! other unit, then the same op stream down every rung of the ladder.
//!
//! Each rung runs the identical client loop on the identical units, so the
//! difference between two rungs' medians is what the upper layer adds
//! ("tax"). Per-layer counts come from `bimst-obs` snapshots taken around
//! the measured units of each rung.

use std::io;

use bimst_obs::Snapshot;

use crate::cli::Opts;
use crate::drive::{
    compare, corrupt, pass, recover_check, setup, PassOut, Recovered, TraceMode, Tracer, Until,
};
use crate::e2e::remove_store;
use crate::report::Outcome;
use crate::shape::{Kind, Rung, Workload};
use crate::stats::{ratio, Stats};

/// Share of `--seconds` the traced pass of the system under test runs for;
/// each rung then drives as many units as it measured.
const SUT_SHARE: f64 = 0.4;

/// Runs the ladder and returns every per-layer metric.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    let shape = opts.workload.shape(opts.tiny);
    let mut tracer = Tracer::default();
    let mut out = Outcome::default();

    let dir = opts.store_dir(0);
    let mut s = setup(shape.system, &shape, opts.seed, &dir)?;
    let mut sut = pass(
        &mut s,
        &shape,
        Until::Seconds(opts.seconds * SUT_SHARE),
        TraceMode::Alternate,
        &mut tracer,
        "sut",
    );
    s.layer.shutdown();
    remove_store(&dir)?;
    if opts.inject_fault {
        if let Some(a) = sut.answers.first_mut().and_then(|(_, a)| a.first_mut()) {
            corrupt(&mut a.resp);
        }
    }
    out.attempted += sut.attempted;
    out.failed += sut.failed;

    let mut rungs: Vec<PassOut> = Vec::new();
    let mut recovered = Recovered::default();
    for (i, rung) in Rung::ALL.into_iter().enumerate() {
        let dir = opts.store_dir(i + 1);
        let mut s = setup(rung, &shape, opts.seed, &dir)?;
        let p = pass(
            &mut s,
            &shape,
            Until::Units(sut.units),
            TraceMode::All,
            &mut tracer,
            rung.name(),
        );
        out.attempted += p.attempted;
        out.failed += p.failed;
        // The inline rung is the reference every other pass is held to.
        let (compared, bad) = match rungs.first() {
            None => compare(&sut.answers, &p.answers),
            Some(reference) => compare(&p.answers, &reference.answers),
        };
        out.attempted += compared;
        out.failed += bad;
        if rung == Rung::DurableService {
            recovered = recover_check(s.layer, &shape, opts.seed, &dir, false)?;
            out.attempted += recovered.attempted;
            out.failed += recovered.failed;
        } else {
            s.layer.shutdown();
        }
        remove_store(&dir)?;
        rungs.push(p);
    }

    let path = opts.scratch.join(format!(
        "spans-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    tracer.write(&path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );

    metrics(&mut out, opts.workload, &sut, &rungs, &recovered);
    Ok(out)
}

fn counter(p: &PassOut, name: &str) -> f64 {
    let get = |s: &Snapshot| s.counter(name).unwrap_or(0) as f64;
    get(&p.after) - get(&p.before)
}

/// (count, sum) recorded into a histogram during the measured units.
fn hist(p: &PassOut, name: &str) -> (f64, f64) {
    let get = |s: &Snapshot| {
        s.histogram(name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    };
    let (a, b) = (get(&p.before), get(&p.after));
    (b.0 - a.0, b.1 - a.1)
}

fn hist_mean(p: &PassOut, name: &str) -> f64 {
    let (count, sum) = hist(p, name);
    ratio(sum, count)
}

/// The end-to-end median the ladder accounts for: commit latency on the
/// write-dominated workload, batch latency (mean of the kinds' medians) on
/// the read-dominated ones.
fn primary(w: Workload, s: &Stats) -> f64 {
    match w {
        Workload::Ingest => s.commit_p50_ms() * 1e3,
        Workload::ServeSmall | Workload::Analytics => s.query_p50_us(),
    }
}

fn metrics(out: &mut Outcome, w: Workload, sut: &PassOut, rungs: &[PassOut], rec: &Recovered) {
    let [inline, svc, dur, reps] = [0, 1, 2, 3].map(|i| &rungs[i]);
    let (il, sv, du, rp) = (&inline.traced, &svc.traced, &dur.traced, &reps.traced);

    let groups = (il.inserts + il.expires) as f64;
    out.put(
        "sliding.insert_us_per_edge",
        ratio(il.insert_ns as f64 / 1e3, il.edges as f64),
        "us/edge",
    );
    out.put(
        "sliding.expire_us_per_edge",
        ratio(il.expire_ns as f64 / 1e3, il.expired as f64),
        "us/edge",
    );
    out.put("sliding.rebuild_s", rec.recover_s - rec.read_s, "s");
    out.put(
        "core.rounds_per_group",
        ratio(counter(inline, "engine_rounds"), groups),
        "count",
    );
    out.put(
        "core.frontier_per_group",
        ratio(hist(inline, "engine_frontier").1, groups),
        "count",
    );
    out.put(
        "core.propagate_share",
        ratio(hist(inline, "engine_propagate_ns").1, il.insert_ns as f64),
        "ratio",
    );

    for (k, name) in Kind::ALL.into_iter().zip(QUERY_US) {
        out.put(name, il.kind_p50_us(k), "us");
    }
    let grouped = counter(inline, "query_plan_grouped");
    out.put(
        "query.grouped_frac",
        ratio(grouped, grouped + counter(inline, "query_plan_direct")),
        "ratio",
    );
    let path_batches = (il.batches(Kind::PathMax) + il.batches(Kind::Fold)) as f64;
    out.put(
        "query.cpt_chunks_per_batch",
        ratio(counter(inline, "query_pathmax_chunks"), path_batches),
        "count",
    );

    for (k, name) in Kind::ALL.into_iter().zip(SERVICE_TAX_US) {
        out.put(name, sv.kind_p50_us(k) - il.kind_p50_us(k), "us");
    }
    out.put(
        "service.commit_tax_ms",
        sv.commit_p50_ms() - il.commit_p50_ms(),
        "ms",
    );
    out.put(
        "service.merge_width_mean",
        hist_mean(svc, "service_merge_width_ops"),
        "count",
    );
    out.put(
        "service.groups_per_commit",
        ratio(counter(svc, "service_write_groups"), sv.units as f64),
        "count",
    );
    out.put(
        "service.queue_depth_mean",
        hist_mean(svc, "service_queue_depth"),
        "count",
    );

    out.put(
        "wal.commit_tax_ms",
        du.commit_p50_ms() - sv.commit_p50_ms(),
        "ms",
    );
    out.put(
        "wal.bytes_per_edge",
        ratio(counter(dur, "wal_bytes_appended"), du.edges as f64),
        "B/edge",
    );
    out.put(
        "wal.fsyncs_per_group",
        ratio(
            hist(dur, "wal_fsync_ns").0,
            counter(dur, "service_write_groups"),
        ),
        "count",
    );
    out.put(
        "wal.fsync_us_mean",
        hist_mean(dur, "wal_fsync_ns") / 1e3,
        "us",
    );
    let (checkpoints, checkpoint_ns) = hist(dur, "wal_checkpoint_ns");
    out.put("wal.checkpoints", checkpoints, "count");
    out.put(
        "wal.checkpoint_ms_mean",
        ratio(checkpoint_ns, checkpoints) / 1e6,
        "ms",
    );
    out.put("wal.recover_read_s", rec.read_s, "s");
    out.put("wal.recover_s", rec.recover_s, "s");

    out.put(
        "replica.query_tax_us",
        rp.query_p50_us() - sv.query_p50_us(),
        "us",
    );
    out.put(
        "replica.commit_tax_ms",
        rp.commit_p50_ms() - sv.commit_p50_ms(),
        "ms",
    );
    out.put(
        "replica.route_wait_frac",
        ratio(
            counter(reps, "replica_route_waits"),
            counter(reps, "replica_route_queries"),
        ),
        "ratio",
    );
    out.put("replica.lag_max", reps.lag_max as f64, "count");

    // Within the traced units of the system under test, the spans of the
    // public calls (insert, expire, barrier, query batches) are the layers'
    // time; what they leave of the unit is the client's and the runtime's.
    let st = &sut.traced;
    out.put(
        "ladder.unaccounted_frac",
        1.0 - ratio(st.attributed_ns as f64, st.unit_ns as f64),
        "ratio",
    );
    out.put(
        "trace.overhead_frac",
        ratio(primary(w, st), primary(w, &sut.plain)) - 1.0,
        "ratio",
    );
}

const QUERY_US: [&str; 4] = [
    "query.conn_us",
    "query.pathmax_us",
    "query.compsize_us",
    "query.fold_us",
];

const SERVICE_TAX_US: [&str; 4] = [
    "service.conn_tax_us",
    "service.pathmax_tax_us",
    "service.compsize_tax_us",
    "service.fold_tax_us",
];
