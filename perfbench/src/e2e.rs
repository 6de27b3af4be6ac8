//! The end-to-end run: the workload's system under test, untraced.

use std::io;

use crate::cli::Opts;
use crate::drive::{corrupt, pass, recover_check, setup, verify, TraceMode, Tracer, Until};
use crate::report::{peak_rss_mb, Outcome};
use crate::shape::{Kind, Rung};
use crate::stats::{median_f, Stats};

/// Independent instances per run. Each is set up from scratch (so
/// `setup_s` is a median over them) and measured for an equal share of
/// the run on the same seeded stream; pooling them averages out what one
/// instance's thread placement and memory layout do to its timings.
pub const SEGMENTS: usize = 5;

/// More set-ups, not measured further, while their total is under
/// `SETUP_BUDGET_S` s, up to `SETUP_MAX` in all.
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_MAX: usize = 15;

/// Runs the workload's system for `opts.seconds`, checks its answers, and
/// returns every end-to-end metric.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    let shape = opts.workload.shape(opts.tiny);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut st = Stats::default();
    let mut answers = Vec::new();
    let mut driven = 0;
    let mut rss_mb = 0.0;
    let mut tracer = Tracer::default();
    for k in 0..SEGMENTS {
        let dir = opts.store_dir(k);
        let mut s = setup(shape.system, &shape, opts.seed, &dir)?;
        setup_s.push(s.seconds);
        let until = Until::Seconds(opts.seconds / SEGMENTS as f64);
        let p = pass(&mut s, &shape, until, TraceMode::Off, &mut tracer, "sut");
        if k == 0 {
            // Later segments start in a heap the earlier ones fragmented;
            // the first instance's peak is the footprint of one system.
            rss_mb = peak_rss_mb();
        }
        out.attempted += p.attempted;
        out.failed += p.failed;
        st.merge(&p.traced);
        answers.extend(p.answers);
        driven = driven.max(p.driven);
        if shape.system == Rung::DurableService && k + 1 == SEGMENTS {
            // Replaying the whole write stream inline would cost as much
            // as the run itself; the durable workload checks that the
            // generation and a fixed query batch survive shutdown and
            // recovery instead.
            let r = recover_check(s.layer, &shape, opts.seed, &dir, opts.inject_fault)?;
            eprintln!(
                "perfbench: recovery read {:.3} s, recover {:.3} s",
                r.read_s, r.recover_s
            );
            out.attempted += r.attempted;
            out.failed += r.failed;
        } else {
            s.layer.shutdown();
        }
        remove_store(&dir)?;
    }

    // Set-up alone is cheap on some workloads and bimodal on the replica
    // set (two replicas applying on one core or two): a few more set-ups
    // steady its median.
    while setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        let dir = opts.store_dir(setup_s.len());
        let s = setup(shape.system, &shape, opts.seed, &dir)?;
        setup_s.push(s.seconds);
        s.layer.shutdown();
        remove_store(&dir)?;
    }

    if shape.system != Rung::DurableService {
        if opts.inject_fault {
            if let Some(a) = answers.first_mut().and_then(|(_, a)| a.first_mut()) {
                corrupt(&mut a.resp);
            }
        }
        let (compared, bad) = verify(
            &shape,
            opts.seed,
            &answers,
            driven,
            &opts.store_dir(SETUP_MAX),
        )?;
        eprintln!("perfbench: {compared} answered batches compared with the inline reference, {bad} differ");
        out.attempted += compared;
        out.failed += bad;
    }

    out.put("setup_s", median_f(&setup_s), "s");
    out.put("peak_rss_mb", rss_mb, "MB");
    out.put("ingest_edges_per_s", st.edges_per_s(), "1/s");
    out.put("commit_p50_ms", st.commit_p50_ms(), "ms");
    out.put("queries_per_s", st.queries_per_s(), "1/s");
    for (k, name) in P50_NAMES {
        out.put(name, st.kind_p50_us(k), "us");
    }
    eprintln!("perfbench: {} units, setups {setup_s:?} s", st.units);
    eprintln!("perfbench: commit: {}", tail(&st.commit_ns));
    for (slot, v) in st.batch_ns.iter().enumerate() {
        eprintln!("perfbench: batch slot {slot}: {}", tail(v));
    }
    Ok(out)
}

const P50_NAMES: [(Kind, &str); 3] = [
    (Kind::Conn, "conn_p50_us"),
    (Kind::PathMax, "pathmax_p50_us"),
    (Kind::Fold, "fold_p50_us"),
];

/// Sample count and the quantiles that have at least ten samples beyond
/// them, in ns.
fn tail(v: &[u64]) -> String {
    let mut s = v.to_vec();
    s.sort_unstable();
    let mut line = format!("{} samples", s.len());
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let i = ((q * s.len() as f64) as usize).min(s.len().saturating_sub(1));
        if s.len() - i > 10 {
            line += &format!(", p{} {}", (q * 100.0) as u32, s[i]);
        }
    }
    line
}

/// Removes a store directory if the layer created one.
pub fn remove_store(dir: &std::path::Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
