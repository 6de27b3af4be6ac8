//! Stage breakdown of the batch-insert path (engineering tool).
//!
//! The default mode separates the cost of the RC-tree propagation (driven
//! directly through `RcForest::batch_update` with pure forest links) from
//! the full `BatchMsf::batch_insert` (CPT + inner MSF + propagation), so
//! perf work targets the right layer.
//!
//! The `eager` mode drives an eager sliding window at n = w (the `ingest`
//! shape): it fills the window with `l`-edge inserts, then runs `rounds`
//! steady rounds of one `l`-edge insert plus one `l`-edge expire, and
//! prints each call kind's p50 latency, the contraction rounds and frontier
//! nodes per call (deltas of the `engine_rounds` / `engine_frontier`
//! metrics), the engine's live vs retained spill rows, and the process's
//! peak RSS.
//!
//! ```sh
//! cargo run --release -p bimst-bench --bin profile_insert [n] [m] [l]
//! cargo run --release -p bimst-bench --bin profile_insert eager [n] [rounds] [l]
//! ```

use std::time::Instant;

use bimst_core::BatchMsf;
use bimst_graphgen::erdos_renyi;
use bimst_rctree::RcForest;
use bimst_sliding::SwConnEager;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("eager") {
        return eager(&args[1..]);
    }
    let n: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let m: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1 << 18);
    let l: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4096);
    let edges = erdos_renyi(n as u32, m, 42);

    // Stage A: full Algorithm 2.
    let mut msf = BatchMsf::new(n, 7);
    let t0 = Instant::now();
    for chunk in edges.chunks(l) {
        msf.batch_insert(chunk);
    }
    let full = t0.elapsed().as_secs_f64();
    println!(
        "batch_insert      : {:8.1} ns/edge ({} msf edges)",
        full * 1e9 / m as f64,
        msf.msf_edge_count()
    );

    // Stage B: propagation only — link the exact MSF edge set in batches of
    // `l` through the forest layer (cycle-free by construction).
    let msf_edges: Vec<(u32, u32, f64, u64)> = msf
        .iter_msf_edges()
        .map(|(id, u, v, k)| (u, v, k.w, id))
        .collect();
    let mut f = RcForest::new(n, 7);
    let t0 = Instant::now();
    let nb = msf_edges.len().div_ceil(l);
    for (i, chunk) in msf_edges.chunks(l).enumerate() {
        let tb = Instant::now();
        f.batch_link(chunk);
        if i % (nb / 16).max(1) == 0 {
            println!(
                "    batch {i:4}: {:7.1} ns/edge",
                tb.elapsed().as_secs_f64() * 1e9 / chunk.len() as f64
            );
        }
    }
    let prop = t0.elapsed().as_secs_f64();
    println!(
        "  forest links    : {:8.1} ns/edge over {} edges ({:.1} ns amortized per batch edge)",
        prop * 1e9 / msf_edges.len().max(1) as f64,
        msf_edges.len(),
        prop * 1e9 / m as f64
    );
}

/// Contraction work recorded on the global metrics recorder so far:
/// `(engine_rounds, sum of engine_frontier)`.
fn engine_work() -> (u64, u64) {
    let snap = bimst_obs::global().snapshot();
    let rounds = snap.counter("engine_rounds").unwrap_or(0);
    let frontier = snap.histogram("engine_frontier").map_or(0, |h| h.sum);
    (rounds, frontier)
}

/// Per-call-kind totals of the eager mode's steady rounds.
#[derive(Default)]
struct CallStats {
    ns: Vec<u64>,
    rounds: u64,
    frontier: u64,
}

impl CallStats {
    /// Times `f` and charges it the contraction work it recorded.
    fn run(&mut self, f: impl FnOnce()) {
        let (r0, f0) = engine_work();
        let t = Instant::now();
        f();
        self.ns.push(t.elapsed().as_nanos() as u64);
        let (r1, f1) = engine_work();
        self.rounds += r1 - r0;
        self.frontier += f1 - f0;
    }

    fn print(&mut self, name: &str) {
        let calls = self.ns.len().max(1) as f64;
        self.ns.sort_unstable();
        let p50 = self.ns.get(self.ns.len() / 2).copied().unwrap_or(0);
        println!(
            "{name:<7}: p50 {:8.3} ms   rounds/call {:6.1}   frontier/call {:9.1}",
            p50 as f64 / 1e6,
            self.rounds as f64 / calls,
            self.frontier as f64 / calls
        );
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB, if readable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The `eager` mode: `[n] [rounds] [l]` after the mode name.
fn eager(args: &[String]) {
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1 << 16);
    let l: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(256);
    let rounds: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4 * n / l.max(1));
    assert!(l > 0 && n >= 2, "need l > 0 and n >= 2");
    let fill = n.div_ceil(l);
    let stream: Vec<(u32, u32)> = erdos_renyi(n as u32, (fill + rounds) * l, 42)
        .into_iter()
        .map(|(u, v, _, _)| (u, v))
        .collect();
    let mut batches = stream.chunks(l);
    let t0 = Instant::now();
    let mut w = SwConnEager::with_edge_capacity(n, 7, n);
    let build_s = t0.elapsed().as_secs_f64();
    for batch in batches.by_ref().take(fill) {
        w.batch_insert(batch);
    }
    println!(
        "eager window n = w = {n}, l = {l}: built in {build_s:.3} s, filled with {fill} inserts \
         ({} msf edges), {rounds} steady rounds",
        w.msf_edge_count()
    );
    let (mut ins, mut exp) = (CallStats::default(), CallStats::default());
    for batch in batches {
        ins.run(|| {
            w.batch_insert(batch);
        });
        exp.run(|| w.batch_expire(l as u64));
    }
    ins.print("insert");
    exp.print("expire");
    let (live, retained) = w.msf().forest().engine().round_rows();
    println!(
        "spill rows: {live} live, {retained} retained ({:.2}x)",
        retained as f64 / live.max(1) as f64
    );
    match peak_rss_mb() {
        Some(mb) => println!("VmHWM  : {mb:.1} MB"),
        None => println!("VmHWM  : unavailable"),
    }
}
