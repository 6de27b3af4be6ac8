//! The closed-loop client: set-up, one commit unit, a timed pass, answer
//! checks, and the in-memory span recorder of the traced run.

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use bimst_obs::Snapshot;
use bimst_service::{Answered, QueryResp, ServiceClosed};

use crate::layer::{build, recover, Layer, Pending};
use crate::shape::{probe_queries, slot, Feed, Kind, Round, Rung, Shape};
use crate::stats::{Stats, UnitOut};

/// Units driven after set-up and before measuring, so scratch buffers and
/// caches reach steady state. Their answers are still checked.
pub const WARM_UNITS: u64 = 2;

/// A layer whose window is full and sliding, and the stream that feeds it.
pub struct Setup {
    /// The system under test.
    pub layer: Box<dyn Layer>,
    /// The op stream, positioned after the fill.
    pub feed: Feed,
    /// Construction until the fill's barrier resolved, s.
    pub seconds: f64,
}

/// Builds `rung` and fills its window. The fill ops are generated before
/// the clock starts.
pub fn setup(rung: Rung, shape: &Shape, seed: u64, dir: &Path) -> io::Result<Setup> {
    let mut feed = Feed::new(shape, seed);
    let chunks = feed.fill();
    let t = Instant::now();
    let mut layer = build(rung, shape, seed, dir)?;
    for c in chunks {
        layer.insert(c).map_err(closed)?;
    }
    layer.settle().map_err(closed)?;
    Ok(Setup {
        layer,
        feed,
        seconds: t.elapsed().as_secs_f64(),
    })
}

fn closed(e: ServiceClosed) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, e)
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Drives one commit unit: its writes, the barrier (when the workload has
/// one, or the layer needs one for fresh reads), then its query batches.
/// A workload's barrier waits until the writes are applied everywhere
/// ([`Layer::settle`]), so commit latency includes replica apply.
/// With a tracer, every call is also timed and recorded as a span.
pub fn drive_unit(
    layer: &mut dyn Layer,
    shape: &Shape,
    unit: Vec<Round>,
    keep: bool,
    answers: &mut Vec<Answered>,
    mut tracer: Option<(&mut Tracer, &'static str, u64)>,
) -> Result<UnitOut, ServiceClosed> {
    let traced = tracer.is_some();
    let mut out = UnitOut::default();
    let mut children: Vec<(&'static str, Instant, Instant, u64)> = Vec::new();
    let mut writes = Vec::with_capacity(unit.len());
    let mut queries = Vec::new();
    for r in unit {
        out.edges += r.insert.len() as u64;
        out.expired += r.expire;
        writes.push((r.insert, r.expire));
        queries.extend(r.queries);
    }
    let barrier = shape.barrier || layer.reads_need_barrier();
    out.ops = 2 * writes.len() as u64 + u64::from(barrier) + queries.len() as u64;

    let t0 = Instant::now();
    for (edges, delta) in writes {
        let len = edges.len() as u64;
        let s = Instant::now();
        layer.insert(edges)?;
        if traced {
            let m = Instant::now();
            layer.expire(delta)?;
            let e = Instant::now();
            out.insert_ns += ns(s, m);
            out.expire_ns += ns(m, e);
            out.timed_writes.0 += 1;
            out.timed_writes.1 += 1;
            children.push(("insert", s, m, len));
            children.push(("expire", m, e, delta));
        } else {
            layer.expire(delta)?;
        }
    }
    let mut at = 0;
    let mut commit = None;
    if barrier {
        let s = Instant::now();
        at = if shape.barrier {
            layer.settle()?
        } else {
            layer.barrier()?
        };
        let e = Instant::now();
        if shape.barrier {
            commit = Some(ns(t0, e));
        }
        children.push(("barrier", s, e, 0));
    }
    let mut answered =
        |k: Kind, slot: usize, len: u64, s: Instant, a: Answered, out: &mut UnitOut| {
            let e = Instant::now();
            out.batches.push((slot, ns(s, e), len));
            commit.get_or_insert(ns(t0, e));
            if traced {
                children.push((span_name(k), s, e, len));
            }
            if keep {
                answers.push(a);
            }
        };
    // Up to `in_flight` batches are outstanding; each is awaited in order.
    let mut pending: VecDeque<(Kind, usize, u64, Instant, Pending)> =
        VecDeque::with_capacity(shape.in_flight);
    let mut q0 = None;
    for q in queries {
        if pending.len() == shape.in_flight {
            let (kind, slot, len, s, p) = pending.pop_front().expect("in_flight >= 1");
            answered(kind, slot, len, s, p.wait()?, &mut out);
        }
        let (kind, slot, len) = (Kind::of(&q), slot(&q), q.len() as u64);
        let s = Instant::now();
        q0.get_or_insert(s);
        pending.push_back((kind, slot, len, s, layer.query(at, q)?));
    }
    for (kind, slot, len, s, p) in pending {
        answered(kind, slot, len, s, p.wait()?, &mut out);
    }
    let end = Instant::now();
    out.total_ns = ns(t0, end);
    out.commit_ns = commit.unwrap_or(out.total_ns);
    out.query_ns = q0.map_or(0, |q| ns(q, end));
    if let Some((tr, layer_name, u)) = tracer.as_mut() {
        out.attributed_ns = covered(&mut children);
        tr.record(layer_name, *u, t0, end, &children);
    }
    Ok(out)
}

/// Wall time covered by the union of the spans' intervals (batches in
/// flight together overlap).
fn covered(spans: &mut [(&'static str, Instant, Instant, u64)]) -> u64 {
    spans.sort_by_key(|&(_, s, _, _)| s);
    let mut total = 0;
    let mut reach: Option<Instant> = None;
    for &(_, s, e, _) in spans.iter() {
        let from = reach.map_or(s, |r| r.max(s));
        if e > from {
            total += ns(from, e);
            reach = Some(e);
        }
    }
    total
}

fn span_name(k: Kind) -> &'static str {
    match k {
        Kind::Conn => "query.conn",
        Kind::PathMax => "query.pathmax",
        Kind::CompSize => "query.compsize",
        Kind::Fold => "query.fold",
    }
}

/// When a pass stops.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// After this many seconds of wall clock.
    Seconds(f64),
    /// After this many measured units.
    Units(u64),
}

/// Which measured units record spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// None (the end-to-end run).
    Off,
    /// Every unit (ladder rungs).
    All,
    /// Every other unit, so traced and untraced samples of one pass give
    /// the tracing overhead.
    Alternate,
}

/// What a pass measured.
#[derive(Default)]
pub struct PassOut {
    /// Samples of traced units (all units when tracing is off).
    pub traced: Stats,
    /// Samples of untraced units under [`TraceMode::Alternate`].
    pub plain: Stats,
    /// Units measured.
    pub units: u64,
    /// Units driven, warm-up included.
    pub driven: u64,
    /// Layer metrics after warm-up.
    pub before: Snapshot,
    /// Layer metrics after the last unit.
    pub after: Snapshot,
    /// Answers of the checked units, by unit index.
    pub answers: Vec<(u64, Vec<Answered>)>,
    /// Largest replica lag seen over the measured units (replica set
    /// only; see [`Layer::take_lag_max`]).
    pub lag_max: u64,
    /// Ops submitted.
    pub attempted: u64,
    /// Units that failed with the service closed.
    pub failed: u64,
}

/// Warms up, then measures units until `until`.
pub fn pass(
    s: &mut Setup,
    shape: &Shape,
    until: Until,
    mode: TraceMode,
    tracer: &mut Tracer,
    label: &'static str,
) -> PassOut {
    let mut out = PassOut::default();
    let mut measured = 0u64;
    let mut start = Instant::now();
    loop {
        let warm = out.driven < WARM_UNITS;
        if !warm {
            if measured == 0 {
                out.before = s.layer.snapshot();
                s.layer.take_lag_max();
                start = Instant::now();
            }
            let done = match until {
                Until::Seconds(x) => start.elapsed().as_secs_f64() >= x,
                Until::Units(n) => measured >= n,
            };
            if done {
                break;
            }
        }
        let traced = !warm
            && match mode {
                TraceMode::Off => false,
                TraceMode::All => true,
                TraceMode::Alternate => measured % 2 == 1,
            };
        let u = out.driven;
        let keep = shape.checked(u);
        let unit = s.feed.unit();
        let mut answers = Vec::new();
        let tr = traced.then_some((&mut *tracer, label, u));
        match drive_unit(s.layer.as_mut(), shape, unit, keep, &mut answers, tr) {
            Ok(o) => {
                out.attempted += o.ops;
                if keep {
                    out.answers.push((u, answers));
                }
                if !warm {
                    let stats = if mode == TraceMode::Alternate && !traced {
                        &mut out.plain
                    } else {
                        &mut out.traced
                    };
                    stats.absorb(&o);
                }
            }
            Err(ServiceClosed) => {
                out.attempted += 1;
                out.failed += 1;
                break;
            }
        }
        out.driven += 1;
        if !warm {
            measured += 1;
        }
    }
    out.units = measured;
    out.lag_max = s.layer.take_lag_max();
    out.after = s.layer.snapshot();
    out
}

/// Compares `got` with the reference answers `want` unit by unit; returns
/// (batches compared, batches that differ). A checked unit missing from
/// `want`, or with a different batch count, counts as one mismatch.
pub fn compare(got: &[(u64, Vec<Answered>)], want: &[(u64, Vec<Answered>)]) -> (u64, u64) {
    let (mut compared, mut bad) = (0, 0);
    for (u, g) in got {
        let Ok(i) = want.binary_search_by_key(u, |(w, _)| *w) else {
            bad += 1;
            continue;
        };
        let w = &want[i].1;
        if w.len() != g.len() {
            bad += 1;
            continue;
        }
        for (a, b) in g.iter().zip(w) {
            compared += 1;
            bad += u64::from(a.resp != b.resp);
        }
    }
    (compared, bad)
}

/// Replays `units` units of the workload's stream on an inline reference
/// and compares the answers of the checked units with `got`. Returns
/// (batches compared, batches that differ). Nothing here is timed.
pub fn verify(
    shape: &Shape,
    seed: u64,
    got: &[(u64, Vec<Answered>)],
    units: u64,
    dir: &Path,
) -> io::Result<(u64, u64)> {
    let mut r = setup(Rung::Inline, shape, seed, dir)?;
    let mut want = Vec::new();
    for u in 0..units {
        let unit = r.feed.unit();
        if got.iter().any(|(g, _)| *g == u) {
            let mut answers = Vec::new();
            drive_unit(r.layer.as_mut(), shape, unit, true, &mut answers, None).map_err(closed)?;
            want.push((u, answers));
        } else {
            for round in unit {
                r.layer.insert(round.insert).map_err(closed)?;
                r.layer.expire(round.expire).map_err(closed)?;
            }
        }
    }
    Ok(compare(got, &want))
}

/// Replaces an answer by one no query can produce (`--inject-fault`).
pub fn corrupt(resp: &mut QueryResp) {
    *resp = QueryResp::ComponentSize(vec![usize::MAX]);
}

/// What a shutdown-and-recover round trip measured.
#[derive(Debug, Default)]
pub struct Recovered {
    /// A timed read-only scan of the store (`bimst_wal::recover_dir`), s.
    pub read_s: f64,
    /// `Service::recover` until its first barrier resolved, s.
    pub recover_s: f64,
    /// Checks made (generation + probe batches).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// Asks the probe batches, shuts the durable layer down, recovers it from
/// `dir`, and checks that the generation and the answers survived.
pub fn recover_check(
    mut layer: Box<dyn Layer>,
    shape: &Shape,
    seed: u64,
    dir: &Path,
    inject_fault: bool,
) -> io::Result<Recovered> {
    let g = layer.barrier().map_err(closed)?;
    let probes = probe_queries(shape, seed);
    let mut before = Vec::new();
    for q in &probes {
        before.push(
            layer
                .query(g, q.clone())
                .map_err(closed)?
                .wait()
                .map_err(closed)?
                .resp,
        );
    }
    if inject_fault {
        corrupt(&mut before[0]);
    }
    layer.shutdown();

    let t = Instant::now();
    bimst_wal::recover_dir(dir)?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rec = recover(shape, dir)?;
    let g2 = rec.barrier().map_err(closed)?;
    let recover_s = t.elapsed().as_secs_f64();

    let mut out = Recovered {
        read_s,
        recover_s,
        attempted: 1 + probes.len() as u64,
        failed: u64::from(g2 != g),
    };
    for (q, b) in probes.into_iter().zip(&before) {
        let a = rec.query(g2, q).map_err(closed)?.wait().map_err(closed)?;
        out.failed += u64::from(a.resp != *b);
    }
    rec.shutdown();
    Ok(out)
}

/// Units per layer whose spans are kept (the metrics use every unit; the
/// span file is a sample).
const SPAN_UNITS: u64 = 16;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index in the trace.
    pub id: usize,
    /// The enclosing `unit` span.
    pub parent: Option<usize>,
    /// Commit unit index: spans of one unit share it.
    pub unit: u64,
    /// Pass label (`sut` or a rung name).
    pub layer: &'static str,
    /// What was timed: `unit`, `insert`, `expire`, `barrier`, `query.*`.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Edges, positions or queries the call carried.
    pub items: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    units: Vec<(&'static str, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            units: Vec::new(),
        }
    }
}

impl Tracer {
    fn record(
        &mut self,
        layer: &'static str,
        unit: u64,
        start: Instant,
        end: Instant,
        children: &[(&'static str, Instant, Instant, u64)],
    ) {
        let seen = match self.units.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, n)) => n,
            None => {
                self.units.push((layer, 0));
                &mut self.units.last_mut().expect("just pushed").1
            }
        };
        if *seen >= SPAN_UNITS {
            return;
        }
        *seen += 1;
        let root = self.spans.len();
        let at = |t: Instant| ns(self.epoch, t);
        let mut spans = vec![Span {
            id: root,
            parent: None,
            unit,
            layer,
            name: "unit",
            start_ns: at(start),
            end_ns: at(end),
            items: children.len() as u64,
        }];
        for (i, &(name, s, e, items)) in children.iter().enumerate() {
            spans.push(Span {
                id: root + 1 + i,
                parent: Some(root),
                unit,
                layer,
                name,
                start_ns: at(s),
                end_ns: at(e),
                items,
            });
        }
        self.spans.extend(spans);
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {parent}, \"unit\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
                s.id, s.unit, s.layer, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        f.flush()
    }
}
