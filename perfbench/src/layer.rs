//! The systems an op stream can be driven through, behind one trait so
//! every rung of the ladder runs the identical client loop.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use bimst_obs::Snapshot;
use bimst_primitives::{FoldKind, FoldValue, Hops, MaxW, MinW, SumW};
use bimst_query::{QueryBatch, ReadHandle, WindowConnectivity};
use bimst_service::{
    Answered, QueryReq, QueryResp, QueryTicket, ReplicaSet, ReplicaSetConfig, Service,
    ServiceClosed, ServiceConfig,
};
use bimst_sliding::{SlidingWrite, SwConn, SwConnEager};

use crate::shape::{Rung, Shape};

/// A query batch in flight: answered on the spot (inline) or by ticket.
pub enum Pending {
    /// Already answered.
    Ready(Answered),
    /// Answered by a service thread.
    Ticket(QueryTicket),
}

impl Pending {
    /// Blocks until answered.
    pub fn wait(self) -> Result<Answered, ServiceClosed> {
        match self {
            Pending::Ready(a) => Ok(a),
            Pending::Ticket(t) => t.wait(),
        }
    }
}

/// The public write/read surface shared by every rung.
pub trait Layer {
    /// Admits (inline: applies) an insert batch.
    fn insert(&mut self, edges: Vec<(u32, u32)>) -> Result<(), ServiceClosed>;
    /// Admits (inline: applies) an expiry.
    fn expire(&mut self, delta: u64) -> Result<(), ServiceClosed>;
    /// Waits until every admitted write is applied (replica set: logged);
    /// returns the generation.
    fn barrier(&mut self) -> Result<u64, ServiceClosed>;
    /// Submits a query batch to be answered at generation ≥ `at`.
    fn query(&mut self, at: u64, req: QueryReq) -> Result<Pending, ServiceClosed>;
    /// Whether a query sees the writes admitted before it only through a
    /// barrier's generation (the replica set routes reads apart from the
    /// write queue; a single service answers in admission order).
    fn reads_need_barrier(&self) -> bool {
        false
    }
    /// Waits until every admitted write is applied everywhere it will be
    /// (a replica set's barrier only waits for the log); returns the
    /// generation.
    fn settle(&mut self) -> Result<u64, ServiceClosed> {
        self.barrier()
    }
    /// Largest lag seen since the last call: write groups logged but not
    /// yet applied by some replica, sampled when a [`Layer::settle`] starts
    /// waiting. 0 for a single window.
    fn take_lag_max(&mut self) -> u64 {
        0
    }
    /// The layer's metrics: the service or replica-set snapshot, or the
    /// process-global recorder for the inline rung.
    fn snapshot(&mut self) -> Snapshot;
    /// Drains and stops the layer's threads.
    fn shutdown(self: Box<Self>);
}

/// Structure seed derived from the workload seed (the same on every rung,
/// so every rung holds the same window).
pub fn structure_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 7
}

/// Builds rung `rung` for `shape`. `dir` must not exist yet; only the
/// durable rung creates it.
pub fn build(rung: Rung, shape: &Shape, seed: u64, dir: &Path) -> io::Result<Box<dyn Layer>> {
    let (n, s) = (shape.n as usize, structure_seed(seed));
    let cfg = service_config(shape);
    Ok(match (rung, shape.lazy) {
        (Rung::Inline, false) => Box::new(Inline::new(SwConnEager::new(n, s))),
        (Rung::Inline, true) => Box::new(Inline::new(SwConn::new(n, s))),
        (Rung::Service, false) => Box::new(Svc(Service::eager(n, s, cfg))),
        (Rung::Service, true) => Box::new(Svc(Service::lazy(n, s, cfg))),
        (Rung::DurableService, false) => Box::new(Svc(Service::eager_durable(dir, n, s, cfg)?)),
        (Rung::DurableService, true) => Box::new(Svc(Service::lazy_durable(dir, n, s, cfg)?)),
        (Rung::Replicas, lazy) => {
            let rcfg = ReplicaSetConfig {
                replicas: 2,
                readers: 1,
                ..ReplicaSetConfig::default()
            };
            Box::new(Reps {
                set: if lazy {
                    ReplicaSet::lazy(n, s, rcfg)
                } else {
                    ReplicaSet::eager(n, s, rcfg)
                },
                lag_max: 0,
            })
        }
    })
}

/// Reopens the durable store at `dir` (see [`Service::recover`]).
pub fn recover(shape: &Shape, dir: &Path) -> io::Result<Box<dyn Layer>> {
    Ok(Box::new(Svc(Service::recover(dir, service_config(shape))?)))
}

fn service_config(shape: &Shape) -> ServiceConfig {
    ServiceConfig {
        readers: 2,
        checkpoint_every: shape.checkpoint_every,
        ..ServiceConfig::default()
    }
}

/// A window structure and a query executor on the caller thread: the
/// ladder's bottom rung and the reference every answer is checked against.
pub struct Inline<W> {
    w: W,
    q: QueryBatch,
    generation: u64,
}

impl<W> Inline<W> {
    fn new(w: W) -> Self {
        Inline {
            w,
            q: QueryBatch::new(),
            generation: 0,
        }
    }
}

impl<W: SlidingWrite + WindowConnectivity> Layer for Inline<W> {
    fn insert(&mut self, edges: Vec<(u32, u32)>) -> Result<(), ServiceClosed> {
        self.w.batch_insert(&edges);
        self.generation += 1;
        Ok(())
    }

    fn expire(&mut self, delta: u64) -> Result<(), ServiceClosed> {
        self.w.batch_expire(delta);
        self.generation += 1;
        Ok(())
    }

    fn barrier(&mut self) -> Result<u64, ServiceClosed> {
        Ok(self.generation)
    }

    fn query(&mut self, _at: u64, req: QueryReq) -> Result<Pending, ServiceClosed> {
        Ok(Pending::Ready(Answered {
            generation: self.generation,
            resp: answer(&mut self.q, &self.w, &req),
        }))
    }

    fn snapshot(&mut self) -> Snapshot {
        bimst_obs::global().snapshot()
    }

    fn shutdown(self: Box<Self>) {}
}

/// Answers `req` the way a service reader does.
fn answer<W: WindowConnectivity>(q: &mut QueryBatch, w: &W, req: &QueryReq) -> QueryResp {
    match req {
        QueryReq::WindowConnected(p) => QueryResp::WindowConnected(q.batch_window_connected(w, p)),
        QueryReq::PathMax(p) => QueryResp::PathMax(q.batch_path_max(ReadHandle::new(w.msf()), p)),
        QueryReq::ComponentSize(v) => {
            QueryResp::ComponentSize(q.batch_component_size(ReadHandle::new(w.msf()), v))
        }
        QueryReq::PathFold { kind, pairs } => QueryResp::PathFold(match kind {
            FoldKind::Max => keys(q.batch_window_path_fold::<MaxW, W>(w, pairs)),
            FoldKind::Min => keys(q.batch_window_path_fold::<MinW, W>(w, pairs)),
            FoldKind::Sum => (q.batch_window_path_fold::<SumW, W>(w, pairs).into_iter())
                .map(|s| s.map(FoldValue::Sum))
                .collect(),
            FoldKind::Hops => (q.batch_window_path_fold::<Hops, W>(w, pairs).into_iter())
                .map(|h| h.map(FoldValue::Hops))
                .collect(),
        }),
        req => panic!("no inline answer for {req:?}"),
    }
}

fn keys(v: Vec<Option<bimst_primitives::WKey>>) -> Vec<Option<FoldValue>> {
    v.into_iter().map(|k| k.map(FoldValue::Key)).collect()
}

/// An in-memory or durable [`Service`].
struct Svc(Service);

impl Layer for Svc {
    fn insert(&mut self, edges: Vec<(u32, u32)>) -> Result<(), ServiceClosed> {
        self.0.insert(edges)
    }

    fn expire(&mut self, delta: u64) -> Result<(), ServiceClosed> {
        self.0.expire(delta)
    }

    fn barrier(&mut self) -> Result<u64, ServiceClosed> {
        self.0.barrier()?.wait()
    }

    fn query(&mut self, _at: u64, req: QueryReq) -> Result<Pending, ServiceClosed> {
        self.0.query(req).map(Pending::Ticket)
    }

    fn snapshot(&mut self) -> Snapshot {
        self.0.metrics_snapshot().unwrap_or_default()
    }

    fn shutdown(self: Box<Self>) {
        self.0.shutdown();
    }
}

/// A [`ReplicaSet`]; queries are routed with `serve_at`.
struct Reps {
    set: ReplicaSet,
    lag_max: u64,
}

/// How long [`Layer::settle`] waits for a replica to apply before it
/// gives the replica up as failed.
const APPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Reps {
    /// Each replica's applied generation.
    fn applied(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.set.replicas()).map(|i| self.set.watermarks(i).1)
    }
}

impl Layer for Reps {
    fn insert(&mut self, edges: Vec<(u32, u32)>) -> Result<(), ServiceClosed> {
        self.set.insert(edges)
    }

    fn expire(&mut self, delta: u64) -> Result<(), ServiceClosed> {
        self.set.expire(delta)
    }

    fn barrier(&mut self) -> Result<u64, ServiceClosed> {
        self.set.barrier()?.wait()
    }

    fn query(&mut self, at: u64, req: QueryReq) -> Result<Pending, ServiceClosed> {
        self.set.serve_at(at, req).map(Pending::Ticket)
    }

    fn reads_need_barrier(&self) -> bool {
        true
    }

    /// Waits on the replicas' applied watermarks rather than with probe
    /// queries, so the router's counters see only the workload's reads.
    fn settle(&mut self) -> Result<u64, ServiceClosed> {
        let g = self.set.barrier()?.wait()?;
        let behind = self.applied().map(|a| g.saturating_sub(a)).max();
        self.lag_max = self.lag_max.max(behind.unwrap_or(0));
        let t = Instant::now();
        while self.applied().any(|a| a < g) {
            if t.elapsed() > APPLY_TIMEOUT {
                return Err(ServiceClosed);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(g)
    }

    fn take_lag_max(&mut self) -> u64 {
        std::mem::take(&mut self.lag_max)
    }

    fn snapshot(&mut self) -> Snapshot {
        self.set.metrics_snapshot()
    }

    fn shutdown(self: Box<Self>) {
        self.set.shutdown();
    }
}
