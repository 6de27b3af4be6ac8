//! The three workloads: their sizes, op shapes, and seeded op streams.

use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_service::QueryReq;

/// One benchmark workload (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Durable eager service, write-dominated, degree-2 window.
    Ingest,
    /// In-memory eager service, single-query batches, degree-0.5 window.
    ServeSmall,
    /// Lazy replica set, large query batches in flight, degree-8 window.
    Analytics,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::ServeSmall, Workload::Analytics];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ServeSmall => "serve_small",
            Workload::Analytics => "analytics",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's shape; `tiny` shrinks sizes (keeping the mean window
    /// degree) for smoke tests.
    pub fn shape(self, tiny: bool) -> Shape {
        let (n, window, query_batch, checkpoint_every) = match (self, tiny) {
            (Workload::Ingest, false) => (1 << 16, 1 << 16, 16, 64),
            (Workload::Ingest, true) => (1 << 10, 1 << 10, 16, 8),
            (Workload::ServeSmall, false) => (1 << 20, 1 << 18, 1, 512),
            (Workload::ServeSmall, true) => (1 << 12, 1 << 10, 1, 8),
            (Workload::Analytics, false) => (1 << 14, 1 << 16, 1024, 512),
            (Workload::Analytics, true) => (1 << 8, 1 << 10, 64, 8),
        };
        let base = Shape {
            n,
            window,
            insert_batch: 256,
            rounds_per_unit: 1,
            queries_per_round: 0,
            query_batch,
            system: Rung::Service,
            lazy: false,
            barrier: false,
            in_flight: 1,
            checkpoint_every,
            check_every: 1,
        };
        match self {
            // A commit unit is 4 insert+expire pairs and a barrier; one
            // small batch per round reads the state back (one per kind per
            // unit, as the kinds rotate with period 4).
            Workload::Ingest => Shape {
                rounds_per_unit: 4,
                queries_per_round: 1,
                system: Rung::DurableService,
                barrier: true,
                ..base
            },
            // Several single-query batches in flight keep the service's
            // threads busy: awaited one by one, each batch's latency is
            // mostly thread wake-up time, which on a shared VM doubles with
            // the host's load.
            Workload::ServeSmall => Shape {
                queries_per_round: 256,
                in_flight: SERVE_IN_FLIGHT,
                ..base
            },
            Workload::Analytics => Shape {
                queries_per_round: 8,
                system: Rung::Replicas,
                lazy: true,
                barrier: true,
                in_flight: 2,
                check_every: 16,
                ..base
            },
        }
    }
}

/// A rung of the layer ladder: which system an op stream is driven through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `SwConn`/`SwConnEager` plus a `QueryBatch`, on the caller thread.
    Inline,
    /// In-memory `Service` with 2 readers.
    Service,
    /// WAL-backed `Service` with 2 readers, group commit.
    DurableService,
    /// `ReplicaSet` of 2 replicas with 1 reader each.
    Replicas,
}

impl Rung {
    /// Every rung, bottom to top.
    pub const ALL: [Rung; 4] = [
        Rung::Inline,
        Rung::Service,
        Rung::DurableService,
        Rung::Replicas,
    ];

    /// Span and metric label.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Inline => "inline",
            Rung::Service => "service",
            Rung::DurableService => "durable",
            Rung::Replicas => "replicas",
        }
    }
}

/// Sizes and op shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Vertex count.
    pub n: u32,
    /// Window length in stream positions.
    pub window: u64,
    /// Edges per insert op (each insert is followed by an equal expire).
    pub insert_batch: usize,
    /// Insert+expire rounds per commit unit.
    pub rounds_per_unit: usize,
    /// Query batches per round (kinds rotate conn, path-max, comp-size,
    /// fold).
    pub queries_per_round: usize,
    /// Queries per batch.
    pub query_batch: usize,
    /// The system the end-to-end run measures.
    pub system: Rung,
    /// Lazy (`SwConn`) rather than eager (`SwConnEager`) expiry.
    pub lazy: bool,
    /// A write barrier closes each unit's writes; queries read at its
    /// generation.
    pub barrier: bool,
    /// Query batches outstanding at once; each is awaited in order. Above
    /// 1 a unit's batches go out kind by kind.
    pub in_flight: usize,
    /// Durable services checkpoint after this many write ops.
    pub checkpoint_every: u64,
    /// Answers of every `check_every`-th unit are compared with the
    /// reference.
    pub check_every: u64,
}

impl Shape {
    /// Mean degree of the window graph, 2m/n with m = window edges.
    pub fn mean_degree(&self) -> f64 {
        2.0 * self.window as f64 / f64::from(self.n)
    }

    /// Whether unit `u`'s answers are compared with the reference.
    pub fn checked(&self, u: u64) -> bool {
        u.is_multiple_of(self.check_every)
    }
}

/// One insert, its expire, and the query batches between them.
#[derive(Clone, Debug)]
pub struct Round {
    /// Edges appended.
    pub insert: Vec<(u32, u32)>,
    /// Oldest positions expired after the insert.
    pub expire: u64,
    /// Query batches, asked after the writes of their unit.
    pub queries: Vec<QueryReq>,
}

/// Batches `serve_small` keeps in flight.
pub const SERVE_IN_FLIGHT: usize = 8;

/// Rounds concatenated into one insert op while filling the window.
const FILL_CHUNK: usize = 16;

/// The seeded op stream of a workload. Identical `(shape, seed)` give
/// identical fills and units.
pub struct Feed {
    stream: MixedStream,
    shape: Shape,
}

impl Feed {
    /// A fresh stream from `seed`.
    pub fn new(shape: &Shape, seed: u64) -> Feed {
        Feed {
            stream: stream(shape, shape.queries_per_round, shape.query_batch, seed),
            shape: *shape,
        }
    }

    /// The inserts that fill the window (until it is full and the next
    /// round slides it), concatenated in chunks. Queries of those rounds
    /// are dropped; their expires are all zero.
    pub fn fill(&mut self) -> Vec<Vec<(u32, u32)>> {
        let rounds = (self.shape.window / self.shape.insert_batch as u64) as usize;
        let mut chunks = Vec::new();
        let mut cur = Vec::new();
        for i in 0..rounds {
            let r = self.round();
            assert_eq!(r.expire, 0, "fill round {i} expired edges");
            cur.extend(r.insert);
            if (i + 1) % FILL_CHUNK == 0 || i + 1 == rounds {
                chunks.push(std::mem::take(&mut cur));
            }
        }
        chunks
    }

    /// The next commit unit. With several batches in flight they are
    /// ordered by kind, so the batches outstanding together are mostly of
    /// one kind.
    pub fn unit(&mut self) -> Vec<Round> {
        let mut unit: Vec<Round> = (0..self.shape.rounds_per_unit)
            .map(|_| self.round())
            .collect();
        if self.shape.in_flight > 1 {
            for r in &mut unit {
                r.queries.sort_by_key(|q| Kind::of(q) as usize);
            }
        }
        unit
    }

    fn round(&mut self) -> Round {
        let Op::Insert(insert) = self.stream.next_op() else {
            panic!("mixed stream out of phase: expected an insert");
        };
        let queries = (0..self.shape.queries_per_round)
            .map(|_| request(self.stream.next_op()))
            .collect();
        let Op::Expire(expire) = self.stream.next_op() else {
            panic!("mixed stream out of phase: expected an expire");
        };
        Round {
            insert,
            expire,
            queries,
        }
    }
}

/// Four batches of 256 queries, one per kind, from a seed of their own:
/// asked before a durable service shuts down and again after it recovers.
pub fn probe_queries(shape: &Shape, seed: u64) -> Vec<QueryReq> {
    let mut s = stream(shape, 4, 256, seed ^ 0x9e37_79b9_7f4a_7c15);
    s.next_op(); // the round's insert
    (0..4).map(|_| request(s.next_op())).collect()
}

fn stream(shape: &Shape, queries_per_insert: usize, query_batch: usize, seed: u64) -> MixedStream {
    MixedStream::with_folds(
        MixedConfig {
            n: shape.n,
            topology: MixedTopology::ErdosRenyi,
            insert_batch: shape.insert_batch,
            query_batch,
            queries_per_insert,
            window: shape.window,
            tenants: 0,
        },
        seed,
    )
}

fn request(op: Op) -> QueryReq {
    match op {
        Op::ConnectedQueries(q) => QueryReq::WindowConnected(q),
        Op::PathMaxQueries(q) => QueryReq::PathMax(q),
        Op::ComponentSizeQueries(v) => QueryReq::ComponentSize(v),
        Op::PathFoldQueries(kind, pairs) => QueryReq::PathFold { kind, pairs },
        op => panic!("mixed stream out of phase: expected a query batch, got {op:?}"),
    }
}

/// Query kinds the metrics are split by (the four fold monoids pool into
/// `Fold`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Window connectivity.
    Conn,
    /// Path maximum.
    PathMax,
    /// Component size.
    CompSize,
    /// Path fold.
    Fold,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 4] = [Kind::Conn, Kind::PathMax, Kind::CompSize, Kind::Fold];

    /// The kind of a request.
    pub fn of(req: &QueryReq) -> Kind {
        match req {
            QueryReq::WindowConnected(_) => Kind::Conn,
            QueryReq::PathMax(_) => Kind::PathMax,
            QueryReq::ComponentSize(_) => Kind::CompSize,
            QueryReq::PathFold { .. } => Kind::Fold,
            req => panic!("no benchmark kind for {req:?}"),
        }
    }
}

/// Sample slots: one per kind, with the four fold monoids apart (their
/// costs differ by an order of magnitude, so one median over all four
/// would fall between their modes).
pub const SLOTS: usize = 7;

/// The sample slot of a request: `Kind as usize`, or 3 + the fold monoid's
/// index.
pub fn slot(req: &QueryReq) -> usize {
    match req {
        QueryReq::PathFold { kind, .. } => Kind::Fold as usize + kind.index(),
        req => Kind::of(req) as usize,
    }
}

/// The slots a kind's samples land in.
pub fn slots(k: Kind) -> std::ops::Range<usize> {
    match k {
        Kind::Fold => Kind::Fold as usize..SLOTS,
        k => k as usize..k as usize + 1,
    }
}
