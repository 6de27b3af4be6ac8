//! Sliding-window connectivity (§5.1, Theorems 5.1 and 5.2).

use bimst_core::BatchMsf;
use bimst_ordset::OrdSet;
use bimst_primitives::monoid::MaxW;
use bimst_primitives::VertexId;

/// Recency weight of stream position `τ`: older ⇒ heavier.
#[inline]
pub(crate) fn recency_weight(tau: u64) -> f64 {
    -(tau as f64)
}

/// The *write* surface a serving layer drives: append a batch on the new
/// side of the window, advance the window's left endpoint. Implemented by
/// [`SwConn`] (lazy expiry) and [`SwConnEager`] (eager expiry), so a writer
/// loop can own either discipline behind one bound (`bimst-service` pairs
/// this with `bimst_query::WindowConnectivity`, the matching *read*
/// surface).
///
/// The contract mirrors the paper's stream model: `batch_insert` assigns
/// consecutive stream positions, `batch_expire(Δ)` drops the Δ oldest
/// positions, and interleavings of arbitrary sizes are legal. Positions are
/// totally ordered, so any sequence of calls has exactly one sequential
/// meaning — which is what lets a serving runtime group-commit consecutive
/// inserts (positions concatenate) and merge consecutive expirations
/// (deltas add) without changing the structure's final state or any
/// query answer.
pub trait SlidingWrite {
    /// Appends a batch on the new side of the window; positions are
    /// assigned consecutively. Returns the τ of the first edge.
    fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64;

    /// Expires the `delta` oldest stream positions.
    fn batch_expire(&mut self, delta: u64);

    /// Current window `[tw, t)` in stream positions.
    fn window(&self) -> (u64, u64);

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// The structure's own metrics registry, when it keeps one (the
    /// multi-tenant [`TenantSet`](crate::TenantSet) records routing and
    /// cutoff-lag metrics). Plain windows return `None`; a serving layer
    /// folds whatever is returned into its snapshot.
    fn obs_recorder(&self) -> Option<&bimst_obs::Recorder> {
        None
    }
}

/// The checkpoint/restore surface a durability layer (`bimst-wal`) drives:
/// a compacted edge set that, together with the window endpoints, is
/// *prefix-equivalent* — a fresh structure restored from it answers every
/// future query bit-identically to one that applied the whole op stream.
///
/// Why a compacted set suffices:
///
/// * **Eager expiry** ([`SwConnEager`]): the structure holds exactly the
///   window's MSF. By the recent-edge property (Lemma 5.1), a window edge
///   that is not currently an MSF edge can never become one — its MSF path
///   witness only gets younger — so dropping non-tree edges loses nothing.
/// * **Lazy expiry** ([`SwConn`]): the retained forest is the incremental
///   MSF of the whole stream. Under insert-only semantics with distinct
///   positions, an edge evicted from the MSF never re-enters it (MSF
///   sparsification), so the retained tree edges determine every future
///   eviction decision and answer.
pub trait WindowCheckpoint: SlidingWrite {
    /// The retained edges as `(τ, u, v)`, τ strictly ascending.
    fn compact_edges(&self) -> Vec<(u64, VertexId, VertexId)>;

    /// Rebuilds this (freshly constructed, never written) structure from a
    /// checkpoint taken on an identically-constructed one.
    ///
    /// # Panics
    ///
    /// If the structure has already been written to, or `tw > t`.
    fn restore(&mut self, edges: &[(u64, VertexId, VertexId)], tw: u64, t: u64);
}

impl WindowCheckpoint for SwConn {
    fn compact_edges(&self) -> Vec<(u64, VertexId, VertexId)> {
        // Retained MSF edges; their id *is* their stream position τ.
        let mut out: Vec<(u64, VertexId, VertexId)> = self
            .msf
            .iter_msf_edges()
            .map(|(id, u, v, _)| (id, u, v))
            .collect();
        out.sort_unstable_by_key(|&(tau, ..)| tau);
        out
    }

    fn restore(&mut self, edges: &[(u64, VertexId, VertexId)], tw: u64, t: u64) {
        restore_guard(self.window(), self.msf.msf_edge_count(), tw, t);
        let batch: Vec<(VertexId, VertexId, u64)> =
            edges.iter().map(|&(tau, u, v)| (u, v, tau)).collect();
        self.batch_insert_at(&batch);
        // Set `t` before the expiry so `expire_before` cannot clamp `tw`
        // when the checkpoint's edges sit entirely below the endpoints
        // (e.g. a fully-expired window).
        self.t = self.t.max(t);
        self.expire_before(tw);
        // The install was one window-sized batch; steady batches are far
        // smaller, so do not keep its scratch for the process's life.
        self.msf.release_scratch();
    }
}

impl WindowCheckpoint for SwConnEager {
    fn compact_edges(&self) -> Vec<(u64, VertexId, VertexId)> {
        self.msf_edges()
    }

    fn restore(&mut self, edges: &[(u64, VertexId, VertexId)], tw: u64, t: u64) {
        restore_guard(self.window(), self.msf.msf_edge_count(), tw, t);
        let batch: Vec<(VertexId, VertexId, u64)> =
            edges.iter().map(|&(tau, u, v)| (u, v, tau)).collect();
        self.batch_insert_at(&batch);
        self.t = self.t.max(t);
        // Eager checkpoints only hold unexpired edges (τ ≥ tw), so this
        // cuts nothing — it just installs the left endpoint.
        self.expire_before(tw);
        self.msf.release_scratch();
    }
}

fn restore_guard(window: (u64, u64), edge_count: usize, tw: u64, t: u64) {
    assert!(
        window == (0, 0) && edge_count == 0,
        "restore requires a fresh structure"
    );
    assert!(tw <= t, "checkpoint window endpoints inverted ({tw} > {t})");
}

impl SlidingWrite for SwConn {
    fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        SwConn::batch_insert(self, edges)
    }
    fn batch_expire(&mut self, delta: u64) {
        SwConn::batch_expire(self, delta)
    }
    fn window(&self) -> (u64, u64) {
        SwConn::window(self)
    }
    fn num_vertices(&self) -> usize {
        SwConn::num_vertices(self)
    }
}

impl SlidingWrite for SwConnEager {
    fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        SwConnEager::batch_insert(self, edges)
    }
    fn batch_expire(&mut self, delta: u64) {
        SwConnEager::batch_expire(self, delta)
    }
    fn window(&self) -> (u64, u64) {
        SwConnEager::window(self)
    }
    fn num_vertices(&self) -> usize {
        SwConnEager::num_vertices(self)
    }
}

/// Sliding-window connectivity with **lazy** expiry (`SW-Conn`,
/// Theorem 5.1).
///
/// Expiry just advances the window's left endpoint `TW`; expired edges stay
/// in the underlying MSF and are discounted at query time via the
/// recent-edge test. `O(1)` expiry, `O(lg n)` queries — but no component
/// counting (that is what [`SwConnEager`] adds).
pub struct SwConn {
    msf: BatchMsf,
    /// Left endpoint of the window: positions `< tw` are expired.
    tw: u64,
    /// Next stream position.
    t: u64,
}

impl SwConn {
    /// An empty window over `n` vertices.
    pub fn new(n: usize, seed: u64) -> Self {
        SwConn {
            msf: BatchMsf::new(n, seed),
            tw: 0,
            t: 0,
        }
    }

    /// [`SwConn::new`] with the forest's live-edge map pre-sized. Under lazy
    /// expiry the MSF retains expired edges, so the live set is bounded only
    /// by the forest bound `n − 1` — long-running windows should pass a hint
    /// near that to take the map's rehashes up front.
    pub fn with_edge_capacity(n: usize, seed: u64, edge_capacity: usize) -> Self {
        SwConn {
            msf: BatchMsf::with_edge_capacity(n, seed, edge_capacity),
            tw: 0,
            t: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.msf.num_vertices()
    }

    /// Read access to the underlying MSF (batched queries, verification).
    /// Query layers must apply the recent-edge test themselves: expired
    /// edges are still present here (see [`SwConn::is_connected`]).
    pub fn msf(&self) -> &BatchMsf {
        &self.msf
    }

    /// Current window: `[tw, t)` in stream positions.
    pub fn window(&self) -> (u64, u64) {
        (self.tw, self.t)
    }

    /// The window's left endpoint τ — the floor every caller-supplied
    /// recency cutoff must satisfy. Query layers that accept external
    /// cutoffs (multi-tenant serving) assert `cutoff ≥ window_start_tau()`:
    /// a stale tenant cutoff below this would silently answer from expired
    /// edges, so it must fail loudly instead.
    pub fn window_start_tau(&self) -> u64 {
        self.tw
    }

    /// Appends a batch on the new side; positions are assigned
    /// consecutively. Returns the τ of the first edge.
    pub fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        let first = self.t;
        let batch: Vec<(VertexId, VertexId, f64, u64)> = edges
            .iter()
            .map(|&(u, v)| {
                let tau = self.t;
                self.t += 1;
                (u, v, recency_weight(tau), tau)
            })
            .collect();
        self.msf.batch_insert(&batch);
        first
    }

    /// Inserts edges at *caller-assigned* strictly increasing positions
    /// (used by the multi-instance structures that share one stream).
    pub fn batch_insert_at(&mut self, edges: &[(VertexId, VertexId, u64)]) {
        let batch: Vec<(VertexId, VertexId, f64, u64)> = edges
            .iter()
            .map(|&(u, v, tau)| {
                debug_assert!(tau >= self.t, "positions must increase");
                self.t = self.t.max(tau + 1);
                (u, v, recency_weight(tau), tau)
            })
            .collect();
        self.msf.batch_insert(&batch);
    }

    /// Expires the `delta` oldest stream positions. `O(1)`.
    pub fn batch_expire(&mut self, delta: u64) {
        self.expire_before(self.tw.saturating_add(delta));
    }

    /// Moves the window's left endpoint to `tw` (absolute position).
    pub fn expire_before(&mut self, tw: u64) {
        self.tw = self.tw.max(tw).min(self.t);
    }

    /// Whether `u` and `v` are connected by unexpired edges — the
    /// recent-edge test (Lemma 5.1). `O(lg n)` w.h.p.
    pub fn is_connected(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        match self.msf.path_fold::<MaxW>(u, v) {
            // Heaviest = oldest edge on the path; connected iff unexpired.
            Some(k) => k.id >= self.tw,
            None => false,
        }
    }
}

/// Sliding-window connectivity with **eager** expiry and `O(1)` component
/// counting (`SW-Conn-Eager`, Theorem 5.2).
///
/// Keeps the parallel ordered set `D` of unexpired MSF edges ordered by τ;
/// expiry splits off the expired prefix and cuts those edges from the
/// forest (no replacement search is needed — recent-edge property), so the
/// forest always holds exactly the window's MSF and
/// `#components = n − |D|` is maintained implicitly by the forest itself.
pub struct SwConnEager {
    msf: BatchMsf,
    /// Unexpired MSF edges by τ, with endpoints as payload.
    d: OrdSet<(VertexId, VertexId)>,
    tw: u64,
    t: u64,
}

impl SwConnEager {
    /// An empty window over `n` vertices.
    pub fn new(n: usize, seed: u64) -> Self {
        SwConnEager {
            msf: BatchMsf::new(n, seed),
            d: OrdSet::new(),
            tw: 0,
            t: 0,
        }
    }

    /// [`SwConnEager::new`] with the forest's live-edge map pre-sized.
    /// Under eager expiry the MSF holds at most `min(window, n − 1)` edges,
    /// so a window-width hint removes every mid-stream rehash.
    pub fn with_edge_capacity(n: usize, seed: u64, edge_capacity: usize) -> Self {
        SwConnEager {
            msf: BatchMsf::with_edge_capacity(n, seed, edge_capacity),
            d: OrdSet::new(),
            tw: 0,
            t: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.msf.num_vertices()
    }

    /// Current window: `[tw, t)`.
    pub fn window(&self) -> (u64, u64) {
        (self.tw, self.t)
    }

    /// The window's left endpoint τ (see [`SwConn::window_start_tau`]).
    pub fn window_start_tau(&self) -> u64 {
        self.tw
    }

    /// Appends a batch on the new side. Returns the τ of the first edge.
    pub fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        let first = self.t;
        let batch: Vec<(VertexId, VertexId, u64)> = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (u, v, first + i as u64))
            .collect();
        self.batch_insert_at(&batch);
        first
    }

    /// Inserts edges at caller-assigned strictly increasing positions.
    pub fn batch_insert_at(&mut self, edges: &[(VertexId, VertexId, u64)]) {
        let batch: Vec<(VertexId, VertexId, f64, u64)> = edges
            .iter()
            .map(|&(u, v, tau)| {
                debug_assert!(tau >= self.t, "positions must increase");
                self.t = self.t.max(tau + 1);
                (u, v, recency_weight(tau), tau)
            })
            .collect();
        let res = self.msf.batch_insert(&batch);
        // Update D: evicted MSF edges leave, inserted batch edges join.
        for id in res.evicted {
            let old = self.d.remove(id);
            debug_assert!(old.is_some(), "evicted edge missing from D");
        }
        let mut adds: Vec<(u64, (VertexId, VertexId))> = Vec::with_capacity(res.inserted.len());
        for id in res.inserted {
            let (u, v, _) = self.msf.edge_info(id).expect("inserted edge live");
            adds.push((id, (u, v)));
        }
        self.d.union_with(OrdSet::from_pairs(adds));
        debug_assert_eq!(self.d.len(), self.msf.msf_edge_count());
    }

    /// Expires the `delta` oldest stream positions, eagerly cutting expired
    /// MSF edges. `O(Δ lg(1 + n/Δ) + lg n)` expected work.
    pub fn batch_expire(&mut self, delta: u64) {
        self.expire_before(self.tw.saturating_add(delta));
    }

    /// Moves the window's left endpoint to `tw` and cuts expired edges.
    pub fn expire_before(&mut self, tw: u64) {
        let tw = tw.max(self.tw).min(self.t);
        self.tw = tw;
        if tw == 0 {
            return;
        }
        let expired = self.d.split_leq(tw - 1);
        if expired.is_empty() {
            return;
        }
        let ids: Vec<u64> = expired.keys();
        self.msf.batch_delete(&ids);
    }

    /// Whether `u` and `v` are connected in the window. `O(lg n)` w.h.p.
    pub fn is_connected(&self, u: VertexId, v: VertexId) -> bool {
        self.msf.connected(u, v)
    }

    /// Number of connected components of the window graph, `O(1)`.
    pub fn num_components(&self) -> usize {
        self.msf.num_components()
    }

    /// Number of unexpired MSF edges (`|D|`).
    pub fn msf_edge_count(&self) -> usize {
        self.d.len()
    }

    /// The unexpired MSF edges as `(τ, u, v)`, oldest first.
    pub fn msf_edges(&self) -> Vec<(u64, VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.d.len());
        self.d.for_each(|tau, &(u, v)| out.push((tau, u, v)));
        out
    }

    /// Read access to the underlying MSF (tests, benches).
    pub fn msf(&self) -> &BatchMsf {
        &self.msf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force window connectivity oracle.
    struct Oracle {
        n: usize,
        edges: Vec<(u32, u32)>, // indexed by τ
        tw: usize,
    }

    impl Oracle {
        fn new(n: usize) -> Self {
            Oracle {
                n,
                edges: Vec::new(),
                tw: 0,
            }
        }

        fn insert(&mut self, es: &[(u32, u32)]) {
            self.edges.extend_from_slice(es);
        }

        fn expire(&mut self, d: usize) {
            self.tw = (self.tw + d).min(self.edges.len());
        }

        fn components(&self) -> usize {
            let mut uf: Vec<u32> = (0..self.n as u32).collect();
            fn find(uf: &mut [u32], mut x: u32) -> u32 {
                while uf[x as usize] != x {
                    x = uf[x as usize];
                }
                x
            }
            let mut c = self.n;
            for &(u, v) in &self.edges[self.tw..] {
                if u == v {
                    continue;
                }
                let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
                if ru != rv {
                    uf[ru as usize] = rv;
                    c -= 1;
                }
            }
            c
        }

        fn connected(&self, a: u32, b: u32) -> bool {
            let mut uf: Vec<u32> = (0..self.n as u32).collect();
            fn find(uf: &mut [u32], mut x: u32) -> u32 {
                while uf[x as usize] != x {
                    x = uf[x as usize];
                }
                x
            }
            for &(u, v) in &self.edges[self.tw..] {
                if u != v {
                    let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
                    uf[ru as usize] = rv;
                }
            }
            find(&mut uf.clone(), a) == find(&mut uf.clone(), b)
        }
    }

    fn drive(n: usize, script: &[(&[(u32, u32)], u64)], check_pairs: &[(u32, u32)]) {
        let mut lazy = SwConn::new(n, 7);
        let mut eager = SwConnEager::new(n, 8);
        let mut oracle = Oracle::new(n);
        for &(batch, expire) in script {
            lazy.batch_insert(batch);
            eager.batch_insert(batch);
            oracle.insert(batch);
            lazy.batch_expire(expire);
            eager.batch_expire(expire);
            oracle.expire(expire as usize);
            assert_eq!(eager.num_components(), oracle.components());
            for &(a, b) in check_pairs {
                let expect = oracle.connected(a, b);
                assert_eq!(lazy.is_connected(a, b), expect, "lazy ({a},{b})");
                assert_eq!(eager.is_connected(a, b), expect, "eager ({a},{b})");
            }
        }
    }

    #[test]
    fn basic_window_slide() {
        // Path 0-1-2-3 arrives, then expires edge by edge.
        drive(
            4,
            &[
                (&[(0, 1), (1, 2), (2, 3)], 0),
                (&[], 1), // (0,1) expires
                (&[], 1), // (1,2) expires
                (&[(0, 1)], 0),
            ],
            &[(0, 1), (0, 3), (1, 2), (2, 3)],
        );
    }

    #[test]
    fn reinsertion_refreshes_connectivity() {
        // The same edge re-arrives with a newer timestamp: connectivity
        // must survive the expiry of the original.
        drive(
            3,
            &[
                (&[(0, 1), (1, 2)], 0),
                (&[(0, 1)], 2), // old (0,1) and (1,2) expire, new (0,1) lives
            ],
            &[(0, 1), (0, 2), (1, 2)],
        );
    }

    #[test]
    fn expire_everything() {
        drive(3, &[(&[(0, 1), (1, 2)], 0), (&[], 99)], &[(0, 1), (0, 2)]);
    }

    #[test]
    fn randomized_against_oracle() {
        use bimst_primitives::hash::hash2;
        let n = 24usize;
        let mut lazy = SwConn::new(n, 17);
        let mut eager = SwConnEager::new(n, 18);
        let mut oracle = Oracle::new(n);
        for round in 0..60u64 {
            let len = (hash2(round, 0) % 7) as usize;
            let batch: Vec<(u32, u32)> = (0..len)
                .map(|k| {
                    let u = (hash2(round, 2 * k as u64 + 1) % n as u64) as u32;
                    let mut v = (hash2(round, 2 * k as u64 + 2) % (n as u64 - 1)) as u32;
                    if v >= u {
                        v += 1;
                    }
                    (u, v)
                })
                .collect();
            lazy.batch_insert(&batch);
            eager.batch_insert(&batch);
            oracle.insert(&batch);
            let d = hash2(round, 99) % 5;
            lazy.batch_expire(d);
            eager.batch_expire(d);
            oracle.expire(d as usize);
            assert_eq!(eager.num_components(), oracle.components(), "round {round}");
            for a in 0..n as u32 {
                let b = (hash2(round ^ 0xbeef, a as u64) % n as u64) as u32;
                let expect = oracle.connected(a, b);
                assert_eq!(lazy.is_connected(a, b), expect, "lazy r{round} ({a},{b})");
                assert_eq!(eager.is_connected(a, b), expect, "eager r{round} ({a},{b})");
            }
        }
        eager.msf().forest().verify_against_scratch().unwrap();
    }

    #[test]
    fn eager_msf_edges_sorted_by_tau() {
        let mut e = SwConnEager::new(5, 3);
        e.batch_insert(&[(0, 1), (1, 2), (3, 4)]);
        let edges = e.msf_edges();
        assert_eq!(edges.len(), 3);
        assert!(edges.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Checkpoint/restore prefix-equivalence: restore a fresh structure
    /// from `compact_edges()` mid-stream, continue both copies with the
    /// identical op suffix, and every answer must stay bit-identical —
    /// for both expiry disciplines (the invariant `bimst-wal` recovery
    /// rests on).
    #[test]
    fn restore_is_prefix_equivalent() {
        use bimst_primitives::hash::hash2;
        let n = 20usize;
        let mut lazy = SwConn::new(n, 3);
        let mut eager = SwConnEager::new(n, 4);
        let step = |w_lazy: &mut SwConn, w_eager: &mut SwConnEager, round: u64| {
            let len = (hash2(round, 0) % 6) as usize;
            let batch: Vec<(u32, u32)> = (0..len)
                .map(|k| {
                    (
                        (hash2(round, 2 * k as u64 + 1) % n as u64) as u32,
                        (hash2(round, 2 * k as u64 + 2) % n as u64) as u32,
                    )
                })
                .collect();
            w_lazy.batch_insert(&batch);
            w_eager.batch_insert(&batch);
            let d = hash2(round, 77) % 4;
            w_lazy.batch_expire(d);
            w_eager.batch_expire(d);
        };
        for round in 0..25u64 {
            step(&mut lazy, &mut eager, round);
        }

        // Snapshot both, restore fresh copies (fresh = same constructor
        // args, as `Service::recover` rebuilds them).
        let (ltw, lt) = lazy.window();
        let mut lazy2 = SwConn::new(n, 3);
        lazy2.restore(&lazy.compact_edges(), ltw, lt);
        let (etw, et) = eager.window();
        let mut eager2 = SwConnEager::new(n, 4);
        eager2.restore(&eager.compact_edges(), etw, et);
        assert_eq!(lazy2.window(), lazy.window());
        assert_eq!(eager2.window(), eager.window());
        assert_eq!(eager2.num_components(), eager.num_components());
        // The install batch's scratch is released, not kept.
        assert_eq!(lazy2.msf().scratch_high_water(), 0);
        assert_eq!(eager2.msf().scratch_high_water(), 0);

        // Continue both with the identical suffix; answers must agree.
        for round in 25..50u64 {
            step(&mut lazy, &mut eager, round);
            step(&mut lazy2, &mut eager2, round);
            assert_eq!(eager2.num_components(), eager.num_components());
            for a in 0..n as u32 {
                let b = (hash2(round ^ 0xfeed, a as u64) % n as u64) as u32;
                assert_eq!(
                    lazy2.is_connected(a, b),
                    lazy.is_connected(a, b),
                    "lazy r{round} ({a},{b})"
                );
                assert_eq!(
                    eager2.is_connected(a, b),
                    eager.is_connected(a, b),
                    "eager r{round} ({a},{b})"
                );
                assert_eq!(
                    eager2.msf().path_max(a, b),
                    eager.msf().path_max(a, b),
                    "eager path_max r{round} ({a},{b})"
                );
                assert_eq!(
                    lazy2.msf().path_max(a, b),
                    lazy.msf().path_max(a, b),
                    "lazy path_max r{round} ({a},{b})"
                );
            }
        }
    }

    /// Retained spill capacity tracks the live round rows: an eager window
    /// at n = w = 2¹¹ after 20 turnovers of 256-edge insert + expire rounds
    /// holds at most twice the live rows (spill buffers kept across slot
    /// recycling retained 13× the live rows on this stream).
    #[test]
    fn eager_round_rows_track_the_live_window() {
        use bimst_primitives::hash::hash2;
        let n = 1usize << 11;
        let batch = 256u64;
        let mut w = SwConnEager::new(n, 5);
        for round in 0..20 * n as u64 / batch {
            let edges: Vec<(u32, u32)> = (0..batch)
                .map(|k| {
                    let u = (hash2(round, 2 * k) % n as u64) as u32;
                    let mut v = (hash2(round, 2 * k + 1) % (n as u64 - 1)) as u32;
                    if v >= u {
                        v += 1;
                    }
                    (u, v)
                })
                .collect();
            w.batch_insert(&edges);
            if w.window().1 > n as u64 {
                w.batch_expire(batch);
            }
        }
        let (live, retained) = w.msf().forest().engine().round_rows();
        assert!(live > 0, "the window never reached a spill round");
        assert!(
            retained <= 2 * live,
            "{retained} spill rows retained for {live} live"
        );
    }

    /// A fully-expired window checkpoints to an empty edge set with
    /// `tw == t`; restore must land on exactly that window, not clamp it.
    #[test]
    fn restore_fully_expired_window() {
        let mut eager = SwConnEager::new(4, 1);
        eager.batch_insert(&[(0, 1), (1, 2)]);
        eager.batch_expire(99);
        assert_eq!(eager.window(), (2, 2));
        assert!(eager.compact_edges().is_empty());
        let mut fresh = SwConnEager::new(4, 1);
        fresh.restore(&[], 2, 2);
        assert_eq!(fresh.window(), (2, 2));
        assert_eq!(fresh.num_components(), 4);
        // And the stream continues at position t.
        assert_eq!(fresh.batch_insert(&[(2, 3)]), 2);
        assert!(fresh.is_connected(2, 3));
    }

    #[test]
    #[should_panic(expected = "fresh structure")]
    fn restore_refuses_a_written_structure() {
        let mut w = SwConnEager::new(4, 1);
        w.batch_insert(&[(0, 1)]);
        w.restore(&[], 1, 1);
    }

    #[test]
    fn self_loops_in_stream_are_harmless() {
        let mut e = SwConnEager::new(3, 4);
        e.batch_insert(&[(1, 1), (0, 1)]);
        assert_eq!(e.num_components(), 2);
        e.batch_expire(1); // expires the self-loop slot
        assert!(e.is_connected(0, 1));
        e.batch_expire(1);
        assert!(!e.is_connected(0, 1));
    }
}
