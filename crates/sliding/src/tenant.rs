//! Multi-tenant nested windows over one shared stream.
//!
//! The recent-edge property (Lemma 5.1) says window connectivity is
//! recoverable from the *full-stream* incremental MSF by filtering the
//! heaviest (= oldest) MSF path edge against the window's left endpoint τ.
//! Nothing in that argument is specific to one window: for any cutoff
//! `τᵢ ≥ TW` the same retained MSF answers connectivity over the suffix
//! `[τᵢ, t)`. So N logical windows ("tenants") over one stream need **one**
//! maintained structure — the longest window's lazy [`SwConn`] — with a
//! per-tenant cutoff `τᵢ = t − ℓᵢ` applied at query time, instead of N
//! independent copies each paying the full contraction cost per insert.
//!
//! [`TenantSet`] is that registry. Each tenant is `(id, ℓᵢ)`; inserts feed
//! the shared structure once, and every tenant's window slides implicitly
//! with the stream position. Every tenant, however short its window, is
//! answered from the shared structure: a separate lazy structure for a
//! short window would not be smaller, because lazy expiry only moves its
//! left endpoint and it keeps the same whole-stream MSF. Answers are
//! bit-identical to a naive per-tenant replica — the differential suite
//! (`tests/prop_tenants.rs`) pins that.

use crate::conn::{SlidingWrite, SwConn};
use bimst_primitives::VertexId;

/// One logical window over the shared stream: `id` tags its queries, and
/// the tenant sees exactly the suffix `[t − window, t)` of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant id, unique within a [`TenantSet`].
    pub id: u32,
    /// Window length ℓᵢ in stream positions (must be positive).
    pub window: u64,
}

struct TenantEntry {
    id: u32,
    window: u64,
}

/// N logical sliding windows ("tenants") served from one shared
/// lazy-expiry structure sized to the longest window (see module docs).
///
/// Writes go through [`SlidingWrite`] exactly like a single window — every
/// tenant's window slides implicitly with the stream, and an explicit
/// [`TenantSet::batch_expire`] advances a *global* floor clamping every
/// tenant's cutoff (the serving runtime's expiry semantics, shared by all
/// tenants of one stream). Reads resolve a tenant to the shared structure
/// plus its cutoff `τᵢ = max(t − ℓᵢ, floor)`.
pub struct TenantSet {
    /// The shared structure: lazy expiry, window = ℓ_max.
    shared: SwConn,
    /// ℓ_max over all tenants.
    max_window: u64,
    /// Registry sorted by tenant id (binary-searched on the query path).
    tenants: Vec<TenantEntry>,
    /// Explicitly expired stream prefix (from [`TenantSet::batch_expire`]);
    /// clamps every tenant's cutoff from below.
    floor: u64,
    /// This set's own metrics registry (cutoff lag); a serving layer
    /// reaches it via [`SlidingWrite::obs_recorder`] and folds it into its
    /// snapshot.
    obs: TenantObs,
}

/// Metric handles for one tenant set, on its own [`bimst_obs::Recorder`]
/// (per-instance, so parallel tests and co-resident sets never mix).
struct TenantObs {
    rec: bimst_obs::Recorder,
    /// `tenant_cutoff_lag`: per tenant per write batch, how far its cutoff
    /// `τᵢ` sits ahead of the shared structure's left endpoint.
    cutoff_lag: bimst_obs::Histogram,
}

impl TenantObs {
    fn new() -> Self {
        let rec = bimst_obs::Recorder::new();
        TenantObs {
            cutoff_lag: rec.histogram("tenant_cutoff_lag"),
            rec,
        }
    }
}

impl TenantSet {
    /// A fresh tenant set over `n` vertices.
    ///
    /// # Panics
    ///
    /// If `specs` is empty, a window is zero, or tenant ids repeat.
    pub fn new(n: usize, seed: u64, specs: &[TenantSpec]) -> Self {
        assert!(!specs.is_empty(), "TenantSet needs at least one tenant");
        assert!(
            specs.iter().all(|s| s.window > 0),
            "tenant windows must be positive"
        );
        let max_window = specs.iter().map(|s| s.window).max().unwrap();
        let mut tenants: Vec<TenantEntry> = specs
            .iter()
            .map(|s| TenantEntry {
                id: s.id,
                window: s.window,
            })
            .collect();
        tenants.sort_by_key(|e| e.id);
        assert!(
            tenants.windows(2).all(|w| w[0].id != w[1].id),
            "duplicate tenant id"
        );
        TenantSet {
            shared: SwConn::new(n, seed),
            max_window,
            tenants,
            floor: 0,
            obs: TenantObs::new(),
        }
    }

    /// This set's metrics registry (`tenant_*` metrics).
    pub fn obs(&self) -> &bimst_obs::Recorder {
        &self.obs.rec
    }

    fn entry(&self, tenant: u32) -> Option<&TenantEntry> {
        self.tenants
            .binary_search_by_key(&tenant, |e| e.id)
            .ok()
            .map(|i| &self.tenants[i])
    }

    /// Slides the shared structure's left endpoint to the longest
    /// window's cutoff (windows are suffixes of the stream, so cutoffs only
    /// grow).
    fn advance(&mut self) {
        let t = self.shared.window().1;
        let shared_start = t.saturating_sub(self.max_window).max(self.floor);
        self.shared.expire_before(shared_start);
        for e in &self.tenants {
            // Cutoff lag: how far this tenant's visible suffix starts ahead
            // of the shared structure's left endpoint (0 for the ℓ_max
            // tenant; larger for shorter windows).
            let tau = t.saturating_sub(e.window).max(self.floor);
            self.obs.cutoff_lag.record(tau - shared_start);
        }
    }

    /// Appends a batch on the new side of every tenant's window; positions
    /// are assigned consecutively by the shared stream. Returns the τ of
    /// the first edge.
    pub fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        let first = self.shared.batch_insert(edges);
        self.advance();
        first
    }

    /// Expires the `delta` oldest stream positions *globally*: the floor
    /// applies to every tenant's cutoff (a tenant's own window can only
    /// shrink it further via ℓᵢ).
    pub fn batch_expire(&mut self, delta: u64) {
        let t = self.shared.window().1;
        self.floor = self.floor.saturating_add(delta).min(t);
        self.advance();
    }

    /// The shared structure (read access for query layers).
    pub fn shared(&self) -> &SwConn {
        &self.shared
    }

    /// The shared window `[tw, t)` — `tw` is ℓ_max back, the oldest
    /// position any tenant can see.
    pub fn window(&self) -> (u64, u64) {
        self.shared.window()
    }

    /// The shared window's left endpoint τ (see
    /// [`SwConn::window_start_tau`]); every tenant cutoff is ≥ this.
    pub fn window_start_tau(&self) -> u64 {
        self.shared.window_start_tau()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.shared.num_vertices()
    }

    /// ℓ_max over all tenants.
    pub fn max_window(&self) -> u64 {
        self.max_window
    }

    /// Registered tenant ids, ascending.
    pub fn tenant_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.tenants.iter().map(|e| e.id)
    }

    /// The tenant's current expiry cutoff `τᵢ = max(t − ℓᵢ, floor)`, or
    /// `None` for an unknown tenant. Always ≥ the shared
    /// [`TenantSet::window_start_tau`].
    pub fn cutoff(&self, tenant: u32) -> Option<u64> {
        let e = self.entry(tenant)?;
        let t = self.shared.window().1;
        Some(t.saturating_sub(e.window).max(self.floor))
    }

    /// Whether `u` and `v` are connected in `tenant`'s window — the
    /// sequential reference the batched plans must match bit-identically.
    ///
    /// # Panics
    ///
    /// On an unknown tenant id (a routing bug, not a data-dependent
    /// condition — fail stop).
    pub fn is_connected(&self, tenant: u32, u: VertexId, v: VertexId) -> bool {
        let tau = self
            .cutoff(tenant)
            .unwrap_or_else(|| panic!("bimst-sliding: unknown tenant id {tenant}"));
        if u == v {
            return true;
        }
        match self.shared.msf().path_max(u, v) {
            // Recent-edge test at the tenant's own cutoff.
            Some(k) => k.id >= tau,
            None => false,
        }
    }
}

impl SlidingWrite for TenantSet {
    fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        TenantSet::batch_insert(self, edges)
    }
    fn batch_expire(&mut self, delta: u64) {
        TenantSet::batch_expire(self, delta)
    }
    fn window(&self) -> (u64, u64) {
        TenantSet::window(self)
    }
    fn num_vertices(&self) -> usize {
        TenantSet::num_vertices(self)
    }
    fn obs_recorder(&self) -> Option<&bimst_obs::Recorder> {
        Some(&self.obs.rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::hash::hash2;

    /// A standalone per-tenant replica: the naive baseline the shared
    /// structure must match answer-for-answer.
    struct Naive {
        w: SwConn,
        window: u64,
        floor: u64,
    }

    impl Naive {
        fn new(n: usize, window: u64, seed: u64) -> Self {
            Naive {
                w: SwConn::new(n, seed),
                window,
                floor: 0,
            }
        }
        fn advance(&mut self) {
            let t = self.w.window().1;
            self.w
                .expire_before(t.saturating_sub(self.window).max(self.floor));
        }
        fn insert(&mut self, edges: &[(u32, u32)]) {
            self.w.batch_insert(edges);
            self.advance();
        }
        fn expire(&mut self, delta: u64) {
            let t = self.w.window().1;
            self.floor = self.floor.saturating_add(delta).min(t);
            self.advance();
        }
    }

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec { id: 3, window: 64 },
            TenantSpec { id: 0, window: 16 },
            TenantSpec { id: 7, window: 4 },
        ]
    }

    #[test]
    fn shared_answers_match_naive_replicas() {
        let n = 24usize;
        // ℓ = 4 is 1/16 of ℓ_max = 64 and still answers from the shared
        // structure.
        let mut ts = TenantSet::new(n, 5, &specs());
        let mut naive: Vec<(u32, Naive)> = specs()
            .iter()
            .map(|s| (s.id, Naive::new(n, s.window, 99 + u64::from(s.id))))
            .collect();
        for round in 0..50u64 {
            let len = (hash2(round, 0) % 9) as usize;
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
            ts.batch_insert(&batch);
            for (_, nv) in &mut naive {
                nv.insert(&batch);
            }
            if hash2(round, 50).is_multiple_of(4) {
                let d = hash2(round, 51) % 7;
                ts.batch_expire(d);
                for (_, nv) in &mut naive {
                    nv.expire(d);
                }
            }
            for (id, nv) in &naive {
                assert_eq!(ts.cutoff(*id), Some(nv.w.window_start_tau()), "r{round}");
                for a in 0..n as u32 {
                    let b = (hash2(round ^ 0xabcd, a as u64) % n as u64) as u32;
                    assert_eq!(
                        ts.is_connected(*id, a, b),
                        nv.w.is_connected(a, b),
                        "tenant {id} r{round} ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn cutoffs_are_nested_and_floored() {
        let mut ts = TenantSet::new(8, 1, &specs());
        ts.batch_insert(&(0..100).map(|i| (i % 8, (i + 1) % 8)).collect::<Vec<_>>());
        // t = 100: cutoffs are t − ℓᵢ, all ≥ the shared window start.
        assert_eq!(ts.window(), (100 - 64, 100));
        assert_eq!(ts.cutoff(3), Some(36));
        assert_eq!(ts.cutoff(0), Some(84));
        assert_eq!(ts.cutoff(7), Some(96));
        assert_eq!(ts.cutoff(42), None, "unknown tenant");
        assert!(ts.tenant_ids().eq([0, 3, 7]));
        // A global expire past every cutoff floors them all.
        ts.batch_expire(98);
        assert_eq!(ts.cutoff(3), Some(98));
        assert_eq!(ts.cutoff(7), Some(98));
        assert_eq!(ts.window_start_tau(), 98);
        // The floor clamps at t.
        ts.batch_expire(u64::MAX);
        assert_eq!(ts.cutoff(7), Some(100));
    }

    #[test]
    #[should_panic(expected = "unknown tenant id")]
    fn unknown_tenant_fails_stop() {
        let ts = TenantSet::new(4, 1, &specs());
        ts.is_connected(42, 0, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn duplicate_ids_rejected() {
        let dup = [
            TenantSpec { id: 1, window: 8 },
            TenantSpec { id: 1, window: 9 },
        ];
        TenantSet::new(4, 1, &dup);
    }
}
