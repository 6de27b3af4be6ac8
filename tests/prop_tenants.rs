//! Differential oracles for multi-tenant serving ([`TenantSet`] and the
//! cutoff query plans): every tenant's answers under the shared
//! structure must be **bit-identical** to a dedicated per-tenant
//! [`SwConn`] replaying the same stream — the Lemma 5.1 claim the whole
//! tentpole rests on, probed under [`bimst_graphgen::MixedStream`]
//! interleavings (tenant-tagged, batched inserts, window-holding
//! expirations) rather than hand-rolled scripts.
//!
//! The naive replica is exact, not approximate: `SwConn`'s MSF is unique
//! given distinct stream positions, so a replica fed the same edges at the
//! same positions answers identically regardless of its seed — any
//! mismatch is a real routing/cutoff bug, never noise.
//!
//! Tenant windows span ℓ_max down to ℓ_max / 16, so short windows are
//! answered from the same shared structure as the longest one.
//!
//! Every property replays the checked-in seeds in `tests/seeds/` first —
//! the workspace's regression-corpus convention (see `TESTING.md`).

use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_primitives::hash::hash2;
use bimst_query::QueryBatch;
use bimst_sliding::{SwConn, TenantSet, TenantSpec};
use proptest::prelude::*;

/// The oracle: one dedicated lazy window per tenant, fed every stream
/// edge, with the same `expire_before` discipline `TenantSet` applies
/// (window slide after every write, floored by the explicit expirations).
struct NaiveTenant {
    w: SwConn,
    window: u64,
    floor: u64,
}

impl NaiveTenant {
    fn new(n: usize, seed: u64, window: u64) -> Self {
        NaiveTenant {
            w: SwConn::new(n, seed),
            window,
            floor: 0,
        }
    }

    fn insert(&mut self, edges: &[(u32, u32)]) {
        self.w.batch_insert(edges);
        self.advance();
    }

    fn expire(&mut self, delta: u64) {
        let (_, t) = self.w.window();
        self.floor = self.floor.saturating_add(delta).min(t);
        self.advance();
    }

    fn advance(&mut self) {
        let (_, t) = self.w.window();
        self.w
            .expire_before(t.saturating_sub(self.window).max(self.floor));
    }
}

/// A tenant-tagged MixedStream workload plus the tenant registry shape:
/// windows are fixed fractions of the longest window, so they are nested
/// and span a 16× range.
fn tenant_cfg() -> impl Strategy<Value = (MixedConfig, Vec<TenantSpec>, u64)> {
    (
        prop_oneof![
            Just(MixedTopology::ErdosRenyi),
            Just(MixedTopology::PowerLaw),
            Just(MixedTopology::Grid),
        ],
        1usize..6,
        8u64..64,
        0u64..1_000_000,
    )
        .prop_map(|(topology, insert_batch, max_window, seed)| {
            let windows = [
                max_window,
                (max_window / 2).max(1),
                (max_window / 5).max(1),
                (max_window / 16).max(1),
            ];
            let specs: Vec<TenantSpec> = windows
                .iter()
                .enumerate()
                .map(|(i, &window)| TenantSpec {
                    id: i as u32,
                    window,
                })
                .collect();
            let cfg = MixedConfig {
                n: 48,
                topology,
                insert_batch,
                query_batch: 3,
                queries_per_insert: 1,
                window: max_window,
                tenants: specs.len() as u32,
            };
            (cfg, specs, seed)
        })
}

/// Deterministic query pairs for a checkpoint (the stream's own query ops
/// trigger the checkpoints; the pairs are drawn separately so every tenant
/// is probed with the same batch).
fn query_pairs(seed: u64, round: u64, n: u32, count: usize) -> Vec<(u32, u32)> {
    (0..count as u64)
        .map(|i| {
            (
                (hash2(seed, round * 1024 + 2 * i) % u64::from(n)) as u32,
                (hash2(seed, round * 1024 + 2 * i + 1) % u64::from(n)) as u32,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-tenant point queries through the shared structure match the
    /// naive dedicated replica at every
    /// checkpoint, and the published cutoffs match the replica's window
    /// start exactly.
    #[test]
    fn tenant_set_matches_dedicated_replicas((cfg, specs, seed) in tenant_cfg()) {
        let n = cfg.n as usize;
        let mut ts = TenantSet::new(n, seed, &specs);
        let mut naive: Vec<NaiveTenant> = specs
            .iter()
            .map(|s| NaiveTenant::new(n, seed ^ 0xd1f0, s.window))
            .collect();
        let mut round = 0u64;
        for op in MixedStream::new(cfg, seed).take_ops(40) {
            match op {
                Op::Insert(batch) => {
                    ts.batch_insert(&batch);
                    for nv in &mut naive {
                        nv.insert(&batch);
                    }
                }
                Op::Expire(delta) => {
                    ts.batch_expire(delta);
                    for nv in &mut naive {
                        nv.expire(delta);
                    }
                }
                _ => {
                    round += 1;
                    for (s, nv) in specs.iter().zip(&naive) {
                        prop_assert_eq!(
                            ts.cutoff(s.id),
                            Some(nv.w.window_start_tau()),
                            "cutoff drifted for tenant {} at round {}",
                            s.id,
                            round
                        );
                        for (u, v) in query_pairs(seed, round, cfg.n, 8) {
                            prop_assert_eq!(
                                ts.is_connected(s.id, u, v),
                                nv.w.is_connected(u, v),
                                "tenant {} disagrees on ({u}, {v}) at round {}",
                                s.id,
                                round
                            );
                        }
                    }
                }
            }
        }
    }

    /// A *mixed-tenant* batch through the shared path-max plan
    /// (`batch_connected_at`, each query at its tenant's
    /// `TenantSet::cutoff`) is bit-identical to the per-tenant naive
    /// replicas — the queries of all tenants share one path-max pass, with
    /// the per-tenant cutoffs applied only as the final filter.
    #[test]
    fn mixed_tenant_plans_match_naive_replicas((cfg, specs, seed) in tenant_cfg()) {
        let n = cfg.n as usize;
        let mut ts = TenantSet::new(n, seed, &specs);
        let mut naive: Vec<NaiveTenant> = specs
            .iter()
            .map(|s| NaiveTenant::new(n, seed ^ 0xbeef, s.window))
            .collect();
        let mut q = QueryBatch::new();
        let mut round = 0u64;
        for op in MixedStream::new(cfg, seed).take_ops(40) {
            match op {
                Op::Insert(batch) => {
                    ts.batch_insert(&batch);
                    for nv in &mut naive {
                        nv.insert(&batch);
                    }
                }
                Op::Expire(delta) => {
                    ts.batch_expire(delta);
                    for nv in &mut naive {
                        nv.expire(delta);
                    }
                }
                _ => {
                    round += 1;
                    // Interleave the tenants within one batch so the
                    // shared plan really mixes cutoffs rather than running
                    // per-tenant segments.
                    let mixed: Vec<(u32, u32, u32)> = query_pairs(seed, round, cfg.n, 12)
                        .into_iter()
                        .enumerate()
                        .map(|(i, (u, v))| ((i % specs.len()) as u32, u, v))
                        .collect();
                    let (pairs, cutoffs): (Vec<_>, Vec<_>) = mixed
                        .iter()
                        .map(|&(tenant, u, v)| ((u, v), ts.cutoff(tenant).unwrap()))
                        .unzip();
                    let got = q.batch_connected_at(&ts, &pairs, &cutoffs);
                    let want: Vec<bool> = mixed
                        .iter()
                        .map(|&(tenant, u, v)| naive[tenant as usize].w.is_connected(u, v))
                        .collect();
                    prop_assert_eq!(
                        &got,
                        &want,
                        "mixed batch diverged at round {}",
                        round
                    );
                }
            }
        }
    }
}
