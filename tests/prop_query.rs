//! Property tests for the batch-parallel query engine (`bimst-query`):
//! every batch query API against the sequential per-query loop and against
//! the naive static oracle (`bimst_msf::ForestPathMax`), under random
//! insert/expire interleavings of a sliding-window stream.
//!
//! The per-query loop is the *definition* of correctness for the batch APIs
//! (ISSUE 3 requires bit-identical results); the static oracle additionally
//! guards against the loop and the batch plan sharing a bug, since it
//! recomputes connectivity/path-maxima from the raw MSF edge list with a
//! completely independent algorithm (binary lifting).

use std::sync::{Mutex, MutexGuard, PoisonError};

use bimst_core::BatchMsf;
use bimst_msf::ForestPathMax;
use bimst_primitives::monoid::{Hops, MaxW, MinW, Pair};
use bimst_primitives::WKey;
use bimst_query::{QueryBatch, ReadHandle};
use bimst_sliding::{SwConn, SwConnEager};
use proptest::prelude::*;

/// Serializes this file's tests: `linear_plan_batches_match_loops_and_oracle`
/// and `linear_fold_batches_match_loops` count their plans on the
/// process-wide `query_plan_linear` and `query_pathmax_chunks` counters,
/// which every batch in this binary may bump.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Component sizes from the raw MSF edge list via union-find — the naive
/// counterpart of `batch_component_size`.
fn oracle_sizes(n: usize, msf: &BatchMsf) -> Vec<usize> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            let up = p[p[x as usize] as usize];
            p[x as usize] = up;
            x = up;
        }
        x
    }
    for (_, u, v, _) in msf.iter_msf_edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
        }
    }
    let mut count = vec![0usize; n];
    for v in 0..n as u32 {
        let r = find(&mut parent, v);
        count[r as usize] += 1;
    }
    (0..n as u32)
        .map(|v| count[find(&mut parent, v) as usize])
        .collect()
}

/// Checks every batch API on `msf` against the loop and the oracle for a
/// query batch derived deterministically from `qseed`.
fn check_msf_queries(n: usize, msf: &BatchMsf, q: &mut QueryBatch, qseed: u64) {
    use bimst_primitives::hash::hash2;
    let pairs: Vec<(u32, u32)> = (0..40u64)
        .map(|i| {
            (
                (hash2(qseed, 2 * i) % n as u64) as u32,
                (hash2(qseed, 2 * i + 1) % n as u64) as u32,
            )
        })
        .collect();
    let vs: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
    let h = ReadHandle::new(msf);

    // Oracle over the current MSF edge list.
    let edges: Vec<(u32, u32, WKey)> = msf.iter_msf_edges().map(|(_, u, v, k)| (u, v, k)).collect();
    let pm = ForestPathMax::new(n, &edges);
    let sizes = oracle_sizes(n, msf);

    let got_conn = q.batch_connected(h, &pairs);
    let got_pm = q.batch_path_max(h, &pairs);
    let got_sz = q.batch_component_size(h, &vs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        // Batch == per-query loop (bit-identical).
        assert_eq!(got_conn[i], msf.connected(u, v), "connected ({u},{v})");
        assert_eq!(got_pm[i], msf.path_max(u, v), "path_max ({u},{v})");
        assert_eq!(got_sz[i], msf.component_size(vs[i]), "size {}", vs[i]);
        // Batch == naive oracle.
        let oracle_conn = u == v || pm.connected(u, v);
        assert_eq!(got_conn[i], oracle_conn, "oracle connected ({u},{v})");
        assert_eq!(got_pm[i], pm.query(u, v), "oracle path_max ({u},{v})");
        assert_eq!(got_sz[i], sizes[vs[i] as usize], "oracle size {}", vs[i]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Window structures under random insert/expire interleavings: batched
    /// window connectivity and all MSF batch queries stay equal to the
    /// per-query loops and the oracle at every step.
    #[test]
    fn batch_queries_match_loops_and_oracle(
        script in proptest::collection::vec(
            (proptest::collection::vec((0u32..26, 0u32..26), 0..14), 0u64..8),
            1..12,
        ),
        seed in 0u64..200,
    ) {
        let _serial = serial();
        let n = 26usize;
        let mut lazy = SwConn::new(n, seed);
        let mut eager = SwConnEager::new(n, seed.wrapping_add(1));
        let mut q = QueryBatch::new();
        for (step, (batch, expire)) in script.iter().enumerate() {
            let batch: Vec<(u32, u32)> = batch.clone();
            lazy.batch_insert(&batch);
            eager.batch_insert(&batch);
            lazy.batch_expire(*expire);
            eager.batch_expire(*expire);

            // Window connectivity, both expiry disciplines, vs the loops.
            use bimst_primitives::hash::hash2;
            let qseed = seed ^ (step as u64) << 8;
            let pairs: Vec<(u32, u32)> = (0..30u64)
                .map(|i| {
                    (
                        (hash2(qseed, 2 * i) % n as u64) as u32,
                        (hash2(qseed, 2 * i + 1) % n as u64) as u32,
                    )
                })
                .collect();
            let got_lazy = q.batch_window_connected(&lazy, &pairs);
            let got_eager = q.batch_window_connected(&eager, &pairs);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                prop_assert_eq!(got_lazy[i], lazy.is_connected(u, v), "lazy ({},{})", u, v);
                prop_assert_eq!(got_eager[i], eager.is_connected(u, v), "eager ({},{})", u, v);
                // The two disciplines agree with each other on the same
                // window — a cross-structure oracle.
                prop_assert_eq!(got_lazy[i], got_eager[i], "disciplines ({},{})", u, v);
            }

            // The full MSF batch surface on the eager window's forest.
            check_msf_queries(n, eager.msf(), &mut q, qseed ^ 0xabcd);
        }
    }

    /// Plain BatchMsf histories (no window): batch queries vs loop vs
    /// oracle after every insert batch.
    #[test]
    fn msf_batch_queries_match(
        raw in proptest::collection::vec((0u32..20, 0u32..20, -50i32..50), 1..60),
        splits in proptest::collection::vec(1usize..12, 1..6),
        seed in 0u64..200,
    ) {
        let _serial = serial();
        let n = 20usize;
        let edges: Vec<(u32, u32, f64, u64)> = raw
            .iter()
            .enumerate()
            .filter(|&(_, &(u, v, _))| u != v)
            .map(|(i, &(u, v, w))| (u, v, w as f64, i as u64))
            .collect();
        let mut msf = BatchMsf::new(n, seed);
        let mut q = QueryBatch::new();
        let mut fed = 0usize;
        let mut si = 0usize;
        while fed < edges.len() {
            let len = splits[si % splits.len()].min(edges.len() - fed);
            si += 1;
            msf.batch_insert(&edges[fed..fed + len]);
            fed += len;
            check_msf_queries(n, &msf, &mut q, seed ^ fed as u64);
        }
    }

    /// Small forests under large batches: every max-summary surface —
    /// `batch_path_max`, lazy `batch_window_connected`, `batch_connected_at`
    /// and `batch_path_fold::<MaxW>` — takes the linear Kruskal-order plan
    /// (one `query_plan_linear` count per call), and answers exactly like
    /// the per-query loops and the binary-lifting oracle.
    #[test]
    fn linear_plan_batches_match_loops_and_oracle(
        script in proptest::collection::vec(
            (proptest::collection::vec((0u32..48, 0u32..48), 0..40), 0u64..12),
            1..6,
        ),
        nq in 64usize..400,
        seed in 0u64..200,
    ) {
        let _serial = serial();
        use bimst_primitives::hash::hash2;
        let n = 48usize;
        let mut lazy = SwConn::new(n, seed);
        let mut q = QueryBatch::new();
        let linear = bimst_obs::global().counter("query_plan_linear");
        for (step, (batch, expire)) in script.iter().enumerate() {
            lazy.batch_insert(batch);
            lazy.batch_expire(*expire);
            let qseed = seed ^ (step as u64) << 8;
            let pairs: Vec<(u32, u32)> = (0..nq as u64)
                .map(|i| {
                    (
                        (hash2(qseed, 2 * i) % n as u64) as u32,
                        (hash2(qseed, 2 * i + 1) % n as u64) as u32,
                    )
                })
                .collect();
            let (tw, t) = lazy.window();
            let cutoffs: Vec<u64> = (0..nq as u64)
                .map(|i| tw + hash2(qseed ^ 7, i) % (t - tw + 1))
                .collect();
            let msf = lazy.msf();
            let h = ReadHandle::new(msf);
            let before = linear.get();
            let got_pm = q.batch_path_max(h, &pairs);
            let got_conn = q.batch_window_connected(&lazy, &pairs);
            let got_at = q.batch_connected_at(&lazy, &pairs, &cutoffs);
            let got_fold = q.batch_path_fold::<MaxW>(h, &pairs);
            prop_assert_eq!(linear.get() - before, 4, "every batch on the linear plan");
            let edges: Vec<(u32, u32, WKey)> =
                msf.iter_msf_edges().map(|(_, u, v, k)| (u, v, k)).collect();
            let pm = ForestPathMax::new(n, &edges);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                prop_assert_eq!(got_pm[i], msf.path_max(u, v), "path_max ({},{})", u, v);
                prop_assert_eq!(got_pm[i], pm.query(u, v), "oracle path_max ({},{})", u, v);
                prop_assert_eq!(got_conn[i], lazy.is_connected(u, v), "window ({},{})", u, v);
                let at = u == v || pm.query(u, v).is_some_and(|k| k.id >= cutoffs[i]);
                prop_assert_eq!(got_at[i], at, "cutoff {} ({},{})", cutoffs[i], u, v);
                prop_assert_eq!(got_fold[i], got_pm[i], "MaxW fold ({},{})", u, v);
            }
        }
    }

    /// Small forests under large non-max fold batches: plain `Hops` and
    /// `MinW` folds and a cutoff `MinW` fold each take the linear fold plan
    /// (one `query_plan_linear` count per call, no CPT chunk), and answer
    /// exactly like the per-query loop.
    #[test]
    fn linear_fold_batches_match_loops(
        script in proptest::collection::vec(
            (proptest::collection::vec((0u32..48, 0u32..48), 0..40), 0u64..12),
            1..6,
        ),
        nq in 64usize..400,
        seed in 0u64..200,
    ) {
        let _serial = serial();
        use bimst_primitives::hash::hash2;
        let n = 48usize;
        let mut lazy = SwConn::new(n, seed);
        let mut q = QueryBatch::new();
        let linear = bimst_obs::global().counter("query_plan_linear");
        let chunks = bimst_obs::global().counter("query_pathmax_chunks");
        for (step, (batch, expire)) in script.iter().enumerate() {
            lazy.batch_insert(batch);
            lazy.batch_expire(*expire);
            let qseed = seed ^ (step as u64) << 8;
            let pairs: Vec<(u32, u32)> = (0..nq as u64)
                .map(|i| {
                    (
                        (hash2(qseed, 2 * i) % n as u64) as u32,
                        (hash2(qseed, 2 * i + 1) % n as u64) as u32,
                    )
                })
                .collect();
            let (tw, t) = lazy.window();
            let cutoffs: Vec<u64> = (0..nq as u64)
                .map(|i| tw + hash2(qseed ^ 7, i) % (t - tw + 1))
                .collect();
            let msf = lazy.msf();
            let h = ReadHandle::new(msf);
            let before = (linear.get(), chunks.get());
            let got_hops = q.batch_path_fold::<Hops>(h, &pairs);
            prop_assert_eq!(linear.get() - before.0, 1, "Hops batch on the linear plan");
            let got_min = q.batch_path_fold::<MinW>(h, &pairs);
            prop_assert_eq!(linear.get() - before.0, 2, "MinW batch on the linear plan");
            let got_at = q.batch_path_fold_at::<MinW, _>(&lazy, &pairs, &cutoffs);
            prop_assert_eq!(linear.get() - before.0, 3, "cutoff batch on the linear plan");
            prop_assert_eq!(chunks.get(), before.1, "no CPT chunk on the linear plan");
            for (i, &(u, v)) in pairs.iter().enumerate() {
                prop_assert_eq!(got_hops[i], msf.path_fold::<Hops>(u, v), "Hops ({},{})", u, v);
                prop_assert_eq!(got_min[i], msf.path_fold::<MinW>(u, v), "MinW ({},{})", u, v);
                let at = msf
                    .path_fold::<Pair<MaxW, MinW>>(u, v)
                    .and_then(|(mk, k)| (mk.id >= cutoffs[i]).then_some(k));
                prop_assert_eq!(got_at[i], at, "cutoff {} ({},{})", cutoffs[i], u, v);
            }
        }
    }
}

/// Large single-shot cross-check: one big query batch spanning many
/// components and both path-plan regimes (the linear Kruskal-order plan,
/// which a batch this size takes on this forest, and the small-batch
/// per-query walks), against the loops.
#[test]
fn large_batch_matches_loop_on_er_graph() {
    let _serial = serial();
    use bimst_graphgen::erdos_renyi;
    use bimst_primitives::hash::hash2;
    let n = 3000usize;
    let mut msf = BatchMsf::new(n, 9);
    for chunk in erdos_renyi(n as u32, 6000, 5).chunks(512) {
        msf.batch_insert(chunk);
    }
    let pairs: Vec<(u32, u32)> = (0..2000u64)
        .map(|i| {
            (
                (hash2(3, 2 * i) % n as u64) as u32,
                (hash2(3, 2 * i + 1) % n as u64) as u32,
            )
        })
        .collect();
    let mut q = QueryBatch::new();
    let h = ReadHandle::new(&msf);
    let conn = q.batch_connected(h, &pairs);
    let pm = q.batch_path_max(h, &pairs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        assert_eq!(conn[i], msf.connected(u, v));
        assert_eq!(pm[i], msf.path_max(u, v));
    }
    // And the small-batch regime on the same structure.
    let small = &pairs[..7];
    assert_eq!(q.batch_path_max(h, small), pm[..7].to_vec());
}
