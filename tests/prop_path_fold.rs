//! Property tests for monoid-generic path aggregation (ISSUE 9): the
//! `path_fold` surface across engine and query layers, against two
//! independent referees under [`bimst_graphgen::MixedStream`]
//! insert/expire interleavings.
//!
//! * **Bit-identity.** `batch_path_fold::<MaxW>` (and the engine's
//!   `path_fold::<MaxW>`) must equal `batch_path_max` / `path_max`
//!   *exactly* — `path_max` is now a thin wrapper over the generic fold,
//!   and the refactor's contract is that the wrapper changed nothing.
//! * **Naive oracle.** `MinW` / `SumW` / `Hops` folds are recomputed from
//!   the raw MSF edge list (`iter_msf_edges`) by BFS-walking the unique
//!   tree path and folding edge by edge — no CPT, no segment
//!   aggregation, no shared plan. Stream weights are recency integers
//!   (−τ), so even the `SumW` comparison is exact: integer-valued f64
//!   addition is associative regardless of how the batch plan brackets
//!   the segments.
//! * **Composition.** `Pair<MaxW, Hops>` must answer componentwise — one
//!   walk, two monoids.
//!
//! Every property replays the checked-in seeds in `tests/seeds/` first —
//! the workspace's regression-corpus convention (see `TESTING.md`).

use bimst_core::BatchMsf;
use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_primitives::{Hops, MaxW, MinW, Pair, SumW, WKey};
use bimst_query::{QueryBatch, ReadHandle};
use bimst_sliding::{SwConn, SwConnEager};
use proptest::prelude::*;

/// The tree path's edge keys between `u` and `v` in the MSF, from the raw
/// edge list via BFS — the independent referee every fold is checked
/// against. `None` when disconnected; `Some(vec![])` only for `u == v`
/// (which the fold APIs define as `None`, checked by the callers).
fn naive_path_keys(n: usize, msf: &BatchMsf, u: u32, v: u32) -> Option<Vec<WKey>> {
    let mut adj: Vec<Vec<(u32, WKey)>> = vec![Vec::new(); n];
    for (_, a, b, k) in msf.iter_msf_edges() {
        adj[a as usize].push((b, k));
        adj[b as usize].push((a, k));
    }
    let mut parent: Vec<Option<(u32, WKey)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([u]);
    seen[u as usize] = true;
    while let Some(x) = queue.pop_front() {
        if x == v {
            break;
        }
        for &(y, k) in &adj[x as usize] {
            if !seen[y as usize] {
                seen[y as usize] = true;
                parent[y as usize] = Some((x, k));
                queue.push_back(y);
            }
        }
    }
    if !seen[v as usize] {
        return None;
    }
    let mut keys = Vec::new();
    let mut x = v;
    while x != u {
        let (p, k) = parent[x as usize].expect("BFS reached v, so the chain closes at u");
        keys.push(k);
        x = p;
    }
    Some(keys)
}

/// Checks the whole fold surface on one MSF state for one query batch:
/// MaxW bit-identity, MinW/SumW/Hops vs the naive referee, and the
/// `Pair<MaxW, Hops>` composition.
fn check_folds(n: usize, msf: &BatchMsf, q: &mut QueryBatch, pairs: &[(u32, u32)]) {
    let h = ReadHandle::new(msf);
    let max = q.batch_path_fold::<MaxW>(h, pairs);
    let pm = q.batch_path_max(h, pairs);
    let mins = q.batch_path_fold::<MinW>(h, pairs);
    let sums = q.batch_path_fold::<SumW>(h, pairs);
    let hops = q.batch_path_fold::<Hops>(h, pairs);
    let both = q.batch_path_fold::<Pair<MaxW, Hops>>(h, pairs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        // Bit-identity of the MaxW instance with the legacy surface, both
        // batch-vs-batch and batch-vs-engine-loop.
        assert_eq!(max[i], pm[i], "fold::<MaxW> vs batch_path_max ({u},{v})");
        assert_eq!(max[i], msf.path_max(u, v), "fold::<MaxW> vs loop ({u},{v})");
        assert_eq!(
            mins[i],
            msf.path_fold::<MinW>(u, v),
            "batch MinW vs engine loop ({u},{v})"
        );
        // The naive referee, edge by edge from the raw MSF edges.
        let path = if u == v {
            None
        } else {
            naive_path_keys(n, msf, u, v)
        };
        match path {
            None => {
                assert_eq!(max[i], None, "max Some on disconnected ({u},{v})");
                assert_eq!(mins[i], None, "min Some on disconnected ({u},{v})");
                assert_eq!(sums[i], None, "sum Some on disconnected ({u},{v})");
                assert_eq!(hops[i], None, "hops Some on disconnected ({u},{v})");
                assert_eq!(both[i], None, "pair Some on disconnected ({u},{v})");
            }
            Some(keys) => {
                let nmax = keys.iter().copied().reduce(WKey::max).unwrap();
                let nmin = keys
                    .iter()
                    .copied()
                    .reduce(|a, b| if a <= b { a } else { b });
                let nsum: f64 = keys.iter().map(|k| k.w).sum();
                assert_eq!(max[i], Some(nmax), "naive max ({u},{v})");
                assert_eq!(mins[i], nmin, "naive min ({u},{v})");
                assert_eq!(sums[i], Some(nsum), "naive sum ({u},{v})");
                assert_eq!(hops[i], Some(keys.len() as u64), "naive hops ({u},{v})");
                // Componentwise composition: one walk, two monoids.
                assert_eq!(
                    both[i],
                    Some((nmax, keys.len() as u64)),
                    "pair componentwise ({u},{v})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed-stream interleavings (batched inserts, window-holding
    /// expirations, generator-shaped query batches): after every step the
    /// fold surface on the live window MSF agrees with `path_max` (MaxW,
    /// bit-identical) and with the naive BFS referee (MinW/SumW/Hops and
    /// the Pair composition), and the windowed fold agrees with windowed
    /// connectivity on both expiry disciplines.
    #[test]
    fn path_fold_matches_path_max_and_naive_oracle(
        (insert_batch, query_batch, seed) in (1usize..10, 1usize..8, 0u64..1_000_000)
    ) {
        let n = 48usize;
        let cfg = MixedConfig {
            n: n as u32,
            topology: MixedTopology::ErdosRenyi,
            insert_batch,
            query_batch,
            queries_per_insert: 2,
            window: 40,
            tenants: 0,
        };
        let mut lazy = SwConn::new(n, seed);
        let mut eager = SwConnEager::new(n, seed);
        let mut q = QueryBatch::new();
        for op in MixedStream::new(cfg, seed).take(60) {
            match op {
                Op::Insert(b) => {
                    lazy.batch_insert(&b);
                    eager.batch_insert(&b);
                }
                Op::Expire(d) => {
                    lazy.batch_expire(d);
                    eager.batch_expire(d);
                }
                Op::ConnectedQueries(pairs) | Op::PathMaxQueries(pairs) => {
                    check_folds(n, eager.msf(), &mut q, &pairs);
                    // Windowed fold existence == windowed connectivity
                    // (u != v), on both disciplines — the Lemma 5.1 wiring
                    // of the cutoff-filtered fold path.
                    let wl = q.batch_window_path_fold::<Hops, _>(&lazy, &pairs);
                    let we = q.batch_window_path_fold::<Hops, _>(&eager, &pairs);
                    for (i, &(u, v)) in pairs.iter().enumerate() {
                        let conn = lazy.is_connected(u, v) && u != v;
                        prop_assert_eq!(wl[i].is_some(), conn, "lazy window fold ({},{})", u, v);
                        prop_assert_eq!(&wl[i], &we[i], "disciplines disagree ({},{})", u, v);
                    }
                }
                Op::ComponentSizeQueries(_) => {}
                op => prop_assert!(false, "unexpected op {:?}", op),
            }
        }
    }
}

/// Large single-shot cross-check spanning both batch-plan regimes (shared
/// CPT chunks and the small-batch per-query fold trees): the generic folds
/// agree with the per-query engine loop on an ER graph big enough to take
/// the chunked plan.
#[test]
fn large_fold_batch_matches_engine_loop() {
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
                (hash2(17, 2 * i) % n as u64) as u32,
                (hash2(17, 2 * i + 1) % n as u64) as u32,
            )
        })
        .collect();
    let mut q = QueryBatch::new();
    let h = ReadHandle::new(&msf);
    let mins = q.batch_path_fold::<MinW>(h, &pairs);
    let hops = q.batch_path_fold::<Hops>(h, &pairs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        assert_eq!(mins[i], msf.path_fold::<MinW>(u, v), "min ({u},{v})");
        assert_eq!(hops[i], msf.path_fold::<Hops>(u, v), "hops ({u},{v})");
    }
    // And the small-batch per-query regime on the same structure.
    let small = &pairs[..7];
    assert_eq!(q.batch_path_fold::<MinW>(h, small), mins[..7].to_vec());
}

/// End-to-end service pin: `MinW` and `Hops` fold batches served through
/// `bimst-service` (admission queue, coalescing, reader fan-out, wire
/// `FoldValue` conversion) must equal the naive BFS referee on a
/// sequentially driven twin.
#[test]
fn service_folds_match_naive_oracle() {
    use bimst_primitives::{FoldKind, FoldValue};
    use bimst_repro::service::{Service, ServiceConfig};

    let n = 32usize;
    let svc = Service::eager(n, 4, ServiceConfig::default());
    let mut seq = SwConnEager::new(n, 4);
    let edges: Vec<(u32, u32)> = (0..40u32).map(|i| (i % 31, (i * 7 + 2) % 31)).collect();
    for chunk in edges.chunks(8) {
        svc.insert(chunk.to_vec()).unwrap();
        seq.batch_insert(chunk);
    }
    svc.expire(6).unwrap();
    seq.batch_expire(6);

    let pairs: Vec<(u32, u32)> = (0..31u32).map(|u| (u, (u + 9) % 31)).collect();
    let t_min = svc.query_fold(FoldKind::Min, pairs.clone()).unwrap();
    let t_hops = svc.query_fold(FoldKind::Hops, pairs.clone()).unwrap();
    let got_min = t_min.wait().unwrap().resp.into_path_fold().unwrap();
    let got_hops = t_hops.wait().unwrap().resp.into_path_fold().unwrap();
    svc.shutdown();

    for (i, &(u, v)) in pairs.iter().enumerate() {
        let path = if u == v {
            None
        } else {
            naive_path_keys(n, seq.msf(), u, v)
        };
        let (want_min, want_hops) = match path {
            None => (None, None),
            Some(keys) => (
                keys.iter()
                    .copied()
                    .reduce(|a, b| if a <= b { a } else { b })
                    .map(FoldValue::Key),
                Some(FoldValue::Hops(keys.len() as u64)),
            ),
        };
        assert_eq!(got_min[i], want_min, "service MinW ({u},{v})");
        assert_eq!(got_hops[i], want_hops, "service Hops ({u},{v})");
    }
}
