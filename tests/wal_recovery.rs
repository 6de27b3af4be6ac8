//! Service-level crash-recovery properties (ISSUE 6): chaos-shutdown a
//! WAL-backed service at a random op index, recover, drive the remaining
//! ops, and demand the final answers are bit-identical to an
//! *uninterrupted* sequential replay of the whole script — for both
//! expiry disciplines and every sync policy. A second property crashes
//! harder: after shutdown the log's final segment is truncated at a
//! random byte offset, so recovery resumes from an *earlier* generation
//! and the lost suffix is re-driven; the end state must still match,
//! which pins "recovered prefix + re-applied suffix = whole" end to end.

use bimst_repro::graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_repro::service::{QueryReq, Service, ServiceConfig, SyncPolicy};
use bimst_repro::sliding::{SlidingWrite, SwConn, SwConnEager};
use bimst_repro::wal::{recover_dir, Write};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bimst_wal_recovery_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic write script: the writes of a mixed op stream
/// (queries are driven separately so the op index ↔ generation
/// correspondence stays exact).
fn script(n: u32, seed: u64, len: usize) -> Vec<Write> {
    let cfg = MixedConfig {
        n,
        topology: MixedTopology::ErdosRenyi,
        insert_batch: 4,
        query_batch: 1,
        queries_per_insert: 0,
        window: 12,
        tenants: 0,
    };
    MixedStream::new(cfg, seed)
        .filter_map(|op| match op {
            Op::Insert(edges) => Some(Write::Insert(edges)),
            Op::Expire(delta) => Some(Write::Expire(delta)),
            _ => None,
        })
        .take(len)
        .collect()
}

fn drive(svc: &Service, ops: &[Write]) {
    for op in ops {
        match op {
            Write::Insert(edges) => svc.insert(edges.clone()).unwrap(),
            Write::Expire(delta) => svc.expire(*delta).unwrap(),
        }
    }
}

/// Like [`drive`], but waits a barrier after every op so each becomes its
/// own write group — one WAL record per op under every policy, which is
/// what lets the torn-log test translate a recovered generation back into
/// an op index.
fn drive_synced(svc: &Service, ops: &[Write]) {
    for op in ops {
        match op {
            Write::Insert(edges) => svc.insert(edges.clone()).unwrap(),
            Write::Expire(delta) => svc.expire(*delta).unwrap(),
        }
        svc.barrier().unwrap().wait().unwrap();
    }
}

type Probe = (
    Vec<bool>,
    Vec<Option<bimst_repro::primitives::WKey>>,
    Vec<usize>,
);

/// Final answers over a probe set: one batch per query kind.
fn answers(svc: &Service, n: u32) -> Probe {
    let pairs: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    let verts: Vec<u32> = (0..n).collect();
    let conn = svc
        .query(QueryReq::WindowConnected(pairs.clone()))
        .unwrap()
        .wait()
        .unwrap()
        .resp
        .into_window_connected()
        .unwrap();
    let pm = svc
        .query(QueryReq::PathMax(pairs))
        .unwrap()
        .wait()
        .unwrap()
        .resp
        .into_path_max()
        .unwrap();
    let cs = svc
        .query(QueryReq::ComponentSize(verts))
        .unwrap()
        .wait()
        .unwrap()
        .resp
        .into_component_size()
        .unwrap();
    (conn, pm, cs)
}

/// The definition of correctness: the whole script applied one op at a
/// time to the plain sequential structure.
fn sequential_answers(n: u32, seed: u64, ops: &[Write], eager: bool) -> Probe {
    fn go<W: SlidingWrite>(
        mut w: W,
        n: u32,
        ops: &[Write],
        conn: impl Fn(&W, u32, u32) -> bool,
        pm: impl Fn(&W, u32, u32) -> Option<bimst_repro::primitives::WKey>,
        cs: impl Fn(&W, u32) -> usize,
    ) -> Probe {
        for op in ops {
            match op {
                Write::Insert(edges) => {
                    w.batch_insert(edges);
                }
                Write::Expire(delta) => w.batch_expire(*delta),
            }
        }
        let pairs: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        (
            pairs.iter().map(|&(u, v)| conn(&w, u, v)).collect(),
            pairs.iter().map(|&(u, v)| pm(&w, u, v)).collect(),
            (0..n).map(|v| cs(&w, v)).collect(),
        )
    }
    if eager {
        go(
            SwConnEager::new(n as usize, seed),
            n,
            ops,
            |w, u, v| w.is_connected(u, v),
            |w, u, v| w.msf().path_max(u, v),
            |w, v| w.msf().component_size(v),
        )
    } else {
        go(
            SwConn::new(n as usize, seed),
            n,
            ops,
            |w, u, v| w.is_connected(u, v),
            |w, u, v| w.msf().path_max(u, v),
            |w, v| w.msf().component_size(v),
        )
    }
}

fn shaped_cfg(shape: usize) -> ServiceConfig {
    ServiceConfig {
        readers: 1 + shape % 2,
        queue_cap: [1, 64][shape % 2],
        write_budget: [1, 64][shape % 2],
        sync: [
            SyncPolicy::Always,
            SyncPolicy::GroupCommit,
            SyncPolicy::None,
        ][shape % 3],
        checkpoint_every: [0, 3, 16][shape % 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos shutdown: stop the durable service at a random op index,
    /// recover, drive the rest, and the final answers match the
    /// uninterrupted sequential replay — both disciplines, every sync
    /// policy, checkpointing on and off.
    #[test]
    fn shutdown_at_random_index_recovers_and_continues(
        seed in 0u64..1 << 40,
        cut_at in 0usize..24,
        shape in 0usize..12,
        eager in any::<bool>(),
    ) {
        let n = 10u32;
        let ops = script(n, seed, 24);
        let cut = cut_at.min(ops.len());
        let cfg = shaped_cfg(shape);
        let dir = tmpdir("chaos");

        let svc = if eager {
            Service::eager_durable(&dir, n as usize, seed, cfg).unwrap()
        } else {
            Service::lazy_durable(&dir, n as usize, seed, cfg).unwrap()
        };
        drive(&svc, &ops[..cut]);
        // Group commit merges ops, so the generation counts *groups*, not
        // ops — what recovery must preserve is the count itself.
        let live_gen = svc.barrier().unwrap().wait().unwrap();
        svc.shutdown();

        let svc = Service::recover(&dir, cfg).unwrap();
        // Orderly shutdown syncs under every policy: nothing admitted is
        // lost, and the generation resumes exactly where the first
        // incarnation stood.
        prop_assert_eq!(svc.barrier().unwrap().wait().unwrap(), live_gen);
        drive(&svc, &ops[cut..]);
        let got = answers(&svc, n);
        svc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();

        let want = sequential_answers(n, seed, &ops, eager);
        prop_assert_eq!(got, want, "shape {} cut {} eager {}", shape, cut, eager);
    }

    /// Hard crash: after the run, tear the log's newest segment at a
    /// random byte offset. Recovery lands at some earlier generation g;
    /// re-driving ops[g..] must reach the exact uninterrupted end state —
    /// the service-level form of the torture suite's prefix contract.
    /// (Driven with a barrier per op so one record = one op and g is an
    /// op index; merged-group recovery is covered by the chaos property.)
    #[test]
    fn torn_log_recovers_a_prefix_and_replay_completes_it(
        seed in 0u64..1 << 40,
        tear in 0u64..4096,
        shape in 0usize..12,
        eager in any::<bool>(),
    ) {
        let n = 10u32;
        let ops = script(n, seed, 20);
        let cfg = shaped_cfg(shape);
        let dir = tmpdir("torn");

        let svc = if eager {
            Service::eager_durable(&dir, n as usize, seed, cfg).unwrap()
        } else {
            Service::lazy_durable(&dir, n as usize, seed, cfg).unwrap()
        };
        drive_synced(&svc, &ops);
        svc.shutdown();

        // Crash: the newest segment loses its tail at an arbitrary offset.
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        segs.sort();
        let newest = segs.pop().unwrap();
        let len = std::fs::metadata(&newest).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .unwrap()
            .set_len(len.min(tear))
            .unwrap();

        let (_, rec) = recover_dir(&dir).unwrap();
        let g = rec.generation as usize;
        prop_assert!(g <= ops.len());

        let svc = Service::recover(&dir, cfg).unwrap();
        prop_assert_eq!(svc.barrier().unwrap().wait().unwrap(), g as u64);
        drive(&svc, &ops[g..]);
        let got = answers(&svc, n);
        svc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();

        let want = sequential_answers(n, seed, &ops, eager);
        prop_assert_eq!(got, want, "shape {} tear {} g {} eager {}", shape, tear, g, eager);
    }
}
