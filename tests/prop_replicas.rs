//! Property tests for the replicated read-scaling tier
//! (`bimst_service::ReplicaSet`): every replica's answers bit-identical
//! to a sequential replay at every barrier generation, across replica
//! counts, queue shapes and both expiry disciplines — including a chaos
//! case that fail-stops a replica mid-stream and rejoins it from a live
//! peer's checkpoint.
//!
//! The correctness bar extends `prop_service.rs`'s: a replica set is k
//! logical copies of *one* admitted op sequence, so the sequential
//! replay oracle (apply the script one op at a time to a plain
//! `SwConn`/`SwConnEager`) must match **every** replica at **every**
//! barrier — not just at the end, and not just converged: bit-identical
//! answers at equal generation. The kill/restart case proves the rejoin
//! path (a peer's checkpoint at a fixed log position, then every later
//! record) lands the replica on the same answer sequence,
//! indistinguishable from one that never died.

use std::sync::atomic::{AtomicUsize, Ordering};

use bimst_repro::service::{QueryReq, QueryResp, ReplicaSet, ReplicaSetConfig};
use bimst_repro::sliding::{SwConn, SwConnEager};
use proptest::prelude::*;

type Pairs = Vec<(u32, u32)>;

/// One scripted round: an insert batch, query batches, an expiry.
#[derive(Clone, Debug)]
struct Round {
    insert: Pairs,
    conn_q: Pairs,
    cs_q: Vec<u32>,
    expire: u64,
}

fn rounds(n: u32) -> impl Strategy<Value = Vec<Round>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0..n, 0..n), 0..10),
            proptest::collection::vec((0..n, 0..n), 0..8),
            proptest::collection::vec(0..n, 0..8),
            0u64..6,
        )
            .prop_map(|(insert, conn_q, cs_q, expire)| Round {
                insert,
                conn_q,
                cs_q,
                expire,
            }),
        2..8,
    )
}

/// The definition of correctness: the script applied one op at a time to
/// a single window, answers read after each round's writes (the state at
/// the round's barrier generation).
fn replay_eager(n: usize, seed: u64, script: &[Round]) -> Vec<(QueryResp, QueryResp)> {
    let mut w = SwConnEager::new(n, seed);
    script
        .iter()
        .map(|r| {
            w.batch_insert(&r.insert);
            w.batch_expire(r.expire);
            let conn = r
                .conn_q
                .iter()
                .map(|&(a, b)| w.is_connected(a, b))
                .collect();
            let cs = r.cs_q.iter().map(|&v| w.msf().component_size(v)).collect();
            (
                QueryResp::WindowConnected(conn),
                QueryResp::ComponentSize(cs),
            )
        })
        .collect()
}

fn replay_lazy(n: usize, seed: u64, script: &[Round]) -> Vec<(QueryResp, QueryResp)> {
    let mut w = SwConn::new(n, seed);
    script
        .iter()
        .map(|r| {
            w.batch_insert(&r.insert);
            w.batch_expire(r.expire);
            let conn = r
                .conn_q
                .iter()
                .map(|&(a, b)| w.is_connected(a, b))
                .collect();
            let cs = r.cs_q.iter().map(|&v| w.msf().component_size(v)).collect();
            (
                QueryResp::WindowConnected(conn),
                QueryResp::ComponentSize(cs),
            )
        })
        .collect()
}

/// Drives one round's writes, barriers, then reads the round's answers
/// from replica `i` with the barrier generation as the freshness floor.
fn ask(set: &ReplicaSet, i: usize, g: u64, r: &Round) -> (QueryResp, QueryResp) {
    let tc = set
        .query_on(i, g, QueryReq::WindowConnected(r.conn_q.clone()))
        .expect("replica alive");
    let ts = set
        .query_on(i, g, QueryReq::ComponentSize(r.cs_q.clone()))
        .expect("replica alive");
    let ac = tc.wait().expect("admitted queries are answered");
    let as_ = ts.wait().expect("admitted queries are answered");
    assert!(
        ac.generation >= g && as_.generation >= g,
        "replica {i} served below its freshness floor {g}"
    );
    (ac.resp, as_.resp)
}

/// Unique scratch directory per proptest case (shrinking replays cases
/// with equal parameters, so a counter — not the inputs — names it).
fn scratch_dir() -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bimst-prop-replicas-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every replica of an in-memory set answers bit-identically to the
    /// sequential replay at every barrier generation, across replica
    /// counts and queue capacities.
    /// Both expiry disciplines (the replicas must agree with *their*
    /// discipline's replay — eager and lazy answers are themselves
    /// equivalent, but the oracle is exact per discipline).
    #[test]
    fn replicas_match_sequential_replay(
        script in rounds(20),
        shape in 0usize..8,
        seed in 0u64..100,
    ) {
        let n = 20usize;
        let cfg = ReplicaSetConfig {
            replicas: 1 + shape % 3,
            queue_cap: [1, 4, 64][shape % 3],
            ..ReplicaSetConfig::default()
        };

        for eager in [true, false] {
            let set = if eager {
                ReplicaSet::eager(n, seed, cfg)
            } else {
                ReplicaSet::lazy(n, seed, cfg)
            };
            let expected = if eager {
                replay_eager(n, seed, &script)
            } else {
                replay_lazy(n, seed, &script)
            };
            for (k, r) in script.iter().enumerate() {
                set.insert(r.insert.clone()).expect("set alive");
                set.expire(r.expire).expect("set alive");
                let g = set.barrier().expect("set alive").wait().expect("set alive");
                // Insert and expire are one record each (alternating
                // kinds never merge), so the barrier pins the exact
                // generation — nothing admitted is lost or duplicated.
                prop_assert_eq!(g, 2 * (k as u64 + 1));
                for i in 0..set.replicas() {
                    let got = ask(&set, i, g, r);
                    prop_assert_eq!(
                        &got, &expected[k],
                        "replica {} diverged from the replay at round {} (eager={})",
                        i, k, eager
                    );
                }
            }
            set.shutdown();
        }
    }

    /// Chaos: a durable set loses a replica mid-stream (fail-stop), keeps
    /// admitting writes, then rejoins it — restart restores the surviving
    /// peer's checkpoint at a fixed log position and applies every later
    /// record. From the rejoin barrier on, the revived replica must be
    /// bit-identical to the survivors *and* to the sequential replay, at
    /// every remaining barrier.
    #[test]
    fn killed_replica_rejoins_bit_identical(
        script in rounds(16),
        kill_at in 0usize..6,
        seed in 0u64..100,
    ) {
        let n = 16usize;
        let dir = scratch_dir();
        let cfg = ReplicaSetConfig {
            replicas: 2,
            ..ReplicaSetConfig::default()
        };
        let mut set = ReplicaSet::eager_durable(&dir, n, seed, cfg).expect("create store");
        let expected = replay_eager(n, seed, &script);
        let kill_at = kill_at % script.len();
        let victim = kill_at % 2; // either slot
        let mut dead = false;

        for (k, r) in script.iter().enumerate() {
            if k == kill_at {
                set.kill(victim);
                dead = true;
            }
            // Rejoin one round later, with writes admitted in between —
            // the peer's checkpoint covers writes the victim never saw.
            if dead && k == kill_at + 1 {
                set.restart(victim).expect("rejoin from the live peer");
                dead = false;
            }
            set.insert(r.insert.clone()).expect("set alive");
            set.expire(r.expire).expect("set alive");
            let g = set.barrier().expect("set alive").wait().expect("set alive");
            prop_assert_eq!(g, 2 * (k as u64 + 1));
            for i in 0..set.replicas() {
                if dead && i == victim {
                    continue; // fail-stopped: the router skips it too
                }
                let got = ask(&set, i, g, r);
                prop_assert_eq!(
                    &got, &expected[k],
                    "replica {} diverged at round {} (killed {} at {})",
                    i, k, victim, kill_at
                );
            }
        }
        // A victim still dead at the end (killed on the last round)
        // rejoins here, catching up on everything it missed.
        if dead {
            set.restart(victim).expect("rejoin from the live peer");
            let g = set.barrier().expect("set alive").wait().expect("set alive");
            let r = script.last().expect("non-empty script");
            let got = ask(&set, victim, g, r);
            prop_assert_eq!(&got, expected.last().expect("non-empty"));
        }
        set.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
