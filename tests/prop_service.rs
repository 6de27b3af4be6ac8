//! Property tests for the serving runtime (`bimst-service`): sequential-
//! replay equivalence, backpressure that never loses acked ops, and
//! drain-ordered shutdown, under randomized op scripts, service shapes
//! (reader counts, queue capacities, write budgets) and client
//! interleavings.
//!
//! The correctness bar is the one ISSUE 4 sets: anything the service acks
//! behaves exactly as if the op stream had been applied one at a time, in
//! admission order, to a plain `SwConn`/`SwConnEager` — answers
//! bit-identical to the sequential replay (reusing the `prop_query.rs`
//! oracle pattern: the per-query loop *is* the definition), and the
//! generation stamps pin that nothing admitted is lost, duplicated, or
//! reordered. True loom-style schedule enumeration is not available
//! offline; the spirit is covered by tiny bounded queues (capacity 1
//! forces every producer/consumer interleaving the channel supports) and
//! multi-client stress.

use bimst_repro::service::{Answered, QueryReq, Service, ServiceConfig, TrySubmitError};
use bimst_repro::sliding::{SwConn, SwConnEager};
use proptest::prelude::*;

type Pairs = Vec<(u32, u32)>;

/// One scripted round: an insert batch, per-kind query batches, an expiry.
#[derive(Clone, Debug)]
struct Round {
    insert: Pairs,
    conn_q: Pairs,
    pm_q: Pairs,
    cs_q: Vec<u32>,
    expire: u64,
}

fn rounds(n: u32) -> impl Strategy<Value = Vec<Round>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0..n, 0..n), 0..10),
            proptest::collection::vec((0..n, 0..n), 0..8),
            proptest::collection::vec((0..n, 0..n), 0..8),
            proptest::collection::vec(0..n, 0..8),
            0u64..6,
        )
            .prop_map(|(insert, conn_q, pm_q, cs_q, expire)| Round {
                insert,
                conn_q,
                pm_q,
                cs_q,
                expire,
            }),
        1..8,
    )
}

/// Replays the script sequentially on `W` (the definition of correctness)
/// and returns the expected per-round answers.
fn replay_eager(n: usize, seed: u64, script: &[Round]) -> Vec<[Answered; 3]> {
    let mut w = SwConnEager::new(n, seed);
    replay_common(script, move |r, generation| {
        w.batch_insert(&r.insert);
        let conn = r
            .conn_q
            .iter()
            .map(|&(a, b)| w.is_connected(a, b))
            .collect();
        let pm = r
            .pm_q
            .iter()
            .map(|&(a, b)| w.msf().path_max(a, b))
            .collect();
        let cs = r.cs_q.iter().map(|&v| w.msf().component_size(v)).collect();
        w.batch_expire(r.expire);
        answers(generation, conn, pm, cs)
    })
}

fn replay_lazy(n: usize, seed: u64, script: &[Round]) -> Vec<[Answered; 3]> {
    let mut w = SwConn::new(n, seed);
    replay_common(script, move |r, generation| {
        w.batch_insert(&r.insert);
        let conn = r
            .conn_q
            .iter()
            .map(|&(a, b)| w.is_connected(a, b))
            .collect();
        let pm = r
            .pm_q
            .iter()
            .map(|&(a, b)| w.msf().path_max(a, b))
            .collect();
        let cs = r.cs_q.iter().map(|&v| w.msf().component_size(v)).collect();
        w.batch_expire(r.expire);
        answers(generation, conn, pm, cs)
    })
}

fn replay_common(
    script: &[Round],
    mut step: impl FnMut(&Round, u64) -> [Answered; 3],
) -> Vec<[Answered; 3]> {
    script
        .iter()
        .enumerate()
        // Round k's queries sit between its insert (write group 2k + 1)
        // and its expiry: admission generation 2k + 1.
        .map(|(k, r)| step(r, 2 * k as u64 + 1))
        .collect()
}

fn answers(
    generation: u64,
    conn: Vec<bool>,
    pm: Vec<Option<bimst_repro::primitives::WKey>>,
    cs: Vec<usize>,
) -> [Answered; 3] {
    use bimst_repro::service::QueryResp;
    [
        Answered {
            generation,
            resp: QueryResp::WindowConnected(conn),
        },
        Answered {
            generation,
            resp: QueryResp::PathMax(pm),
        },
        Answered {
            generation,
            resp: QueryResp::ComponentSize(cs),
        },
    ]
}

/// Drives the script through a service and collects the per-round answers.
fn drive(svc: &Service, script: &[Round]) -> Vec<[Answered; 3]> {
    let mut tickets = Vec::new();
    for r in script {
        svc.insert(r.insert.clone()).expect("service alive");
        let tc = svc
            .query(QueryReq::WindowConnected(r.conn_q.clone()))
            .expect("service alive");
        let tp = svc
            .query(QueryReq::PathMax(r.pm_q.clone()))
            .expect("service alive");
        let ts = svc
            .query(QueryReq::ComponentSize(r.cs_q.clone()))
            .expect("service alive");
        svc.expire(r.expire).expect("service alive");
        tickets.push([tc, tp, ts]);
    }
    tickets
        .into_iter()
        .map(|ts| ts.map(|t| t.wait().expect("admitted queries are answered")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Served answers — across reader counts, queue capacities (including
    /// the fully serialized capacity-1 queue) and write budgets — are
    /// bit-identical to the sequential replay, and
    /// the generation stamps equal the admission-order write count (no op
    /// lost, duplicated, or reordered). Both expiry disciplines.
    #[test]
    fn served_answers_match_sequential_replay(
        script in rounds(20),
        shape in 0usize..8,
        seed in 0u64..100,
    ) {
        let n = 20usize;
        let cfg = ServiceConfig {
            readers: 1 + shape % 3,
            queue_cap: [1, 4, 64][shape % 3],
            write_budget: if shape % 2 == 0 { 1 } else { 1 << 12 },
            ..ServiceConfig::default()
        };

        let eager = Service::eager(n, seed, cfg);
        let got = drive(&eager, &script);
        eager.shutdown();
        prop_assert_eq!(&got, &replay_eager(n, seed, &script));

        let lazy = Service::lazy(n, seed, cfg);
        let got = drive(&lazy, &script);
        lazy.shutdown();
        prop_assert_eq!(&got, &replay_lazy(n, seed, &script));
    }

    /// Drain ordering: shut the service down with a backlog of admitted
    /// writes and queries still queued — every ticket must still resolve,
    /// with answers equal to the replay (shutdown cannot drop, reorder, or
    /// half-apply the backlog).
    #[test]
    fn shutdown_drains_the_admitted_backlog(
        script in rounds(16),
        seed in 0u64..100,
    ) {
        let n = 16usize;
        let cfg = ServiceConfig {
            readers: 2,
            // Roomy queue: everything below is admitted before the writer
            // can catch up, so shutdown races a real backlog.
            queue_cap: 4096,
            write_budget: 8,
            ..ServiceConfig::default()
        };
        let svc = Service::eager(n, seed, cfg);
        let mut tickets = Vec::new();
        for r in &script {
            svc.insert(r.insert.clone()).unwrap();
            tickets.push(svc.query(QueryReq::WindowConnected(r.conn_q.clone())).unwrap());
            svc.expire(r.expire).unwrap();
        }
        svc.shutdown();
        // Generation stamps are pinned by the equivalence test above; what
        // this test adds is that the *answers* survive a drain that was
        // racing shutdown.
        let expected = replay_eager(n, seed, &script);
        for (k, t) in tickets.into_iter().enumerate() {
            let got = t.wait().expect("admitted ⇒ answered, even across shutdown");
            prop_assert_eq!(&got.resp, &expected[k][0].resp, "round {}", k);
        }
    }
}

/// Backpressure: a capacity-1 queue hammered through `try_*` submits with
/// a spin-retry loop. Ops rejected with `Full` are retried until acked;
/// the final generation and the final all-pairs answers prove that exactly
/// the acked sequence — nothing more, nothing less — was applied in order.
#[test]
fn try_submit_under_full_queue_never_loses_acked_ops() {
    use bimst_repro::primitives::hash::hash2;
    let n = 12usize;
    let cfg = ServiceConfig {
        readers: 2,
        queue_cap: 1,
        write_budget: 1 << 12,
        ..ServiceConfig::default()
    };
    let svc = Service::eager(n, 3, cfg);
    let mut seq = SwConnEager::new(n, 3);

    let mut fulls = 0usize;
    let mut writes = 0u64;
    for i in 0..400u64 {
        if hash2(i, 0).is_multiple_of(4) {
            let delta = hash2(i, 1) % 3;
            let mut op = delta;
            loop {
                match svc.try_expire(op) {
                    Ok(()) => break,
                    Err(TrySubmitError::Full(back)) => {
                        fulls += 1;
                        op = back; // the op comes back un-admitted; retry it
                        std::thread::yield_now();
                    }
                    Err(TrySubmitError::Closed(_)) => panic!("service died"),
                }
            }
            seq.batch_expire(delta);
        } else {
            let batch: Pairs = (0..1 + hash2(i, 2) % 4)
                .map(|k| {
                    let u = (hash2(i, 3 + 2 * k) % n as u64) as u32;
                    let mut v = (hash2(i, 4 + 2 * k) % (n as u64 - 1)) as u32;
                    if v >= u {
                        v += 1;
                    }
                    (u, v)
                })
                .collect();
            let mut op = batch.clone();
            loop {
                match svc.try_insert(op) {
                    Ok(()) => break,
                    Err(TrySubmitError::Full(back)) => {
                        fulls += 1;
                        op = back;
                        std::thread::yield_now();
                    }
                    Err(TrySubmitError::Closed(_)) => panic!("service died"),
                }
            }
            seq.batch_insert(&batch);
        }
        writes += 1;
    }

    // Final state check: all-pairs window connectivity + every component
    // size must equal the replay of exactly the acked sequence. The
    // generation counts applied *groups* (group commit merges adjacent
    // same-kind writes), so it can undershoot the acked count but a
    // double-applied retry would push it — and the answers — over.
    let pairs: Pairs = (0..n as u32)
        .flat_map(|a| (0..n as u32).map(move |b| (a, b)))
        .collect();
    let verts: Vec<u32> = (0..n as u32).collect();
    let tc = svc.query(QueryReq::WindowConnected(pairs.clone())).unwrap();
    let ts = svc.query(QueryReq::ComponentSize(verts.clone())).unwrap();
    let gen = svc.barrier().unwrap().wait().unwrap();
    svc.shutdown();

    let ac = tc.wait().unwrap();
    let as_ = ts.wait().unwrap();
    assert!(
        gen <= writes,
        "generation {gen} exceeds acked writes {writes} — something applied twice"
    );
    assert_eq!(
        ac.resp.into_window_connected().unwrap(),
        pairs
            .iter()
            .map(|&(a, b)| seq.is_connected(a, b))
            .collect::<Vec<_>>(),
        "all-pairs connectivity diverged from the acked-op replay ({fulls} Fulls retried)"
    );
    assert_eq!(
        as_.resp.into_component_size().unwrap(),
        verts
            .iter()
            .map(|&v| seq.msf().component_size(v))
            .collect::<Vec<_>>()
    );
    // The queue really was driven into backpressure; with capacity 1 and
    // 400 ops against a writer doing real work this is effectively
    // certain, and the property is vacuous without it.
    assert!(fulls > 0, "backpressure was never exercised");
}

/// Multi-client stress: writer and reader clients race on their own
/// threads; per-client admission order must show up as nondecreasing
/// generations, every ticket must resolve with the right shape, and the
/// service must survive shutdown with all client handles dropped.
#[test]
fn concurrent_clients_get_ordered_generations_and_full_drain() {
    let n = 64usize;
    let svc = Service::eager(
        n,
        9,
        ServiceConfig {
            readers: 3,
            queue_cap: 8,
            write_budget: 64,
            ..ServiceConfig::default()
        },
    );

    let writer = {
        let h = svc.handle();
        std::thread::spawn(move || {
            for i in 0..200u32 {
                let v = i % 63;
                h.insert(vec![(v, v + 1)]).unwrap();
                if i % 5 == 0 {
                    h.expire(3).unwrap();
                }
            }
        })
    };
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let h = svc.handle();
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                for i in 0..100u32 {
                    let q = vec![((c * 31 + i) % 64, (i * 7) % 64)];
                    answers.push(h.query(QueryReq::WindowConnected(q)).unwrap());
                }
                answers
                    .into_iter()
                    .map(|t| t.wait().expect("admitted ⇒ answered"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    writer.join().unwrap();
    for c in clients {
        let answers = c.join().unwrap();
        assert_eq!(answers.len(), 100);
        assert!(
            answers
                .windows(2)
                .all(|w| w[0].generation <= w[1].generation),
            "per-client admission order must give nondecreasing generations"
        );
        assert!(answers.iter().all(|a| a.resp.len() == 1));
    }
    svc.shutdown();
}
