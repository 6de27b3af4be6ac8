//! Metric/oracle equality for the `bimst-obs` instrumentation: the
//! counters a service exports through [`ServiceHandle::metrics_snapshot`]
//! must agree **exactly** with independently tracked oracle counts of the
//! submitted workload — observability that drifts from the thing it
//! observes is worse than none. Probed under
//! [`bimst_graphgen::MixedStream`] interleavings (batched inserts,
//! expirations, per-kind query batches) across service shapes and WAL
//! sync policies:
//!
//! * **Durability identity**: `service_write_groups` (applied group
//!   commits) == `service_generation` (the writer's generation gauge) ==
//!   `wal_records_appended` (one WAL record per applied group — ISSUE 7's
//!   invariant, now pinned through the metrics path too).
//! * **Per-kind admission totals**: `service_queries_<kind>` == the number
//!   of individual queries submitted per kind, the `count` of the
//!   `service_answer_ns_<kind>` latency histogram == the number of batches
//!   submitted per kind (one admission-to-answer sample per batch), and
//!   `service_ops_insert + service_ops_expire` == the number of write ops
//!   submitted (group commit merges *groups*, never drops ops).
//! * **Tenant totals**: on a multi-tenant service,
//!   `service_queries_tenant_connected` == the total tenant queries
//!   submitted, and the `TenantSet`'s own `tenant_cutoff_lag` histogram
//!   folds into the snapshot.
//!
//! The snapshot rides the admission queue (FIFO), so a snapshot requested
//! after the workload covers exactly the workload — no sleeps, no
//! eventually-consistent slack. Every property replays the checked-in
//! seeds in `tests/seeds/` first (the regression-corpus convention; see
//! `TESTING.md`).

use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_repro::service::{QueryTicket, Service, ServiceConfig, SyncPolicy};
use bimst_repro::sliding::TenantSpec;
use proptest::prelude::*;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bimst_prop_obs_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per request kind: its admission counter and its admission-to-answer
/// latency histogram, by exported name.
const KIND_METRICS: [(&str, &str); 5] = [
    (
        "service_queries_window_connected",
        "service_answer_ns_window_connected",
    ),
    ("service_queries_path_max", "service_answer_ns_path_max"),
    (
        "service_queries_component_size",
        "service_answer_ns_component_size",
    ),
    (
        "service_queries_tenant_connected",
        "service_answer_ns_tenant_connected",
    ),
    ("service_queries_path_fold", "service_answer_ns_path_fold"),
];

/// Oracle counts tracked on the submitting side, incremented only for
/// ops the service actually acked.
#[derive(Default)]
struct Oracle {
    write_ops: u64,
    /// Queries submitted per kind, indexed like [`KIND_METRICS`].
    queries: [u64; 5],
    /// Batches submitted per kind, indexed like [`KIND_METRICS`].
    batches: [u64; 5],
}

impl Oracle {
    /// Submits one op, updates the counts, returns any query ticket.
    fn submit(&mut self, svc: &bimst_repro::service::ServiceHandle, op: Op) -> Option<QueryTicket> {
        let (kind, n) = match &op {
            Op::Insert(_) | Op::Expire(_) => {
                self.write_ops += 1;
                return svc.submit_op(op).expect("service alive");
            }
            Op::ConnectedQueries(qs) => (0, qs.len()),
            Op::PathMaxQueries(qs) => (1, qs.len()),
            Op::ComponentSizeQueries(vs) => (2, vs.len()),
            Op::TenantConnectedQueries(_, qs) => (3, qs.len()),
            Op::PathFoldQueries(_, qs) => (4, qs.len()),
            op => panic!("oracle has no count for op variant {op:?}"),
        };
        self.queries[kind] += n as u64;
        self.batches[kind] += 1;
        svc.submit_op(op).expect("service alive")
    }

    /// Every kind's admission counter equals the queries submitted, and
    /// its latency histogram holds one sample per batch submitted.
    fn check_kinds(&self, snap: &bimst_repro::obs::Snapshot) -> Result<(), TestCaseError> {
        for (k, (queries, answer_ns)) in KIND_METRICS.iter().enumerate() {
            prop_assert_eq!(snap.counter(queries), Some(self.queries[k]), "{}", queries);
            let samples = snap.histogram(answer_ns).map(|h| h.count);
            prop_assert_eq!(samples, Some(self.batches[k]), "{}", answer_ns);
        }
        Ok(())
    }
}

/// Workload + service shape for the durable property.
fn durable_cfg() -> impl Strategy<Value = (MixedConfig, ServiceConfig, u64)> {
    (
        prop_oneof![
            Just(MixedTopology::ErdosRenyi),
            Just(MixedTopology::PowerLaw),
        ],
        1usize..8,
        1usize..5,
        prop_oneof![
            Just(SyncPolicy::Always),
            Just(SyncPolicy::GroupCommit),
            Just(SyncPolicy::None),
        ],
        1usize..4,
        0u64..1_000_000,
    )
        .prop_map(
            |(topology, insert_batch, query_batch, sync, readers, seed)| {
                (
                    MixedConfig {
                        n: 48,
                        topology,
                        insert_batch,
                        query_batch,
                        queries_per_insert: 2,
                        window: 40,
                        tenants: 0,
                    },
                    ServiceConfig {
                        readers,
                        queue_cap: 64,
                        write_budget: 16,
                        sync,
                        // Off: checkpoints are a different axis; the WAL-record
                        // identity below is about the op log alone.
                        checkpoint_every: 0,
                    },
                    seed,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a fresh durable service, the exported counters match the
    /// submitted workload exactly: one WAL record per applied group per
    /// generation increment, and per-kind query counters equal to the
    /// per-kind submitted totals.
    #[test]
    fn service_metrics_match_oracle_counts((cfg, scfg, seed) in durable_cfg()) {
        let dir = tmpdir("durable");
        let svc = Service::eager_durable(&dir, cfg.n as usize, seed, scfg)
            .expect("create WAL store");
        let mut oracle = Oracle::default();
        let mut tickets = Vec::new();
        // Folds on: the fold-kind admission counter is part of the oracle.
        for op in MixedStream::with_folds(cfg, seed).take_ops(40) {
            if let Some(t) = oracle.submit(&svc, op) {
                tickets.push(t);
            }
        }
        let snap = svc.metrics_snapshot().expect("service alive");
        for t in tickets {
            t.wait().expect("service answers");
        }

        // Durability identity: applied groups == generation == WAL records.
        let groups = snap.counter("service_write_groups").unwrap_or(0);
        prop_assert_eq!(Some(groups), snap.gauge("service_generation"));
        prop_assert_eq!(Some(groups), snap.counter("wal_records_appended"));
        // Group commit merges groups but never drops or invents ops.
        prop_assert_eq!(
            snap.counter("service_ops_insert").unwrap_or(0)
                + snap.counter("service_ops_expire").unwrap_or(0),
            oracle.write_ops
        );
        prop_assert!(groups <= oracle.write_ops, "more groups than write ops");
        // Per-kind query counters and latency samples == per-kind
        // submitted totals.
        oracle.check_kinds(&snap)?;
        svc.shutdown();
        std::fs::remove_dir_all(&dir).expect("clean WAL store");
    }

    /// On a multi-tenant service, the tenant-kind admission counter ==
    /// the total tenant queries submitted, and the `TenantSet`'s own
    /// metrics fold into the service snapshot.
    #[test]
    fn tenant_metrics_match_route_totals(seed in 0u64..1_000_000) {
        let max_window = 48u64;
        let specs: Vec<TenantSpec> = [max_window, max_window / 2, max_window / 8, 1]
            .iter()
            .enumerate()
            .map(|(i, &window)| TenantSpec { id: i as u32, window })
            .collect();
        let cfg = MixedConfig {
            n: 48,
            topology: MixedTopology::ErdosRenyi,
            insert_batch: 4,
            query_batch: 3,
            queries_per_insert: 2,
            window: max_window,
            tenants: specs.len() as u32,
        };
        let svc = Service::tenants(cfg.n as usize, seed, &specs, ServiceConfig::default());
        let mut oracle = Oracle::default();
        let mut tickets = Vec::new();
        for op in MixedStream::new(cfg, seed).take_ops(40) {
            if let Some(t) = oracle.submit(&svc, op) {
                tickets.push(t);
            }
        }
        let snap = svc.metrics_snapshot().expect("service alive");
        for t in tickets {
            t.wait().expect("service answers");
        }

        // Per-kind totals, the tenant kind's `service_queries_tenant_connected`
        // among them: every tenant query takes the one cutoff plan.
        oracle.check_kinds(&snap)?;
        // The TenantSet's own recorder folds into the snapshot: the
        // cutoff-lag histogram saw one sample per tenant per write.
        if oracle.write_ops > 0 {
            let lag = snap.histogram("tenant_cutoff_lag");
            prop_assert!(
                lag.is_some_and(|h| h.count > 0),
                "tenant_cutoff_lag missing from the folded snapshot"
            );
        }
        svc.shutdown();
    }
}
