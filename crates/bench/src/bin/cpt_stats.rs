//! E4 — compressed path tree size and cost (Lemma 3.2 / Theorem 3.2).
//!
//! On a large random tree: the CPT over `ℓ` marks must have ≤ 2ℓ vertices
//! regardless of `n`, and its construction cost per mark must fall like
//! `lg(1 + n/ℓ)`.
//!
//! ```sh
//! cargo run --release -p bimst-bench --bin cpt_stats [n]
//! ```

use bimst_bench::{median_secs, row, work_shape};
use bimst_core::compressed_path_tree;
use bimst_graphgen::random_tree;
use bimst_primitives::hash::hash2;
use bimst_rctree::RcForest;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(500_000);

    println!("E4 — compressed path tree stats on a random tree with n = {n}");
    let mut forest = RcForest::new(n, 3);
    forest.batch_update(&[], &random_tree(n as u32, 9));

    let widths = [9, 12, 12, 12, 14, 12];
    row(
        &[
            "ℓ".into(),
            "|V(CPT)|".into(),
            "|E(CPT)|".into(),
            "µs/query".into(),
            "µs/mark".into(),
            "lg(1+n/ℓ)".into(),
        ],
        &widths,
    );

    let mut l = 2usize;
    while l <= 131_072.min(n / 2) {
        let marks: Vec<u32> = (0..l as u64)
            .map(|i| (hash2(l as u64, i) % n as u64) as u32)
            .collect();
        let cpt = compressed_path_tree(&forest, &marks);
        let secs = median_secs(3, |_| {
            let c = compressed_path_tree(&forest, &marks);
            std::hint::black_box(c.edges.len());
        });
        let mut distinct = marks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            cpt.vertices.len() <= 2 * distinct.len(),
            "Lemma 3.2 violated: {} vertices for ℓ = {}",
            cpt.vertices.len(),
            distinct.len()
        );
        row(
            &[
                format!("{l}"),
                format!("{}", cpt.vertices.len()),
                format!("{}", cpt.edges.len()),
                format!("{:.1}", secs * 1e6),
                format!("{:.2}", secs * 1e6 / l as f64),
                format!("{:.2}", work_shape(n, l)),
            ],
            &widths,
        );
        l *= 8;
    }
    println!("\n|V(CPT)| ≤ 2ℓ asserted for every row (Lemma 3.2);");
    println!("µs/mark tracks lg(1+n/ℓ) (Theorem 3.2)");

    // The recorder-backed view of the same run: the tree build above went
    // through the contraction engine, which records its per-round
    // frontier as the structured `engine_*` metrics.
    let snap = bimst_obs::global().snapshot();
    if let Some(rounds) = snap.counter("engine_rounds") {
        println!("\nengine metrics (bimst-obs global recorder):");
        println!("  engine_rounds             {rounds}");
        if let Some(h) = snap.histogram("engine_frontier") {
            println!(
                "  engine_frontier           p50 ≤ {}  p99 ≤ {}  max {}",
                h.p50, h.p99, h.max
            );
        }
        if let Some(h) = snap.histogram("engine_propagate_ns") {
            println!(
                "  engine_propagate_ns       count {}  mean {:.0}  max {}",
                h.count,
                h.mean(),
                h.max
            );
        }
    }
}
