//! Sliding-window cut sparsification of a dense network.
//!
//! ```sh
//! cargo run --release --example network_sparsifier
//! ```
//!
//! Maintains an ε-cut sparsifier over a windowed stream on a dense
//! two-community graph with a planted sparse cut, then checks how well the
//! sparsifier preserves the planted cut and a few random cuts.

use bimst_primitives::hash::hash2;
use bimst_sliding::{Sparsifier, SparsifierConfig};
use std::collections::HashSet;

fn cut_weight(edges: &[(u32, u32, f64)], side: &HashSet<u32>) -> f64 {
    edges
        .iter()
        .filter(|&&(u, v, _)| side.contains(&u) != side.contains(&v))
        .map(|&(_, _, w)| w)
        .sum()
}

fn main() {
    let half = 40u32;
    let n = (2 * half) as usize;
    let eps = 0.4;
    let mut cfg = SparsifierConfig::scaled(n, eps);
    // The scaled default keeps nearly everything at n = 80 (p̃ₑ saturates at
    // 1); force aggressive sampling so the demo actually sparsifies.
    cfg.sample_factor = 2.0;
    println!(
        "n = {n}, ε = {eps}; config: levels = {}, copies = {}, k_cert = {}, sample_factor = {:.1}",
        cfg.levels, cfg.copies, cfg.k_cert, cfg.sample_factor
    );

    let mut sp = Sparsifier::new(n, cfg, 11);

    // Stream: dense intra-community edges, 6 planted bridges, in 4 batches,
    // expiring the first batch at the end.
    let mut window: Vec<(u32, u32)> = Vec::new();
    for a in 0..half {
        for b in (a + 1)..half {
            if hash2(1, (a as u64) << 32 | b as u64).is_multiple_of(3) {
                window.push((a, b));
                window.push((half + a, half + b));
            }
        }
    }
    for i in 0..6 {
        window.push((i, half + i));
    }
    // Shuffle deterministically so bridges arrive interleaved.
    let mut order: Vec<usize> = (0..window.len()).collect();
    order.sort_by_key(|&i| hash2(7, i as u64));
    let stream: Vec<(u32, u32)> = order.iter().map(|&i| window[i]).collect();

    let quarter = stream.len() / 4;
    for c in 0..4 {
        let lo = c * quarter;
        let hi = if c == 3 {
            stream.len()
        } else {
            (c + 1) * quarter
        };
        sp.batch_insert(&stream[lo..hi]);
    }
    // Slide the window past the first batch.
    sp.batch_expire(quarter as u64);
    let live = &stream[quarter..];

    let sparse = sp.sparsify();
    println!(
        "\nwindow: {} edges → sparsifier: {} weighted edges ({:.0}% kept)",
        live.len(),
        sparse.len(),
        100.0 * sparse.len() as f64 / live.len() as f64
    );

    let orig: Vec<(u32, u32, f64)> = live.iter().map(|&(u, v)| (u, v, 1.0)).collect();
    let spw: Vec<(u32, u32, f64)> = sparse.iter().map(|&(u, v, w, _)| (u, v, w)).collect();

    // The planted community cut plus random cuts.
    println!(
        "\n{:>24} {:>10} {:>12} {:>8}",
        "cut", "original", "sparsifier", "ratio"
    );
    let planted: HashSet<u32> = (0..half).collect();
    let co = cut_weight(&orig, &planted);
    let cs = cut_weight(&spw, &planted);
    println!(
        "{:>24} {:>10.0} {:>12.1} {:>8.2}",
        "planted (A|B)",
        co,
        cs,
        cs / co.max(1.0)
    );
    for trial in 0..5u64 {
        let side: HashSet<u32> = (0..n as u32)
            .filter(|&v| hash2(trial + 100, v as u64).is_multiple_of(2))
            .collect();
        let co = cut_weight(&orig, &side);
        let cs = cut_weight(&spw, &side);
        println!(
            "{:>24} {:>10.0} {:>12.1} {:>8.2}",
            format!("random #{trial}"),
            co,
            cs,
            cs / co.max(1.0)
        );
    }
    println!("\n(constants are laptop-scaled; `sparsifier_quality` (E6) measures the quality)");
}
