//! Shared harness for the experiment binaries and criterion benches.
//!
//! The README's "Reproducing the paper" table maps every table and
//! experiment of the paper to a binary in `src/bin/` (paper-style tables)
//! or a criterion bench in `benches/` (statistically careful
//! microbenchmarks). This module holds the small amount of code they
//! share: wall-clock measurement with warmup, and fixed-width table
//! printing.

use std::time::Instant;

pub mod json;

/// Median wall-clock seconds of `reps` runs of `f` (with one warmup run).
/// `f` receives the repetition index so it can vary seeds.
pub fn median_secs<F: FnMut(usize)>(reps: usize, mut f: F) -> f64 {
    f(usize::MAX); // warmup
    let mut times: Vec<f64> = (0..reps)
        .map(|r| {
            let t0 = Instant::now();
            f(r);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Formats nanoseconds-per-edge.
pub fn ns_per_edge(total_secs: f64, edges: usize) -> String {
    format!("{:.1}", total_secs * 1e9 / edges.max(1) as f64)
}

/// The `lg(1 + n/ℓ)` reference shape of Theorem 1.1, normalized so callers
/// can eyeball measured-vs-predicted columns.
pub fn work_shape(n: usize, l: usize) -> f64 {
    (1.0 + n as f64 / l as f64).log2()
}

/// Geometric batch-size sweep `1, 8, 64, …` capped at `max`.
pub fn batch_sweep(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut l = 1usize;
    while l <= max {
        v.push(l);
        l *= 8;
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_geometric_and_capped() {
        let s = batch_sweep(100_000);
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.last().unwrap(), 100_000);
    }

    #[test]
    fn shape_decreases_in_l() {
        assert!(work_shape(1 << 20, 1) > work_shape(1 << 20, 1 << 10));
        assert!(work_shape(1 << 20, 1 << 10) > work_shape(1 << 20, 1 << 20));
    }

    #[test]
    fn median_runs_all_reps() {
        let mut count = 0;
        let t = median_secs(3, |_| count += 1);
        assert_eq!(count, 4); // warmup + 3
        assert!(t >= 0.0);
    }
}
