//! Per-pass sample accumulation and order statistics.

use crate::shape::{slots, Kind, SLOTS};

/// What one commit unit measured.
#[derive(Debug, Default)]
pub struct UnitOut {
    /// Commit latency: first write submitted → the workload's barrier
    /// resolved (without one: → first query of the unit answered, i.e.
    /// read-your-writes).
    pub commit_ns: u64,
    /// Query phase: first batch submitted → last answer held.
    pub query_ns: u64,
    /// The unit's whole timed interval.
    pub total_ns: u64,
    /// Time covered by the unit's child spans (traced units only).
    pub attributed_ns: u64,
    /// Per batch: sample slot, submission-to-answer ns, queries in the
    /// batch.
    pub batches: Vec<(usize, u64, u64)>,
    /// Edges inserted.
    pub edges: u64,
    /// Positions expired.
    pub expired: u64,
    /// Ops submitted (writes, barriers, query batches).
    pub ops: u64,
    /// Time inside insert calls (traced units only).
    pub insert_ns: u64,
    /// Time inside expire calls (traced units only).
    pub expire_ns: u64,
    /// Insert / expire calls timed.
    pub timed_writes: (u64, u64),
}

/// Samples of one pass (or of its traced / untraced half).
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Commit latencies, ns.
    pub commit_ns: Vec<u64>,
    /// Per-batch latencies, ns, by sample slot ([`crate::shape::slot`]).
    pub batch_ns: [Vec<u64>; SLOTS],
    /// Units measured.
    pub units: u64,
    /// Edges inserted.
    pub edges: u64,
    /// Positions expired.
    pub expired: u64,
    /// Queries answered (pairs or vertices, not batches).
    pub queries: u64,
    /// Query phases, ns, summed.
    pub query_ns: u64,
    /// Units' timed intervals, ns, summed.
    pub unit_ns: u64,
    /// Time covered by child spans, ns, summed.
    pub attributed_ns: u64,
    /// Time inside insert calls, ns.
    pub insert_ns: u64,
    /// Insert calls timed.
    pub inserts: u64,
    /// Time inside expire calls, ns.
    pub expire_ns: u64,
    /// Expire calls timed.
    pub expires: u64,
}

impl Stats {
    /// Adds one unit's samples.
    pub fn absorb(&mut self, o: &UnitOut) {
        self.commit_ns.push(o.commit_ns);
        for &(slot, ns, len) in &o.batches {
            self.batch_ns[slot].push(ns);
            self.queries += len;
        }
        self.units += 1;
        self.edges += o.edges;
        self.expired += o.expired;
        self.query_ns += o.query_ns;
        self.unit_ns += o.total_ns;
        self.attributed_ns += o.attributed_ns;
        self.insert_ns += o.insert_ns;
        self.expire_ns += o.expire_ns;
        self.inserts += o.timed_writes.0;
        self.expires += o.timed_writes.1;
    }

    /// Adds another pass's samples.
    pub fn merge(&mut self, o: &Stats) {
        self.commit_ns.extend(&o.commit_ns);
        for (a, b) in self.batch_ns.iter_mut().zip(&o.batch_ns) {
            a.extend(b);
        }
        self.units += o.units;
        self.edges += o.edges;
        self.expired += o.expired;
        self.queries += o.queries;
        self.query_ns += o.query_ns;
        self.unit_ns += o.unit_ns;
        self.attributed_ns += o.attributed_ns;
        self.insert_ns += o.insert_ns;
        self.inserts += o.inserts;
        self.expire_ns += o.expire_ns;
        self.expires += o.expires;
    }

    /// Median commit latency, ms.
    pub fn commit_p50_ms(&self) -> f64 {
        median(&self.commit_ns) / 1e6
    }

    /// Median batch latency of one kind, µs; for folds, the mean of the
    /// four monoids' medians.
    pub fn kind_p50_us(&self, k: Kind) -> f64 {
        let medians: Vec<f64> = slots(k)
            .filter(|&s| !self.batch_ns[s].is_empty())
            .map(|s| median(&self.batch_ns[s]))
            .collect();
        ratio(medians.iter().sum(), medians.len() as f64) / 1e3
    }

    /// Mean over the four kinds of their median batch latency, µs: the
    /// kinds differ in cost by orders of magnitude, so a median over all
    /// batches would sit between their modes.
    pub fn query_p50_us(&self) -> f64 {
        Kind::ALL.iter().map(|&k| self.kind_p50_us(k)).sum::<f64>() / Kind::ALL.len() as f64
    }

    /// Batches answered of one kind.
    pub fn batches(&self, k: Kind) -> u64 {
        slots(k).map(|s| self.batch_ns[s].len() as u64).sum()
    }

    /// Edges committed per second of write phase (first write submitted
    /// → committed), summed over the units so slow commits count.
    pub fn edges_per_s(&self) -> f64 {
        ratio(
            self.edges as f64,
            self.commit_ns.iter().sum::<u64>() as f64 / 1e9,
        )
    }

    /// Queries answered per second of query phase (first batch submitted
    /// → last answer), summed over the units.
    pub fn queries_per_s(&self) -> f64 {
        ratio(self.queries as f64, self.query_ns as f64 / 1e9)
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m] as f64
    } else {
        (s[m - 1] as f64 + s[m] as f64) / 2.0
    }
}

/// Median of float samples; 0 when empty.
pub fn median_f(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[4, 1, 3, 2]), 2.5);
        assert_eq!(median_f(&[0.5, 0.1, 0.3]), 0.3);
    }
}
