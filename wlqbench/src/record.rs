//! Per-op latency samples and outcome counters for one measured pass.

use crate::stats;

/// Latencies of ops, per op kind.
///
/// Most workloads keep every sample. `stream_append` times millions of
/// appends, so it keeps log-bucketed histograms instead: their memory is
/// fixed, and the benchmark's own peak RSS does not grow with the op rate.
pub enum Samples {
    /// Every latency in milliseconds, per kind.
    Raw(Vec<Vec<f64>>),
    /// One histogram per kind.
    Hist(Vec<Histogram>),
}

/// What one measured pass saw.
pub struct Recorder {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Records the ops covered (the log's size per query, one per append).
    pub records: f64,
    /// Incidents the ops answered (counted or listed or emitted).
    pub incidents: f64,
    /// Sum of op latencies in seconds.
    pub op_seconds: f64,
}

impl Recorder {
    /// A recorder keeping every sample of `kinds` op kinds.
    pub fn raw(kinds: usize) -> Self {
        Self::with(Samples::Raw(vec![Vec::new(); kinds]))
    }

    /// A recorder keeping a histogram per op kind.
    pub fn histogram(kinds: usize) -> Self {
        Self::with(Samples::Hist(
            (0..kinds).map(|_| Histogram::new()).collect(),
        ))
    }

    fn with(samples: Samples) -> Self {
        Recorder {
            samples,
            attempted: 0,
            failed: 0,
            records: 0.0,
            incidents: 0.0,
            op_seconds: 0.0,
        }
    }

    /// Records one op: its kind, latency, whether its answer was right,
    /// and the records and incidents it covered.
    pub fn op(&mut self, kind: u32, secs: f64, ok: bool, records: f64, incidents: f64) {
        match &mut self.samples {
            Samples::Raw(per_kind) => per_kind[kind as usize].push(secs * 1e3),
            Samples::Hist(per_kind) => per_kind[kind as usize].add(secs * 1e9),
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.records += records;
        self.incidents += incidents;
        self.op_seconds += secs;
    }

    /// Counts a failed check that is not tied to one op's latency (for
    /// example a stream's final incident set).
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Number of ops recorded.
    pub fn ops(&self) -> u64 {
        match &self.samples {
            Samples::Raw(per_kind) => per_kind.iter().map(|v| v.len() as u64).sum(),
            Samples::Hist(per_kind) => per_kind.iter().map(|h| h.count).sum(),
        }
    }

    /// The `q`-quantile of op latency over all kinds, in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        match &self.samples {
            Samples::Raw(per_kind) => stats::quantile_of(&per_kind.concat(), q),
            Samples::Hist(per_kind) => {
                let mut all = Histogram::new();
                for h in per_kind {
                    all.merge(h);
                }
                all.quantile_ns(q) / 1e6
            }
        }
    }

    /// The typical op's median latency, in milliseconds: the geometric
    /// mean over op kinds of each kind's median.
    ///
    /// An op mix is a blend of fast and slow kinds (for example counts
    /// answered by the counting DP beside full enumerations), and the
    /// pooled median of such a blend sits on the edge of one cluster,
    /// where a small shift moves it far. Each kind's median is steady, and
    /// the geometric mean weighs a speed-up of any kind alike.
    pub fn typical_median_ms(&self) -> f64 {
        let logs: Vec<f64> = self
            .kind_medians_ms()
            .into_iter()
            .flatten()
            .map(f64::ln)
            .collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// Median op latency of each kind, in milliseconds (`None` for a kind
    /// without samples).
    pub fn kind_medians_ms(&self) -> Vec<Option<f64>> {
        match &self.samples {
            Samples::Raw(per_kind) => per_kind
                .iter()
                .map(|v| (!v.is_empty()).then(|| stats::median(v)))
                .collect(),
            Samples::Hist(per_kind) => per_kind
                .iter()
                .map(|h| (h.count > 0).then(|| h.quantile_ns(0.5) / 1e6))
                .collect(),
        }
    }
}

/// Latencies in log-spaced buckets, each 1% wider than the last.
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
}

const GROWTH: f64 = 1.01;
const BUCKETS: usize = 2400; // 1.01^2400 ns > 10^10 ns

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
        }
    }

    fn bucket(ns: f64) -> usize {
        ((ns.max(1.0).ln() / GROWTH.ln()) as usize).min(BUCKETS - 1)
    }

    fn lower(bucket: usize) -> f64 {
        GROWTH.powi(bucket as i32)
    }

    /// Adds one sample in nanoseconds.
    pub fn add(&mut self, ns: f64) {
        self.counts[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile in nanoseconds, interpolating by rank inside the
    /// bucket that holds it (error under 1%).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let within = (rank - below as f64 + 0.5) / c as f64;
                let (lo, hi) = (Self::lower(b), Self::lower(b + 1));
                return lo + (hi - lo) * within;
            }
            below += c;
        }
        Self::lower(BUCKETS)
    }

    /// Non-empty buckets as (lower bound in ns, count).
    pub fn nonempty(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Self::lower(b), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_one_percent() {
        let mut h = Histogram::new();
        for i in 1..=10_000u32 {
            h.add(f64::from(i) * 100.0);
        }
        for (q, exact) in [(0.5, 500_050.0), (0.9, 900_010.0), (0.99, 990_001.0)] {
            let got = h.quantile_ns(q);
            assert!((got / exact - 1.0).abs() < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(Histogram::new().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn recorder_counts_failures_and_rates() {
        let mut r = Recorder::raw(2);
        r.op(0, 0.002, true, 10.0, 3.0);
        r.op(1, 0.004, false, 10.0, 0.0);
        r.check(true);
        assert_eq!((r.attempted, r.failed, r.ops()), (3, 1, 2));
        assert!((r.latency_ms(0.5) - 3.0).abs() < 1e-9);
        assert_eq!(r.kind_medians_ms(), vec![Some(2.0), Some(4.0)]);
        assert!((r.typical_median_ms() - 8f64.sqrt()).abs() < 1e-12);
        assert!((r.op_seconds - 0.006).abs() < 1e-12);
    }
}
