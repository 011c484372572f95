//! Measurement helpers: latency histograms and throughput meters.
//!
//! These collect *virtual-time* observations; the microbenchmark and
//! application harnesses use them to produce the paper's tables.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// An online summary of duration samples: count/min/max/mean plus a
/// log₂-bucketed histogram for percentile estimates.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    /// buckets[i] counts samples with floor(log2(ns)) == i (bucket 0 also
    /// holds 0 ns samples).
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; 64],
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let idx = if ns == 0 { 0 } else { 63 - ns.leading_zeros() as usize };
        self.buckets[idx] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (None when empty).
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Largest sample (None when empty).
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// Arithmetic mean (None when empty).
    pub fn mean(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64))
    }

    /// Coarse quantile from the log₂ buckets: an upper bound of the bucket
    /// containing quantile `q` in `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let hi = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return Some(SimDuration::from_nanos(hi.min(self.max_ns)));
            }
        }
        Some(SimDuration::from_nanos(self.max_ns))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mean(), self.min(), self.max()) {
            (Some(mean), Some(min), Some(max)) => write!(
                f,
                "n={} mean={} min={} max={}",
                self.count, mean, min, max
            ),
            _ => write!(f, "n=0"),
        }
    }
}

/// Accumulates transferred bytes over a virtual-time window and reports
/// bandwidth in the units the paper uses (megabits per second).
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    start: SimTime,
    end: SimTime,
    bytes: u64,
}

impl ThroughputMeter {
    /// Start a measurement window at `start`.
    pub fn start_at(start: SimTime) -> ThroughputMeter {
        ThroughputMeter {
            start,
            end: start,
            bytes: 0,
        }
    }

    /// Record `bytes` transferred, completing at time `at`.
    pub fn record(&mut self, bytes: u64, at: SimTime) {
        self.bytes += bytes;
        if at > self.end {
            self.end = at;
        }
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Window length.
    pub fn elapsed(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Bandwidth in Mb/s (10^6 bits per second), the paper's unit.
    pub fn mbps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.bytes as f64 * 8.0) / secs / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert!(h.mean().is_none());
        for us in [10u64, 20, 30] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean().unwrap().as_nanos(), 20_000);
        assert_eq!(h.min().unwrap().as_nanos(), 10_000);
        assert_eq!(h.max().unwrap().as_nanos(), 30_000);
    }

    #[test]
    fn histogram_quantiles_bound() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_micros(i));
        }
        let q50 = h.quantile_upper_bound(0.5).unwrap();
        // The median (50 us) lies in bucket [32768, 65535] ns.
        assert!(q50.as_nanos() >= 50_000);
        let q100 = h.quantile_upper_bound(1.0).unwrap();
        assert_eq!(q100.as_nanos(), 100_000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(5));
        b.record(SimDuration::from_micros(15));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().unwrap().as_nanos(), 10_000);
    }

    #[test]
    fn zero_duration_sample() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min().unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn throughput_meter() {
        let t0 = SimTime::ZERO;
        let mut m = ThroughputMeter::start_at(t0);
        // 1 MB in 10 ms = 800 Mb/s.
        m.record(1_000_000, t0 + SimDuration::from_millis(10));
        assert_eq!(m.bytes(), 1_000_000);
        assert!((m.mbps() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_meter_empty_window() {
        let m = ThroughputMeter::start_at(SimTime::ZERO);
        assert_eq!(m.mbps(), 0.0);
    }
}
