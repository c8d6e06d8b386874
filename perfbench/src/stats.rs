//! Small numeric helpers: percentiles with their sample counts, medians,
//! a seeded input generator and the FNV digest used by the output checks.

/// A timing distribution summarized the way the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// The highest percentile, among 50, 90, 99, 99.9 and 99.99, that
    /// still has at least ten samples beyond it.
    pub top_pct: f64,
    /// The value at `top_pct`.
    pub top: f64,
}

/// Nearest-rank percentile `pct` (0..=100) of ascending `sorted`.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes `samples` (sorted in place).
pub fn percentiles(samples: &mut [f64]) -> Percentiles {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let mut top_pct = 50.0;
    for pct in [90.0, 99.0, 99.9, 99.99] {
        // Samples strictly above the nearest-rank position.
        let beyond = n - ((pct / 100.0) * n as f64).ceil() as usize;
        if beyond >= 10 {
            top_pct = pct;
        }
    }
    Percentiles {
        count: n,
        p50: nearest_rank(samples, 50.0),
        p99: nearest_rank(samples, 99.0),
        top_pct,
        top: nearest_rank(samples, top_pct),
    }
}

/// Median of `values` (sorted in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Deterministic input generator (SplitMix64): every seeded choice the
/// benchmark makes comes from here.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs one delivered message: its sender and payload.
    pub fn message(&mut self, sender: u16, data: &[u8]) {
        self.write(&sender.to_le_bytes());
        self.write(&(data.len() as u32).to_le_bytes());
        self.write(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_count_and_the_deepest_supported_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let p = percentiles(&mut v);
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(p.top_pct, 99.0);
        assert_eq!(p.top, 990.0);

        let mut small: Vec<f64> = (1..=50).map(f64::from).collect();
        let p = percentiles(&mut small);
        assert_eq!(p.top_pct, 50.0, "50 samples leave only 5 beyond p90");
        let mut big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(percentiles(&mut big).top_pct, 99.99);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn splitmix_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix::new(7, 1).next_u64(), SplitMix::new(7, 2).next_u64());
        assert_ne!(SplitMix::new(7, 1).next_u64(), SplitMix::new(8, 1).next_u64());
    }
}
