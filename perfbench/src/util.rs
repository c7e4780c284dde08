//! Seeded input streams, order statistics, and the result line.

use std::fmt::Write as _;

/// splitmix64: the benchmark's only source of randomness, so one seed fixes
/// every input a run generates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn letter(&mut self) -> char {
        (b'a' + self.below(26) as u8) as char
    }
}

/// Sub-buckets per power of two: quantiles read to within 1/128.
const SUB_BITS: u32 = 7;

/// A log-linear histogram of nanosecond samples. Its size is fixed, so a
/// run's memory does not grow with the number of samples it takes.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; Hist::index(u64::MAX) + 1],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> shift) as usize & ((1 << SUB_BITS) - 1);
        ((shift as usize + 1) << SUB_BITS) + sub
    }

    /// Smallest value that lands in bucket `i` (wide enough for the
    /// bucket past the last).
    fn lower(i: usize) -> u128 {
        if i < 1 << SUB_BITS {
            return i as u128;
        }
        let shift = (i >> SUB_BITS) - 1;
        (((1 << SUB_BITS) | (i & ((1 << SUB_BITS) - 1))) as u128) << shift
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Hist::index(v)] += 1;
        self.n += 1;
    }

    /// Nearest-rank quantile, read as the midpoint of its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Hist::lower(i) as f64;
                let hi = Hist::lower(i + 1) as f64;
                return if i < 1 << SUB_BITS {
                    lo
                } else {
                    (lo + hi) / 2.0
                };
            }
        }
        unreachable!("rank is within the sample count")
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn extend(&mut self, other: &Metrics) {
        for (n, v, u) in &other.0 {
            self.set(n, *v, u);
        }
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(10)
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(10)
            })
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 10));
        let mut c = Rng::new(7, 2);
        assert_ne!(a, (0..5).map(|_| c.below(10)).collect::<Vec<_>>());
    }

    #[test]
    fn histogram_quantiles_and_medians() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in 1..=100 {
            h.record(v);
        }
        // Small values are exact.
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.9), 90.0);
        assert_eq!(h.quantile(0.99), 99.0);
        let mut h = Hist::default();
        for v in (1..=10_000u64).map(|v| v * 1000) {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 10_000_000.0;
            assert!(
                (h.quantile(q) - want).abs() / want < 1.0 / 128.0,
                "q{q}: {}",
                h.quantile(q)
            );
        }
        for v in [127, 128, 255, 256, 1 << 40, u64::MAX] {
            let i = Hist::index(v);
            assert!(Hist::lower(i) <= u128::from(v) && u128::from(v) < Hist::lower(i + 1));
        }
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metrics_render_as_json_objects() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, "s");
        m.set("x", f64::NAN, "count");
        m.set("setup_s", 0.5, "s");
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"count\"}}"
        );
    }
}
