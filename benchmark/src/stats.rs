//! Sample statistics and the simulated-output digest.

/// Samples that must lie strictly above a reported percentile's rank.
/// A percentile with fewer samples beyond it says nothing about the tail
/// it names, so [`percentile`] refuses it.
pub const MIN_BEYOND: usize = 10;

/// Samples a workload must collect before its median is reportable.
pub const MIN_SAMPLES: usize = 2 * MIN_BEYOND;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie beyond the percentile's
/// rank, or `p` is out of range.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} is outside (0, 100]"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// Median of a non-empty sample set (mean of the middle pair for even
/// counts). Used for set-up rounds, which are too few for
/// [`percentile`]'s tail rule and need no tail.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// 64-bit FNV-1a over the simulated results a run produced. Two commits
/// that only change speed must print the same digest for the same seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&s, 99.0).is_err(), "p99 of 99 samples");
        assert!(
            percentile(&s, 90.0).is_err(),
            "p90 of 99 samples has 9 beyond"
        );
        assert_eq!(percentile(&s, 50.0), Ok(50.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Ok(90.0));
        assert!(percentile(&s, 99.0).is_err());
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Ok(990.0));
        assert!(percentile(&s, 99.9).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert!(percentile(&[1.0; 20], 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&s, 0.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_fnv1a() {
        // Published FNV-1a 64 test vectors.
        let mut d = Digest::default();
        d.bytes(b"");
        assert_eq!(d.hex(), "cbf29ce484222325");
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }
}
