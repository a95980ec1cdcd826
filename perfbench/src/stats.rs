//! The arithmetic behind the reported numbers: medians, the tail-percentile
//! rule, quality and failure ratios, and the determinism digest.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A nearest-rank percentile and the number of samples above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples ranked strictly above it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

impl Tail {
    /// Whether at least [`MIN_SAMPLES_BEYOND`] samples lie beyond it, so the
    /// percentile is a measurement rather than a restatement of the maximum.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_SAMPLES_BEYOND
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`: the value at
/// rank `ceil(q * n)`. `None` for an empty slice.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Tail {
        value: v[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// `Σ enhanced Coco / Σ initial Coco` over `(initial, enhanced)` pairs.
/// `NaN` when there is nothing to divide by.
pub fn coco_ratio(pairs: &[(u64, u64)]) -> f64 {
    let initial: u64 = pairs.iter().map(|p| p.0).sum();
    let enhanced: u64 = pairs.iter().map(|p| p.1).sum();
    if initial == 0 {
        f64::NAN
    } else {
        enhanced as f64 / initial as f64
    }
}

/// Failed over attempted requests; 0 when nothing was attempted.
pub fn error_rate(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// FNV-1a over the mappings of a pass, keyed by request index, so two
/// passes agree exactly when every request mapped to the same bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add(&mut self, id: usize, mapping: &[u32]) {
        self.feed(&(id as u64).to_le_bytes());
        self.feed(&(mapping.len() as u64).to_le_bytes());
        for pe in mapping {
            self.feed(&pe.to_le_bytes());
        }
    }

    /// Digest of `mappings[id]` for every id, in id order.
    pub fn of<'a>(mappings: impl IntoIterator<Item = &'a [u32]>) -> Digest {
        let mut d = Digest::default();
        for (id, m) in mappings.into_iter().enumerate() {
            d.add(id, m);
        }
        d
    }

    /// Sixteen hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_uses_nearest_rank_and_counts_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 0.95).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert!(t.resolved());
        let t = tail(&v[..199], 0.95).unwrap();
        assert_eq!(t.beyond, 9);
        assert!(!t.resolved());
        let t = tail(&[5.0], 0.95).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 0));
    }

    #[test]
    fn coco_ratio_sums_before_dividing() {
        // 90/100 and 30/20 would average to 1.2; the ratio of sums is 1.0.
        assert_eq!(coco_ratio(&[(100, 90), (20, 30)]), 1.0);
        assert_eq!(coco_ratio(&[(200, 150)]), 0.75);
        assert!(coco_ratio(&[]).is_nan());
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        assert_eq!(error_rate(0, 40), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(0, 0), 0.0);
    }

    #[test]
    fn digest_sees_order_and_content() {
        let a: [&[u32]; 2] = [&[0, 1], &[1, 0]];
        let b: [&[u32]; 2] = [&[1, 0], &[0, 1]];
        assert_eq!(Digest::of(a), Digest::of(a));
        assert_ne!(Digest::of(a), Digest::of(b));
        assert_eq!(Digest::of(a).hex().len(), 16);
    }
}
