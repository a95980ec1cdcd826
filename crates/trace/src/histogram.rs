//! Log₂-bucketed histograms for signed objective deltas.
//!
//! The accept gate sees one `ΔCoco` per hierarchy round; the histogram
//! condenses those into a shape ("how far above zero do rejected candidates
//! land?") without storing the full series. Buckets
//! are powers of two mirrored around zero: zero has its own bucket, and a
//! magnitude `m > 0` lands in the bucket `[2^b, 2^{b+1})` with
//! `b = floor(log₂ m)`, on the positive or negative side according to sign.

/// One non-empty bucket of a [`LogHistogram`]: all recorded values `v` with
/// `lo <= v <= hi` (inclusive bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Smallest value in the bucket.
    pub lo: i64,
    /// Largest value in the bucket.
    pub hi: i64,
    /// Number of recorded values in `[lo, hi]`.
    pub count: u64,
}

/// A log₂-bucketed histogram over `i64` values, with exact count/min/max/sum
/// summary statistics on the side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    zero: u64,
    // Magnitude bucket b counts values with |v| in [2^b, 2^{b+1}).
    pos: [u64; 64],
    neg: [u64; 64],
    count: u64,
    sum: i128,
    min: i64,
    max: i64,
}

// Not derivable: `Default` is not implemented for `[u64; 64]` on this
// toolchain.
impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            zero: 0,
            pos: [0; 64],
            neg: [0; 64],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: i64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as i128;
        if v == 0 {
            self.zero += 1;
        } else {
            let b = 63 - v.unsigned_abs().leading_zeros() as usize;
            if v > 0 {
                self.pos[b] += 1;
            } else {
                self.neg[b] += 1;
            }
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value.
    pub fn min(&self) -> Option<i64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<i64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all recorded values (exact, `i128` to dodge overflow).
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Number of recorded values that were exactly zero.
    pub fn zeros(&self) -> u64 {
        self.zero
    }

    /// Number of strictly negative recorded values.
    pub fn negatives(&self) -> u64 {
        self.neg.iter().sum()
    }

    /// Number of strictly positive recorded values.
    pub fn positives(&self) -> u64 {
        self.pos.iter().sum()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.zero += other.zero;
        for (slot, v) in self.pos.iter_mut().zip(other.pos) {
            *slot += v;
        }
        for (slot, v) in self.neg.iter_mut().zip(other.neg) {
            *slot += v;
        }
    }

    /// The non-empty buckets in ascending value order (most negative first,
    /// then zero, then positive).
    pub fn buckets(&self) -> Vec<HistogramBucket> {
        let clamp = |v: i128| v.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        let mut out = Vec::new();
        for b in (0..64usize).rev() {
            if self.neg[b] > 0 {
                out.push(HistogramBucket {
                    lo: clamp(-((1i128 << (b + 1)) - 1)),
                    hi: clamp(-(1i128 << b)),
                    count: self.neg[b],
                });
            }
        }
        if self.zero > 0 {
            out.push(HistogramBucket {
                lo: 0,
                hi: 0,
                count: self.zero,
            });
        }
        for b in 0..64usize {
            if self.pos[b] > 0 {
                out.push(HistogramBucket {
                    lo: clamp(1i128 << b),
                    hi: clamp((1i128 << (b + 1)) - 1),
                    count: self.pos[b],
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_by_powers_of_two() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, -1, -2, -3, -1000] {
            h.record(v);
        }
        let buckets = h.buckets();
        // Ascending order, inclusive bounds, counts per bucket.
        assert_eq!(
            buckets,
            vec![
                HistogramBucket {
                    lo: -1023,
                    hi: -512,
                    count: 1
                },
                HistogramBucket {
                    lo: -3,
                    hi: -2,
                    count: 2
                },
                HistogramBucket {
                    lo: -1,
                    hi: -1,
                    count: 1
                },
                HistogramBucket {
                    lo: 0,
                    hi: 0,
                    count: 1
                },
                HistogramBucket {
                    lo: 1,
                    hi: 1,
                    count: 1
                },
                HistogramBucket {
                    lo: 2,
                    hi: 3,
                    count: 2
                },
                HistogramBucket {
                    lo: 4,
                    hi: 7,
                    count: 2
                },
                HistogramBucket {
                    lo: 8,
                    hi: 15,
                    count: 1
                },
            ]
        );
        assert_eq!(h.count(), 11);
        assert_eq!(h.zeros(), 1);
        assert_eq!(h.negatives(), 4);
        assert_eq!(h.positives(), 6);
        assert_eq!(h.min(), Some(-1000));
        assert_eq!(h.max(), Some(8));
        assert_eq!(h.sum(), (1 + 2 + 3 + 4 + 7 + 8 - 1 - 2 - 3 - 1000) as i128);
        // Bucket counts add up to the total.
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), h.count());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(i64::MIN);
        h.record(i64::MAX);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].lo, i64::MIN);
        assert_eq!(buckets[0].count, 1);
        assert_eq!(buckets[1].hi, i64::MAX);
        assert_eq!(buckets[1].count, 1);
        assert_eq!(h.min(), Some(i64::MIN));
        assert_eq!(h.max(), Some(i64::MAX));
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let values_a = [-17i64, 0, 3, 3, 900, -2];
        let values_b = [5i64, -5, 0, 1 << 40];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for v in values_a {
            a.record(v);
            combined.record(v);
        }
        for v in values_b {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging into an empty histogram copies; merging an empty one is a
        // no-op.
        let mut empty = LogHistogram::new();
        empty.merge(&combined);
        assert_eq!(empty, combined);
        let before = combined.clone();
        combined.merge(&LogHistogram::new());
        assert_eq!(combined, before);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.buckets(), vec![]);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }
}
