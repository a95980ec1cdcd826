//! A fixed reference computation that measures how fast the machine is
//! running right now, so timings can be reported at a reference speed.
//!
//! On a shared host the same code runs up to a third slower or faster from
//! one minute to the next, and all work slows down together. The benchmark
//! therefore runs this kernel between requests (never during one), and
//! scales every measured time by `NOMINAL_UNIT_MS / measured unit time`:
//! a time reported in "reference ms" is what the work would have taken
//! while the kernel ran at its nominal speed. The kernel is the benchmark's
//! own code, so a change to the program under test cannot change it.
//!
//! One unit of work is two breadth-first searches over a fixed random
//! graph and a sort of one key per vertex: the irregular memory access and
//! integer work the mapping pipeline does, at a similar working-set size.

use std::hint::black_box;

use crate::workload::SplitMix;

/// Time of one unit on the reference machine (2-vCPU Xeon VM, one thread,
/// release build, quiet period).
pub const NOMINAL_UNIT_MS: f64 = 2.2;

/// Timed units per sample, after one untimed warm-up unit; a sample
/// reports their mean.
pub const UNITS_PER_SAMPLE: usize = 14;

const VERTICES: usize = 1 << 15;
const OUT_DEGREE: usize = 8;

/// The kernel's fixed input graph, in CSR form.
#[derive(Debug)]
pub struct Yardstick {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// One thread's buffers for the kernel.
#[derive(Debug, Default)]
struct Scratch {
    dist: Vec<u32>,
    queue: Vec<u32>,
    keys: Vec<u64>,
    next_source: u32,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// Builds the fixed graph: every vertex has [`OUT_DEGREE`] arcs to
    /// pseudo-random vertices, from a fixed seed.
    pub fn new() -> Yardstick {
        let mut rng = SplitMix::new(0x7961_7264);
        let offsets = (0..=VERTICES).map(|v| (v * OUT_DEGREE) as u32).collect();
        let targets = (0..VERTICES * OUT_DEGREE)
            .map(|_| rng.below(VERTICES) as u32)
            .collect();
        Yardstick { offsets, targets }
    }

    /// One unit of work; returns a checksum so it cannot be optimised away.
    fn unit(&self, s: &mut Scratch) -> u64 {
        let mut sum = 0u64;
        for _ in 0..2 {
            let source = s.next_source % VERTICES as u32;
            s.next_source = s.next_source.wrapping_add(7919);
            s.dist.clear();
            s.dist.resize(VERTICES, u32::MAX);
            s.queue.clear();
            s.dist[source as usize] = 0;
            s.queue.push(source);
            let mut head = 0;
            while let Some(&v) = s.queue.get(head) {
                head += 1;
                let d = s.dist[v as usize] + 1;
                let (a, b) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
                for &w in &self.targets[a as usize..b as usize] {
                    if s.dist[w as usize] == u32::MAX {
                        s.dist[w as usize] = d;
                        s.queue.push(w);
                    }
                }
            }
            sum = sum.wrapping_add(head as u64);
        }
        s.keys.clear();
        s.keys.extend(s.dist.iter().enumerate().map(|(v, &d)| {
            (u64::from(d) << 32) | ((v as u64).wrapping_mul(0x9e37_79b9) & 0xffff_ffff)
        }));
        s.keys.sort_unstable();
        sum.wrapping_add(s.keys[VERTICES / 2])
    }

    /// Mean milliseconds per unit over [`UNITS_PER_SAMPLE`] units, run on
    /// `threads` threads at once (the number of threads the workload keeps
    /// busy) and averaged over them. A mean, not a median: when the host
    /// deschedules the machine for tens of milliseconds, the requests lose
    /// that time too, in proportion to how often it happens.
    pub fn sample(&self, threads: usize) -> f64 {
        let one = || {
            let mut s = Scratch::default();
            black_box(self.unit(&mut s));
            let begin = std::time::Instant::now();
            for _ in 0..UNITS_PER_SAMPLE {
                black_box(self.unit(&mut s));
            }
            begin.elapsed().as_secs_f64() * 1e3 / UNITS_PER_SAMPLE as f64
        };
        let threads = threads.max(1);
        if threads == 1 {
            return one();
        }
        let per_thread: Vec<f64> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads).map(|_| sc.spawn(one)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(f64::NAN))
                .collect()
        });
        per_thread.iter().sum::<f64>() / threads as f64
    }
}

/// The factor that turns a wall time measured while a unit took `unit_ms`
/// into reference milliseconds.
pub fn scale(unit_ms: f64) -> f64 {
    NOMINAL_UNIT_MS / unit_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let y = Yardstick::new();
        let (mut a, mut b) = (Scratch::default(), Scratch::default());
        let first: Vec<u64> = (0..3).map(|_| y.unit(&mut a)).collect();
        let again: Vec<u64> = (0..3).map(|_| y.unit(&mut b)).collect();
        assert_eq!(first, again);
        assert!(first.iter().all(|&c| c > VERTICES as u64));
    }

    #[test]
    fn samples_are_positive_and_scale_inverts() {
        let y = Yardstick::new();
        for threads in [1, 2] {
            let ms = y.sample(threads);
            assert!(ms.is_finite() && ms > 0.0);
        }
        assert!((scale(NOMINAL_UNIT_MS) - 1.0).abs() < 1e-12);
        assert!((scale(2.0 * NOMINAL_UNIT_MS) - 0.5).abs() < 1e-12);
    }
}
