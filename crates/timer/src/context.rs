//! Per-topology reusable state for the TIMER search.
//!
//! Everything TIMER derives from the *processor* graph alone is pure and
//! reusable across every enhancement request targeting the same topology:
//! the partial-cube labeling, the seeded digit-permutation streams, and the
//! sizing of the hierarchy scratch buffers. A [`TopologyContext`] owns that
//! state so `Timer::enhance_with_context` can borrow it instead of
//! rebuilding it per call — the library split the `mapd` service caches
//! behind a keyed per-topology cache.
//!
//! Correctness contract: a context never influences result bytes, only
//! latency. The permutation streams are memoized verbatim from the driver's
//! original generation code (same seed derivation, same RNG, same shuffle),
//! so a run through a warm context is byte-identical to a run through a
//! cold one — pinned by the driver's `enhance_with_context` tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tie_graph::Graph;
use tie_topology::{recognize_partial_cube, PartialCubeLabeling};

use crate::error::TieError;

/// Cap on memoized permutation streams per context. Streams are keyed by
/// `(seed, dim, num_hierarchies)`; a long-running service that cycles
/// through many seeds must not grow a context without bound, so the oldest
/// key (BTreeMap order) is dropped once the cap is hit. Purely a memory
/// bound — an evicted stream is regenerated identically on the next request.
const MAX_PERM_STREAMS: usize = 64;

/// Memoized permutation streams, keyed by `(seed, dim, num_hierarchies)`.
type PermMemo = BTreeMap<(u64, usize, usize), Arc<Vec<Vec<usize>>>>;

/// Reusable per-topology state: the partial-cube labeling of the processor
/// graph, memoized digit-permutation streams, and a scratch sizing hint.
///
/// A context is immutable from the caller's perspective and `Sync`:
/// concurrent enhancements may share one context through an `Arc`. Interior
/// mutability is limited to the permutation memo (a mutex around a small
/// map) and the sizing high-water mark (an atomic) — neither affects
/// result bytes.
#[derive(Debug)]
pub struct TopologyContext {
    pcube: PartialCubeLabeling,
    /// `(seed, dim, num_hierarchies)` → the permutation stream the driver
    /// draws for that configuration. `dim` includes the per-instance
    /// extension bits, so one topology can hold streams for several widths.
    perms: Mutex<PermMemo>,
    /// Largest application-graph vertex count seen by this context; used to
    /// pre-size `HierarchyScratch` buffers for later runs.
    vertex_high_water: AtomicUsize,
}

impl TopologyContext {
    /// Wraps an already-recognized partial-cube labeling.
    pub fn new(pcube: PartialCubeLabeling) -> Self {
        TopologyContext {
            pcube,
            perms: Mutex::new(BTreeMap::new()),
            vertex_high_water: AtomicUsize::new(0),
        }
    }

    /// Recognizes `gp` as a partial cube and builds a context for it.
    ///
    /// # Errors
    /// [`TieError::Recognition`] when `gp` is not a partial cube.
    pub fn recognize(gp: &Graph) -> Result<Self, TieError> {
        Ok(TopologyContext::new(recognize_partial_cube(gp)?))
    }

    /// The partial-cube labeling of the processor graph.
    pub fn pcube(&self) -> &PartialCubeLabeling {
        &self.pcube
    }

    /// Number of PEs of the underlying topology.
    pub fn num_pes(&self) -> usize {
        self.pcube.num_pes()
    }

    /// The permutation stream for `(seed, dim, num_hierarchies)`, memoized.
    /// The first request generates it with [`generate_permutations`]; later
    /// requests share the same `Arc`. Generation is deterministic, so a
    /// regenerated stream (after eviction, or raced by two cold requests)
    /// is identical to the first.
    pub fn permutations(
        &self,
        seed: u64,
        dim: usize,
        num_hierarchies: usize,
    ) -> Arc<Vec<Vec<usize>>> {
        let key = (seed, dim, num_hierarchies);
        let mut memo = self.lock_perms();
        if let Some(stream) = memo.get(&key) {
            return Arc::clone(stream);
        }
        let generated = Arc::new(generate_permutations(seed, dim, num_hierarchies));
        if memo.len() >= MAX_PERM_STREAMS {
            memo.pop_first();
        }
        memo.insert(key, Arc::clone(&generated));
        generated
    }

    /// Records that an instance with `num_vertices` application vertices ran
    /// against this context (raises the scratch sizing high-water mark).
    pub fn note_vertices(&self, num_vertices: usize) {
        self.vertex_high_water
            .fetch_max(num_vertices, Ordering::Relaxed);
    }

    /// Suggested vertex capacity for pre-sizing `HierarchyScratch` buffers:
    /// the largest instance this context has served so far (0 when cold).
    pub fn scratch_vertices_hint(&self) -> usize {
        self.vertex_high_water.load(Ordering::Relaxed)
    }

    fn lock_perms(&self) -> MutexGuard<'_, PermMemo> {
        match self.perms.lock() {
            Ok(guard) => guard,
            // The memo is only ever mutated under this lock and every
            // mutation leaves it consistent, so a poisoned lock (a panic
            // elsewhere while holding it) is safe to recover.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Generates the driver's permutation stream for one configuration: one
/// shuffled `0..dim` permutation per hierarchy, drawn from a seeded RNG.
///
/// This is the byte-identity anchor of the context split — the exact code
/// (seed derivation constant included) the driver has always run inline, so
/// every cache disposition sees the identical hierarchies.
pub fn generate_permutations(seed: u64, dim: usize, num_hierarchies: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x51ed_270b));
    (0..num_hierarchies)
        .map(|_| {
            let mut perm: Vec<usize> = (0..dim).collect();
            perm.shuffle(&mut rng);
            perm
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_topology::Topology;

    #[test]
    fn permutation_streams_are_memoized_and_keyed() {
        let topo = Topology::grid2d(4, 4);
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        let a = ctx.permutations(7, 10, 12);
        let b = ctx.permutations(7, 10, 12);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one stream");
        let c = ctx.permutations(7, 11, 12);
        assert!(
            !Arc::ptr_eq(&a, &c),
            "a different dim is a different stream"
        );
        assert_eq!(a.len(), 12);
        for perm in a.iter() {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn memoized_stream_matches_direct_generation() {
        let topo = Topology::grid2d(2, 4);
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        assert_eq!(
            *ctx.permutations(3, 8, 5),
            generate_permutations(3, 8, 5),
            "memoization must not change the stream"
        );
    }

    #[test]
    fn vertex_high_water_only_rises() {
        let topo = Topology::hypercube(3);
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        assert_eq!(ctx.scratch_vertices_hint(), 0);
        ctx.note_vertices(100);
        ctx.note_vertices(40);
        assert_eq!(ctx.scratch_vertices_hint(), 100);
        ctx.note_vertices(250);
        assert_eq!(ctx.scratch_vertices_hint(), 250);
    }

    #[test]
    fn perm_memo_is_capacity_bounded() {
        let topo = Topology::grid2d(2, 2);
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        for seed in 0..(MAX_PERM_STREAMS as u64 + 8) {
            let _ = ctx.permutations(seed, 4, 2);
        }
        assert!(ctx.lock_perms().len() <= MAX_PERM_STREAMS);
        // An evicted stream regenerates identically.
        assert_eq!(*ctx.permutations(0, 4, 2), generate_permutations(0, 4, 2));
    }
}
