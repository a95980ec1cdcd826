//! Hierarchy levels with interleaved swap sweeps (the inner loop of
//! Algorithm 1, lines 9–14), run on the application graph itself.
//!
//! The paper builds a hierarchy of graphs `G¹, …, G^{dim−1}`: each level
//! sweeps over all pairs of vertices whose labels agree on everything but
//! the last digit, swaps their labels whenever that lowers the level-local
//! `Coco`, and then contracts every such pair into one vertex while cutting
//! off the last digit. The labels encode a recursive bipartition of `Ga`
//! induced by the processor topology — oblivious to `Ga`'s own edge
//! structure, which is exactly the diversity the TIMER search exploits.
//!
//! This module runs the same sweeps without building a single coarse graph.
//! Let `cur` be the round's (digit-permuted, unique) labels:
//!
//! * A level-`j` vertex is the group of application vertices that share
//!   `cur >> j`; a candidate pair is two groups that share `cur >> (j+1)`.
//! * Sorting the vertices by `cur` once per round makes every group and
//!   every pair a contiguous run of that one order at every level: bits
//!   `≥ j` are untouched before level `j`'s sweep, and a level-`j` swap
//!   flips only bit `j`. Walking the runs visits the pairs in ascending
//!   prefix order, the order the contracted graphs would visit them in.
//! * Coarse edge weights are sums of fine ones, so a pair's swap delta is a
//!   sum over the fine arcs `(x, y, w)` with `x` in the pair and `y` outside
//!   it. The two groups differ only in bit `j`, so such an arc contributes
//!   `+w` when `y` agrees with `x` on bit `j` and `−w` otherwise — and
//!   nothing at all when digit `j` is an extension digit, so those levels
//!   never swap and are skipped.
//! * A swap flips bit `j` of `cur` for every member of both groups.
//!
//! After the sweeps, bit `d` of `cur[v]` is the post-sweep last digit of
//! `v`'s level-`d` ancestor: the digit `assemble` prefers.

use std::time::Instant;

use tie_graph::{Graph, NodeId};
use tie_trace::{Phase, PhaseTimes, TraceEvent, TraceHandle, TraceLevel};

use crate::assemble::PrefixTrie;

/// Reusable buffers of one TIMER round: the vertices sorted by their
/// round-start labels, and the prefix trie of `assemble`. The driver keeps
/// one scratch for a whole run, so the buffers grow to the instance once;
/// results never depend on what a previous round left in them.
#[derive(Clone, Debug, Default)]
pub struct HierarchyScratch {
    /// `(round-start label, vertex)`, sorted by label.
    pub(crate) order: Vec<(u64, NodeId)>,
    /// Prefix-existence trie over the round's label set.
    pub(crate) trie: PrefixTrie,
}

/// Outcome of [`sweep_levels`].
#[derive(Clone, Debug, Default)]
pub struct SweepRun {
    /// Number of label swaps performed across all levels.
    pub swaps: usize,
    /// Wall-clock of the sweeps, under [`Phase::Sweep`].
    pub phases: PhaseTimes,
}

/// Runs the swap sweeps of levels `0 ..= dim − 3` on `cur`, the round's
/// unique labels, in place (Algorithm 1, lines 9–14). `p_mask` is the PE
/// digit mask in the same (permuted) label space. Per-level sweep spans are
/// emitted through `trace` at [`TraceLevel::Debug`], tagged with
/// `hierarchy_round`. Leaves the round-start labels sorted in `scratch` for
/// [`crate::assemble::assemble_labels`].
pub fn sweep_levels(
    graph: &Graph,
    cur: &mut [u64],
    dim: usize,
    p_mask: u64,
    hierarchy_round: Option<usize>,
    trace: &TraceHandle,
    scratch: &mut HierarchyScratch,
) -> SweepRun {
    debug_assert_eq!(cur.len(), graph.num_vertices());
    let order = &mut scratch.order;
    order.clear();
    order.extend(cur.iter().enumerate().map(|(v, &l)| (l, v as NodeId)));
    order.sort_unstable();
    debug_assert!(
        order.windows(2).all(|w| w[0].0 != w[1].0),
        "round labels must be unique"
    );

    let mut run = SweepRun::default();
    let per_level = trace.enabled(TraceLevel::Debug);
    // Paper: for i = 2 .. dim_Ga - 1, sweep on G^{i-1}.
    for level in 0..dim.saturating_sub(2) {
        // tie-lint: allow(no-wallclock) — per-level sweep telemetry; never read by the algorithm
        let t = Instant::now();
        // An extension digit never enters Coco, so its level cannot swap.
        if (p_mask >> level) & 1 == 1 {
            run.swaps += sweep_level(graph, cur, order, level);
        }
        let sweep_us = t.elapsed().as_micros() as u64;
        run.phases.add(Phase::Sweep, sweep_us);
        if per_level {
            trace.emit(TraceEvent::Phase {
                phase: Phase::Sweep,
                round: hierarchy_round,
                level: Some(level),
                elapsed_us: sweep_us,
            });
        }
    }
    run
}

/// One level-`j` sweep over a PE digit: for every pair of groups sharing
/// `cur >> (j+1)`, in ascending prefix order, flip bit `j` of both groups
/// when that strictly lowers `Coco`. Returns the number of swaps.
fn sweep_level(graph: &Graph, cur: &mut [u64], order: &[(u64, NodeId)], j: usize) -> usize {
    let (xadj, adjncy, adjwgt) = (graph.xadj(), graph.adjncy(), graph.adjwgt());
    let mut swaps = 0;
    for pair in order.chunk_by(|a, b| a.0 >> (j + 1) == b.0 >> (j + 1)) {
        let (first, last) = (pair[0].0, pair[pair.len() - 1].0);
        // Bit j of the round-start labels is still current here; a run whose
        // ends agree on it holds a single group, which has no partner.
        if ((first ^ last) >> j) & 1 == 0 {
            continue;
        }
        let prefix = first >> (j + 1);
        let mut delta = 0i64;
        for &(lx, x) in pair {
            let x = x as usize;
            for (&y, &w) in adjncy[xadj[x]..xadj[x + 1]]
                .iter()
                .zip(&adjwgt[xadj[x]..xadj[x + 1]])
            {
                // +w if y agrees with x on bit j, −w if not, 0 inside the pair.
                let ly = cur[y as usize];
                let outside = (ly >> (j + 1) != prefix) as i64;
                let sign = 1 - 2 * (((lx ^ ly) >> j) & 1) as i64;
                delta += outside * sign * w as i64;
            }
        }
        if delta < 0 {
            for &(_, x) in pair {
                cur[x as usize] ^= 1 << j;
            }
            swaps += 1;
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::coco_for_labels;
    use crate::reference::{self, build_hierarchy, contract_level, swap_pairs};
    use proptest::prelude::*;
    use tie_graph::{generators, GraphBuilder};

    /// A small instance with unique 4-digit labels on an 8-vertex graph.
    fn toy() -> (Graph, Vec<u64>) {
        let g = generators::cycle_graph(8);
        // Unique labels 0..8 (4 digits: one "extension" digit + 3 "PE" digits).
        let labels: Vec<u64> = (0..8u64).collect();
        (g, labels)
    }

    fn sweep(
        g: &Graph,
        labels: &mut [u64],
        dim: usize,
        p_mask: u64,
        scratch: &mut HierarchyScratch,
    ) -> usize {
        sweep_levels(g, labels, dim, p_mask, None, &TraceHandle::off(), scratch).swaps
    }

    /// One full round (sweeps, then assemble) through the production path:
    /// `(assembled labels, swaps, repaired)`.
    fn round(
        g: &Graph,
        labels: &[u64],
        dim: usize,
        p_mask: u64,
        scratch: &mut HierarchyScratch,
    ) -> (Vec<u64>, usize, usize) {
        let mut cur = labels.to_vec();
        let swaps = sweep(g, &mut cur, dim, p_mask, scratch);
        let assembled = crate::assemble::assemble_labels(&cur, dim, scratch);
        (assembled.labels, swaps, assembled.repaired)
    }

    /// The same round through the explicit contraction hierarchy.
    fn reference_round(
        g: &Graph,
        labels: &[u64],
        dim: usize,
        p_mask: u64,
    ) -> (Vec<u64>, usize, usize) {
        let run = build_hierarchy(g, labels.to_vec(), dim, p_mask);
        let (assembled, repaired) = reference::assemble_labels(&run, dim);
        (assembled, run.total_swaps, repaired)
    }

    /// `n` unique labels over `dim` digits: a seeded sample of `0 .. 2^dim`
    /// in seeded order.
    fn unique_labels(n: usize, dim: usize, seed: u64) -> Vec<u64> {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let mut labels: Vec<u64> = (0..1u64 << dim).collect();
        labels.shuffle(&mut StdRng::seed_from_u64(seed));
        labels.truncate(n);
        labels
    }

    #[test]
    fn swap_pairs_are_disjoint_and_complete() {
        // The reference pair order the implicit sweep must reproduce.
        let labels: Vec<u64> = vec![0b000, 0b001, 0b010, 0b100, 0b101, 0b111];
        let pairs = swap_pairs(&labels);
        // Prefixes: 00 -> (0,1), 01 -> (2) unpaired, 10 -> (3,4), 11 -> (5) unpaired.
        assert_eq!(pairs.len(), 2);
        let mut used = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(used.insert(*a));
            assert!(used.insert(*b));
            assert_eq!(labels[*a as usize] >> 1, labels[*b as usize] >> 1);
            assert_ne!(labels[*a as usize], labels[*b as usize]);
        }
    }

    #[test]
    fn sweep_never_increases_objective() {
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(128, 3, 5), 4, 5);
        for p_mask in [0b111_0000u64, 0b101_1010, 0b110_0110] {
            // Every label of the 7-digit space is present, so the two groups
            // of a pair hold mirror-image label sets and a swap preserves
            // the label multiset (on sparse sets, assemble's repair does).
            let labels = unique_labels(128, 7, p_mask);
            let mut l = labels.clone();
            let before = coco_for_labels(&g, &l, p_mask);
            let swaps = sweep(&g, &mut l, 7, p_mask, &mut HierarchyScratch::default());
            let after = coco_for_labels(&g, &l, p_mask);
            // Every swap strictly lowers Coco.
            if swaps == 0 {
                assert_eq!(after, before);
            } else {
                assert!(after < before, "{swaps} swaps: {before} -> {after}");
            }
            let (mut sl, mut sorted) = (l, labels);
            sl.sort_unstable();
            sorted.sort_unstable();
            assert_eq!(sl, sorted);
        }
    }

    #[test]
    fn contraction_merges_pairs_and_cuts_digit() {
        // The reference contraction the implicit levels stand for.
        let (g, labels) = toy();
        let (cg, cl, f2c) = contract_level(&g, &labels);
        assert_eq!(cg.num_vertices(), 4);
        assert_eq!(cl, vec![0, 1, 2, 3]);
        assert_eq!(f2c, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(cg.total_vertex_weight(), g.total_vertex_weight());
        // Cycle of 8 contracted along consecutive pairs is a cycle of 4.
        assert_eq!(cg.num_edges(), 4);
    }

    #[test]
    fn contraction_coalesces_parallel_coarse_edges() {
        // Vertices 0,1 share prefix 0 and 2,3 share prefix 1, so contraction
        // yields two coarse vertices. Three distinct fine edges cross between
        // the pairs; they must merge into ONE coarse edge of summed weight —
        // the sum the implicit pair delta adds up arc by arc.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 2);
        b.add_edge(0, 3, 3);
        b.add_edge(1, 2, 5);
        b.add_edge(0, 1, 7); // intra-pair edge: vanishes in the coarse graph
        let g = b.build();
        let labels = vec![0b00u64, 0b01, 0b10, 0b11];
        let (cg, cl, f2c) = contract_level(&g, &labels);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(
            cg.num_edges(),
            1,
            "fine edges between the same coarse pair must be coalesced"
        );
        assert_eq!(cg.edge_weight(0, 1), Some(2 + 3 + 5));
        assert_eq!(cl, vec![0, 1]);
        assert_eq!(f2c, vec![0, 0, 1, 1]);
    }

    #[test]
    fn scratch_reuse_is_stateless_and_matches_allocating_path() {
        let (g_a, labels_a) = toy();
        let g_b = generators::randomize_edge_weights(&generators::barabasi_albert(64, 3, 2), 4, 3);
        let labels_b: Vec<u64> = (0..64u64).rev().collect();
        let mut scratch = HierarchyScratch::default();
        let fresh_a = round(&g_a, &labels_a, 4, 0b1110, &mut scratch);
        // Dirty the scratch with a larger instance, then redo the first one:
        // the result must not depend on leftover scratch contents.
        let fresh_b = round(&g_b, &labels_b, 7, 0b111_1000, &mut scratch);
        assert_eq!(
            fresh_b,
            round(
                &g_b,
                &labels_b,
                7,
                0b111_1000,
                &mut HierarchyScratch::default()
            )
        );
        assert_eq!(round(&g_a, &labels_a, 4, 0b1110, &mut scratch), fresh_a);
    }

    #[test]
    fn sweep_with_scratch_matches_sweep() {
        // The implicit sweep against the reference sweeps on contracted
        // graphs, level by level: bit d of every vertex's label is the
        // post-sweep last digit of its level-d ancestor.
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(96, 3, 5), 4, 5);
        let dim = 7;
        let p_mask = 0b111_0110;
        let labels = unique_labels(96, dim, 3);
        let mut cur = labels.clone();
        let swaps = sweep(&g, &mut cur, dim, p_mask, &mut HierarchyScratch::default());
        let run = build_hierarchy(&g, labels, dim, p_mask);
        assert!(swaps > 0, "the fixture must exercise swaps");
        assert_eq!(swaps, run.total_swaps);
        for (v, &label) in cur.iter().enumerate() {
            let mut ancestor = v;
            for (d, level) in run.levels.iter().enumerate() {
                assert_eq!((label >> d) & 1, level.labels[ancestor] & 1, "v{v} d{d}");
                if let Some(&up) = level.fine_to_coarse.get(ancestor) {
                    ancestor = up as usize;
                }
            }
        }
    }

    #[test]
    fn contraction_keeps_unpaired_vertices() {
        let g = generators::path_graph(3);
        let labels = vec![0b00u64, 0b01, 0b10];
        let (cg, cl, f2c) = contract_level(&g, &labels);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(cl, vec![0, 1]);
        assert_eq!(f2c, vec![0, 0, 1]);
    }

    #[test]
    fn hierarchy_has_expected_depth_and_sizes() {
        // The reference hierarchy: dim - 1 levels of halving size, unique
        // labels on every level.
        let (g, labels) = toy();
        let dim = 4;
        let run = build_hierarchy(&g, labels, dim, 0b1110);
        // dim - 1 = 3 levels: 8, 4, 2 vertices.
        assert_eq!(run.levels.len(), 3);
        assert_eq!(run.levels[0].graph.num_vertices(), 8);
        assert_eq!(run.levels[1].graph.num_vertices(), 4);
        assert_eq!(run.levels[2].graph.num_vertices(), 2);
        // Coarsest labels have 2 digits.
        assert!(run.levels[2].labels.iter().all(|&l| l < 4));
        for j in 0..run.levels.len() - 1 {
            let lvl = &run.levels[j];
            let next = &run.levels[j + 1];
            assert_eq!(lvl.fine_to_coarse.len(), lvl.graph.num_vertices());
            for &c in lvl.fine_to_coarse.iter() {
                assert!((c as usize) < next.graph.num_vertices());
            }
            let mut labels = next.labels.clone();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), next.graph.num_vertices());
        }
    }

    #[test]
    fn hierarchy_on_two_digit_labels_is_single_level() {
        // dim = 2: the coarsest level is the application graph, no sweep.
        let g = generators::path_graph(4);
        let labels = vec![0u64, 1, 2, 3];
        let mut cur = labels.clone();
        let swaps = sweep(&g, &mut cur, 2, 0b10, &mut HierarchyScratch::default());
        assert_eq!(swaps, 0);
        assert_eq!(cur, labels);
        assert_eq!(
            round(&g, &labels, 2, 0b10, &mut HierarchyScratch::default()),
            (labels, 0, 0)
        );
    }

    #[test]
    fn round_matches_reference_oracle_on_fixtures() {
        let (g, labels) = toy();
        assert_eq!(
            round(&g, &labels, 4, 0b1110, &mut HierarchyScratch::default()),
            reference_round(&g, &labels, 4, 0b1110)
        );
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(96, 3, 5), 4, 5);
        let labels = unique_labels(96, 8, 11);
        for p_mask in [0b1111_0000u64, 0b1010_1101, 0b0111_1110] {
            assert_eq!(
                round(&g, &labels, 8, p_mask, &mut HierarchyScratch::default()),
                reference_round(&g, &labels, 8, p_mask)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random weighted graphs × unique labelings × label widths ×
        /// PE masks, the implicit round (sweeps on the application graph,
        /// trie assemble, sorted-budget repair) produces the explicit
        /// hierarchy's assembled labels, swap count and repair count exactly.
        #[test]
        fn round_equivalent_to_contraction_reference(
            n in 1..150usize,
            m in 0..400usize,
            dim in 2..=12usize,
            seed in 0..1000u64,
            mask_bits in 0..u64::MAX,
        ) {
            let n = n.min(1 << dim);
            let base = generators::erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), seed);
            let g = generators::randomize_edge_weights(&base, 7, seed ^ 0xc0ffee);
            let labels = unique_labels(n, dim, seed);
            let p_mask = mask_bits & ((1u64 << dim) - 1);
            // A reused scratch, dirtied by an unrelated round first.
            let mut scratch = HierarchyScratch::default();
            let _ = round(&g, &unique_labels(n, dim, !seed), dim, p_mask, &mut scratch);
            prop_assert_eq!(
                round(&g, &labels, dim, p_mask, &mut scratch),
                reference_round(&g, &labels, dim, p_mask)
            );
        }
    }
}
