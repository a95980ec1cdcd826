//! The explicit-hierarchy TIMER round, kept as the test oracle of the
//! implicit one in [`crate::hierarchy`] and [`crate::assemble`].
//!
//! This is the textbook reading of Algorithm 1 (lines 9–14) and Algorithm 2:
//! every level is a contracted graph built with the `GraphBuilder` edge
//! coalescer, every sweep prices a pair with [`swap_delta`] on that graph,
//! and `assemble` chases each vertex's ancestors through `fine_to_coarse`
//! and checks prefix existence in per-length `HashSet`s. The production
//! round must reproduce its labels, swap count and repair count exactly.

use std::collections::{BTreeMap, HashMap, HashSet};

use tie_graph::{Graph, GraphBuilder, NodeId};

use crate::objective::swap_delta;

/// One level of an explicit hierarchy.
#[derive(Clone, Debug)]
pub struct Level {
    /// The (possibly contracted) graph at this level.
    pub graph: Graph,
    /// Vertex labels at this level (already truncated by the level index),
    /// as left behind by the level's sweep.
    pub labels: Vec<u64>,
    /// For every vertex of this level, the vertex of the next coarser level
    /// it is contracted into. Empty for the coarsest level.
    pub fine_to_coarse: Vec<NodeId>,
}

/// A full explicit hierarchy: `levels[0]` is the application graph,
/// `levels.last()` the coarsest graph with 2-digit labels.
#[derive(Clone, Debug)]
pub struct HierarchyRun {
    /// Levels from finest to coarsest.
    pub levels: Vec<Level>,
    /// Number of label swaps performed across all sweeps.
    pub total_swaps: usize,
}

/// The candidate swap pairs of a level: for every label prefix
/// (`label >> 1`) shared by at least two vertices, the two lowest-indexed
/// such vertices, in ascending prefix order.
pub fn swap_pairs(labels: &[u64]) -> Vec<(NodeId, NodeId)> {
    let mut keyed: Vec<(u64, NodeId)> = labels
        .iter()
        .enumerate()
        .map(|(v, &l)| (l >> 1, v as NodeId))
        .collect();
    keyed.sort_unstable();
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() >= 2)
        .map(|run| (run[0].1, run[1].1))
        .collect()
}

/// Sequential swap sweep on one level: for every candidate pair, swap the
/// labels if that strictly decreases `Coco`. Returns the number of swaps.
pub fn sweep(graph: &Graph, labels: &mut [u64], p_mask: u64) -> usize {
    let mut swaps = 0;
    for (u, v) in swap_pairs(labels) {
        if swap_delta(graph, labels, p_mask, u, v) < 0 {
            labels.swap(u as usize, v as usize);
            swaps += 1;
        }
    }
    swaps
}

/// Contracts every candidate pair into one coarse vertex and cuts the last
/// digit off every label. Coarse ids are the ranks of the distinct prefixes;
/// parallel coarse edges are coalesced with summed weights by
/// `GraphBuilder`.
pub fn contract_level(graph: &Graph, labels: &[u64]) -> (Graph, Vec<u64>, Vec<NodeId>) {
    let n = graph.num_vertices();
    let mut prefixes: Vec<u64> = labels.iter().map(|&l| l >> 1).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let coarse_of_prefix: HashMap<u64, NodeId> = prefixes
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as NodeId))
        .collect();

    let mut fine_to_coarse = vec![0 as NodeId; n];
    for (v, &l) in labels.iter().enumerate() {
        fine_to_coarse[v] = coarse_of_prefix[&(l >> 1)];
    }
    let coarse_n = prefixes.len();
    let coarse_labels: Vec<u64> = prefixes;

    let mut builder = GraphBuilder::new(coarse_n);
    let mut coarse_weights = vec![0u64; coarse_n];
    for v in graph.vertices() {
        coarse_weights[fine_to_coarse[v as usize] as usize] += graph.vertex_weight(v);
    }
    for (c, &w) in coarse_weights.iter().enumerate() {
        builder.set_vertex_weight(c as NodeId, w);
    }
    for (u, v, w) in graph.edges() {
        let (cu, cv) = (fine_to_coarse[u as usize], fine_to_coarse[v as usize]);
        if cu != cv {
            builder.add_edge(cu, cv, w);
        }
    }
    (builder.build(), coarse_labels, fine_to_coarse)
}

/// Alternating sweeps and contractions until two label digits are left.
/// `p_mask` is truncated alongside the labels on coarser levels.
pub fn build_hierarchy(graph: &Graph, labels: Vec<u64>, dim: usize, p_mask: u64) -> HierarchyRun {
    let mut levels = Vec::new();
    let mut total_swaps = 0;
    let mut graph = graph.clone();
    let mut labels = labels;
    for round in 0..dim.saturating_sub(2) {
        total_swaps += sweep(&graph, &mut labels, p_mask >> round);
        let (coarse_graph, coarse_labels, fine_to_coarse) = contract_level(&graph, &labels);
        levels.push(Level {
            graph,
            labels,
            fine_to_coarse,
        });
        graph = coarse_graph;
        labels = coarse_labels;
    }
    levels.push(Level {
        graph,
        labels,
        fine_to_coarse: Vec::new(),
    });
    HierarchyRun {
        levels,
        total_swaps,
    }
}

/// Algorithm 2 on an explicit hierarchy, followed by the bijection repair.
/// Returns the assembled labels and the number of repaired vertices.
pub fn assemble_labels(run: &HierarchyRun, dim: usize) -> (Vec<u64>, usize) {
    let original: &[u64] = &run.levels[0].labels;
    let n = original.len();
    if n == 0 || dim < 2 || run.levels.len() < 2 {
        return (original.to_vec(), 0);
    }
    let low_mask = |bits: usize| {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    };
    // prefixes[i]: every original label truncated to its lowest i digits.
    let mut prefixes: Vec<HashSet<u64>> = vec![HashSet::new(); dim + 1];
    for &l in original {
        for (i, set) in prefixes.iter_mut().enumerate().skip(1) {
            set.insert(l & low_mask(i));
        }
    }
    let msb = 1u64 << (dim - 1);
    let mut labels = vec![0u64; n];
    for v in 0..n {
        let old = original[v];
        let mut label = old & 1;
        let mut ancestor = v as NodeId;
        for digit in 1..dim - 1 {
            ancestor = run.levels[digit - 1].fine_to_coarse[ancestor as usize];
            let preferred = run.levels[digit].labels[ancestor as usize] & 1;
            let candidate = label | (preferred << digit);
            if prefixes[digit + 1].contains(&candidate) {
                label = candidate;
            } else {
                label |= (1 - preferred) << digit;
            }
        }
        labels[v] = label | (old & msb);
    }
    let repaired = repair_bijection(&mut labels, original);
    (labels, repaired)
}

/// Makes `labels` a permutation of `original`: duplicated or foreign labels
/// receive leftover original labels, nearest first by Hamming distance (ties:
/// numerically smallest). Returns the number of repaired vertices.
fn repair_bijection(labels: &mut [u64], original: &[u64]) -> usize {
    let mut budget: BTreeMap<u64, u32> = BTreeMap::new();
    for &l in original {
        *budget.entry(l).or_insert(0) += 1;
    }
    let mut needs_fix = Vec::new();
    for (v, &l) in labels.iter().enumerate() {
        match budget.get_mut(&l) {
            Some(count) if *count > 0 => *count -= 1,
            _ => needs_fix.push(v),
        }
    }
    let mut leftovers: Vec<u64> = budget
        .into_iter()
        .flat_map(|(l, c)| std::iter::repeat_n(l, c as usize))
        .collect();
    for &v in &needs_fix {
        let want = labels[v];
        let (idx, _) = leftovers
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| ((l ^ want).count_ones(), l))
            // tie-lint: allow(no-panic-paths) — test-only oracle (declared under cfg(test) in lib.rs)
            .expect("one leftover per unmatched vertex");
        labels[v] = leftovers.swap_remove(idx);
    }
    needs_fix.len()
}
