//! Reassembling a fine-level labeling from a swapped hierarchy
//! (function `assemble()` — Algorithm 2 of the paper), plus a bijection
//! repair step that guarantees the result is a permutation of the original
//! label set.
//!
//! The least and most significant digit of every fine label are inherited
//! from the (post-sweep) level-1 label; every digit in between is taken from
//! the last digit of the vertex's ancestor on the corresponding level — the
//! *preferred* digit — unless no original label carries the resulting prefix,
//! in which case the inverted digit is written (lines 9–14 of Algorithm 2).
//!
//! Because the preferred-digit rule only checks prefix *existence* (not
//! multiplicity), the assembled labels can occasionally collide or leave the
//! original label set. The paper accepts this as part of the heuristic; to
//! keep the hard invariant that TIMER never changes the label set — which is
//! what preserves the balance of `µ` (Section 4) — [`assemble_labels`]
//! finishes with a repair pass that reassigns leftover original labels to the
//! affected vertices (nearest by Hamming distance on the PE digits first).

use std::collections::{BTreeMap, HashSet};

use crate::hierarchy::HierarchyRun;

/// Outcome of [`assemble_labels`].
#[derive(Clone, Debug)]
pub struct AssembleResult {
    /// New fine-level labels (same label set as the input hierarchy's level 0).
    pub labels: Vec<u64>,
    /// Number of vertices whose assembled label had to be repaired.
    pub repaired: usize,
}

/// Runs Algorithm 2 on a hierarchy and returns repaired fine-level labels.
///
/// `dim` is the total number of label digits at the finest level.
pub fn assemble_labels(run: &HierarchyRun, dim: usize) -> AssembleResult {
    let finest = &run.levels[0];
    let n = finest.labels.len();
    let original: &[u64] = &finest.labels;
    if n == 0 || dim < 2 || run.levels.len() < 2 {
        return AssembleResult {
            labels: original.to_vec(),
            repaired: 0,
        };
    }

    // Prefix-existence sets: prefixes[i] holds every original label truncated
    // to its lowest i digits (needed by the line-10 check of Algorithm 2).
    let mut prefixes: Vec<HashSet<u64>> = vec![HashSet::new(); dim + 1];
    for &l in original {
        for (i, set) in prefixes.iter_mut().enumerate().skip(1) {
            set.insert(l & low_mask(i));
        }
    }

    let msb = 1u64 << (dim - 1);
    let mut new_labels = vec![0u64; n];
    for v in 0..n {
        let old = original[v];
        let mut label = old & 1; // least significant digit inherited
        let mut ancestor = v as u32;
        // Digits 1 .. dim-2 come from the ancestors' last digits.
        for digit in 1..dim.saturating_sub(1) {
            // Ancestor on level `digit` (labels there are truncated by `digit`).
            if digit >= run.levels.len() {
                // Hierarchy shorter than expected (tiny dim); keep old digit.
                label |= old & (1u64 << digit);
                continue;
            }
            ancestor = run.levels[digit - 1].fine_to_coarse[ancestor as usize];
            let parent_label = run.levels[digit].labels[ancestor as usize];
            let preferred = parent_label & 1;
            let candidate = label | (preferred << digit);
            if prefixes[digit + 1].contains(&candidate) {
                label = candidate;
            } else {
                label |= (1 - preferred) << digit;
            }
        }
        // Most significant digit inherited from the old label.
        label |= old & msb;
        new_labels[v] = label;
    }

    let repaired = repair_bijection(&mut new_labels, original);
    AssembleResult {
        labels: new_labels,
        repaired,
    }
}

#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Makes `labels` a permutation of `original`: vertices whose label is
/// duplicated or absent from the original set receive leftover original
/// labels, nearest first by Hamming distance. Returns the number of repaired
/// vertices.
fn repair_bijection(labels: &mut [u64], original: &[u64]) -> usize {
    // Label-sorted so the leftover list below comes out ordered without an
    // extra sort (and never in hash order).
    let mut budget: BTreeMap<u64, u32> = BTreeMap::new();
    for &l in original {
        *budget.entry(l).or_insert(0) += 1;
    }
    // First pass: consume budget for labels that are fine.
    let mut needs_fix: Vec<usize> = Vec::new();
    for (v, &l) in labels.iter().enumerate() {
        match budget.get_mut(&l) {
            Some(count) if *count > 0 => *count -= 1,
            _ => needs_fix.push(v),
        }
    }
    if needs_fix.is_empty() {
        return 0;
    }
    let mut leftovers: Vec<u64> = budget
        .into_iter()
        .flat_map(|(l, c)| std::iter::repeat_n(l, c as usize))
        .collect();
    for &v in &needs_fix {
        let want = labels[v];
        // Nearest leftover by Hamming distance (ties: numerically smallest).
        // Pigeonhole: every unmatched vertex left exactly one unit of budget
        // unconsumed, so a leftover always exists here.
        let (idx, _) = leftovers
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| ((l ^ want).count_ones(), l))
            // tie-lint: allow(no-panic-paths) — pigeonhole invariant: one leftover per unmatched vertex
            .expect("leftover label must exist for every unmatched vertex");
        labels[v] = leftovers.swap_remove(idx);
    }
    needs_fix.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::build_hierarchy;
    use tie_graph::generators;

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn assemble_preserves_label_set() {
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(128, 3, 1), 3, 2);
        let labels: Vec<u64> = (0..128u64).collect();
        let run = build_hierarchy(&g, labels.clone(), 7, 0b111_1000, 0b000_0111);
        let result = assemble_labels(&run, 7);
        assert_eq!(sorted(result.labels.clone()), sorted(labels));
    }

    #[test]
    fn assemble_keeps_lsb_and_msb() {
        let g = generators::cycle_graph(16);
        let labels: Vec<u64> = (0..16u64).collect();
        let run = build_hierarchy(&g, labels, 4, 0b1100, 0b0011);
        let result = assemble_labels(&run, 4);
        for (v, &new) in result.labels.iter().enumerate() {
            if result.repaired == 0 {
                let old = run.levels[0].labels[v];
                assert_eq!(new & 1, old & 1, "LSB of vertex {v}");
                assert_eq!(new & 0b1000, old & 0b1000, "MSB of vertex {v}");
            }
        }
    }

    #[test]
    fn assemble_on_trivial_hierarchy_returns_input() {
        let g = generators::path_graph(4);
        let labels = vec![0u64, 1, 2, 3];
        let run = build_hierarchy(&g, labels.clone(), 2, 0b10, 0b01);
        let result = assemble_labels(&run, 2);
        assert_eq!(result.labels, run.levels[0].labels);
        assert_eq!(result.repaired, 0);
    }

    #[test]
    fn repair_fixes_duplicates() {
        let original = vec![0u64, 1, 2, 3];
        let mut broken = vec![0u64, 1, 1, 7];
        let repaired = repair_bijection(&mut broken, &original);
        assert_eq!(repaired, 2);
        assert_eq!(sorted(broken), original);
    }

    #[test]
    fn repair_noop_on_permutation() {
        let original = vec![4u64, 9, 2, 7];
        let mut permuted = vec![7u64, 2, 9, 4];
        assert_eq!(repair_bijection(&mut permuted, &original), 0);
        assert_eq!(permuted, vec![7, 2, 9, 4]);
    }

    #[test]
    fn repair_prefers_hamming_nearest_label() {
        let original = vec![0b0000u64, 0b0001, 0b1000, 0b1111];
        // Vertex 3 wants 0b1110 (absent); nearest leftover is 0b1111.
        let mut broken = vec![0b0000u64, 0b0001, 0b1000, 0b1110];
        repair_bijection(&mut broken, &original);
        assert_eq!(broken[3], 0b1111);
    }
}
