//! Reassembling a fine-level labeling after a round's sweeps (function
//! `assemble()` — Algorithm 2 of the paper), plus a bijection repair step
//! that guarantees the result is a permutation of the original label set.
//!
//! Digit by digit, from the least significant one, a vertex takes the
//! *preferred* digit — the post-sweep last digit of its ancestor on the
//! corresponding level — unless no original label carries the resulting
//! prefix, in which case it takes the inverted digit (lines 9–14 of
//! Algorithm 2). The least significant digit is the vertex's own post-sweep
//! digit, which always passes the check, and the most significant digit is
//! inherited unchecked. After [`crate::hierarchy::sweep_levels`], bit `d` of
//! `cur[v]` is exactly the preferred digit of level `d`, so the preferred
//! label of `v` is `cur[v]` itself, and the existence checks walk a binary
//! trie over the original labels, least significant digit first: whenever
//! the current prefix exists, at least one of its two children does, so
//! "take the preferred child, else the other one" is the line-10 check.
//!
//! Because the preferred-digit rule only checks prefix *existence* (not
//! multiplicity), the assembled labels can occasionally collide or leave the
//! original label set. The paper accepts this as part of the heuristic; to
//! keep the hard invariant that TIMER never changes the label set — which is
//! what preserves the balance of `µ` (Section 4) — [`assemble_labels`]
//! finishes with a repair pass that reassigns leftover original labels to the
//! affected vertices (nearest by Hamming distance first).

use crate::hierarchy::HierarchyScratch;

/// Outcome of [`assemble_labels`].
#[derive(Clone, Debug)]
pub struct AssembleResult {
    /// New fine-level labels (same label set as the round's input labels).
    pub labels: Vec<u64>,
    /// Number of vertices whose assembled label had to be repaired.
    pub repaired: usize,
}

/// Binary trie over a label set, least significant digit first: node `i`'s
/// children are `nodes[i][0]` and `nodes[i][1]`, `0` meaning absent (the
/// root, node 0, is nobody's child). Rebuilt every round into the same
/// buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixTrie {
    nodes: Vec<[u32; 2]>,
}

impl PrefixTrie {
    /// Rebuilds the trie over the lowest `depth` digits of `labels`.
    fn rebuild(&mut self, labels: impl Iterator<Item = u64>, depth: usize) {
        self.nodes.clear();
        self.nodes.push([0, 0]);
        for label in labels {
            let mut node = 0;
            for d in 0..depth {
                let bit = ((label >> d) & 1) as usize;
                let child = self.nodes[node][bit] as usize;
                node = if child == 0 {
                    // Node ids stay far below u32::MAX: the trie has at most
                    // n·depth nodes, and n is bounded by the u32 vertex ids.
                    let id = self.nodes.len();
                    self.nodes[node][bit] = id as u32;
                    self.nodes.push([0, 0]);
                    id
                } else {
                    child
                };
            }
        }
    }

    /// Walks `preferred`'s lowest `depth` digits from the root, taking the
    /// preferred child where it exists and the other one otherwise; returns
    /// the digits taken. The first digit must exist.
    fn closest(&self, preferred: u64, depth: usize) -> u64 {
        let mut node = 0;
        let mut label = 0;
        for d in 0..depth {
            let want = ((preferred >> d) & 1) as usize;
            let children = self.nodes[node];
            let bit = if children[want] != 0 { want } else { 1 - want };
            label |= (bit as u64) << d;
            node = children[bit] as usize;
        }
        label
    }
}

/// Runs Algorithm 2 on the labels `cur` left behind by
/// [`crate::hierarchy::sweep_levels`] and returns repaired fine-level labels.
/// `scratch` must be the one that sweep ran with: its sorted round-start
/// labels are the original label set.
///
/// `dim` is the total number of label digits at the finest level.
pub fn assemble_labels(cur: &[u64], dim: usize, scratch: &mut HierarchyScratch) -> AssembleResult {
    let HierarchyScratch { order, trie } = scratch;
    debug_assert_eq!(order.len(), cur.len(), "scratch holds another round");
    let mut labels = cur.to_vec();
    // A label the sweeps left untouched is an original label, so every one
    // of its prefixes exists and the walk would return it unchanged. A round
    // without swaps (always the case for dim < 3) is therefore its own
    // assembly, and only relabelled vertices walk the trie.
    if order.iter().all(|&(l, v)| cur[v as usize] == l) {
        return AssembleResult {
            labels,
            repaired: 0,
        };
    }
    // Digits 0 ..= dim-2 are checked against the trie; the most significant
    // one is inherited.
    let depth = dim - 1;
    trie.rebuild(order.iter().map(|&(l, _)| l), depth);
    let msb = 1u64 << depth;
    for &(l, v) in order.iter() {
        let want = cur[v as usize];
        if want != l {
            labels[v as usize] = trie.closest(want, depth) | (want & msb);
        }
    }
    let repaired = repair_bijection(&mut labels, order.iter().map(|&(l, _)| l));
    AssembleResult { labels, repaired }
}

/// Makes `labels` a permutation of the original labels, given in ascending
/// order: vertices whose label is duplicated or absent from the original set
/// receive leftover original labels, nearest first by Hamming distance.
/// Returns the number of repaired vertices.
fn repair_bijection(labels: &mut [u64], sorted_original: impl Iterator<Item = u64>) -> usize {
    // The original multiset as sorted `(label, count)` runs.
    let mut budget: Vec<(u64, u32)> = Vec::new();
    for l in sorted_original {
        match budget.last_mut() {
            Some((last, count)) if *last == l => *count += 1,
            _ => {
                debug_assert!(budget.last().is_none_or(|&(last, _)| last < l));
                budget.push((l, 1));
            }
        }
    }
    // First pass: consume budget for labels that are fine.
    let mut needs_fix: Vec<usize> = Vec::new();
    for (v, &l) in labels.iter().enumerate() {
        match budget.binary_search_by_key(&l, |&(k, _)| k) {
            Ok(i) if budget[i].1 > 0 => budget[i].1 -= 1,
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
    use crate::hierarchy::sweep_levels;
    use tie_graph::{generators, Graph};
    use tie_trace::TraceHandle;

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    /// Sweeps `labels` and assembles them: `(post-sweep labels, result)`.
    fn sweep_and_assemble(
        g: &Graph,
        labels: &[u64],
        dim: usize,
        p_mask: u64,
    ) -> (Vec<u64>, AssembleResult) {
        let mut scratch = HierarchyScratch::default();
        let mut cur = labels.to_vec();
        sweep_levels(
            g,
            &mut cur,
            dim,
            p_mask,
            None,
            &TraceHandle::off(),
            &mut scratch,
        );
        let result = assemble_labels(&cur, dim, &mut scratch);
        (cur, result)
    }

    fn repair(labels: &mut [u64], original: &[u64]) -> usize {
        repair_bijection(labels, sorted(original.to_vec()).into_iter())
    }

    #[test]
    fn assemble_preserves_label_set() {
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(128, 3, 1), 3, 2);
        let labels: Vec<u64> = (0..128u64).collect();
        let (_, result) = sweep_and_assemble(&g, &labels, 7, 0b111_1000);
        assert_eq!(sorted(result.labels.clone()), sorted(labels));
    }

    #[test]
    fn assemble_keeps_lsb_and_msb() {
        let g = generators::cycle_graph(16);
        let labels: Vec<u64> = (0..16u64).collect();
        let (cur, result) = sweep_and_assemble(&g, &labels, 4, 0b1101);
        for (v, &new) in result.labels.iter().enumerate() {
            if result.repaired == 0 {
                assert_eq!(new & 1, cur[v] & 1, "LSB of vertex {v}");
                assert_eq!(new & 0b1000, cur[v] & 0b1000, "MSB of vertex {v}");
            }
        }
    }

    #[test]
    fn assemble_on_trivial_hierarchy_returns_input() {
        let g = generators::path_graph(4);
        let labels = vec![0u64, 1, 2, 3];
        let (cur, result) = sweep_and_assemble(&g, &labels, 2, 0b10);
        assert_eq!(cur, labels);
        assert_eq!(result.labels, labels);
        assert_eq!(result.repaired, 0);
    }

    #[test]
    fn repair_fixes_duplicates() {
        let original = vec![0u64, 1, 2, 3];
        let mut broken = vec![0u64, 1, 1, 7];
        let repaired = repair(&mut broken, &original);
        assert_eq!(repaired, 2);
        assert_eq!(sorted(broken), original);
    }

    #[test]
    fn repair_noop_on_permutation() {
        let original = vec![4u64, 9, 2, 7];
        let mut permuted = vec![7u64, 2, 9, 4];
        assert_eq!(repair(&mut permuted, &original), 0);
        assert_eq!(permuted, vec![7, 2, 9, 4]);
    }

    #[test]
    fn repair_prefers_hamming_nearest_label() {
        let original = vec![0b0000u64, 0b0001, 0b1000, 0b1111];
        // Vertex 3 wants 0b1110 (absent); nearest leftover is 0b1111.
        let mut broken = vec![0b0000u64, 0b0001, 0b1000, 0b1110];
        repair(&mut broken, &original);
        assert_eq!(broken[3], 0b1111);
    }
}
