//! The mapping objective of Sections 1 and 5: `Coco` (Eq. (3)).
//!
//! With the label encoding of [`crate::Labeling`] the objective becomes pure
//! bit arithmetic: for an edge `{u, v}` the Coco contribution is the Hamming
//! distance of the PE-label parts,
//!
//! ```text
//! Coco contribution = ω(u,v) · |(la(u)⊕la(v)) & p_mask|.
//! ```
//!
//! Summed over the edges leaving a hierarchy level's vertex groups (labels
//! and mask shifted by the level) the same formula yields the level-wise
//! estimates used during the multi-hierarchical search.
//!
//! The paper searches on `Coco⁺ = Coco − Div` (Eq. (14)), where `Div`
//! (Eq. (12)) rewards extension-digit diversity. This crate optimizes plain
//! `Coco` instead; see the README's "Deviation from the paper" note for the
//! measurements behind that choice.

use tie_graph::{Graph, NodeId};

use crate::Labeling;

/// Per-edge Coco cost of a pair of labels under the given PE-digit mask.
#[inline]
pub fn label_cost(a: u64, b: u64, p_mask: u64) -> i64 {
    ((a ^ b) & p_mask).count_ones() as i64
}

/// `Coco(µ)` (Eq. (3)): total communication cost of the mapping encoded in
/// the labeling.
pub fn coco(graph: &Graph, labeling: &Labeling) -> u64 {
    coco_for_labels(graph, &labeling.labels, labeling.p_mask())
}

/// `Coco` over raw labels and a PE-digit mask.
pub fn coco_for_labels(graph: &Graph, labels: &[u64], p_mask: u64) -> u64 {
    graph
        .edges()
        .map(|(u, v, w)| w * label_cost(labels[u as usize], labels[v as usize], p_mask) as u64)
        .sum()
}

/// Exact change of `Coco` between two labelings of the same graph, scanning
/// only the edges incident to relabelled vertices. A hierarchy round
/// typically relabels a fraction of the vertices, so this replaces the full
/// edge scan the accept gate would otherwise pay per round.
pub fn coco_delta(graph: &Graph, old: &[u64], new: &[u64], p_mask: u64) -> i64 {
    debug_assert_eq!(old.len(), new.len());
    let changed: Vec<bool> = old.iter().zip(new).map(|(a, b)| a != b).collect();
    let mut delta = 0i64;
    for (u, &u_changed) in changed.iter().enumerate() {
        if !u_changed {
            continue;
        }
        for (w, wt) in graph.edges_of(u as NodeId) {
            let wi = w as usize;
            // Edges between two relabelled endpoints are counted once, from
            // the lower-indexed side.
            if changed[wi] && wi < u {
                continue;
            }
            delta += wt as i64
                * (label_cost(new[u], new[wi], p_mask) - label_cost(old[u], old[wi], p_mask));
        }
    }
    delta
}

/// The driver's accept gate (Algorithm 1, lines 17–19): a candidate
/// labeling is **kept** iff it does not worsen `Coco`. A candidate with
/// `ΔCoco = 0` (a tie) is kept too — it replaces the labeling — so
/// [`AcceptGate::kept`], not "strictly improved", is what
/// `TimerResult::hierarchies_accepted` reports.
///
/// The gate carries the accepted `Coco` across rounds and folds in the
/// per-round deltas of [`coco_delta`], so accepting a round costs O(1)
/// instead of a full-graph objective recompute.
#[derive(Clone, Debug)]
pub struct AcceptGate {
    coco: i64,
    kept: usize,
}

impl AcceptGate {
    /// Gate seeded with the `Coco` of the initial labeling.
    pub fn new(coco: u64) -> Self {
        AcceptGate {
            coco: coco as i64,
            kept: 0,
        }
    }

    /// Accepted `Coco`.
    pub fn coco(&self) -> i64 {
        self.coco
    }

    /// Number of candidates kept so far (including ties).
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Offers a candidate by its exact `Coco` delta against the currently
    /// accepted labeling. Returns whether the candidate is kept; if so the
    /// delta is folded into the accepted value.
    pub fn offer(&mut self, coco_delta: i64) -> bool {
        if coco_delta <= 0 {
            self.coco += coco_delta;
            self.kept += 1;
            true
        } else {
            false
        }
    }
}

/// Change of `Coco` if the labels of `u` and `v` were swapped
/// (negative = improvement). The edge `{u, v}` itself does not change.
pub fn swap_delta(graph: &Graph, labels: &[u64], p_mask: u64, u: NodeId, v: NodeId) -> i64 {
    let (lu, lv) = (labels[u as usize], labels[v as usize]);
    if lu == lv {
        return 0;
    }
    let mut delta = 0i64;
    for (w, wt) in graph.edges_of(u) {
        if w == v {
            continue;
        }
        let lw = labels[w as usize];
        delta += wt as i64 * (label_cost(lv, lw, p_mask) - label_cost(lu, lw, p_mask));
    }
    for (w, wt) in graph.edges_of(v) {
        if w == u {
            continue;
        }
        let lw = labels[w as usize];
        delta += wt as i64 * (label_cost(lu, lw, p_mask) - label_cost(lv, lw, p_mask));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_graph::traversal::all_pairs_distances;
    use tie_mapping::{identity_mapping, Mapping};
    use tie_partition::{partition, PartitionConfig};
    use tie_topology::{recognize_partial_cube, Topology};

    fn setup() -> (Graph, Labeling, Mapping, Topology) {
        let ga = generators::randomize_edge_weights(&generators::barabasi_albert(250, 3, 3), 4, 5);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(16, 1));
        let mapping = identity_mapping(&part, 16);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 3).unwrap();
        (ga, labeling, mapping, topo)
    }

    #[test]
    fn coco_matches_distance_definition() {
        // Coco from labels must equal the textbook definition with BFS
        // distances in Gp (Eq. (3)).
        let (ga, labeling, mapping, topo) = setup();
        let dist = all_pairs_distances(&topo.graph);
        let expected: u64 = ga
            .edges()
            .map(|(u, v, w)| w * dist.get(mapping.pe_of(u), mapping.pe_of(v)) as u64)
            .sum();
        assert_eq!(coco(&ga, &labeling), expected);
    }

    #[test]
    fn objective_for_labels_agrees_with_struct_version() {
        let (ga, labeling, _, _) = setup();
        assert_eq!(
            coco_for_labels(&ga, &labeling.labels, labeling.p_mask()),
            coco(&ga, &labeling)
        );
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        let (ga, labeling, _, _) = setup();
        let p_mask = labeling.p_mask();
        let base = coco_for_labels(&ga, &labeling.labels, p_mask) as i64;
        // Check a spread of vertex pairs, adjacent and not.
        for (u, v) in [(0u32, 1u32), (5, 17), (3, 200), (10, 11), (40, 41)] {
            let mut swapped = labeling.labels.clone();
            swapped.swap(u as usize, v as usize);
            let expected = coco_for_labels(&ga, &swapped, p_mask) as i64 - base;
            assert_eq!(swap_delta(&ga, &labeling.labels, p_mask, u, v), expected);
        }
    }

    // The name predates the removal of the Div term; the test checks Coco.
    #[test]
    fn coco_div_delta_matches_full_recomputation() {
        let (ga, labeling, _, _) = setup();
        let p_mask = labeling.p_mask();
        let old = &labeling.labels;
        let c0 = coco_for_labels(&ga, old, p_mask);
        // A wholesale relabeling touching a scattered set of vertices, the
        // shape a hierarchy round produces: swap several disjoint pairs and
        // rotate one triple (adjacent and non-adjacent vertices alike).
        let mut new = old.clone();
        for (u, v) in [(0usize, 1usize), (5, 17), (3, 200), (40, 41), (100, 7)] {
            new.swap(u, v);
        }
        let tmp = new[60];
        new[60] = new[61];
        new[61] = new[62];
        new[62] = tmp;
        let c1 = coco_for_labels(&ga, &new, p_mask);
        assert_eq!(coco_delta(&ga, old, &new, p_mask), c1 as i64 - c0 as i64);
        // Identical labelings have zero delta.
        assert_eq!(coco_delta(&ga, old, old, p_mask), 0);
    }

    #[test]
    fn accept_gate_keeps_equal_objective_candidates_and_counts_them() {
        let mut gate = AcceptGate::new(100);
        // Strict improvement: kept.
        assert!(gate.offer(-5));
        assert_eq!((gate.coco(), gate.kept()), (95, 1));
        // Tie (zero delta): also kept — the labels are replaced — and
        // therefore counted.
        assert!(gate.offer(0));
        assert_eq!((gate.coco(), gate.kept()), (95, 2));
        // Worse Coco: rejected, values untouched.
        assert!(!gate.offer(3));
        assert_eq!((gate.coco(), gate.kept()), (95, 2));
    }

    #[test]
    fn swapping_identical_labels_changes_nothing() {
        let g = generators::path_graph(3);
        let labels = vec![5u64, 5, 6];
        assert_eq!(swap_delta(&g, &labels, !0, 0, 1), 0);
    }

    #[test]
    fn perfect_mapping_of_grid_onto_itself_has_minimal_coco() {
        // Application graph identical to the processor grid with the identity
        // mapping of one vertex per PE: every edge costs exactly one hop.
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = topo.graph.clone();
        let mapping = Mapping::new((0..16u32).collect(), 16);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 0).unwrap();
        assert_eq!(coco(&ga, &labeling), ga.total_edge_weight());
    }
}
