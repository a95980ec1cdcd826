//! A finer-grained polishing pass on top of the multi-hierarchical search.
//!
//! The paper's conclusion notes that TIMER's local search is deliberately
//! simple and that "further improvements … can be achieved by replacing the
//! simple local search by a more sophisticated method". This module provides
//! such a method as an optional extension: a sweep over the *cut edges* of
//! the application graph that tries to swap the labels of the two endpoints
//! (and, as a second move type, of any two vertices mapped to neighbouring
//! PEs that are adjacent in `Ga`). Unlike the hierarchy sweeps, these swaps
//! are not restricted to label pairs differing in a single digit, so they can
//! escape some of the local minima the digit-wise search gets stuck in. All
//! swaps keep the label set fixed, so the balance of `µ` is preserved.

use tie_graph::Graph;

use crate::labeling::Labeling;
use crate::objective::swap_delta;

/// Statistics of a polish run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolishStats {
    /// Number of label swaps applied.
    pub swaps: usize,
    /// Total improvement of `Coco` (as a positive number).
    pub objective_gain: i64,
    /// Number of full sweeps executed.
    pub sweeps: usize,
}

/// Runs up to `max_sweeps` polishing sweeps over the cut edges of `graph`,
/// swapping endpoint labels whenever that improves `Coco`. Returns swap
/// statistics.
pub fn polish(graph: &Graph, labeling: &mut Labeling, max_sweeps: usize) -> PolishStats {
    let p_mask = labeling.p_mask();
    let mut stats = PolishStats::default();
    for _ in 0..max_sweeps {
        let mut improved_this_sweep = false;
        for (u, v, _) in graph.edges() {
            // Only consider pairs currently mapped to different PEs: swapping
            // labels of same-PE endpoints cannot change Coco.
            if labeling.lp_part(u) == labeling.lp_part(v) {
                continue;
            }
            let delta = swap_delta(graph, &labeling.labels, p_mask, u, v);
            if delta < 0 {
                labeling.labels.swap(u as usize, v as usize);
                stats.swaps += 1;
                stats.objective_gain += -delta;
                improved_this_sweep = true;
            }
        }
        stats.sweeps += 1;
        if !improved_this_sweep {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::coco;
    use tie_graph::generators;
    use tie_mapping::Mapping;
    use tie_partition::{partition, PartitionConfig};
    use tie_topology::{recognize_partial_cube, Topology};

    fn labeled_instance(seed: u64) -> (Graph, Labeling, Mapping) {
        let ga =
            generators::randomize_edge_weights(&generators::barabasi_albert(300, 3, seed), 4, seed);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(16, seed));
        // Scrambled block-to-PE bijection leaves room for improvement.
        let nu = generators::random_permutation(16, seed ^ 1);
        let mapping = Mapping::from_partition(&part, &nu, 16);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, seed).unwrap();
        (ga, labeling, mapping)
    }

    #[test]
    fn polish_improves_objective_and_preserves_label_set() {
        let (ga, mut labeling, _) = labeled_instance(1);
        let before = coco(&ga, &labeling) as i64;
        let before_set = labeling.sorted_label_set();
        let stats = polish(&ga, &mut labeling, 5);
        let after = coco(&ga, &labeling) as i64;
        assert!(after <= before);
        assert_eq!(before - after, stats.objective_gain);
        assert_eq!(labeling.sorted_label_set(), before_set);
        assert!(labeling.is_unique());
        assert!(
            stats.swaps > 0,
            "scrambled instance should admit polishing swaps"
        );
    }

    #[test]
    fn polish_without_diversity_never_worsens_plain_coco() {
        let (ga, mut labeling, _) = labeled_instance(2);
        let before = coco(&ga, &labeling);
        polish(&ga, &mut labeling, 5);
        assert!(coco(&ga, &labeling) <= before);
    }

    #[test]
    fn polish_is_idempotent_at_fixed_point() {
        let (ga, mut labeling, _) = labeled_instance(3);
        polish(&ga, &mut labeling, 20);
        let frozen = labeling.labels.clone();
        let stats = polish(&ga, &mut labeling, 20);
        assert_eq!(stats.swaps, 0);
        assert_eq!(labeling.labels, frozen);
    }

    #[test]
    fn polish_composes_with_timer_driver() {
        let (ga, _, mapping) = labeled_instance(4);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let result =
            crate::enhance_mapping(&ga, &pcube, &mapping, crate::TimerConfig::new(5, 4)).unwrap();
        let mut labeling = result.labeling.clone();
        let before = coco(&ga, &labeling);
        let stats = polish(&ga, &mut labeling, 5);
        assert!(coco(&ga, &labeling) <= before);
        // Polishing after TIMER may or may not find more swaps, but it must
        // never break uniqueness.
        assert!(labeling.is_unique());
        let _ = stats;
    }
}
