//! End-to-end integration tests spanning all crates: generate a network,
//! partition it, build every initial mapping, enhance with TIMER, and verify
//! the cross-crate invariants the paper relies on.

use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::traversal::all_pairs_distances;
use tie_mapping::{drb, greedy, identity_mapping, Mapping};
use tie_metrics::{coco, edge_cut, evaluate, imbalance};
use tie_partition::{partition, PartitionConfig};
use tie_timer::{coco as label_coco, enhance_mapping, Labeling, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

/// Small but non-trivial shared fixture.
fn fixture() -> (tie_graph::Graph, Topology) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "email-EuAll")
        .unwrap();
    (spec.build(Scale::Tiny), Topology::grid2d(8, 8))
}

#[test]
fn full_pipeline_c2_identity() {
    let (ga, topo) = fixture();
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    assert!(
        part.is_balanced(&ga, 0.03 + 1e-9),
        "partition imbalance {}",
        part.imbalance(&ga)
    );

    let initial = identity_mapping(&part, topo.num_pes());
    let result = enhance_mapping(&ga, &pcube, &initial, TimerConfig::new(10, 1)).unwrap();

    // Label-based Coco agrees with the metric crate's distance-based Coco.
    assert_eq!(result.final_coco, coco(&ga, &topo.graph, &result.mapping));
    assert_eq!(result.initial_coco, coco(&ga, &topo.graph, &initial));
    // Balance is preserved exactly (same load multiset).
    let mut before = initial.load_per_pe();
    let mut after = result.mapping.load_per_pe();
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after);
    // The balance metric is within the partitioner's guarantee.
    assert!(imbalance(&ga, &result.mapping) <= 0.03 + 1e-9);
}

#[test]
fn every_initial_mapping_strategy_composes_with_timer() {
    let (ga, topo) = fixture();
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 2));
    let candidates: Vec<(&str, Mapping)> = vec![
        ("identity", identity_mapping(&part, topo.num_pes())),
        (
            "greedy_allc",
            greedy::greedy_allc_mapping(&ga, &part, &topo.graph),
        ),
        (
            "greedy_min",
            greedy::greedy_min_mapping(&ga, &part, &topo.graph),
        ),
        ("drb", drb::drb_mapping(&ga, &part, &topo.graph, 5)),
    ];
    for (name, initial) in candidates {
        let before = evaluate(&ga, &topo.graph, &initial);
        let result = enhance_mapping(&ga, &pcube, &initial, TimerConfig::new(8, 3)).unwrap();
        let after = evaluate(&ga, &topo.graph, &result.mapping);
        // Coco never worsens, by TIMER's own count and by `evaluate`.
        assert!(result.final_coco <= result.initial_coco, "{name}");
        assert!(after.coco <= before.coco, "{name}");
        // The mapping stays a function onto the same PE set.
        assert_eq!(
            after.imbalance, before.imbalance,
            "{name}: balance must be preserved"
        );
    }
}

#[test]
fn timer_on_all_small_topologies() {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "p2p-Gnutella")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    for topo in Topology::small_topologies() {
        let pcube =
            recognize_partial_cube(&topo.graph).unwrap_or_else(|e| panic!("{}: {e}", topo.name));
        let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 7));
        let initial = identity_mapping(&part, topo.num_pes());
        let result = enhance_mapping(&ga, &pcube, &initial, TimerConfig::new(5, 7)).unwrap();
        assert!(result.final_coco <= result.initial_coco, "{}", topo.name);
        assert_eq!(
            result.final_coco,
            coco(&ga, &topo.graph, &result.mapping),
            "{}",
            topo.name
        );
    }
}

#[test]
fn run_case_with_speculative_threads_matches_sequential() {
    // The experiment harness threads flag must not change any reported
    // number: the batched driver reproduces the sequential trajectory.
    use tie_bench::experiment::{run_case, ExperimentConfig};
    use tie_mapd::MapCase;

    let (ga, topo) = fixture();
    let sequential_cfg = ExperimentConfig {
        num_hierarchies: 8,
        seed: 3,
        ..Default::default()
    };
    let threaded_cfg = ExperimentConfig {
        threads: 4,
        ..sequential_cfg.clone()
    };
    let a = run_case(&ga, &topo, MapCase::C2Identity, &sequential_cfg).unwrap();
    let b = run_case(&ga, &topo, MapCase::C2Identity, &threaded_cfg).unwrap();
    assert_eq!(a.enhanced.coco, b.enhanced.coco);
    assert_eq!(a.enhanced.edge_cut, b.enhanced.edge_cut);
    assert_eq!(a.hierarchies_accepted, b.hierarchies_accepted);
}

#[test]
fn labeling_round_trip_respects_mapping_and_distances() {
    let (ga, topo) = fixture();
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 9));
    let mapping = identity_mapping(&part, topo.num_pes());
    let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 11).unwrap();
    // Label-derived Coco equals distance-based Coco (requirement 2, Sec. 4).
    assert_eq!(label_coco(&ga, &labeling), coco(&ga, &topo.graph, &mapping));
    // Labels are unique (requirement 3) and encode µ (requirement 1).
    assert!(labeling.is_unique());
    assert_eq!(labeling.to_mapping(), mapping);
    // Hamming distance of lp parts equals PE distance for arbitrary pairs.
    let dist = all_pairs_distances(&topo.graph);
    for (u, v) in [(0u32, 1u32), (10, 500), (33, 700), (999, 2)] {
        let u = u % ga.num_vertices() as u32;
        let v = v % ga.num_vertices() as u32;
        let h = (labeling.lp_part(u) ^ labeling.lp_part(v)).count_ones();
        assert_eq!(h, dist.get(mapping.pe_of(u), mapping.pe_of(v)));
    }
}

#[test]
fn edge_cut_and_coco_relate_sanely_across_pipeline() {
    let (ga, topo) = fixture();
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 4));
    let initial = identity_mapping(&part, topo.num_pes());
    let result = enhance_mapping(&ga, &pcube, &initial, TimerConfig::new(10, 4)).unwrap();
    // Coco >= edge cut always (every cut edge costs at least one hop).
    assert!(coco(&ga, &topo.graph, &result.mapping) >= edge_cut(&ga, &result.mapping));
    // The partition edge cut equals the mapping edge cut for the identity
    // composition before enhancement.
    assert_eq!(edge_cut(&ga, &initial), part.edge_cut(&ga));
}
