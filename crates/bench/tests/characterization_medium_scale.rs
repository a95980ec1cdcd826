//! Acceptance floor for the medium-scale workload.
//!
//! On the medium workload (PGPgiantcompo scaled ×16 ≈ 10k vertices,
//! grid8x8, scrambled block-to-PE bijection) TIMER used to accept **zero**
//! of its hierarchy rounds while it searched on `Coco − Div`: the Div term
//! pulled the coarse-level sweeps toward rounds that the Coco guard then
//! rejected, and Coco stayed frozen at the initial mapping's value. With the
//! search on plain Coco, rounds are kept and Coco falls. This test pins that
//! floor, so a change that brings the collapse back fails loudly.
//!
//! The setup mirrors `bench_timer`'s medium cell exactly (same network,
//! seed, topology, and scramble), with a small NH: a debug-mode full
//! NH = 40 run would be too slow for tier-1.

use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::generators::random_permutation;
use tie_mapping::Mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{enhance_mapping, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

#[test]
fn medium_scale_accepts_rounds_and_lowers_coco() {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "PGPgiantcompo")
        .expect("catalogue network");
    let ga = spec.build(Scale::Medium);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).expect("grids are partial cubes");
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let scramble = random_permutation(topo.num_pes(), 1);
    let mapping = Mapping::from_partition(&part, &scramble, topo.num_pes());

    let nh = 4;
    let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(nh, 1)).unwrap();

    // The committed BENCH_timer.json artifact records this exact value for
    // the medium cell; the partition, scramble and labeling are all
    // deterministic in the seed.
    assert_eq!(
        result.initial_coco, 71581,
        "medium-cell setup drifted — regenerate BENCH_timer.json and update this pin"
    );
    // The floor: some rounds are kept and Coco strictly improves.
    assert!(
        result.hierarchies_accepted > 0,
        "medium-scale collapse is back: no hierarchy round was kept"
    );
    assert!(
        result.final_coco < result.initial_coco,
        "Coco did not improve: {} -> {}",
        result.initial_coco,
        result.final_coco
    );
    // The gate telemetry tells the same story.
    assert_eq!(result.telemetry.rounds(), nh);
    assert!(result.telemetry.accepted > 0);
}
