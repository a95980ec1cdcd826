//! Ablation of TIMER's design choices on one instance:
//!
//! * number of hierarchies NH (10 vs 50),
//! * sequential vs speculative batched hierarchy rounds (Section 6.3
//!   outlook; identical result, different wall-clock),
//! * TIMER vs a plain pairwise-swap refinement on the communication graph
//!   (network-cost-matrix baseline).
//!
//! Run with: `cargo run --release --example pipeline_ablation`

use std::time::Instant;

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapping::{communication_graph, identity_mapping, refine_by_swaps, Mapping};
use tie_metrics::coco;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{enhance_mapping, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

fn main() {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "web-Google")
        .unwrap();
    let ga = spec.build(Scale::Small);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 3));
    let initial = identity_mapping(&part, topo.num_pes());
    let initial_coco = coco(&ga, &topo.graph, &initial);
    println!(
        "{} ({} vertices) on {}: initial Coco (IDENTITY) = {initial_coco}\n",
        spec.name,
        ga.num_vertices(),
        topo.name
    );
    println!(
        "{:<44} {:>12} {:>9} {:>9}",
        "variant", "Coco", "impr.", "time [s]"
    );

    let run = |label: &str, cfg: TimerConfig| {
        let t = Instant::now();
        let r = enhance_mapping(&ga, &pcube, &initial, cfg).unwrap();
        let secs = t.elapsed().as_secs_f64();
        println!(
            "{:<44} {:>12} {:>8.1}% {:>9.2}",
            label,
            r.final_coco,
            100.0 * r.coco_improvement(),
            secs
        );
    };

    run("TIMER, NH=10", TimerConfig::new(10, 1));
    run("TIMER, NH=50 (paper setting)", TimerConfig::new(50, 1));
    run(
        "TIMER, NH=10, 4-way speculative batches",
        TimerConfig::new(10, 1).with_threads(4),
    );

    // Extension (conclusions of the paper): TIMER followed by a cut-edge
    // polishing pass that swaps arbitrary labels, not just single digits.
    {
        let t = Instant::now();
        let r = enhance_mapping(&ga, &pcube, &initial, TimerConfig::new(10, 1)).unwrap();
        let mut labeling = r.labeling.clone();
        let stats = tie_timer::polish(&ga, &mut labeling, 3);
        let polished_coco = coco(&ga, &topo.graph, &labeling.to_mapping());
        println!(
            "{:<44} {:>12} {:>8.1}% {:>9.2}",
            format!("TIMER NH=10 + polish ({} extra swaps)", stats.swaps),
            polished_coco,
            100.0 * (1.0 - polished_coco as f64 / initial_coco as f64),
            t.elapsed().as_secs_f64()
        );
    }

    // NCM-style baseline: pairwise swaps on the communication graph only.
    let t = Instant::now();
    let gc = communication_graph(&ga, &part);
    let mut nu: Vec<u32> = (0..topo.num_pes() as u32).collect();
    refine_by_swaps(&gc, &topo.graph, &mut nu, 20);
    let ncm = Mapping::from_partition(&part, &nu, topo.num_pes());
    let ncm_coco = coco(&ga, &topo.graph, &ncm);
    println!(
        "{:<44} {:>12} {:>8.1}% {:>9.2}",
        "NCM-style block swaps (no re-partitioning)",
        ncm_coco,
        100.0 * (1.0 - ncm_coco as f64 / initial_coco as f64),
        t.elapsed().as_secs_f64()
    );
    println!("\nTIMER additionally moves individual vertices between blocks, which the");
    println!("communication-graph-level baseline cannot do.");
}
