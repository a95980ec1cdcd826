//! Regenerates Table 3 (appendix): partitioner running times for
//! |Vp| = 256 and |Vp| = 512 blocks per benchmark network.
//!
//! Usage: `cargo run -p tie-bench --bin table3 --release -- [--scale tiny|small|medium]`

use std::process::ExitCode;
use std::time::Instant;

use tie_bench::harness::USAGE;
use tie_bench::report::format_partition_times;
use tie_bench::{paper_networks, parse_options};
use tie_mapd::cli::help_requested;
use tie_partition::{partition, PartitionConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if help_requested(&args, USAGE) {
        return ExitCode::SUCCESS;
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table3: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "Table 3: partitioner running times in seconds for k = 256 and k = 512 (scale {:?}, eps = {}).\n",
        options.scale, options.epsilon
    );
    let mut rows = Vec::new();
    for spec in paper_networks() {
        let g = spec.build(options.scale);
        let mut times = [0.0f64; 2];
        for (slot, k) in [(0usize, 256usize), (1, 512)] {
            let cfg = PartitionConfig {
                epsilon: options.epsilon,
                ..PartitionConfig::new(k, spec.seed)
            };
            let t = Instant::now();
            let p = partition(&g, &cfg);
            times[slot] = t.elapsed().as_secs_f64();
            assert_eq!(p.assignment().len(), g.num_vertices());
        }
        eprintln!("{:<24} done", spec.name);
        rows.push((spec.name.to_string(), times[0], times[1]));
    }
    print!("{}", format_partition_times(&rows, ("k=256", "k=512")));
    ExitCode::SUCCESS
}
