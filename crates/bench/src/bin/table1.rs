//! Regenerates Table 1: the inventory of benchmark networks.
//!
//! Usage: `cargo run -p tie-bench --bin table1 --release -- [--scale tiny|small|medium]`

use std::process::ExitCode;

use tie_bench::harness::USAGE;
use tie_bench::report::format_inventory;
use tie_bench::{paper_networks, parse_options};
use tie_mapd::cli::help_requested;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if help_requested(&args, USAGE) {
        return ExitCode::SUCCESS;
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table1: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "Table 1: complex networks used for benchmarking (synthetic stand-ins, scale {:?})\n",
        options.scale
    );
    let rows: Vec<(String, usize, usize, String)> = paper_networks()
        .iter()
        .map(|spec| {
            let g = spec.build(options.scale);
            (
                spec.name.to_string(),
                g.num_vertices(),
                g.num_edges(),
                spec.description.to_string(),
            )
        })
        .collect();
    print!("{}", format_inventory(&rows));
    ExitCode::SUCCESS
}
