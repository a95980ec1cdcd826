//! The benchmark command.
//!
//! Usage:
//!   perfbench --workload medium-grid8x8|wide-1024pe|serve-mix --seed N
//!             --seconds S --trace 0|1 --mapd PATH [--socket-dir DIR]
//!             [--trace-out PATH] [--commit ID] [--source SHA]
//!
//! Prints one report line of JSON (environment, counts, digest, failures)
//! and, as its last line, the result object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 only when every output check passed.
//! `--mapd` names the daemon executable that served runs spawn.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::daemon::Launch;
use perfbench::run::{run, Options};
use perfbench::workload::Workload;
use tie_mapd::cli::flag_value;

const USAGE: &str = "usage: perfbench --workload medium-grid8x8|wide-1024pe|serve-mix \
     --seed N --seconds S --trace 0|1 --mapd PATH [--socket-dir DIR] \
     [--trace-out PATH] [--commit ID] [--source SHA]";

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let raw = flag_value(args, flag).ok_or_else(|| format!("{flag} is required"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn options(args: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let name: String = required(args, "--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = required(args, "--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let opts = Options {
        workload,
        seed: required(args, "--seed")?,
        seconds,
        trace,
        smoke: false,
        launch: Launch::Process(required::<String>(args, "--mapd")?.into()),
        socket_dir: flag_value(args, "--socket-dir").unwrap_or(".").into(),
        commit: flag_value(args, "--commit")
            .unwrap_or("unknown")
            .to_string(),
        source: flag_value(args, "--source")
            .unwrap_or("unknown")
            .to_string(),
    };
    Ok((opts, flag_value(args, "--trace-out").map(PathBuf::from)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, trace_out) = match options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let (Some(path), Some(spans)) = (trace_out, &outcome.spans) {
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.report);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a run with a non-finite metric is not correct.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
