//! Smoke mode: every workload at its minimal size, untraced and traced,
//! through the real request loops and output checks. The daemon is served
//! from a thread, so the tests need no prebuilt `mapd` binary.

use std::path::PathBuf;

use perfbench::daemon::Launch;
use perfbench::run::{run, Options, COVERAGE_FLOOR};
use perfbench::workload::Workload;

fn options(workload: Workload, trace: bool) -> Options {
    let socket_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    Options {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        smoke: true,
        launch: Launch::Thread,
        socket_dir,
        commit: "test".to_string(),
        source: "test".to_string(),
    }
}

const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p95",
    "throughput_rps",
    "coco_ratio",
    "peak_rss_mb",
];

fn smoke(workload: Workload) {
    let plain = run(&options(workload, false)).expect("untraced smoke run");
    assert!(plain.correct, "{}", plain.report);
    assert_eq!(plain.failed, 0);
    assert!(plain.attempted >= 1);
    let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END);
    assert!(plain
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0));
    assert!(plain.report.contains("\"digest_stable\": true"));

    let traced = run(&options(workload, true)).expect("traced smoke run");
    assert!(traced.correct, "{}", traced.report);
    let get = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    // One traced pass: the counts are whole-pass counts, not time-boxed.
    let n = get("trace.requests");
    assert!(n >= 1.0);
    assert!(get("timer.busy_ms") > 0.0);
    assert_eq!(get("partition.calls"), n);
    assert_eq!(get("metrics.evaluate_calls"), 2.0 * n);
    assert_eq!(get("mapd.cache.hits") + get("mapd.cache.misses"), n);
    assert!(get("mapd.cache.misses") >= 1.0);
    assert!(get("mapd.protocol.request_bytes") > 0.0);
    assert!(get("trace.coverage") >= COVERAGE_FLOOR, "{}", traced.report);
    assert!(!traced
        .spans
        .expect("traced runs keep spans")
        .spans()
        .is_empty());
}

#[test]
fn medium_grid8x8_smoke() {
    smoke(Workload::MediumGrid8x8);
}

#[test]
fn wide_1024pe_smoke() {
    smoke(Workload::Wide1024Pe);
}

#[test]
fn serve_mix_smoke() {
    smoke(Workload::ServeMix);
}
