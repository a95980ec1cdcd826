//! Chaos suite: TIMER under injected worker panics, deadlines, cancellation
//! and the adaptive stopping rule.
//!
//! The central claims under test:
//!
//! * an injected speculative-worker panic is absorbed (quarantined round is
//!   re-run sequentially) and the committed trajectory stays **byte-identical**
//!   to a clean sequential run, for every thread count,
//! * a *persistent* fault (panics again on the sequential re-run) surfaces as
//!   `TieError::WorkerPanicked` instead of tearing the process down,
//! * deadline expiry, cancellation and the k-consecutive-rejections rule
//!   return a fully committed best-so-far labeling with the right
//!   `StopReason`.

use std::sync::Once;
use std::time::Duration;

use tie_fault::{FaultHandle, FaultPlan, INJECTED_PANIC_PREFIX};
use tie_graph::generators;
use tie_mapping::Mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{enhance_mapping, CancelToken, StopReason, TieError, TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, PartialCubeLabeling, Topology};

const NH: usize = 8;
const SEED: u64 = 7;

/// Injected panics are expected here; keep the default hook from spraying
/// backtraces for them while leaving real panics loud.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                default(info);
            }
        }));
    });
}

fn fixture() -> (tie_graph::Graph, PartialCubeLabeling, Mapping, Topology) {
    let ga = generators::barabasi_albert(600, 3, SEED);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), SEED));
    let mapping = Mapping::from_partition(
        &part,
        &generators::random_permutation(topo.num_pes(), SEED),
        topo.num_pes(),
    );
    (ga, pcube, mapping, topo)
}

fn assert_same_trajectory(a: &TimerResult, b: &TimerResult, context: &str) {
    assert_eq!(a.labeling.labels, b.labeling.labels, "{context}: labels");
    assert_eq!(a.mapping, b.mapping, "{context}: mapping");
    assert_eq!(a.final_coco, b.final_coco, "{context}: final_coco");
    assert_eq!(
        a.hierarchies_accepted, b.hierarchies_accepted,
        "{context}: hierarchies_accepted"
    );
    assert_eq!(a.total_swaps, b.total_swaps, "{context}: total_swaps");
}

#[test]
fn transient_worker_panic_is_absorbed_and_byte_identical() {
    silence_injected_panics();
    let (ga, pcube, mapping, _) = fixture();
    let clean = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(NH, SEED)).unwrap();
    assert_eq!(clean.stop_reason, StopReason::Completed);
    assert_eq!(clean.telemetry.worker_panics, 0);

    for threads in 1..=8usize {
        // One panic armed in the middle of the run: it fires on the first
        // attempt of round 3 (speculative or sequential) and is consumed, so
        // the quarantine re-run succeeds.
        let faults = FaultHandle::new(FaultPlan::new().with_panic_at_round(3));
        let cfg = TimerConfig::new(NH, SEED)
            .with_threads(threads)
            .with_faults(faults);
        let faulty = enhance_mapping(&ga, &pcube, &mapping, cfg)
            .unwrap_or_else(|e| panic!("threads {threads}: enhance failed: {e}"));
        assert_eq!(
            faulty.telemetry.worker_panics, 1,
            "threads {threads}: the injected panic must be counted"
        );
        assert_eq!(faulty.stop_reason, StopReason::Completed);
        assert_same_trajectory(&faulty, &clean, &format!("threads {threads}"));
    }
}

#[test]
fn seeded_panic_storm_is_absorbed_and_byte_identical() {
    silence_injected_panics();
    let (ga, pcube, mapping, _) = fixture();
    let clean = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(NH, SEED)).unwrap();

    for threads in [2usize, 4, 8] {
        // Three seeded one-shot panics spread over the first NH rounds.
        let faults = FaultHandle::new(FaultPlan::new().with_seeded_panics(99, 3, NH));
        let cfg = TimerConfig::new(NH, SEED)
            .with_threads(threads)
            .with_faults(faults.clone());
        let faulty = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
        assert_eq!(
            faulty.telemetry.worker_panics,
            faults.panics_fired(),
            "every fired panic must be accounted for"
        );
        assert!(faulty.telemetry.worker_panics >= 1);
        assert_same_trajectory(&faulty, &clean, &format!("storm, threads {threads}"));
    }
}

#[test]
fn persistent_panic_is_reported_as_worker_panicked() {
    silence_injected_panics();
    let (ga, pcube, mapping, _) = fixture();
    for threads in [1usize, 4] {
        // Armed twice at the same round: the quarantine re-run panics too,
        // which the driver must surface as a typed error.
        let faults = FaultHandle::new(FaultPlan::new().with_panic_at_round_times(2, 2));
        let cfg = TimerConfig::new(NH, SEED)
            .with_threads(threads)
            .with_faults(faults);
        match enhance_mapping(&ga, &pcube, &mapping, cfg) {
            Err(TieError::WorkerPanicked { round, message }) => {
                assert_eq!(round, 2);
                assert!(
                    message.contains(INJECTED_PANIC_PREFIX),
                    "panic payload should be preserved: {message}"
                );
            }
            other => panic!("threads {threads}: expected WorkerPanicked, got {other:?}"),
        }
    }
}

#[test]
fn expired_deadline_returns_best_so_far() {
    let (ga, pcube, mapping, topo) = fixture();
    // A deadline far shorter than the run: the driver stops at the first
    // batch boundary it checks. 1 ns is over before the loop starts, so the
    // result is the initial labeling, fully committed and consistent.
    let cfg = TimerConfig::new(NH, SEED).with_deadline(Duration::from_nanos(1));
    let result = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
    assert_eq!(result.stop_reason, StopReason::DeadlineExceeded);
    assert_eq!(result.telemetry.stop_reason, StopReason::DeadlineExceeded);
    assert!(result.hierarchies_accepted <= NH);
    assert!(
        result.final_coco <= result.initial_coco,
        "best-so-far must never be worse than the initial mapping"
    );
    // The returned labeling is a consistent snapshot: it still encodes a
    // valid mapping onto the same topology.
    assert_eq!(result.mapping.num_tasks(), ga.num_vertices());
    assert_eq!(result.mapping.num_pes(), topo.num_pes());
}

#[test]
fn cancel_token_stops_the_run() {
    let (ga, pcube, mapping, _) = fixture();
    let token = CancelToken::new();
    token.cancel();
    let cfg = TimerConfig::new(NH, SEED).with_cancel_token(token);
    let result = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    assert_eq!(result.hierarchies_accepted, 0);
    assert_eq!(result.final_coco, result.initial_coco);
}

#[test]
fn rejection_stopping_rule_truncates_identically_across_threads() {
    let (ga, pcube, mapping, _) = fixture();
    let k = 2usize;
    let mut reference: Option<TimerResult> = None;
    for threads in 1..=8usize {
        let cfg = TimerConfig::new(NH, SEED)
            .with_threads(threads)
            .stop_after_rejections(k);
        let result = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
        match result.stop_reason {
            StopReason::Completed => {
                assert!(
                    result.telemetry.rejected < k || result.telemetry.rounds() == NH,
                    "completed runs must not contain an unseen k-rejection streak"
                );
            }
            StopReason::ConsecutiveRejections(seen) => assert_eq!(seen, k),
            other => panic!("unexpected stop reason {other:?}"),
        }
        match &reference {
            None => reference = Some(result),
            Some(r) => assert_same_trajectory(&result, r, &format!("k-stop, threads {threads}")),
        }
    }
}

#[test]
fn zero_deadline_and_zero_k_are_rejected_up_front() {
    let (ga, pcube, mapping, _) = fixture();
    for cfg in [
        TimerConfig::new(NH, SEED).with_deadline(Duration::ZERO),
        TimerConfig::new(NH, SEED).stop_after_rejections(0),
        // The resource caps bound what one run may allocate: NH × dim
        // permutation words, one hierarchy scratch per thread, one label
        // vector per batch slot.
        TimerConfig::new(tie_timer::MAX_HIERARCHIES + 1, SEED),
        TimerConfig::new(NH, SEED).with_threads(tie_timer::MAX_THREADS + 1),
        TimerConfig::new(NH, SEED).with_batch(tie_timer::MAX_BATCH + 1),
    ] {
        let err = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap_err();
        assert!(matches!(err, TieError::InvalidInput(_)), "{err:?}");
    }
    let at_caps = TimerConfig::new(tie_timer::MAX_HIERARCHIES, SEED)
        .with_threads(tie_timer::MAX_THREADS)
        .with_batch(tie_timer::MAX_BATCH);
    assert!(at_caps.validate().is_ok());
}

#[test]
fn phase_delays_do_not_change_the_trajectory() {
    let (ga, pcube, mapping, _) = fixture();
    let clean = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(NH, SEED)).unwrap();
    let faults = FaultHandle::new(
        FaultPlan::new()
            .with_delay("hierarchy_build", Duration::from_micros(200))
            .with_delay("delta_scan", Duration::from_micros(200)),
    );
    let cfg = TimerConfig::new(NH, SEED)
        .with_threads(4)
        .with_faults(faults);
    let delayed = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
    assert_same_trajectory(&delayed, &clean, "delays");
    assert_eq!(delayed.telemetry.worker_panics, 0);
}
