//! The TIMER driver (Algorithm 1): multi-hierarchical label swapping over
//! `NH` random digit permutations.
//!
//! The `NH` rounds run one after another, as in the paper: round `k` starts
//! from whatever labeling rounds `0..k` left behind, and the accept gate
//! decides after every round whether its candidate replaces the labeling.
//! Each round runs inside a panic guard; a panicking round is re-run once
//! in place from the same base, so a transient fault leaves the trajectory
//! byte-identical and a persistent one fails with
//! [`TieError::WorkerPanicked`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tie_fault::FaultHandle;
use tie_graph::Graph;
use tie_mapping::Mapping;
use tie_topology::label::{invert_permutation, permute_label_bits};
use tie_topology::PartialCubeLabeling;
use tie_trace::{Phase, PhaseTimes, TraceEvent, TraceHandle};

use crate::assemble::assemble_labels;
use crate::context::TopologyContext;
use crate::error::{StopReason, TieError};
use crate::hierarchy::{sweep_levels, HierarchyScratch};
use crate::labeling::Labeling;
use crate::objective::{coco_delta, coco_for_labels, AcceptGate};
use crate::telemetry::RoundTelemetry;
use crate::TimerConfig;

/// The TIMER mapping enhancer.
#[derive(Clone, Debug, Default)]
pub struct Timer {
    config: TimerConfig,
}

/// Result of a TIMER run.
#[derive(Clone, Debug)]
pub struct TimerResult {
    /// The enhanced mapping `µ₂`.
    pub mapping: Mapping,
    /// The final labeling of the application vertices.
    pub labeling: Labeling,
    /// `Coco` of the initial mapping.
    pub initial_coco: u64,
    /// `Coco` of the enhanced mapping.
    pub final_coco: u64,
    /// Number of hierarchy rounds whose result was kept.
    pub hierarchies_accepted: usize,
    /// Number of label swaps performed across all hierarchy sweeps.
    pub total_swaps: usize,
    /// Number of vertices whose assembled label needed the bijection repair.
    pub total_repaired: usize,
    /// Flight-recorder summary of the run: accept/reject/tie counts, the
    /// per-round `ΔCoco` histogram and a per-phase wall-clock
    /// breakdown. Always collected (the gate side rides the delta scan the
    /// driver performs anyway); the gate side is deterministic, the phase
    /// side is wall-clock.
    pub telemetry: RoundTelemetry,
    /// Why the run stopped offering rounds: [`StopReason::Completed`] on a
    /// full run, or the deadline / cancellation / adaptive-stopping cause
    /// that cut it short (the labeling is then the best accepted so far).
    pub stop_reason: StopReason,
}

impl TimerResult {
    /// Relative improvement of Coco, `1 - final/initial` (0 if initial is 0).
    pub fn coco_improvement(&self) -> f64 {
        if self.initial_coco == 0 {
            0.0
        } else {
            1.0 - self.final_coco as f64 / self.initial_coco as f64
        }
    }
}

impl Timer {
    /// Creates a TIMER instance with the given configuration.
    pub fn new(config: TimerConfig) -> Self {
        Timer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TimerConfig {
        &self.config
    }

    /// Enhances `initial` — a mapping of `graph` onto the partial cube
    /// described by `pcube` — and returns the improved mapping together with
    /// quality bookkeeping. The balance of the initial mapping is preserved
    /// exactly (labels are only permuted among the vertices).
    ///
    /// # Errors
    /// Returns [`TieError::InvalidInput`] for a malformed config or a
    /// graph/mapping size mismatch, [`TieError::IncompatibleTopology`] when
    /// the labeling cannot carry the mapping (PE-count mismatch, duplicate
    /// PE labels, label overflow), and [`TieError::WorkerPanicked`] when a
    /// hierarchy round panics *persistently* (a transient panic is absorbed:
    /// the round is re-run once in place, counted in
    /// `telemetry.worker_panics`). Deadline expiry and cancellation are
    /// not errors — the run returns best-so-far with the matching
    /// [`StopReason`].
    pub fn enhance(
        &self,
        graph: &Graph,
        pcube: &PartialCubeLabeling,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        // Thin wrapper over the context-borrowing entry point: a transient
        // context built from a clone of the labeling. Pinned byte-identical
        // to `enhance_with_context` by the driver tests.
        self.enhance_with_context(graph, &TopologyContext::new(pcube.clone()), initial)
    }

    /// [`Timer::enhance`] over borrowed per-topology state: the partial-cube
    /// labeling and memoized permutation streams come from `ctx` instead of
    /// being rebuilt per call. This is the entry point a long-running
    /// service uses with a cached [`TopologyContext`]; the
    /// result is byte-identical to [`Timer::enhance`] for the same inputs —
    /// a context is a latency optimization, never a correctness dependency.
    ///
    /// # Errors
    /// Same contract as [`Timer::enhance`].
    pub fn enhance_with_context(
        &self,
        graph: &Graph,
        ctx: &TopologyContext,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        let cfg = &self.config;
        cfg.validate()?;
        let pcube = ctx.pcube();
        // tie-lint: allow(no-wallclock) — deadline anchor and telemetry total; never read by the algorithm
        let start = Instant::now();
        let deadline = cfg.deadline.map(|d| start + d);
        let faults = &cfg.faults;
        let mut labeling = Labeling::from_mapping(graph, pcube, initial, cfg.seed)?;
        let dim = labeling.dim;
        let p_mask = labeling.p_mask();

        // One edge scan seeds everything: the reported initial value and the
        // accept gate, which from here on is updated purely from per-round
        // deltas (no full-graph objective recomputes in the round loop).
        let initial_coco = coco_for_labels(graph, &labeling.labels, p_mask);
        let original_set = labeling.sorted_label_set();
        let mut gate = AcceptGate::new(initial_coco);
        let trace = &cfg.trace;
        let mut telemetry = RoundTelemetry::default();
        trace.emit(TraceEvent::RunStart {
            nh: cfg.num_hierarchies,
            initial_coco,
        });

        // Line 6 for all rounds up front: the permutation stream depends only
        // on `(seed, dim, NH)`, so every cache disposition sees identical
        // hierarchies. The context memoizes the stream across runs.
        let perms = ctx.permutations(cfg.seed, dim, cfg.num_hierarchies);

        let mut total_swaps = 0usize;
        let mut total_repaired = 0usize;
        let mut stop_reason = StopReason::Completed;
        let mut worker_panics = 0usize;
        let mut consecutive_rejections = 0usize;

        // One round scratch living for the whole run: every round reuses its
        // sort and trie buffers, so they grow to the instance once. Scratch
        // contents never influence results (pinned by the round-equivalence
        // proptest, which runs on a dirtied scratch).
        let mut scratch = HierarchyScratch::default();

        for (round, perm) in perms.iter().enumerate() {
            // Graceful-degradation checks before each round: the labeling is
            // always the best accepted so far here, so stopping now loses
            // nothing but unexplored rounds.
            if cfg.cancel.is_cancelled() {
                stop_reason = StopReason::Cancelled;
                break;
            }
            // tie-lint: allow(no-wallclock) — deadline enforcement only decides when to stop, not what is computed
            if deadline.is_some_and(|t| Instant::now() >= t) {
                stop_reason = StopReason::DeadlineExceeded;
                break;
            }

            // Quarantine: a panicked round is re-run once from the same base.
            // `run_round` is a pure function of (base, perm), so for a
            // *transient* fault the re-run reproduces exactly what a healthy
            // round would have produced and the trajectory stays
            // byte-identical; a second panic means the fault is persistent
            // and the run fails with a typed error.
            let mut attempt = || {
                guarded_round(
                    graph,
                    &labeling.labels,
                    perm,
                    dim,
                    p_mask,
                    round,
                    trace,
                    faults,
                    &mut scratch,
                )
            };
            let outcome = match attempt() {
                Ok(outcome) => outcome,
                Err(_first_panic) => {
                    worker_panics += 1;
                    attempt().map_err(|message| TieError::WorkerPanicked { round, message })?
                }
            };
            telemetry.phases.merge(&outcome.phases);

            // Offer the candidate to the live gate (Algorithm 1 lines 17-19).
            // tie-lint: allow(no-wallclock) — commit-phase telemetry
            let commit_start = Instant::now();
            total_swaps += outcome.swaps;
            total_repaired += outcome.repaired;
            let accepted = gate.offer(outcome.coco_delta);
            let tie = accepted && outcome.coco_delta == 0;
            telemetry.record_gate(outcome.coco_delta, accepted, tie);
            trace.emit(TraceEvent::Gate {
                round,
                coco_delta: outcome.coco_delta,
                accepted,
                tie,
                coco: gate.coco(),
            });
            let mut rejection_stop = None;
            if accepted {
                consecutive_rejections = 0;
                labeling.set_labels(outcome.labels);
            } else {
                consecutive_rejections += 1;
                // Adaptive stopping rule (opt-in).
                if let Some(k) = cfg.max_consecutive_rejections {
                    if consecutive_rejections >= k {
                        rejection_stop = Some(StopReason::ConsecutiveRejections(k));
                    }
                }
            }
            let commit_us = commit_start.elapsed().as_micros() as u64;
            telemetry.phases.add(Phase::Commit, commit_us);
            trace.emit(TraceEvent::Phase {
                phase: Phase::Commit,
                round: None,
                level: None,
                elapsed_us: commit_us,
            });

            debug_assert_eq!(
                gate.coco(),
                coco_for_labels(graph, &labeling.labels, p_mask) as i64,
                "incremental Coco drifted"
            );

            if let Some(reason) = rejection_stop {
                stop_reason = reason;
                break;
            }
        }

        debug_assert_eq!(
            labeling.sorted_label_set(),
            original_set,
            "TIMER must never change the label set (balance preservation)"
        );

        let final_coco = coco_for_labels(graph, &labeling.labels, p_mask);
        debug_assert_eq!(gate.coco(), final_coco as i64);
        telemetry.worker_panics = worker_panics;
        telemetry.stop_reason = stop_reason;
        trace.emit(TraceEvent::RunEnd {
            final_coco,
            accepted: telemetry.accepted,
            rejected: telemetry.rejected,
            ties: telemetry.ties,
            stop_reason: stop_reason.name(),
            worker_panics,
        });
        Ok(TimerResult {
            mapping: labeling.to_mapping(),
            labeling,
            initial_coco,
            final_coco,
            hierarchies_accepted: gate.kept(),
            total_swaps,
            total_repaired,
            telemetry,
            stop_reason,
        })
    }
}

/// Stringifies a panic payload (`&str` and `String` payloads cover every
/// `panic!` in this workspace; anything else is described by its type).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Runs one hierarchy round inside a panic guard: a panicking round (real
/// bug or injected fault) becomes an `Err` carrying the panic message
/// instead of unwinding across the driver. `run_round` only touches local
/// state, so unwinding out of it cannot leave broken shared state behind —
/// which is what makes `AssertUnwindSafe` sound here.
#[allow(clippy::too_many_arguments)] // private helper mirroring run_round
fn guarded_round(
    graph: &Graph,
    base: &[u64],
    perm: &[usize],
    dim: usize,
    p_mask: u64,
    round: usize,
    trace: &TraceHandle,
    faults: &FaultHandle,
    scratch: &mut HierarchyScratch,
) -> Result<RoundOutcome, String> {
    // `scratch` crossing the unwind boundary is sound for the same reason the
    // base state is: every scratch buffer is cleared/resized at the start of
    // its next use, so no result ever depends on what a panicked round left
    // behind in it.
    catch_unwind(AssertUnwindSafe(|| {
        run_round(
            graph, base, perm, dim, p_mask, round, trace, faults, scratch,
        )
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Result of one executed hierarchy round, ready for the accept gate.
struct RoundOutcome {
    /// Candidate fine-level labels (digit permutation already undone).
    labels: Vec<u64>,
    /// Exact `Coco` change of the candidate vs the base it was built from.
    coco_delta: i64,
    /// Swaps performed by the round's sweeps.
    swaps: usize,
    /// Vertices whose assembled label needed the bijection repair.
    repaired: usize,
    /// Wall-clock breakdown of this round's phases.
    phases: PhaseTimes,
}

/// Executes one full hierarchy round (Algorithm 1 lines 6–16) from `base`:
/// permute digits, sweep every hierarchy level, assemble, un-permute, and
/// price the candidate against the base via an incidence-limited delta scan.
/// Pure function of `(base, perm)` — the quarantine re-run relies on that;
/// `round`/`trace` only record what happened and never influence it.
#[allow(clippy::too_many_arguments)] // private helper mirroring the algorithm
fn run_round(
    graph: &Graph,
    base: &[u64],
    perm: &[usize],
    dim: usize,
    p_mask: u64,
    round: usize,
    trace: &TraceHandle,
    faults: &FaultHandle,
    scratch: &mut HierarchyScratch,
) -> RoundOutcome {
    // Chaos probe: with an armed fault plan this round panics here (inside
    // the caller's panic guard); with the default disabled handle it is a
    // single branch, exactly like the trace probes.
    faults.maybe_panic(round);
    let mut phases = PhaseTimes::default();
    let inv = invert_permutation(perm);

    // Line 7: permute labels (and the PE mask along with them).
    faults.delay("hierarchy_build");
    // tie-lint: allow(no-wallclock) — hierarchy-phase telemetry
    let build_start = Instant::now();
    let mut cur: Vec<u64> = base
        .iter()
        .map(|&l| permute_label_bits(l, perm, dim))
        .collect();
    let p_mask_perm = permute_label_bits(p_mask, perm, dim);

    // Lines 9-14: the swap sweeps of every hierarchy level, run on the
    // application graph itself (see `hierarchy` for why no level needs a
    // coarse graph).
    let sweeps = sweep_levels(
        graph,
        &mut cur,
        dim,
        p_mask_perm,
        Some(round),
        trace,
        scratch,
    );
    // The hierarchy-build span contains the per-level sweep spans.
    let build_us = build_start.elapsed().as_micros() as u64;
    phases.merge(&sweeps.phases);
    phases.add(Phase::HierarchyBuild, build_us);
    trace.emit(TraceEvent::Phase {
        phase: Phase::HierarchyBuild,
        round: Some(round),
        level: None,
        elapsed_us: build_us,
    });

    // Line 15: assemble a new fine-level labeling from the swept labels,
    // then (line 16) undo the digit permutation.
    faults.delay("assemble");
    // tie-lint: allow(no-wallclock) — assemble-phase telemetry
    let assemble_start = Instant::now();
    let assembled = assemble_labels(&cur, dim, scratch);
    let labels: Vec<u64> = assembled
        .labels
        .iter()
        .map(|&l| permute_label_bits(l, &inv, dim))
        .collect();
    let assemble_us = assemble_start.elapsed().as_micros() as u64;
    phases.add(Phase::Assemble, assemble_us);
    trace.emit(TraceEvent::Phase {
        phase: Phase::Assemble,
        round: Some(round),
        level: None,
        elapsed_us: assemble_us,
    });

    // Lines 17-19 pricing: the exact Coco change of the candidate.
    faults.delay("delta_scan");
    // tie-lint: allow(no-wallclock) — delta-scan-phase telemetry
    let scan_start = Instant::now();
    let coco_delta = coco_delta(graph, base, &labels, p_mask);
    let scan_us = scan_start.elapsed().as_micros() as u64;
    phases.add(Phase::DeltaScan, scan_us);
    trace.emit(TraceEvent::Phase {
        phase: Phase::DeltaScan,
        round: Some(round),
        level: None,
        elapsed_us: scan_us,
    });
    RoundOutcome {
        labels,
        coco_delta,
        swaps: sweeps.swaps,
        repaired: assembled.repaired,
        phases,
    }
}

/// Convenience wrapper: runs TIMER with `config` on the given instance.
///
/// # Errors
/// Same contract as [`Timer::enhance`].
pub fn enhance_mapping(
    graph: &Graph,
    pcube: &PartialCubeLabeling,
    initial: &Mapping,
    config: TimerConfig,
) -> Result<TimerResult, TieError> {
    Timer::new(config).enhance(graph, pcube, initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_graph::traversal::all_pairs_distances;
    use tie_mapping::identity_mapping;
    use tie_partition::{partition, PartitionConfig};
    use tie_topology::{recognize_partial_cube, Topology};

    /// Shared test fixture: a complex network mapped onto a 4x4 grid via a
    /// partition plus the identity bijection (experimental case c2 in small).
    fn fixture(seed: u64) -> (Graph, Topology, PartialCubeLabeling, Mapping) {
        let ga =
            generators::randomize_edge_weights(&generators::barabasi_albert(400, 3, seed), 4, seed);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(16, seed));
        let mapping = identity_mapping(&part, 16);
        (ga, topo, pcube, mapping)
    }

    fn coco_by_distances(ga: &Graph, gp: &Graph, m: &Mapping) -> u64 {
        let dist = all_pairs_distances(gp);
        ga.edges()
            .map(|(u, v, w)| w * dist.get(m.pe_of(u), m.pe_of(v)) as u64)
            .sum()
    }

    #[test]
    fn timer_never_worsens_coco_and_preserves_balance() {
        let (ga, topo, pcube, mapping) = fixture(1);
        let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(10, 7)).unwrap();
        assert!(result.final_coco <= result.initial_coco);
        // Balance: identical load multiset before and after.
        let mut before = mapping.load_per_pe();
        let mut after = result.mapping.load_per_pe();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // Reported Coco matches the independent distance-based computation.
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
        assert_eq!(
            result.initial_coco,
            coco_by_distances(&ga, &topo.graph, &mapping)
        );
    }

    #[test]
    fn timer_improves_a_scrambled_mapping_substantially() {
        // Start from a partition mapped with a *random* bijection of blocks
        // to PEs — plenty of room for improvement, which TIMER must find.
        let (ga, topo, pcube, _) = fixture(2);
        let part = partition(&ga, &PartitionConfig::new(16, 2));
        let scramble = generators::random_permutation(16, 3);
        let bad = Mapping::from_partition(&part, &scramble, 16);
        let result = enhance_mapping(&ga, &pcube, &bad, TimerConfig::new(15, 5)).unwrap();
        assert!(
            result.final_coco < result.initial_coco,
            "TIMER should reduce Coco: {} -> {}",
            result.initial_coco,
            result.final_coco
        );
        assert!(
            result.coco_improvement() > 0.05,
            "improvement {}",
            result.coco_improvement()
        );
        assert!(result.hierarchies_accepted > 0);
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
    }

    #[test]
    fn timer_is_deterministic_in_seed() {
        let (ga, _, pcube, mapping) = fixture(3);
        let a = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(5, 11)).unwrap();
        let b = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(5, 11)).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.final_coco, b.final_coco);
    }

    #[test]
    fn enhance_with_context_is_byte_identical_to_enhance() {
        // The context split's headline contract: a shared, reused
        // `TopologyContext` (memoized perm streams) must never change result
        // bytes — cold context, warm context and the plain `enhance` wrapper
        // all walk the identical trajectory.
        let (ga, topo, pcube, mapping) = fixture(7);
        let timer = Timer::new(TimerConfig::new(10, 7));
        let direct = timer.enhance(&ga, &pcube, &mapping).unwrap();
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        let cold = timer.enhance_with_context(&ga, &ctx, &mapping).unwrap();
        let warm = timer.enhance_with_context(&ga, &ctx, &mapping).unwrap();
        for (label, r) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(r.labeling.labels, direct.labeling.labels, "{label}");
            assert_eq!(r.mapping, direct.mapping, "{label}");
            assert_eq!(r.final_coco, direct.final_coco, "{label}");
            assert_eq!(
                r.hierarchies_accepted, direct.hierarchies_accepted,
                "{label}"
            );
            assert_eq!(r.total_swaps, direct.total_swaps, "{label}");
            assert_eq!(r.total_repaired, direct.total_repaired, "{label}");
        }
    }

    #[test]
    fn more_hierarchies_do_not_hurt() {
        let (ga, _, pcube, mapping) = fixture(4);
        let few = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(2, 9)).unwrap();
        let many = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(20, 9)).unwrap();
        assert!(many.final_coco <= few.final_coco);
    }

    #[test]
    fn equal_objective_rounds_count_as_accepted() {
        // Regression for the accept-gate bookkeeping: on an edgeless
        // application graph every candidate labeling has objective 0, so
        // every round ties with the incumbent, is kept (its labels replace
        // the labeling), and must therefore be counted — the old counter
        // only saw strict improvements and reported 0.
        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(6, 1)).unwrap();
        assert_eq!(result.final_coco, 0);
        assert_eq!(
            result.hierarchies_accepted, 6,
            "every equal-objective round replaces the labeling and must be counted"
        );
    }

    #[test]
    fn tie_rounds_are_kept_and_reported_as_ties_in_telemetry() {
        // Accept-gate tie semantics, observed through the flight recorder:
        // on an edgeless application graph every candidate has a zero delta,
        // so every round is an equal-objective tie — kept by the gate
        // (`AcceptGate::offer` folds it in), flagged `tie` on its gate
        // event, and counted in `RoundTelemetry::ties`.
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel};

        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let nh = 6;
        let sink = Arc::new(MemorySink::default());
        let cfg =
            TimerConfig::new(nh, 1).with_trace(TraceHandle::new(sink.clone(), TraceLevel::Gate));
        let result = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();

        assert_eq!(result.telemetry.accepted, nh);
        assert_eq!(result.telemetry.rejected, 0);
        assert_eq!(result.telemetry.ties, nh);
        assert_eq!(result.telemetry.rounds(), nh);

        // One gate event per round, in round order, every one a kept tie
        // with a zero delta and Coco unchanged.
        let gates: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::Gate {
                    round,
                    coco_delta,
                    accepted,
                    tie,
                    coco,
                } => Some((round, coco_delta, accepted, tie, coco)),
                _ => None,
            })
            .collect();
        assert_eq!(gates.len(), nh);
        for (i, &(round, coco_delta, accepted, tie, coco)) in gates.iter().enumerate() {
            assert_eq!(round, i);
            assert_eq!(coco_delta, 0);
            assert!(accepted, "tie rounds are kept");
            assert!(tie, "zero-delta rounds must be flagged as ties");
            assert_eq!(coco, 0);
        }
    }

    #[test]
    fn works_on_torus_and_hypercube_targets() {
        let ga = generators::watts_strogatz(512, 6, 0.1, 7);
        for topo in [Topology::torus2d(4, 4), Topology::hypercube(4)] {
            let pcube = recognize_partial_cube(&topo.graph).unwrap();
            let part = partition(&ga, &PartitionConfig::new(16, 1));
            let mapping = identity_mapping(&part, 16);
            let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(8, 1)).unwrap();
            assert!(result.final_coco <= result.initial_coco, "{}", topo.name);
            assert_eq!(
                result.final_coco,
                coco_by_distances(&ga, &topo.graph, &result.mapping),
                "{}",
                topo.name
            );
        }
    }

    #[test]
    fn one_task_per_pe_instance() {
        // |Va| = |Vp|: no extension bits at all; TIMER degenerates to pure
        // PE-label swapping and must still not worsen anything.
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = generators::randomize_edge_weights(&topo.graph, 3, 1);
        let mapping = Mapping::new(generators::random_permutation(16, 5), 16);
        let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(20, 3)).unwrap();
        assert!(result.final_coco <= result.initial_coco);
        assert!(result.labeling.is_unique());
    }
}
