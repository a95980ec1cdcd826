//! The experiment runner: reproduces one cell of the paper's evaluation
//! (one network × one topology × one experimental case).
//!
//! Each case follows the pipeline of Section 7.1, run by the two stages
//! `tie-mapd` shares with the `mapd` service ([`map_initial`] for steps 1–2,
//! [`enhance_and_evaluate`] for steps 3–4):
//!
//! 1. partition the application graph into `|Vp|` blocks with ε = 3 %
//!    (KaHIP in the paper, `tie-partition` here),
//! 2. construct the initial mapping `µ₁` according to the case
//!    (c1 = DRB/SCOTCH-like, c2 = IDENTITY, c3 = GREEDYALLC,
//!    c4 = GREEDYMIN),
//! 3. run TIMER with `NH` hierarchies to obtain `µ₂`,
//! 4. report quality metrics for both mappings plus wall-clock times.

use std::time::Duration;

use tie_fault::FaultHandle;
use tie_graph::Graph;
use tie_mapd::{enhance_and_evaluate, map_initial, MapCase};
use tie_metrics::MappingQuality;
use tie_timer::{StopReason, TieError, TimerConfig, TopologyContext};
use tie_topology::Topology;
use tie_trace::TraceHandle;

/// Parameters shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of TIMER hierarchies (`NH`, 50 in the paper).
    pub num_hierarchies: usize,
    /// Load imbalance for the partitioner (3 % in the paper).
    pub epsilon: f64,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Flight-recorder handle passed through to TIMER (disabled by
    /// default; recording never changes results).
    pub trace: TraceHandle,
    /// Optional wall-clock deadline for each TIMER run; expiry yields a
    /// best-so-far result with `StopReason::DeadlineExceeded`.
    pub deadline: Option<Duration>,
    /// Fault-injection handle passed through to TIMER (disabled by default;
    /// armed by the chaos suite and `TIE_FAULTS`-aware binaries).
    pub faults: FaultHandle,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            num_hierarchies: 50,
            epsilon: 0.03,
            seed: 1,
            trace: TraceHandle::off(),
            deadline: None,
            faults: FaultHandle::off(),
        }
    }
}

/// Result of one experiment run.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Quality of the initial mapping `µ₁`.
    pub initial: MappingQuality,
    /// Quality of the TIMER-enhanced mapping `µ₂`.
    pub enhanced: MappingQuality,
    /// Wall-clock time of the partitioning step.
    pub partition_time: Duration,
    /// Wall-clock time of constructing the initial mapping from the partition.
    pub initial_mapping_time: Duration,
    /// Wall-clock time of the TIMER enhancement.
    pub timer_time: Duration,
    /// Number of hierarchy rounds TIMER accepted.
    pub hierarchies_accepted: usize,
    /// Number of label swaps across all of TIMER's hierarchy sweeps.
    pub total_swaps: usize,
    /// Why the TIMER run stopped (`Completed` unless a deadline or the
    /// adaptive stopping rule cut it short).
    pub stop_reason: StopReason,
    /// Round panics TIMER absorbed (0 on healthy runs).
    pub worker_panics: usize,
}

impl CaseResult {
    /// `Coco(µ₂) / Coco(µ₁)` — below 1.0 means TIMER improved the mapping.
    pub fn coco_quotient(&self) -> f64 {
        if self.initial.coco == 0 {
            1.0
        } else {
            self.enhanced.coco as f64 / self.initial.coco as f64
        }
    }

    /// `Cut(µ₂) / Cut(µ₁)`.
    pub fn cut_quotient(&self) -> f64 {
        if self.initial.edge_cut == 0 {
            1.0
        } else {
            self.enhanced.edge_cut as f64 / self.initial.edge_cut as f64
        }
    }

    /// Time quotient as reported in Table 2: TIMER time divided by the
    /// baseline time (partitioning for c2–c4, DRB mapping for c1 — the
    /// caller knows which baseline applies and passes it in).
    pub fn time_quotient(&self, baseline: Duration) -> f64 {
        if baseline.is_zero() {
            f64::INFINITY
        } else {
            self.timer_time.as_secs_f64() / baseline.as_secs_f64()
        }
    }
}

/// Runs one experimental case on one (network, topology) pair through the
/// service's pipeline stages ([`map_initial`], [`enhance_and_evaluate`]), so
/// the paper tables and `mapd` compute the same mappings.
///
/// # Errors
/// Returns `TieError::Recognition` if the topology is not a partial cube
/// (all paper topologies are) and forwards any error from TIMER — a sweep
/// over many rows can record the failure and move on instead of aborting
/// (see `run_sweep`).
pub fn run_case(
    ga: &Graph,
    topology: &Topology,
    case: MapCase,
    config: &ExperimentConfig,
) -> Result<CaseResult, TieError> {
    let ctx = TopologyContext::recognize(&topology.graph)?;
    let initial = map_initial(ga, topology, case, config.epsilon, config.seed);
    let timer_cfg = TimerConfig {
        trace: config.trace.clone(),
        deadline: config.deadline,
        faults: config.faults.clone(),
        ..TimerConfig::new(config.num_hierarchies, config.seed)
    };
    let out = enhance_and_evaluate(ga, topology, &ctx, &initial.mapping, timer_cfg)?;
    Ok(CaseResult {
        initial: out.initial,
        enhanced: out.enhanced,
        partition_time: initial.partition_time,
        initial_mapping_time: initial.mapping_time,
        timer_time: out.timer_time,
        hierarchies_accepted: out.result.hierarchies_accepted,
        total_swaps: out.result.total_swaps,
        stop_reason: out.result.stop_reason,
        worker_panics: out.result.telemetry.worker_panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{quick_networks, Scale};

    #[test]
    fn all_cases_run_and_never_worsen_coco() {
        let spec = &quick_networks()[0];
        let ga = spec.build(Scale::Tiny);
        let topo = Topology::grid2d(4, 4);
        let config = ExperimentConfig {
            num_hierarchies: 5,
            ..Default::default()
        };
        for case in MapCase::all() {
            let r = run_case(&ga, &topo, case, &config).unwrap();
            // TIMER's gate keeps a round only if Coco does not rise.
            assert!(
                r.enhanced.coco <= r.initial.coco,
                "{}: TIMER must not worsen Coco ({} -> {})",
                case.label(),
                r.initial.coco,
                r.enhanced.coco
            );
            assert!(r.coco_quotient() <= 1.0);
            assert!(
                r.enhanced.imbalance <= 0.15,
                "imbalance {}",
                r.enhanced.imbalance
            );
        }
    }

    #[test]
    fn case_names_and_ids() {
        assert_eq!(MapCase::all().len(), 4);
        assert_eq!(MapCase::C1Drb.id(), "c1");
        assert!(MapCase::C4GreedyMin.label().contains("GREEDYMIN"));
    }

    /// The experiment runner and the service run one pipeline: for the same
    /// graph, topology, case, seed, eps and NH they agree on every quality
    /// figure and on TIMER's bookkeeping.
    #[test]
    fn run_case_matches_service_execute() {
        use tie_mapd::protocol::{GraphSource, MapRequest};
        use tie_mapd::topo::parse_topology;
        use tie_mapd::{Service, ServiceOptions};

        let ga = quick_networks()[0].build(Scale::Tiny);
        let config = ExperimentConfig {
            num_hierarchies: 6,
            seed: 11,
            ..Default::default()
        };
        let service = Service::new(ServiceOptions::default());
        for topology in ["grid4x4", "hypercube4"] {
            let topo = parse_topology(topology).unwrap();
            for case in MapCase::all() {
                let r = run_case(&ga, &topo, case, &config).unwrap();
                let resp = service
                    .execute(&MapRequest {
                        graph: GraphSource::Inline {
                            num_vertices: ga.num_vertices(),
                            edges: ga.edges().collect(),
                        },
                        topology: topology.to_string(),
                        case: case.id().to_string(),
                        nh: config.num_hierarchies,
                        eps: config.epsilon,
                        seed: config.seed,
                        threads: 1,
                        batch: 0,
                        deadline_ms: 0,
                    })
                    .unwrap();
                let at = format!("{topology} {}", case.id());
                assert_eq!(r.initial.coco, resp.initial.coco, "{at}");
                assert_eq!(r.enhanced.coco, resp.enhanced.coco, "{at}");
                assert_eq!(r.initial.edge_cut, resp.initial.edge_cut, "{at}");
                assert_eq!(r.enhanced.edge_cut, resp.enhanced.edge_cut, "{at}");
                assert_eq!(r.hierarchies_accepted, resp.hierarchies_accepted, "{at}");
                assert_eq!(r.total_swaps, resp.total_swaps, "{at}");
            }
        }
    }

    #[test]
    fn time_quotient_handles_zero_baseline() {
        let spec = &quick_networks()[1];
        let ga = spec.build(Scale::Tiny);
        let topo = Topology::hypercube(4);
        let config = ExperimentConfig {
            num_hierarchies: 2,
            ..Default::default()
        };
        let r = run_case(&ga, &topo, MapCase::C2Identity, &config).unwrap();
        assert!(r.time_quotient(Duration::from_millis(100)).is_finite());
        assert!(r.time_quotient(Duration::ZERO).is_infinite());
    }
}
