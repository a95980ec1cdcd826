//! The mapping pipeline and the request execution path built on it.
//!
//! The paper's evaluation pipeline (Section 7.1) is two public stages:
//! [`map_initial`] partitions the application graph and builds the case's
//! initial mapping, and [`enhance_and_evaluate`] runs TIMER on it and scores
//! both mappings. [`Service::execute`] is the only route from a
//! [`MapRequest`] to a [`MapResponse`]: `mapd` calls it per connection
//! frame, `map_file` calls it once per invocation. The experiment binaries
//! (`tie_bench::run_case`) call the same two stages. One pipeline is what
//! makes a served mapping byte-identical to the one-shot result and to the
//! paper tables for the same inputs — there is no second copy to drift.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tie_fault::FaultHandle;
use tie_graph::{io, Graph, GraphBuilder};
use tie_mapping::{drb::drb_mapping, greedy, identity_mapping, Mapping};
use tie_metrics::{evaluate, MappingQuality};
use tie_partition::{partition, PartitionConfig};
use tie_timer::labeling::{check_label_width, ext_bits_for};
use tie_timer::{CancelToken, TieError, Timer, TimerConfig, TimerResult, TopologyContext};
use tie_topology::Topology;
use tie_trace::TraceHandle;

use crate::admission::Admission;
use crate::cache::{CacheStats, TopologyCache};
use crate::protocol::{GraphSource, MapRequest, MapResponse, QualitySummary};
use crate::topo::parse_topology;

/// The four experimental cases of the paper's Section 7 pipeline, selecting
/// how the initial mapping is derived from the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapCase {
    /// c1: dual recursive bisection (SCOTCH stand-in).
    C1Drb,
    /// c2: identity block-to-PE bijection.
    C2Identity,
    /// c3: GREEDYALLC construction.
    C3GreedyAllC,
    /// c4: GREEDYMIN construction (LibTopoMap-style construct method).
    C4GreedyMin,
}

impl MapCase {
    /// All four cases in paper order.
    pub fn all() -> [MapCase; 4] {
        [
            MapCase::C1Drb,
            MapCase::C2Identity,
            MapCase::C3GreedyAllC,
            MapCase::C4GreedyMin,
        ]
    }

    /// Parses the wire/CLI id (`c1`..`c4`).
    pub fn parse(s: &str) -> Option<MapCase> {
        MapCase::all().into_iter().find(|c| c.id() == s)
    }

    /// The stable id.
    pub fn id(self) -> &'static str {
        match self {
            MapCase::C1Drb => "c1",
            MapCase::C2Identity => "c2",
            MapCase::C3GreedyAllC => "c3",
            MapCase::C4GreedyMin => "c4",
        }
    }

    /// The report label (matches the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            MapCase::C1Drb => "c1 (SCOTCH-like DRB)",
            MapCase::C2Identity => "c2 (IDENTITY)",
            MapCase::C3GreedyAllC => "c3 (GREEDYALLC)",
            MapCase::C4GreedyMin => "c4 (GREEDYMIN)",
        }
    }
}

/// Output of [`map_initial`]: the initial mapping `µ₁` and the wall time of
/// each of its two steps.
#[derive(Clone, Debug)]
pub struct InitialMapping {
    /// The initial mapping `µ₁`.
    pub mapping: Mapping,
    /// Wall time of the partition.
    pub partition_time: Duration,
    /// Wall time of building `µ₁` from the partition.
    pub mapping_time: Duration,
}

/// Pipeline stage 1 (Section 7.1 steps 1–2): partitions `ga` into one block
/// per PE of `topology` with imbalance `eps`, then builds the initial mapping
/// `µ₁` the way `case` prescribes.
pub fn map_initial(
    ga: &Graph,
    topology: &Topology,
    case: MapCase,
    eps: f64,
    seed: u64,
) -> InitialMapping {
    let gp = &topology.graph;
    let t = Instant::now();
    let part = partition(
        ga,
        &PartitionConfig {
            epsilon: eps,
            ..PartitionConfig::new(topology.num_pes(), seed)
        },
    );
    let partition_time = t.elapsed();
    let t = Instant::now();
    let mapping = match case {
        MapCase::C1Drb => drb_mapping(ga, &part, gp, seed),
        MapCase::C2Identity => identity_mapping(&part, topology.num_pes()),
        MapCase::C3GreedyAllC => greedy::greedy_allc_mapping(ga, &part, gp),
        MapCase::C4GreedyMin => greedy::greedy_min_mapping(ga, &part, gp),
    };
    InitialMapping {
        mapping,
        partition_time,
        mapping_time: t.elapsed(),
    }
}

/// Output of [`enhance_and_evaluate`].
#[derive(Clone, Debug)]
pub struct Enhanced {
    /// TIMER's result: the enhanced mapping `µ₂` plus its bookkeeping.
    pub result: TimerResult,
    /// Quality of `µ₁`.
    pub initial: MappingQuality,
    /// Quality of `µ₂`.
    pub enhanced: MappingQuality,
    /// Wall time of the TIMER run alone.
    pub timer_time: Duration,
}

/// Pipeline stage 2 (Section 7.1 steps 3–4): enhances `initial` with TIMER
/// configured by `cfg` over the topology context `ctx`, then evaluates both
/// mappings on `topology`.
///
/// # Errors
/// Whatever [`Timer::enhance_with_context`] reports.
pub fn enhance_and_evaluate(
    ga: &Graph,
    topology: &Topology,
    ctx: &TopologyContext,
    initial: &Mapping,
    cfg: TimerConfig,
) -> Result<Enhanced, TieError> {
    let t = Instant::now();
    let result = Timer::new(cfg).enhance_with_context(ga, ctx, initial)?;
    let timer_time = t.elapsed();
    Ok(Enhanced {
        initial: evaluate(ga, &topology.graph, initial),
        enhanced: evaluate(ga, &topology.graph, &result.mapping),
        result,
        timer_time,
    })
}

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// The request itself is malformed (unknown case/topology, bad graph).
    Invalid(String),
    /// Admission rejected the request (deadline expired while queued).
    Rejected(String),
    /// The pipeline failed with a typed error.
    Tie(TieError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServeError::Rejected(m) => write!(f, "rejected: {m}"),
            ServeError::Tie(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TieError> for ServeError {
    fn from(e: TieError) -> Self {
        ServeError::Tie(e)
    }
}

/// Construction options for a [`Service`].
#[derive(Debug)]
pub struct ServiceOptions {
    /// Topology-cache capacity (contexts held resident).
    pub cache_capacity: usize,
    /// Admission cap (0 = hardware parallelism).
    pub max_inflight: usize,
    /// Flight recorder shared by cache, daemon and TIMER runs.
    pub trace: TraceHandle,
    /// Fault-injection handle shared by readers, framing, cache and TIMER.
    pub faults: FaultHandle,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_capacity: 8,
            max_inflight: 0,
            trace: TraceHandle::off(),
            faults: FaultHandle::off(),
        }
    }
}

/// The mapping service: cache + admission + the execution pipeline.
#[derive(Debug)]
pub struct Service {
    cache: TopologyCache,
    admission: Admission,
    trace: TraceHandle,
    faults: FaultHandle,
    cancel: CancelToken,
}

impl Service {
    /// Builds a service from `opts`.
    pub fn new(opts: ServiceOptions) -> Self {
        Service {
            cache: TopologyCache::new(opts.cache_capacity, opts.trace.clone(), opts.faults.clone()),
            admission: Admission::new(opts.max_inflight),
            trace: opts.trace,
            faults: opts.faults,
            cancel: CancelToken::new(),
        }
    }

    /// Executes one mapping request end to end: admission, graph load and
    /// the cached topology context, then the two pipeline stages
    /// [`map_initial`] and [`enhance_and_evaluate`].
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for malformed requests,
    /// [`ServeError::Rejected`] when the deadline expires while queued, and
    /// [`ServeError::Tie`] for pipeline failures.
    pub fn execute(&self, req: &MapRequest) -> Result<MapResponse, ServeError> {
        let case = MapCase::parse(&req.case)
            .ok_or_else(|| ServeError::Invalid(format!("unknown case {:?}", req.case)))?;
        let topo = parse_topology(&req.topology).map_err(ServeError::Invalid)?;
        let mut cfg = TimerConfig::new(req.nh, req.seed)
            .with_trace(self.trace.clone())
            .with_cancel_token(self.cancel.clone())
            .with_faults(self.faults.clone());
        // `nh` sizes the driver's allocations: an oversized request is
        // refused here, before it holds a permit.
        cfg.validate()
            .map_err(|e| ServeError::Invalid(e.to_string()))?;
        let deadline =
            (req.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(req.deadline_ms));

        // The permit spans everything expensive below, so `max_inflight`
        // truly bounds concurrent compute, not just concurrent TIMER runs.
        let _permit = self
            .admission
            .acquire(deadline)
            .map_err(|e| ServeError::Rejected(e.to_string()))?;

        let ga = load_graph(&req.graph, &self.faults)?;
        let (ctx, disposition) = self
            .cache
            .get_or_build(&topo.name, || TopologyContext::recognize(&topo.graph))?;
        if ctx.num_pes() != topo.num_pes() {
            return Err(ServeError::Invalid(format!(
                "cache context for {:?} has {} PEs, topology has {}",
                topo.name,
                ctx.num_pes(),
                topo.num_pes()
            )));
        }
        // Some PE carries at least ceil(n / k) tasks, so the labels need at
        // least this many digits: a request over the 64-bit label width is
        // refused here, before partitioning. The exact width, from the real
        // largest block, is checked again when TIMER labels the mapping.
        let min_block = ga.num_vertices().div_ceil(ctx.num_pes().max(1));
        check_label_width(ctx.pcube().dim, ext_bits_for(min_block))?;

        let initial = map_initial(&ga, &topo, case, req.eps, req.seed);

        if let Some(t) = deadline {
            let now = Instant::now();
            if now >= t {
                return Err(ServeError::Rejected(
                    "deadline expired before enhancement".to_string(),
                ));
            }
            cfg = cfg.with_deadline(t - now);
        }
        let out = enhance_and_evaluate(&ga, &topo, &ctx, &initial.mapping, cfg)?;
        Ok(MapResponse {
            cache: disposition.name().to_string(),
            stop_reason: out.result.stop_reason.name().to_string(),
            hierarchies_accepted: out.result.hierarchies_accepted,
            total_swaps: out.result.total_swaps,
            initial: summarize(&out.initial),
            enhanced: summarize(&out.enhanced),
            mapping: out.result.mapping.into_assignment(),
        })
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Enhancements currently holding an admission permit.
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// The resolved admission cap (hardware parallelism when configured 0).
    pub fn admission_capacity(&self) -> usize {
        self.admission.capacity()
    }

    /// The cancellation token a cancel-mode shutdown fires.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The service's flight-recorder handle.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The service's fault-injection handle (shared with the socket layer).
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }
}

/// A service behind an `Arc`, as the daemon shares it across connections.
pub type SharedService = Arc<Service>;

fn summarize(q: &MappingQuality) -> QualitySummary {
    QualitySummary {
        coco: q.coco,
        edge_cut: q.edge_cut,
        congestion: q.congestion,
        imbalance: q.imbalance,
    }
}

fn load_graph(src: &GraphSource, faults: &FaultHandle) -> Result<Graph, ServeError> {
    match src {
        GraphSource::Inline {
            num_vertices,
            edges,
        } => {
            let mut b = GraphBuilder::new(*num_vertices);
            for &(u, v, w) in edges {
                if (u as usize) >= *num_vertices || (v as usize) >= *num_vertices {
                    return Err(ServeError::Invalid(format!(
                        "edge ({u}, {v}) out of range for {num_vertices} vertices"
                    )));
                }
                b.add_edge(u, v, w);
            }
            Ok(b.build())
        }
        GraphSource::Path(path) => {
            let loaded = if path.ends_with(".metis") || path.ends_with(".graph") {
                io::read_metis_with(path, faults)
            } else {
                io::read_edge_list_with(path, faults)
            };
            loaded.map_err(|e| ServeError::Invalid(format!("cannot read graph {path:?}: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;

    fn demo_request(seed: u64) -> MapRequest {
        let g = generators::barabasi_albert(200, 3, seed);
        MapRequest {
            graph: GraphSource::Inline {
                num_vertices: g.num_vertices(),
                edges: g.edges().collect(),
            },
            topology: "grid4x4".to_string(),
            case: "c2".to_string(),
            nh: 6,
            eps: 0.03,
            seed,
            threads: 1,
            batch: 0,
            deadline_ms: 0,
        }
    }

    #[test]
    fn execute_serves_a_valid_mapping() {
        let service = Service::new(ServiceOptions::default());
        let resp = service.execute(&demo_request(1)).unwrap();
        assert_eq!(resp.cache, "miss");
        assert_eq!(resp.mapping.len(), 200);
        assert!(resp.mapping.iter().all(|&pe| pe < 16));
        assert!(resp.enhanced.coco <= resp.initial.coco + resp.initial.coco / 10);
        assert_eq!(resp.stop_reason, "completed");
    }

    #[test]
    fn execute_is_deterministic_across_cache_dispositions() {
        let service = Service::new(ServiceOptions::default());
        let req = demo_request(2);
        let miss = service.execute(&req).unwrap();
        let hit = service.execute(&req).unwrap();
        assert_eq!(miss.cache, "miss");
        assert_eq!(hit.cache, "hit");
        assert_eq!(miss.mapping, hit.mapping);
        assert_eq!(miss.enhanced, hit.enhanced);
        assert_eq!(miss.total_swaps, hit.total_swaps);
    }

    #[test]
    fn execute_rejects_malformed_requests() {
        let service = Service::new(ServiceOptions::default());
        let mut bad_case = demo_request(3);
        bad_case.case = "c9".to_string();
        assert!(matches!(
            service.execute(&bad_case),
            Err(ServeError::Invalid(_))
        ));
        let mut bad_topo = demo_request(3);
        bad_topo.topology = "klein4".to_string();
        assert!(matches!(
            service.execute(&bad_topo),
            Err(ServeError::Invalid(_))
        ));
        let mut bad_edge = demo_request(3);
        bad_edge.graph = GraphSource::Inline {
            num_vertices: 4,
            edges: vec![(0, 9, 1)],
        };
        assert!(matches!(
            service.execute(&bad_edge),
            Err(ServeError::Invalid(_))
        ));
        let oversize = MapRequest {
            nh: tie_timer::MAX_HIERARCHIES + 1,
            ..demo_request(3)
        };
        assert!(matches!(
            service.execute(&oversize),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn label_width_overflow_is_refused_before_partitioning() {
        // grid32x32 has 62 PE digits, so it carries at most 4 tasks per PE:
        // 4097 tasks put at least 5 on some PE, which needs 3 extension
        // digits and a 65-bit label.
        let service = Service::new(ServiceOptions::default());
        let req = MapRequest {
            graph: GraphSource::Inline {
                num_vertices: 4097,
                edges: Vec::new(),
            },
            topology: "grid32x32".to_string(),
            ..demo_request(5)
        };
        match service.execute(&req) {
            Err(ServeError::Tie(TieError::IncompatibleTopology(msg))) => {
                assert!(msg.contains("label width 65"), "{msg}");
            }
            other => panic!("expected a label-width error, got {other:?}"),
        }
    }

    #[test]
    fn execute_ignores_threads_and_batch() {
        // Both fields stay on the wire for old clients; TIMER runs its
        // rounds one at a time whatever they say.
        let service = Service::new(ServiceOptions::default());
        let plain = service.execute(&demo_request(4)).unwrap();
        let odd = service
            .execute(&MapRequest {
                threads: 0,
                batch: 1_000_000,
                ..demo_request(4)
            })
            .unwrap();
        assert_eq!(odd.mapping, plain.mapping);
        assert_eq!(odd.enhanced, plain.enhanced);
        assert_eq!(odd.total_swaps, plain.total_swaps);
    }

    #[test]
    fn all_cases_execute() {
        let service = Service::new(ServiceOptions::default());
        for case in ["c1", "c2", "c3", "c4"] {
            let mut req = demo_request(4);
            req.case = case.to_string();
            let resp = service.execute(&req).unwrap();
            assert_eq!(resp.mapping.len(), 200, "{case}");
        }
    }
}
