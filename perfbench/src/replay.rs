//! The traced replay of one request, and the output checks.
//!
//! [`replay`] calls the stages `Service::execute` calls, one by one and in
//! the same order, with a span around each: graph load, topology parse,
//! cache lookup (recognition on a miss), partition, initial mapping, TIMER,
//! and both `evaluate` calls. Its mapping must be byte-identical to the
//! service's, which the runner checks, so the trace measures the program
//! the untraced run measures.

use tie_graph::{Graph, GraphBuilder};
use tie_mapd::protocol::{GraphSource, MapRequest, MapResponse};
use tie_mapd::topo::parse_topology;
use tie_mapd::{MapCase, TopologyCache};
use tie_mapping::{drb::drb_mapping, greedy, identity_mapping, Mapping};
use tie_metrics::{coco, evaluate};
use tie_partition::{partition, Partition, PartitionConfig};
use tie_timer::{RoundTelemetry, Timer, TimerConfig, TopologyContext};
use tie_topology::Topology;
use tie_trace::Phase;

use crate::span::Spans;

/// Builds the application graph of a request exactly as the service does.
///
/// # Panics
/// On a path-sourced graph or an out-of-range edge: the benchmark only
/// generates inline graphs of valid edges.
pub fn load_graph(req: &MapRequest) -> Graph {
    let GraphSource::Inline {
        num_vertices,
        edges,
    } = &req.graph
    else {
        panic!("benchmark requests carry inline graphs");
    };
    let mut b = GraphBuilder::new(*num_vertices);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

fn case_of(req: &MapRequest) -> Result<MapCase, String> {
    MapCase::parse(&req.case).ok_or_else(|| format!("unknown case {:?}", req.case))
}

fn partition_for(ga: &Graph, topo: &Topology, req: &MapRequest) -> Partition {
    partition(
        ga,
        &PartitionConfig {
            epsilon: req.eps,
            ..PartitionConfig::new(topo.num_pes(), req.seed)
        },
    )
}

fn initial_mapping(
    ga: &Graph,
    part: &Partition,
    topo: &Topology,
    case: MapCase,
    seed: u64,
) -> Mapping {
    match case {
        MapCase::C1Drb => drb_mapping(ga, part, &topo.graph, seed),
        MapCase::C2Identity => identity_mapping(part, topo.num_pes()),
        MapCase::C3GreedyAllC => greedy::greedy_allc_mapping(ga, part, &topo.graph),
        MapCase::C4GreedyMin => greedy::greedy_min_mapping(ga, part, &topo.graph),
    }
}

/// What the replay of one request produced, beyond its spans.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The enhanced mapping.
    pub mapping: Vec<u32>,
    /// TIMER's gate and phase telemetry.
    pub telemetry: RoundTelemetry,
    /// Vertices the bijection repair rewrote.
    pub repaired: usize,
    /// Label swaps across all sweeps.
    pub swaps: usize,
    /// Milliseconds of the `request` root span.
    pub request_ms: f64,
    /// Milliseconds covered by the stage spans directly under the root.
    pub stages_ms: f64,
}

/// TIMER phase milliseconds, in the order the per-layer metrics list them.
pub const TIMER_PHASES: [Phase; 6] = [
    Phase::HierarchyBuild,
    Phase::Sweep,
    Phase::Contract,
    Phase::Assemble,
    Phase::DeltaScan,
    Phase::Commit,
];

/// Replays `req` stage by stage under a root span `request` tagged `id`,
/// looking its topology context up in `cache` as the service does.
///
/// # Errors
/// A one-line description of the first stage that failed.
pub fn replay(
    req: &MapRequest,
    cache: &TopologyCache,
    spans: &mut Spans,
    id: u64,
) -> Result<Replayed, String> {
    let root = spans.open("request", id, None);
    let case = case_of(req)?;
    let ga = spans.time("graph.load", root, || load_graph(req));
    let topo = spans.time("mapd.topology_parse", root, || {
        parse_topology(&req.topology)
    })?;
    let lookup = spans.open("mapd.cache", id, Some(root));
    let ctx = cache
        .get_or_build(&topo.name, || {
            let s = spans.open("topology.recognize", id, Some(lookup));
            let ctx = TopologyContext::recognize(&topo.graph);
            spans.close(s);
            ctx
        })
        .map_err(|e| e.to_string())?
        .0;
    spans.close(lookup);
    let part = spans.time("partition", root, || partition_for(&ga, &topo, req));
    let initial = spans.time("mapping", root, || {
        initial_mapping(&ga, &part, &topo, case, req.seed)
    });
    let cfg = TimerConfig::new(req.nh, req.seed)
        .with_threads(req.threads)
        .with_batch(req.batch);
    let result = spans
        .time("timer", root, || {
            Timer::new(cfg).enhance_with_context(&ga, &ctx, &initial)
        })
        .map_err(|e| e.to_string())?;
    std::hint::black_box(spans.time("metrics.evaluate", root, || {
        evaluate(&ga, &topo.graph, &initial)
    }));
    std::hint::black_box(spans.time("metrics.evaluate", root, || {
        evaluate(&ga, &topo.graph, &result.mapping)
    }));
    spans.close(root);
    Ok(Replayed {
        mapping: result.mapping.assignment().to_vec(),
        telemetry: result.telemetry,
        repaired: result.total_repaired,
        swaps: result.total_swaps,
        request_ms: spans.spans()[root].ms(),
        stages_ms: spans.children_ms(root),
    })
}

/// Checks a served or executed response against its request: the mapping
/// has one valid PE per vertex, a Coco recomputed with `tie_metrics` equals
/// both reported Cocos, TIMER did not raise Coco, and TIMER left every PE's
/// load as the initial mapping had it. The initial mapping is rebuilt with
/// the service's own partition and mapping calls.
///
/// # Errors
/// A one-line description of the first failed check.
pub fn check(req: &MapRequest, resp: &MapResponse) -> Result<(), String> {
    let ga = load_graph(req);
    let topo = parse_topology(&req.topology)?;
    let p = topo.num_pes();
    if resp.mapping.len() != ga.num_vertices() {
        return Err(format!(
            "mapping has {} entries for {} vertices",
            resp.mapping.len(),
            ga.num_vertices()
        ));
    }
    let enhanced = Mapping::try_new(resp.mapping.clone(), p)?;
    let got = coco(&ga, &topo.graph, &enhanced);
    if got != resp.enhanced.coco {
        return Err(format!(
            "recomputed Coco {got} != reported {}",
            resp.enhanced.coco
        ));
    }
    if resp.enhanced.coco > resp.initial.coco {
        return Err(format!(
            "TIMER raised Coco from {} to {}",
            resp.initial.coco, resp.enhanced.coco
        ));
    }
    let part = partition_for(&ga, &topo, req);
    let initial = initial_mapping(&ga, &part, &topo, case_of(req)?, req.seed);
    let initial_coco = coco(&ga, &topo.graph, &initial);
    if initial_coco != resp.initial.coco {
        return Err(format!(
            "recomputed initial Coco {initial_coco} != reported {}",
            resp.initial.coco
        ));
    }
    if initial.load_per_pe() != enhanced.load_per_pe() {
        return Err("TIMER changed a PE load".to_string());
    }
    Ok(())
}
