//! Cache behavior tests: single-flight construction, LRU eviction at
//! capacity, and the load-bearing invariant that a cache hit produces
//! byte-identical enhancement results to a miss.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tie_fault::FaultHandle;
use tie_graph::generators;
use tie_mapd::{CacheDisposition, TopologyCache};
use tie_mapping::identity_mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig, TopologyContext};
use tie_topology::Topology;
use tie_trace::{MemorySink, TraceHandle, TraceLevel};

#[test]
fn concurrent_misses_are_single_flight() {
    let cache = TopologyCache::new(4, TraceHandle::off(), FaultHandle::off());
    let builds = AtomicUsize::new(0);
    let topo = Topology::grid2d(4, 4);

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let (ctx, _) = cache
                    .get_or_build("grid4x4", || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        TopologyContext::recognize(&topo.graph)
                    })
                    .unwrap();
                assert_eq!(ctx.num_pes(), 16);
            });
        }
    });

    // Exactly one thread built; the other three waited and shared the result.
    assert_eq!(builds.load(Ordering::SeqCst), 1);
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.entries, 1);
}

#[test]
fn waiters_share_one_arc() {
    let cache = TopologyCache::new(4, TraceHandle::off(), FaultHandle::off());
    let topo = Topology::hypercube(3);
    let (a, d1) = cache
        .get_or_build("3-dimHQ", || TopologyContext::recognize(&topo.graph))
        .unwrap();
    let (b, d2) = cache
        .get_or_build("3-dimHQ", || TopologyContext::recognize(&topo.graph))
        .unwrap();
    assert_eq!(d1, CacheDisposition::Miss);
    assert_eq!(d2, CacheDisposition::Hit);
    assert!(Arc::ptr_eq(&a, &b), "hit must return the cached context");
}

#[test]
fn eviction_is_lru_at_capacity() {
    let cache = TopologyCache::new(2, TraceHandle::off(), FaultHandle::off());
    let build = |t: &Topology| {
        let g = t.graph.clone();
        move || TopologyContext::recognize(&g)
    };
    let (ta, tb, tc) = (
        Topology::grid2d(2, 2),
        Topology::grid2d(2, 4),
        Topology::grid2d(4, 4),
    );
    cache.get_or_build("a", build(&ta)).unwrap();
    cache.get_or_build("b", build(&tb)).unwrap();
    // Touch "a" so "b" becomes least-recently used.
    let (_, d) = cache.get_or_build("a", build(&ta)).unwrap();
    assert_eq!(d, CacheDisposition::Hit);
    // Inserting "c" at capacity 2 must evict "b", not "a".
    cache.get_or_build("c", build(&tc)).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 1);
    let (_, d) = cache.get_or_build("a", build(&ta)).unwrap();
    assert_eq!(d, CacheDisposition::Hit, "a must have survived");
    let (_, d) = cache.get_or_build("b", build(&tb)).unwrap();
    assert_eq!(d, CacheDisposition::Miss, "b must have been evicted");
}

#[test]
fn failed_builds_are_not_cached() {
    use tie_timer::TieError;
    let cache = TopologyCache::new(2, TraceHandle::off(), FaultHandle::off());
    let result = cache.get_or_build("broken", || {
        Err(TieError::InvalidInput("synthetic".to_string()))
    });
    assert!(result.is_err());
    let stats = cache.stats();
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.misses, 0);
    // The key is free again: a later build succeeds.
    let topo = Topology::grid2d(2, 2);
    let (_, d) = cache
        .get_or_build("broken", || TopologyContext::recognize(&topo.graph))
        .unwrap();
    assert_eq!(d, CacheDisposition::Miss);
}

#[test]
fn cache_emits_trace_events() {
    use tie_trace::{Phase, TraceEvent};
    let sink = Arc::new(MemorySink::default());
    let trace = TraceHandle::new(Arc::clone(&sink) as _, TraceLevel::Phase);
    let cache = TopologyCache::new(2, trace, FaultHandle::off());
    let topo = Topology::grid2d(2, 2);
    cache
        .get_or_build("grid2x2", || TopologyContext::recognize(&topo.graph))
        .unwrap();
    cache
        .get_or_build("grid2x2", || TopologyContext::recognize(&topo.graph))
        .unwrap();
    let events: Vec<TraceEvent> = sink.events().into_iter().map(|r| r.event).collect();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::Cache { key, disposition: "miss", misses: 1, .. } if key == "grid2x2"
        )),
        "missing miss event in {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::Cache {
                disposition: "hit",
                hits: 1,
                ..
            }
        )),
        "missing hit event in {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::Phase {
                phase: Phase::Cache,
                ..
            }
        )),
        "missing cache-phase timing event in {events:?}"
    );
}

/// The invariant the whole cache rests on: enhancing through a cached
/// (hit) context yields byte-identical results to a freshly built (miss)
/// context, because contexts are pure state over the topology.
#[test]
fn hit_and_miss_enhancements_are_byte_identical() {
    let ga = generators::barabasi_albert(300, 3, 11);
    let topo = Topology::grid2d(4, 4);
    let part = partition(
        &ga,
        &PartitionConfig {
            epsilon: 0.03,
            ..PartitionConfig::new(16, 11)
        },
    );
    let initial = identity_mapping(&part, 16);
    let cache = TopologyCache::new(2, TraceHandle::off(), FaultHandle::off());

    let run = |ctx: &TopologyContext| {
        Timer::new(TimerConfig::new(8, 11).with_threads(2))
            .enhance_with_context(&ga, ctx, &initial)
            .unwrap()
    };
    let (ctx_miss, d1) = cache
        .get_or_build(&topo.name, || TopologyContext::recognize(&topo.graph))
        .unwrap();
    let miss = run(&ctx_miss);
    let (ctx_hit, d2) = cache
        .get_or_build(&topo.name, || TopologyContext::recognize(&topo.graph))
        .unwrap();
    let hit = run(&ctx_hit);

    assert_eq!(d1, CacheDisposition::Miss);
    assert_eq!(d2, CacheDisposition::Hit);
    let pes = |m: &tie_mapping::Mapping| {
        (0..m.num_tasks())
            .map(|v| m.pe_of(v as u32))
            .collect::<Vec<_>>()
    };
    assert_eq!(pes(&miss.mapping), pes(&hit.mapping));
    assert_eq!(miss.final_coco, hit.final_coco);
    assert_eq!(miss.initial_coco, hit.initial_coco);
    assert_eq!(miss.total_swaps, hit.total_swaps);
    assert_eq!(miss.hierarchies_accepted, hit.hierarchies_accepted);
}
