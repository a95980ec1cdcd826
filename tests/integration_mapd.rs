//! Workspace-level acceptance test for the mapping service: the served
//! result must be byte-identical to the one-shot result for the same
//! request, on a cache miss AND on a cache hit — the invariant the CI
//! smoke job re-checks over a real socket.

use tie_graph::generators;
use tie_mapd::protocol::{GraphSource, MapRequest};
use tie_mapd::{ServeError, Service, ServiceOptions};

fn request(case: &str, seed: u64, threads: usize) -> MapRequest {
    let g = generators::barabasi_albert(500, 4, seed);
    MapRequest {
        graph: GraphSource::Inline {
            num_vertices: g.num_vertices(),
            edges: g.edges().collect(),
        },
        topology: "grid4x8".to_string(),
        case: case.to_string(),
        nh: 10,
        eps: 0.03,
        seed,
        threads,
        batch: 0,
        deadline_ms: 0,
    }
}

#[test]
fn service_results_are_identical_across_cache_dispositions_and_threads() {
    for case in ["c1", "c2"] {
        // Two independent services: each starts cold, so both first calls
        // are misses; the second call on each is a hit.
        let a = Service::new(ServiceOptions::default());
        let b = Service::new(ServiceOptions::default());
        let req1 = request(case, 42, 1);
        let req4 = request(case, 42, 4);

        let miss = a.execute(&req1).expect("miss execution");
        let hit = a.execute(&req1).expect("hit execution");
        assert_eq!(miss.cache, "miss", "{case}");
        assert_eq!(hit.cache, "hit", "{case}");
        assert_eq!(miss.mapping, hit.mapping, "{case}: hit must equal miss");
        assert_eq!(miss.enhanced, hit.enhanced, "{case}");
        assert_eq!(miss.total_swaps, hit.total_swaps, "{case}");

        // Thread count must not change the result either (the pipeline's
        // determinism contract), served through a different service.
        let threaded = b.execute(&req4).expect("threaded execution");
        assert_eq!(
            miss.mapping, threaded.mapping,
            "{case}: threads changed the result"
        );
        assert_eq!(miss.enhanced, threaded.enhanced, "{case}");

        let stats = a.cache_stats();
        assert_eq!(stats.misses, 1, "{case}");
        assert_eq!(stats.hits, 1, "{case}");
    }
}

#[test]
fn admission_counters_return_to_zero() {
    let service = Service::new(ServiceOptions {
        max_inflight: 1,
        ..ServiceOptions::default()
    });
    assert_eq!(service.admission_capacity(), 1);
    // `nh`, `threads` and `batch` size TIMER's allocations. A request above
    // the caps fails as invalid before it takes a permit or builds a
    // topology context, so the cache records no lookup at all.
    let oversized = [
        MapRequest {
            nh: 1_000_000_000,
            ..request("c2", 5, 1)
        },
        request("c2", 5, 1_000_000),
        MapRequest {
            batch: tie_timer::MAX_BATCH + 1,
            ..request("c2", 5, 1)
        },
    ];
    for req in &oversized {
        match service.execute(req) {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("must be <="), "{msg}"),
            other => panic!("expected an invalid-request error, got {other:?}"),
        }
    }
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "no work may start");
    service.execute(&request("c2", 5, 1)).expect("execution");
    assert_eq!(service.in_flight(), 0, "permit must be released");
}

#[test]
fn deadline_zero_means_no_deadline_and_expired_deadline_rejects() {
    let service = Service::new(ServiceOptions::default());
    let ok = service.execute(&request("c2", 9, 1)).expect("no deadline");
    assert_eq!(ok.stop_reason, "completed");

    // A 1 ms deadline on a fresh service cannot cover context construction
    // plus enhancement: the run must stop early or be rejected, never hang.
    let fresh = Service::new(ServiceOptions::default());
    let mut req = request("c2", 9, 1);
    req.deadline_ms = 1;
    match fresh.execute(&req) {
        Ok(resp) => assert_eq!(resp.stop_reason, "deadline_exceeded", "{resp:?}"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("deadline") || msg.contains("rejected"),
                "{msg}"
            );
        }
    }
}
