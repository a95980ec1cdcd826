//! End-to-end daemon test: a real Unix socket, a server thread, and the
//! byte-identity contract between served and one-shot mappings.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use tie_fault::FaultHandle;
use tie_graph::generators;
use tie_mapd::client::Client;
use tie_mapd::protocol::{GraphSource, MapRequest, Request, Response, ShutdownMode};
use tie_mapd::{server, Service, ServiceOptions};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mapd-test-{}-{tag}.sock", std::process::id()))
}

fn demo_request(seed: u64) -> MapRequest {
    let g = generators::barabasi_albert(400, 3, seed);
    MapRequest {
        graph: GraphSource::Inline {
            num_vertices: g.num_vertices(),
            edges: g.edges().collect(),
        },
        topology: "grid4x4".to_string(),
        case: "c2".to_string(),
        nh: 8,
        eps: 0.03,
        seed,
        threads: 1,
        batch: 0,
        deadline_ms: 0,
    }
}

fn connect_with_retry(path: &std::path::Path) -> Client {
    for _ in 0..200 {
        if let Ok(c) = Client::connect(path, FaultHandle::off()) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon socket {path:?} never came up");
}

#[test]
fn served_mapping_matches_one_shot_and_drains_cleanly() {
    let path = socket_path("e2e");
    let service = Arc::new(Service::new(ServiceOptions::default()));
    let server_thread = {
        let path = path.clone();
        let service = Arc::clone(&service);
        std::thread::spawn(move || server::serve(&path, service))
    };

    let req = demo_request(7);
    // The one-shot expectation comes from the same execution path the
    // daemon uses — a fresh service, so a guaranteed cache miss.
    let oneshot = Service::new(ServiceOptions::default())
        .execute(&req)
        .expect("one-shot execution");
    assert_eq!(oneshot.cache, "miss");

    let mut client = connect_with_retry(&path);

    // First served request: a miss, byte-identical to the one-shot.
    let first = match client.request(&Request::Map(Box::new(req.clone()))) {
        Ok(Response::Map(resp)) => *resp,
        other => panic!("expected map response, got {other:?}"),
    };
    assert_eq!(first.cache, "miss");
    assert_eq!(first.mapping, oneshot.mapping);
    assert_eq!(first.enhanced, oneshot.enhanced);
    assert_eq!(first.total_swaps, oneshot.total_swaps);

    // Second served request: a hit, still byte-identical.
    let second = match client.request(&Request::Map(Box::new(req.clone()))) {
        Ok(Response::Map(resp)) => *resp,
        other => panic!("expected map response, got {other:?}"),
    };
    assert_eq!(second.cache, "hit");
    assert_eq!(second.mapping, oneshot.mapping);
    assert_eq!(second.enhanced, oneshot.enhanced);

    // Ping reports the counters the two requests produced.
    match client.request(&Request::Ping) {
        Ok(Response::Pong { cache, .. }) => {
            assert_eq!(cache.misses, 1);
            assert_eq!(cache.hits, 1);
            assert_eq!(cache.entries, 1);
        }
        other => panic!("expected pong, got {other:?}"),
    }

    // Malformed frames are answered with an error, not a dropped daemon.
    let mut raw = connect_with_retry(&path);
    match raw.request(&Request::Map(Box::new(MapRequest {
        topology: "klein4".to_string(),
        ..req.clone()
    }))) {
        Ok(Response::Error { message }) => assert!(message.contains("klein4"), "{message}"),
        other => panic!("expected error response, got {other:?}"),
    }
    // Close this side connection: the drain below waits for every open
    // connection to finish, and this one would otherwise idle forever.
    drop(raw);

    // Drain shutdown: acknowledged, then the server thread exits and the
    // socket file disappears.
    match client.request(&Request::Shutdown {
        mode: ShutdownMode::Drain,
    }) {
        Ok(Response::ShuttingDown { mode }) => assert_eq!(mode, "drain"),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server_thread
        .join()
        .expect("server thread")
        .expect("serve result");
    assert!(!path.exists(), "socket file must be removed on drain");
}

#[test]
fn socket_faults_fail_one_exchange_not_the_daemon() {
    let path = socket_path("faults");
    let service = Arc::new(Service::new(ServiceOptions::default()));
    let server_thread = {
        let path = path.clone();
        let service = Arc::clone(&service);
        std::thread::spawn(move || server::serve(&path, service))
    };
    // Wait for the socket, then connect a client whose *own* fault handle
    // fails its first socket operation (`io@1`).
    connect_with_retry(&path);
    let faulty = FaultHandle::new(tie_fault::FaultPlan::parse("io@1").expect("fault plan"));
    let mut client = loop {
        if let Ok(c) = Client::connect(&path, faulty.clone()) {
            break c;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let err = client.request(&Request::Ping);
    assert!(err.is_err(), "first exchange must hit the injected fault");
    drop(client);

    // The fault is consume-once: a fresh connection with the same handle
    // works, and the daemon is still alive to answer it.
    let mut retry = connect_with_retry(&path);
    match retry.request(&Request::Ping) {
        Ok(Response::Pong { .. }) => {}
        other => panic!("daemon must survive a faulted client, got {other:?}"),
    }
    let _ = retry.request(&Request::Shutdown {
        mode: ShutdownMode::Drain,
    });
    drop(retry);
    server_thread
        .join()
        .expect("server thread")
        .expect("serve result");
}

#[test]
fn cancel_shutdown_fires_the_cancellation_token() {
    let path = socket_path("cancel");
    let service = Arc::new(Service::new(ServiceOptions::default()));
    let server_thread = {
        let path = path.clone();
        let service = Arc::clone(&service);
        std::thread::spawn(move || server::serve(&path, service))
    };
    let mut client = connect_with_retry(&path);
    match client.request(&Request::Shutdown {
        mode: ShutdownMode::Cancel,
    }) {
        Ok(Response::ShuttingDown { mode }) => assert_eq!(mode, "cancel"),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server_thread
        .join()
        .expect("server thread")
        .expect("serve result");
    assert!(
        service.cancel_token().is_cancelled(),
        "cancel mode must fire the service-wide token"
    );
}
