//! Chaos suite: deterministic fault injection driving the service's
//! recovery machinery end to end.
//!
//! Everything here is *scheduled* chaos — a [`FaultPlan`] names exact
//! operation indices, so each test pins exact recovery behavior: a
//! poisoned flight is taken over exactly once, a dropped stream is
//! retried to a byte-identical result, a shutdown request drains and
//! flushes.

use mot3d_bench::sink::JsonLinesSink;
use mot3d_serve::client::{self, submit_with_retry};
use mot3d_serve::server::CONNECTIONS_PER_WORKER;
use mot3d_serve::{FaultPlan, FaultSite, Faults, Fingerprint, PlanRequest, ServerConfig};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The bytes `mot3d sweep --json` writes for `request`'s plan — the
/// stream every recovered submission must reproduce exactly.
fn offline_stream(request: &PlanRequest) -> Vec<u8> {
    let plan = request.to_plan().unwrap();
    let mut out = Vec::new();
    let mut sink = JsonLinesSink::new(&mut out);
    let records = plan.run_with(&mut [&mut sink], |_, _, _| {}).unwrap();
    assert_eq!(records.len(), plan.len());
    out
}

fn request(benches: &str) -> PlanRequest {
    PlanRequest {
        bench: Some(benches.to_string()),
        dram: Some("63ns".to_string()),
        scale: Some("tiny".to_string()),
        ..PlanRequest::new("sweep")
    }
}

/// The tentpole acceptance test: three clients race the same plan while
/// the very first point execution is shot down. The owner's flight is
/// poisoned, exactly one thread takes over the re-run, and every client
/// still receives the full, byte-identical stream with zero failed
/// records.
#[test]
fn racing_waiters_take_over_a_poisoned_flight_exactly_once() {
    let dir = scratch_dir("takeover");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(2),
        accept_limit: Some(3),
        fingerprint: Fingerprint::custom("chaos/1"),
        faults: Faults::plan(FaultPlan::new().fail(FaultSite::PointRun, 0)),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = request("fft,radix");
    let points = req.to_plan().unwrap().len() as u64;

    let outcomes = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let req = &req;
                scope.spawn(move || {
                    let mut bytes = Vec::new();
                    let outcome = client::submit(&addr, req, &mut bytes).unwrap();
                    (outcome, bytes)
                })
            })
            .collect();
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        handle.join().unwrap();
        outcomes
    });

    let expected = offline_stream(&req);
    for (i, (outcome, bytes)) in outcomes.iter().enumerate() {
        assert_eq!(outcome.points, points, "client {i}");
        assert_eq!(outcome.failed, 0, "client {i}: the takeover recovered");
        assert_eq!(*bytes, expected, "client {i}: stream is byte-identical");
    }
    // Exactly-once re-execution: `executed` counts attempts, so the
    // one injected failure adds exactly one takeover re-run on top of
    // the per-point executions — never two, never zero.
    let attempts: u64 = outcomes.iter().map(|(o, _)| o.executed).sum();
    assert_eq!(attempts, points + 1, "one poisoning, one takeover");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mid-stream socket drop is retried to a byte-identical result: the
/// second record write is replaced by a connection reset, the client's
/// retry policy resubmits, and the replayed stream (now entirely from
/// the cache) matches an uninterrupted offline sweep exactly.
#[test]
fn a_dropped_stream_is_retried_to_a_byte_identical_result() {
    let dir = scratch_dir("retry");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(2),
        fingerprint: Fingerprint::custom("chaos/2"),
        faults: Faults::plan(FaultPlan::new().fail(FaultSite::StreamWrite, 1)),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = request("fft,radix");

    let (outcome, bytes) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut bytes = Vec::new();
        let policy = client::RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(10),
        };
        let outcome = submit_with_retry(&addr, &req, &mut bytes, policy).unwrap();
        handle.join().unwrap();
        (outcome, bytes)
    });

    assert_eq!(bytes, offline_stream(&req), "retried stream drifted");
    assert_eq!(outcome.failed, 0);
    assert_eq!(
        outcome.hits, outcome.points,
        "the retry replays entirely from the cache"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Store-write faults must not fail a submission *or* poison the cache:
/// the results are served uncached, and a later submission (to a fresh
/// server over the same directory) simply re-executes them.
#[test]
fn store_faults_degrade_to_uncached_service() {
    let dir = scratch_dir("store");
    let faulted = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(1),
        fingerprint: Fingerprint::custom("chaos/3"),
        faults: Faults::plan(
            FaultPlan::new()
                .fail(FaultSite::StoreWrite, 0)
                .fail(FaultSite::StoreWrite, 1),
        ),
        ..ServerConfig::new(&dir)
    };
    let server = faulted.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = request("fft,radix");

    let (outcome, bytes) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut bytes = Vec::new();
        let outcome = client::submit(&addr, &req, &mut bytes).unwrap();
        handle.join().unwrap();
        (outcome, bytes)
    });
    assert_eq!(outcome.failed, 0, "store faults never fail the plan");
    assert_eq!(bytes, offline_stream(&req));

    // Same directory, healthy server: nothing was cached, so the
    // resubmission re-executes (and this time the writes stick).
    let healthy = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(1),
        fingerprint: Fingerprint::custom("chaos/3"),
        ..ServerConfig::new(&dir)
    };
    let server = healthy.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (outcome, bytes) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut bytes = Vec::new();
        let outcome = client::submit(&addr, &req, &mut bytes).unwrap();
        handle.join().unwrap();
        (outcome, bytes)
    });
    assert_eq!(outcome.hits, 0, "faulted writes left no cache entries");
    assert_eq!(outcome.executed, outcome.points);
    assert_eq!(bytes, offline_stream(&req), "uncached != wrong");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The graceful-shutdown contract: a `{"shutdown": true}` control
/// request is acknowledged, the accept loop drains, `run` returns, and
/// the flushed store serves the next server's submissions from cache.
#[test]
fn shutdown_request_drains_and_flushes_the_store() {
    let dir = scratch_dir("shutdown");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        fingerprint: Fingerprint::custom("chaos/4"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = request("fft");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let outcome = client::submit(&addr, &req, &mut Vec::new()).unwrap();
        assert_eq!(outcome.executed, outcome.points);
        client::shutdown(&addr).unwrap();
        // `run` returning *is* the drain guarantee — without the
        // shutdown the accept loop (no accept limit here) never exits.
        handle.join().unwrap();
    });

    // The flush made it to disk: a fresh server over the same directory
    // serves the plan entirely from cache.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(1),
        fingerprint: Fingerprint::custom("chaos/4"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let outcome = client::submit(&addr, &req, &mut Vec::new()).unwrap();
        handle.join().unwrap();
        assert_eq!(outcome.hits, outcome.points, "the shutdown flushed");
    });

    std::fs::remove_dir_all(&dir).unwrap();
}

/// At the live-connection cap the accept loop leaves the next
/// connection in the kernel backlog: a submission behind a cap's worth
/// of idle sockets is served only once one of them closes, and then
/// byte-identically to the offline stream.
#[test]
fn a_submission_past_the_connection_cap_waits_for_a_free_slot() {
    let dir = scratch_dir("cap");
    let cap = CONNECTIONS_PER_WORKER; // times one worker
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(cap as u64 + 1),
        fingerprint: Fingerprint::custom("chaos/5"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = request("fft");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut idle: Vec<TcpStream> = (0..cap)
            .map(|_| TcpStream::connect(&addr).unwrap())
            .collect();
        let (tx, rx) = mpsc::channel();
        let (addr, req) = (&addr, &req);
        scope.spawn(move || {
            let mut bytes = Vec::new();
            let outcome = client::submit(addr, req, &mut bytes);
            let _ = tx.send(outcome.map(|_| bytes));
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(500)).is_err(),
            "served past the connection cap"
        );
        drop(idle.pop());
        let bytes = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a closed idle socket frees a slot")
            .unwrap();
        assert_eq!(bytes, offline_stream(req));
        drop(idle);
        handle.join().unwrap();
    });

    std::fs::remove_dir_all(&dir).unwrap();
}
