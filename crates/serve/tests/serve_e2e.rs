//! End-to-end service test over real TCP: two concurrent clients with
//! overlapping plans, then a resubmission — checking the acceptance
//! criteria directly: shared points simulate exactly once, streams are
//! byte-identical to an offline sweep, and a resubmitted plan is served
//! entirely from the cache.

use mot3d_bench::sink::{record_json_line, JsonLinesSink};
use mot3d_serve::client::{submit, submit_with_retry, RetryPolicy};
use mot3d_serve::exec::PlanOutcome;
use mot3d_serve::{Fingerprint, PlanRequest, ServerConfig};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What `mot3d sweep --json` writes for `request`'s plan: header plus
/// one line per record, bytes the served stream must reproduce.
/// (`run_with` begins/finishes the sink itself.)
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

#[test]
fn overlapping_clients_share_work_and_resubmission_is_all_hits() {
    let dir = scratch_dir("overlap");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(2),
        accept_limit: Some(3),
        fingerprint: Fingerprint::custom("e2e/1"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();

    // Both plans contain fft + radix; client A adds fmm, client B adds
    // cholesky. The shared points must simulate exactly once even when
    // the submissions race.
    let req_a = request("fft,radix,fmm");
    let req_b = request("fft,radix,cholesky");

    let (out_a, out_b, out_rerun) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let addr_a = addr.clone();
        let ra = &req_a;
        let a = scope.spawn(move || {
            let mut bytes = Vec::new();
            let outcome = submit(&addr_a, ra, &mut bytes).unwrap();
            (outcome, bytes)
        });
        let addr_b = addr.clone();
        let rb = &req_b;
        let b = scope.spawn(move || {
            let mut bytes = Vec::new();
            let outcome = submit(&addr_b, rb, &mut bytes).unwrap();
            (outcome, bytes)
        });
        let out_a = a.join().unwrap();
        let out_b = b.join().unwrap();
        // Third connection: resubmit A's plan; the accept limit then
        // stops the server so `handle` joins.
        let mut bytes = Vec::new();
        let outcome = submit(&addr, &req_a, &mut bytes).unwrap();
        handle.join().unwrap();
        (out_a, out_b, (outcome, bytes))
    });

    // Acceptance: streams are byte-identical to the offline sweep.
    assert_eq!(out_a.1, offline_stream(&req_a), "client A stream");
    assert_eq!(out_b.1, offline_stream(&req_b), "client B stream");
    assert_eq!(out_rerun.1, out_a.1, "resubmission replays A's bytes");

    // Acceptance: each shared point simulated exactly once. 3 benches
    // per client, 2 shared: 4 distinct points in total.
    let (a, b) = (out_a.0, out_b.0);
    assert_eq!(a.points, 3);
    assert_eq!(b.points, 3);
    assert_eq!(
        a.executed + b.executed,
        4,
        "fft+radix simulated once, not twice: {a:?} {b:?}"
    );
    assert_eq!(
        a.hits + a.waited + b.hits + b.waited,
        2,
        "the shared points were deduped or cached: {a:?} {b:?}"
    );

    // Acceptance: the resubmission is fully cached.
    assert_eq!(
        out_rerun.0,
        PlanOutcome {
            points: 3,
            hits: 3,
            waited: 0,
            executed: 0,
            failed: 0,
        },
        "second submission: hits == point count, zero executions"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_submissions_get_a_wire_error_and_the_server_survives() {
    let dir = scratch_dir("errors");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(2),
        fingerprint: Fingerprint::custom("e2e/2"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        // An invalid axis value is rejected over the wire...
        let bad = PlanRequest {
            bench: Some("nonesuch".to_string()),
            ..PlanRequest::new("bad")
        };
        let mut sink = Vec::new();
        let err = submit(&addr, &bad, &mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("nonesuch"), "{err}");
        assert!(sink.is_empty(), "no records before the error");
        // ...and the server still serves the next client.
        let good = request("fft");
        let outcome = submit(&addr, &good, &mut Vec::new()).unwrap();
        assert_eq!(outcome.points, 1);
        handle.join().unwrap();
    });

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A plan past `MAX_PLAN_POINTS` is refused before anything allocates
/// its points: the client gets the typed error line, and the same
/// server then serves a valid submission.
#[test]
fn a_plan_size_bomb_is_rejected_and_the_server_survives() {
    let dir = scratch_dir("bomb");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(2),
        fingerprint: Fingerprint::custom("e2e/5"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let bomb = PlanRequest {
            repeat: Some(u32::MAX),
            ..PlanRequest::new("bomb")
        };
        let mut sink = Vec::new();
        let err = submit(&addr, &bomb, &mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("more than"), "{err}");
        assert!(sink.is_empty(), "no records before the error");
        let outcome = submit(&addr, &request("fft"), &mut Vec::new()).unwrap();
        assert_eq!(outcome.points, 1);
        handle.join().unwrap();
    });

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The served stream for a single submission equals the offline sweep
/// even with repeats and a seed override in play.
#[test]
fn seeded_repeat_submissions_match_offline_sweeps() {
    let dir = scratch_dir("seeded");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(2),
        accept_limit: Some(1),
        fingerprint: Fingerprint::custom("e2e/3"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = PlanRequest {
        bench: Some("fft".to_string()),
        page: Some("both".to_string()),
        repeat: Some(2),
        seed: Some(42),
        scale: Some("tiny".to_string()),
        ..PlanRequest::new("sweep")
    };
    let bytes = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut bytes = Vec::new();
        let outcome = submit(&addr, &req, &mut bytes).unwrap();
        handle.join().unwrap();
        assert_eq!(outcome.points, 4, "2 pages × 2 repeats");
        bytes
    });
    assert_eq!(bytes, offline_stream(&req));
    // Sanity: the offline baseline itself is what record_json_line
    // produces per record (guards against an accidentally empty
    // comparison).
    let text = String::from_utf8(bytes).unwrap();
    let plan = req.to_plan().unwrap();
    let records = plan.run_with(&mut [], |_, _, _| {}).unwrap();
    for record in &records {
        assert!(
            text.contains(&record_json_line(record)),
            "{}",
            record.point.label()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `"trace": true` submission streams the same record bytes as the
/// untraced plan, reports its server-side trace directory in the
/// summary, and leaves one Perfetto-loadable file per point behind —
/// all without touching the result cache.
#[test]
fn traced_submissions_stream_identical_bytes_and_leave_trace_files() {
    let dir = scratch_dir("traced");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(2),
        fingerprint: Fingerprint::custom("e2e/4"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let untraced = PlanRequest {
        bench: Some("fft".to_string()),
        power_state: Some("full,pc16-mb8".to_string()),
        scale: Some("tiny".to_string()),
        ..PlanRequest::new("sweep")
    };
    let traced = PlanRequest {
        trace: true,
        ..untraced.clone()
    };

    let (traced_out, untraced_out) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut traced_bytes = Vec::new();
        let report =
            submit_with_retry(&addr, &traced, &mut traced_bytes, RetryPolicy::default()).unwrap();
        let mut untraced_bytes = Vec::new();
        let outcome = submit(&addr, &untraced, &mut untraced_bytes).unwrap();
        handle.join().unwrap();
        ((report, traced_bytes), (outcome, untraced_bytes))
    });

    // Tracing is observation-only: the served record stream is
    // byte-identical to the untraced (and offline) one.
    assert_eq!(traced_out.1, untraced_out.1, "traced vs untraced stream");
    assert_eq!(traced_out.1, offline_stream(&traced), "traced vs offline");

    // The traced submission ran fresh — no cache interaction — so the
    // following untraced submission still had to execute everything.
    let report = traced_out.0;
    assert_eq!(report.outcome.points, 2);
    assert_eq!(report.outcome.executed, 2);
    assert_eq!(report.outcome.hits, 0);
    assert_eq!(untraced_out.0.executed, 2, "traced run did not cache");

    // One Perfetto-loadable file per point in the reported directory.
    let trace_dir = PathBuf::from(report.trace_dir.expect("summary carries trace_dir"));
    assert!(trace_dir.starts_with(&dir), "{}", trace_dir.display());
    let mut files: Vec<_> = std::fs::read_dir(&trace_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "{files:?}");
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"));
        assert!(text.ends_with("\n]}\n"));
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
