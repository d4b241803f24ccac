//! End-to-end service test over real TCP: two concurrent clients with
//! overlapping plans, then a resubmission — checking the acceptance
//! criteria directly: shared points simulate exactly once, streams are
//! byte-identical to an offline sweep, and a resubmitted plan is served
//! entirely from the cache.

use mot3d_bench::sink::{record_json_line, JsonLinesSink};
use mot3d_serve::client::submit;
use mot3d_serve::exec::PlanOutcome;
use mot3d_serve::{protocol, Fingerprint, PlanRequest, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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
        accept_limit: Some(4),
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
        // So is a key the server does not know, by name: an old
        // client's `"trace"` or a misspelled axis never runs the
        // default grid...
        for (line, key) in [
            ("{\"submit\": \"s\", \"trace\": true}", "\"trace\""),
            ("{\"submit\": \"s\", \"bnech\": \"fft\"}", "\"bnech\""),
        ] {
            let stream = TcpStream::connect(&addr).unwrap();
            writeln!(&stream, "{line}").unwrap();
            let reply: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
            assert_eq!(reply.len(), 1, "one error line, no records: {reply:?}");
            let err = protocol::parse_summary(&reply[0]).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
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

/// A client writer that, when the first record line is complete, notes
/// how many results the server's store holds at that moment.
struct StoredAtFirstRecord {
    results: PathBuf,
    newlines: usize,
    entries: Option<usize>,
}

impl Write for StoredAtFirstRecord {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.newlines += buf.iter().filter(|&&b| b == b'\n').count();
        if self.newlines >= 2 && self.entries.is_none() {
            let results = std::fs::read_to_string(&self.results).unwrap_or_default();
            self.entries = Some(results.lines().count());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A cold two-point plan on one worker: record 0 leaves the server
/// before point 1 is simulated, not with the summary. When the client
/// holds record 0, only point 0's result is in the store.
#[test]
fn a_cold_record_reaches_the_client_before_the_next_point_is_simulated() {
    let dir = scratch_dir("first-record");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        accept_limit: Some(1),
        fingerprint: Fingerprint::custom("e2e/6"),
        ..ServerConfig::new(&dir)
    };
    let server = config.bind().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let req = PlanRequest {
        bench: Some("volrend,radix".to_string()),
        dram: Some("63ns".to_string()),
        scale: Some("0.2".to_string()),
        ..PlanRequest::new("sweep")
    };
    let mut out = StoredAtFirstRecord {
        results: dir.join("results.jsonl"),
        newlines: 0,
        entries: None,
    };
    let outcome = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let outcome = submit(&addr, &req, &mut out).unwrap();
        handle.join().unwrap();
        outcome
    });
    assert_eq!((outcome.points, outcome.executed), (2, 2));
    assert_eq!(out.entries, Some(1), "results stored when record 0 arrived");
    std::fs::remove_dir_all(&dir).unwrap();
}
