//! The `mot3d submit` side: send one request, relay the stream — and
//! retry it when the connection dies under the submission.
//!
//! Resubmission is **idempotent**: every point the server completed on
//! an earlier attempt replays from its result cache, so the retried
//! stream is byte-identical to what an uninterrupted submission would
//! have produced. When it may retry, [`submit_with_retry`] buffers each
//! attempt and only copies the *successful* attempt to the caller's
//! writer, so a stream that dies halfway never leaves half-written
//! output behind; a single attempt streams like [`submit`].

use crate::exec::PlanOutcome;
use crate::protocol::{self, PlanRequest};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How [`submit_with_retry`] reacts to a dead connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (`0` = a single attempt).
    pub retries: u32,
    /// Delay before the first retry; doubles each further retry
    /// (exponential backoff).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// No retries — [`submit`] semantics.
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff: Duration::from_millis(200),
        }
    }
}

/// Whether a failed attempt is worth retrying: connection-shaped
/// errors are; a server-side rejection (`InvalidInput`) never is —
/// the request would just be rejected again.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Submits `request` to the server at `addr`, copying the header and
/// every record line (newline included) to `out` as they arrive. The
/// terminal summary line is consumed, not copied — `out` ends up with
/// exactly the bytes `mot3d sweep --json` would have written.
///
/// # Errors
///
/// Fails on connection errors, a server-reported `{"error": ...}` line
/// (as `InvalidInput`), or a stream that ends without a summary.
pub fn submit(addr: &str, request: &PlanRequest, out: &mut impl Write) -> io::Result<PlanOutcome> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", request.to_line())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    // One buffer for every line; it is split like `BufRead::lines` does.
    let mut line = Vec::new();
    while reader.read_until(b'\n', &mut line)? > 0 {
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        match classify(text) {
            Ok(None) => {
                line.push(b'\n');
                out.write_all(&line)?;
                line.clear();
            }
            Ok(Some(outcome)) => {
                out.flush()?;
                return Ok(outcome);
            }
            Err(msg) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("server rejected the submission: {msg}"),
                ));
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection before the summary line",
    ))
}

/// [`protocol::parse_summary`] without the parse for record lines: every
/// one starts with the prefix `sink::record_json_line` writes and has no
/// top-level `done`, `error` or `failed` member, so it is a stream line
/// as it stands. Header, failure, error and summary lines are parsed.
fn classify(line: &str) -> Result<Option<PlanOutcome>, String> {
    if line.starts_with("{\"index\": ") {
        Ok(None)
    } else {
        protocol::parse_summary(line)
    }
}

/// [`submit`] with resubmission-on-disconnect: up to `policy.retries`
/// extra attempts with exponential backoff, each buffered so `out`
/// receives only the one complete, successful stream. Completed points
/// replay from the server's cache, so the result is byte-identical to
/// an uninterrupted run. With no retries there is nothing to repeat, so
/// lines reach `out` as they arrive, as with [`submit`]. This is what
/// `mot3d submit` calls; the default policy is a single attempt.
///
/// # Errors
///
/// Fails with the last attempt's error once the policy is exhausted,
/// or immediately on a non-retryable error (a server rejection).
pub fn submit_with_retry(
    addr: &str,
    request: &PlanRequest,
    out: &mut impl Write,
    policy: RetryPolicy,
) -> io::Result<PlanOutcome> {
    if policy.retries == 0 {
        return submit(addr, request, out);
    }
    let mut delay = policy.backoff;
    let mut failed = 0u32;
    loop {
        let mut buffered: Vec<u8> = Vec::new();
        match submit(addr, request, &mut buffered) {
            Ok(outcome) => {
                out.write_all(&buffered)?;
                out.flush()?;
                return Ok(outcome);
            }
            Err(e) if retryable(&e) && failed < policy.retries => {
                failed += 1;
                eprintln!(
                    "mot3d submit: attempt {failed} failed ({e}); retrying in {} ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
                delay = delay.checked_mul(2).unwrap_or(delay);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Asks the server at `addr` for a graceful shutdown: stop accepting,
/// drain in-flight submissions, exit 0 (the store has nothing to flush:
/// each result is written when it is stored). Returns once
/// the server has *acknowledged* the request (the drain itself may
/// outlive this call).
///
/// # Errors
///
/// Fails on connection errors or a missing/garbled acknowledgement.
pub fn shutdown(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", protocol::SHUTDOWN_LINE)?;
    writer.flush()?;
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack)?;
    if protocol::is_shutdown(ack.trim_end_matches(['\n', '\r'])) {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("server did not acknowledge the shutdown: {ack:?}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejections_are_not_retryable_but_disconnects_are() {
        assert!(!retryable(&io::Error::new(
            io::ErrorKind::InvalidInput,
            "x"
        )));
        assert!(retryable(&io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "x"
        )));
        assert!(retryable(&io::Error::new(
            io::ErrorKind::ConnectionReset,
            "x"
        )));
        assert!(retryable(&io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "x"
        )));
    }

    /// The record-line fast path decides exactly what the full parse
    /// would, on every line of a real served stream (header, records,
    /// summary) and on the failure and rejection lines.
    #[test]
    fn the_record_fast_path_classifies_like_parse_summary() {
        use crate::{Fingerprint, ServerConfig};
        let dir = std::env::temp_dir().join(format!("mot3d-client-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: Some(1),
            accept_limit: Some(1),
            fingerprint: Fingerprint::custom("client/1"),
            ..ServerConfig::new(&dir)
        };
        let server = config.bind().unwrap();
        let addr = server.local_addr().unwrap();
        let served = std::thread::spawn(move || server.run());
        let stream = TcpStream::connect(addr).unwrap();
        let request = PlanRequest {
            bench: Some("fft,radix".to_string()),
            dram: Some("63ns".to_string()),
            scale: Some("tiny".to_string()),
            ..PlanRequest::new("sweep")
        };
        writeln!(&stream, "{}", request.to_line()).unwrap();
        let mut lines: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
        served.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(lines.len(), 4, "header, two records, summary: {lines:?}");
        let records = lines
            .iter()
            .filter(|l| l.starts_with("{\"index\": "))
            .count();
        assert_eq!(records, 2, "the fast path sees every record line");
        assert!(matches!(classify(&lines[3]), Ok(Some(o)) if o.points == 2));
        lines.push(protocol::error_line("boom"));
        lines.push(protocol::failed_line("fft @ mot3d", "injected fault"));
        for line in &lines {
            assert_eq!(classify(line), protocol::parse_summary(line), "{line}");
        }
    }

    /// Counts newlines written and reports the second one: the end of
    /// the first record line after the header.
    struct FirstRecord {
        lines: usize,
        seen: std::sync::mpsc::Sender<()>,
    }

    impl Write for FirstRecord {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.lines += buf.iter().filter(|&&b| b == b'\n').count();
            if self.lines >= 2 {
                let _ = self.seen.send(());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A hand-rolled server sends the header and one record, and the
    /// summary only once the client's writer has that record (or after
    /// a bounded wait): a single attempt must relay it before the
    /// stream ends.
    #[test]
    fn a_single_attempt_relays_each_line_as_it_arrives() {
        use crate::store::StoreStats;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (seen, relayed) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(&stream)
                .read_line(&mut String::new())
                .unwrap();
            let mut w = &stream;
            writeln!(w, "{{\"plan\": \"sweep\", \"points\": 1}}").unwrap();
            writeln!(w, "{{\"index\": 0, \"workload\": \"fft\"}}").unwrap();
            let in_time = relayed.recv_timeout(Duration::from_secs(10)).is_ok();
            let outcome = PlanOutcome {
                points: 1,
                executed: 1,
                ..PlanOutcome::default()
            };
            writeln!(
                w,
                "{}",
                protocol::summary_line(outcome, StoreStats::default(), None)
            )
            .unwrap();
            in_time
        });
        let mut out = FirstRecord { lines: 0, seen };
        let outcome = submit_with_retry(
            &addr,
            &PlanRequest::new("sweep"),
            &mut out,
            RetryPolicy::default(),
        )
        .unwrap();
        assert!(
            server.join().unwrap(),
            "the record reached `out` only with the summary"
        );
        assert_eq!((outcome.points, out.lines), (1, 2));
    }

    /// A stream line that is not UTF-8 fails the submission as
    /// `InvalidData`, never reaching `out`.
    #[test]
    fn a_line_that_is_not_utf8_is_invalid_data() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(&stream)
                .read_line(&mut String::new())
                .unwrap();
            (&stream)
                .write_all(b"{\"index\": 0, \"workload\": \"\xff\"}\n")
                .unwrap();
        });
        let mut out = Vec::new();
        let err = submit(&addr, &PlanRequest::new("sweep"), &mut out).unwrap_err();
        server.join().unwrap();
        assert_eq!((err.kind(), out.len()), (io::ErrorKind::InvalidData, 0));
    }

    #[test]
    fn default_policy_is_single_shot() {
        let p = RetryPolicy::default();
        assert_eq!(p.retries, 0);
        assert!(p.backoff > Duration::ZERO);
    }
}
