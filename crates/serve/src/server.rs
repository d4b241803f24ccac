//! The TCP accept loop behind `mot3d serve`.
//!
//! One thread per connection, at most [`CONNECTIONS_PER_WORKER`] times
//! the worker count live at once (the kernel backlog holds the rest);
//! every connection shares the process-wide
//! [`CachedExecutor`], so concurrent clients dedupe against the same
//! store and in-flight table. The response stream is written by the
//! bench crate's [`JsonLinesSink`], and each record line is built from
//! the same head and tail writers as `record_json_line`, which keeps
//! served bytes identical to offline `mot3d sweep --json` output. It
//! goes through a buffer that is flushed whenever the submission is
//! about to wait on a simulation, so a record never waits behind later
//! ones, and a run of hits still leaves in whole buffers.
//!
//! ## Connection hygiene & shutdown
//!
//! Every accepted socket gets read/write deadlines (an idle client
//! holding a connection open is dropped, a stalled reader cannot wedge
//! a worker forever), a panicking connection thread is caught and
//! logged without taking the accept loop down, and two events start a
//! **graceful drain** — the accept limit, and a client sending the
//! [`protocol::SHUTDOWN_LINE`] control request: the listener stops
//! accepting, every in-flight submission runs to completion, and
//! [`serve`] returns so the process exits 0.
//!
//! [`JsonLinesSink`]: mot3d_bench::sink::JsonLinesSink

use crate::codec::Fingerprint;
use crate::exec::{CachedExecutor, Outcomes, PointOutcome};
use crate::fault::{FaultSite, Faults};
use crate::protocol::{self, PlanRequest};
use crate::store::ResultStore;
use crate::sync::{lock_recover, wait_recover};
use mot3d_bench::pool;
use mot3d_bench::sink::{JsonLinesSink, PlanMeta, RecordSink};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Per-read deadline of every accepted socket: an idle client that
/// never sends its request line is dropped after this long.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-write deadline of every accepted socket: a client that stops
/// draining its response stream is dropped once one write blocks this
/// long.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Live connections per resolved worker. At this many times the worker
/// count the accept loop stops accepting, and the kernel backlog holds
/// the connections that arrive meanwhile.
pub const CONNECTIONS_PER_WORKER: usize = 4;

/// Everything `serve` needs to come up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (printed to stderr).
    pub addr: String,
    /// Result-store directory.
    pub cache_dir: PathBuf,
    /// Worker threads per submission (`None`: the pool decides).
    pub threads: Option<usize>,
    /// Vestigial: nothing in this crate reads it. It capped each worker's
    /// per-configuration cluster cache; a worker now keeps exactly one
    /// re-targetable cluster ([`mot3d_sim::ClusterPool`]). The field and
    /// its `Some(32)` default stay while `benchmark/` reads them to size
    /// its staged mirror of that old cache, and go with the `benchmark`
    /// change that re-mirrors the staged pass.
    pub pool_capacity: Option<usize>,
    /// Exit after this many successfully accepted connections (CI
    /// smoke tests); `None` runs until shut down or killed.
    pub accept_limit: Option<u64>,
    /// Deterministic fault injection ([`Faults::none`] in production).
    pub faults: Faults,
    /// Cache-key fingerprint (tests override it to segregate stores).
    pub fingerprint: Fingerprint,
}

impl ServerConfig {
    /// The default configuration over `cache_dir`: loopback port 4016,
    /// pool-resolved threads, no accept limit, no fault injection.
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:4016".to_string(),
            cache_dir: cache_dir.into(),
            threads: None,
            pool_capacity: Some(32),
            accept_limit: None,
            faults: Faults::none(),
            fingerprint: Fingerprint::current(),
        }
    }
}

/// A bound-but-not-yet-serving server: [`ServerConfig::bind`] returns
/// one so callers (tests, scripts binding port 0) can learn the actual
/// address before the accept loop starts.
#[derive(Debug)]
pub struct BoundServer {
    listener: TcpListener,
    exec: CachedExecutor,
    accept_limit: Option<u64>,
    max_live: usize,
}

impl ServerConfig {
    /// Opens the store and binds the listen socket.
    ///
    /// # Errors
    ///
    /// Fails when the store cannot open or the address cannot bind.
    pub fn bind(&self) -> io::Result<BoundServer> {
        let mut store = ResultStore::open(&self.cache_dir)?;
        store.set_faults(self.faults.clone());
        let mut exec = CachedExecutor::new(store, self.fingerprint.clone(), self.threads);
        exec.set_faults(self.faults.clone());
        Ok(BoundServer {
            listener: TcpListener::bind(&self.addr)?,
            exec,
            accept_limit: self.accept_limit,
            max_live: CONNECTIONS_PER_WORKER
                * self
                    .threads
                    .unwrap_or_else(|| pool::worker_threads(usize::MAX)),
        })
    }
}

/// Tracks the `--accept-limit` budget. Only *successful* accepts spend
/// a slot — a transient accept error must not silently consume a smoke
/// test's connection budget.
#[derive(Debug, Clone, Copy)]
struct AcceptBudget {
    limit: Option<u64>,
    accepted: u64,
}

impl AcceptBudget {
    fn new(limit: Option<u64>) -> Self {
        AcceptBudget { limit, accepted: 0 }
    }

    /// Records one successful accept; true when the budget is spent.
    fn spend(&mut self) -> bool {
        self.accepted += 1;
        self.limit.is_some_and(|limit| self.accepted >= limit)
    }
}

impl BoundServer {
    /// The actual listen address (resolves a port-0 bind).
    ///
    /// # Errors
    ///
    /// Propagates the socket's address lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until the accept limit is reached or a
    /// shutdown request arrives, then drains: every connection thread
    /// joins before this returns. One thread per connection, at most
    /// [`CONNECTIONS_PER_WORKER`] per worker at a time; per-connection
    /// I/O errors (and even panics) are reported to stderr and do not
    /// stop the server.
    pub fn run(self) {
        let shutdown = AtomicBool::new(false);
        let mut budget = AcceptBudget::new(self.accept_limit);
        let (live, freed) = (Mutex::new(0), Condvar::new());
        std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break; // likely our own wake-up connection
                }
                match conn {
                    Ok(stream) => {
                        let exec = &self.exec;
                        let listener = &self.listener;
                        let (shutdown, live, freed) = (&shutdown, &live, &freed);
                        *lock_recover(live) += 1;
                        scope.spawn(move || {
                            let peer = peer_label(&stream);
                            let outcome = catch_unwind(AssertUnwindSafe(|| handle(exec, stream)));
                            match outcome {
                                Ok(Ok(Handled::Shutdown)) => {
                                    eprintln!("mot3d serve: shutdown requested by {peer}");
                                    shutdown.store(true, Ordering::SeqCst);
                                    wake_accept_loop(listener);
                                }
                                Ok(Ok(Handled::Served)) => {}
                                Ok(Err(e)) => eprintln!("mot3d serve: {peer}: {e}"),
                                Err(_) => {
                                    eprintln!("mot3d serve: {peer}: connection thread panicked")
                                }
                            }
                            *lock_recover(live) -= 1;
                            freed.notify_one();
                        });
                        if budget.spend() {
                            break;
                        }
                        // At the cap, the next connection waits in the
                        // kernel backlog until a live one closes.
                        let mut n = lock_recover(live);
                        while *n >= self.max_live {
                            n = wait_recover(freed, n);
                        }
                    }
                    Err(e) => eprintln!("mot3d serve: accept failed: {e}"),
                }
            }
            // Scope join == drain: every accepted connection (including
            // the one that requested shutdown) finishes its stream.
        });
    }
}

/// Runs the service until the accept limit is reached or a shutdown
/// request drains it. Prints the bound address to stderr as
/// `mot3d serve: listening on <addr>` — tests and scripts binding
/// port 0 parse that line.
///
/// # Errors
///
/// Fails when the store cannot open or the address cannot bind.
pub fn serve(config: &ServerConfig) -> io::Result<()> {
    let server = config.bind()?;
    eprintln!(
        "mot3d serve: listening on {} (cache: {}{})",
        server.local_addr()?,
        config.cache_dir.display(),
        if config.faults.is_active() {
            ", FAULT INJECTION ACTIVE"
        } else {
            ""
        }
    );
    server.run();
    eprintln!("mot3d serve: drained, exiting");
    Ok(())
}

fn peer_label(stream: &TcpStream) -> String {
    stream.peer_addr().map_or_else(
        |_| "<unknown peer>".to_string(),
        |a: SocketAddr| a.to_string(),
    )
}

/// Unblocks an accept loop parked in `accept(2)` by dialing it once.
/// An unspecified bind address (0.0.0.0/::) is not dialable, so the
/// wake-up targets the matching loopback instead.
fn wake_accept_loop(listener: &TcpListener) {
    let Ok(mut addr) = listener.local_addr() else {
        return;
    };
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    // A refused dial means the loop is no longer parked — fine either way.
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// How one connection concluded.
enum Handled {
    /// A submission (or a rejection) was streamed.
    Served,
    /// The client requested a graceful shutdown (already acknowledged).
    Shutdown,
}

/// Serves one connection: read a request line, stream the response.
fn handle(exec: &CachedExecutor, stream: TcpStream) -> io::Result<Handled> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut out = BufWriter::new(stream);
    let trimmed = line.trim_end_matches(['\n', '\r']);
    if protocol::is_shutdown(trimmed) {
        writeln!(out, "{}", protocol::SHUTDOWN_LINE)?;
        out.flush()?;
        return Ok(Handled::Shutdown);
    }
    match respond(exec, trimmed, &mut out) {
        Ok(()) => {}
        // The client sees the reason; the server stays up.
        Err(Reject::Client(msg)) => writeln!(out, "{}", protocol::error_line(&msg))?,
        Err(Reject::Io(e)) => return Err(e),
    }
    out.flush()?;
    Ok(Handled::Served)
}

/// Why a submission produced no record stream.
enum Reject {
    /// The request was invalid — reportable over the wire.
    Client(String),
    /// The connection or store failed — only loggable.
    Io(io::Error),
}

impl From<io::Error> for Reject {
    fn from(e: io::Error) -> Self {
        Reject::Io(e)
    }
}

/// Answers one submission line. This is the only response path: every
/// point goes through the executor's store, in-flight table and pool.
fn respond(
    exec: &CachedExecutor,
    request_line: &str,
    out: &mut BufWriter<TcpStream>,
) -> Result<(), Reject> {
    if request_line.is_empty() {
        return Err(Reject::Client("empty request".to_string()));
    }
    let request = PlanRequest::parse(request_line).map_err(Reject::Client)?;
    let plan = request.to_plan().map_err(Reject::Client)?;
    if let Err(msg) = plan.check() {
        return Err(Reject::Client(msg));
    }
    let scale = request.resolved_scale().map_err(Reject::Client)?;
    // The header + records must be the exact bytes `mot3d sweep --json`
    // writes, so the same sink serialises them.
    let mut stream = Streamed {
        sink: JsonLinesSink::new(&mut *out),
        faults: exec.faults().clone(),
    };
    stream.sink.begin(&PlanMeta {
        plan: &request.name,
        points: plan.len(),
        scale: scale.scale,
        seed: scale.seed,
    })?;
    let outcome = exec.run_plan(&plan, &mut stream)?;
    stream.sink.finish()?;
    writeln!(
        out,
        "{}",
        protocol::summary_line(outcome, exec.store_stats(), None)
    )?;
    Ok(())
}

/// A submission's response stream: records and failure lines go into
/// the socket's buffer, which is flushed whenever the submission is
/// about to wait on a simulation.
struct Streamed<'a> {
    sink: JsonLinesSink<&'a mut BufWriter<TcpStream>>,
    faults: Faults,
}

impl Outcomes for Streamed<'_> {
    fn outcome(&mut self, po: &PointOutcome) -> io::Result<()> {
        // An injected mid-stream drop: the line is *not* written and
        // the connection dies, exactly like a yanked network cable.
        if self.faults.should_fail(FaultSite::StreamWrite) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected fault: stream drop",
            ));
        }
        match po {
            PointOutcome::Record(line) => self.sink.raw_line(line),
            PointOutcome::Failed { label, error } => {
                self.sink.raw_line(&protocol::failed_line(label, error))
            }
        }
    }

    fn idle(&mut self) -> io::Result<()> {
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--accept-limit` regression: the budget is only ever charged
    /// for successful accepts (the `spend` call sits inside the
    /// `Ok(stream)` arm of the accept loop), so a burst of transient
    /// accept errors can no longer eat a smoke test's connection
    /// budget. This pins the counting itself.
    #[test]
    fn accept_budget_spends_one_slot_per_successful_accept() {
        let mut budget = AcceptBudget::new(Some(3));
        assert!(!budget.spend());
        assert!(!budget.spend());
        assert!(budget.spend(), "third successful accept exhausts limit 3");
        assert!(budget.spend(), "an exhausted budget stays exhausted");
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut budget = AcceptBudget::new(None);
        for _ in 0..1000 {
            assert!(!budget.spend());
        }
    }

    #[test]
    fn default_config_has_socket_deadlines_and_no_faults() {
        let dir = std::env::temp_dir().join(format!("mot3d-deadlines-{}", std::process::id()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::new(&dir)
        };
        assert!(!config.faults.is_active());
        let server = config.bind().unwrap();
        let mut client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let (stream, _) = server.listener.accept().unwrap();
        // A second handle on the accepted socket: what `handle` sets on
        // its own shows here.
        let accepted = stream.try_clone().unwrap();
        writeln!(client).unwrap(); // an empty request is rejected, and served
        assert!(matches!(handle(&server.exec, stream), Ok(Handled::Served)));
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert_eq!(accepted.write_timeout().unwrap(), Some(WRITE_TIMEOUT));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
