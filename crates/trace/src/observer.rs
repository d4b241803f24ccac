//! The [`TraceObserver`]: turns cluster step samples into Chrome JSON
//! timeline tracks.
//!
//! One observer traces one run into one file. It plugs into the
//! simulator through [`mot3d_sim::observe::Observer`]. Every track
//! follows one rule: a sample walks the cluster's probe surface, shows
//! each track's current value, and writes an event only where the value
//! changed since the last sample — a span ends and the next begins, or
//! a counter takes its new value. Events go straight into the
//! [`TraceWriter`]'s fixed-size buffer, so the sample path allocates
//! nothing after the first sample registers the tracks
//! (`tests/no_alloc.rs` counts it).

use crate::chrome::TraceWriter;
use mot3d_sim::cluster::Cluster;
use mot3d_sim::observe::{InterconnectProbe, Observer};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Track-group (process) ids — the taxonomy README documents.
const CORES: u32 = 1;
const BANKS: u32 = 2;
const FABRIC: u32 = 3;
const BUS: u32 = 4;
const DRAM: u32 = 5;
const COUNTERS: u32 = 6;

/// The track groups, named in this order before any track.
const PROCESSES: [(u32, &str); 6] = [
    (CORES, "cores"),
    (BANKS, "l2-banks"),
    (FABRIC, "interconnect"),
    (BUS, "miss-bus"),
    (DRAM, "dram"),
    (COUNTERS, "counters"),
];

/// A bank track's value while its SRAM array is occupied.
const BUSY: Shown = Shown::Span("busy", None);

/// What a track shows at one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shown {
    /// Nothing: no span open, or a counter with no value yet.
    Idle,
    /// An open span with this name and an optional integer argument.
    Span(&'static str, Option<(&'static str, u64)>),
    /// An integer counter.
    Count(usize),
    /// A float counter, as its bits (so equal means bit-equal).
    Rate(u64),
}

/// A registered track: where its events land in the Chrome JSON, and
/// the value it last showed.
#[derive(Debug)]
struct Track {
    pid: u32,
    tid: u32,
    /// Counter name (counter events carry the track's name; span events
    /// carry their own).
    name: String,
    last: Shown,
}

/// What [`TraceObserver::finish`] reports back.
#[derive(Debug)]
pub struct TraceSummary {
    /// The written trace file.
    pub path: PathBuf,
    /// Total Chrome JSON events emitted (metadata included).
    pub events: u64,
    /// The last simulated cycle sampled.
    pub final_cycle: u64,
}

/// Traces one cluster run into one Perfetto-loadable file.
///
/// Create with [`TraceObserver::create`], pass to
/// [`Cluster::run_to_completion_with`] (or
/// [`mot3d_sim::run_spec_observed`]), then call
/// [`TraceObserver::finish`] to close open spans and seal the document.
///
/// [`Cluster::run_to_completion_with`]: mot3d_sim::Cluster::run_to_completion_with
#[derive(Debug)]
pub struct TraceObserver {
    writer: TraceWriter,
    /// Every track, in the order [`TraceObserver::walk`] visits them;
    /// registered by the first sample, when the cluster's shape (active
    /// cores, interconnect, gated banks) is known.
    tracks: Vec<Track>,
    /// The track the walk's next `show` belongs to.
    cursor: usize,
    last_ts: u64,
}

impl TraceObserver {
    /// Opens `path` for writing and prepares an idle observer.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<TraceObserver> {
        Ok(TraceObserver {
            writer: TraceWriter::create(path)?,
            tracks: Vec::new(),
            cursor: 0,
            last_ts: 0,
        })
    }

    /// Visits every track in track order with its pid, tid, name and
    /// current value. The first sample also runs the `REGISTER` instance,
    /// which appends and names each track; every other walk only shows
    /// values, and its instance builds no name.
    fn walk<const REGISTER: bool>(&mut self, c: &Cluster) {
        use Shown::{Count, Idle, Rate, Span};
        self.cursor = 0;
        for idx in 0..c.active_core_count() {
            let (phys, state) = (c.core_physical_id(idx), Span(c.core_label(idx), None));
            self.show::<REGISTER>(CORES, phys as u32, format_args!("core {phys}"), state);
        }
        for b in 0..c.bank_count() {
            let gated = if c.bank_powered(b) { "" } else { " (gated)" };
            let busy = if c.bank_busy(b) { BUSY } else { Idle };
            self.show::<REGISTER>(BANKS, b as u32, format_args!("bank {b}{gated}"), busy);
        }
        let (requests, responses) = match c.interconnect_probe() {
            InterconnectProbe::Mot(p) => {
                for level in 1..=p.routing_levels {
                    let active = Count(p.level_occupancy(level));
                    self.show::<REGISTER>(
                        FABRIC,
                        level,
                        format_args!("mot level {level} active switches"),
                        active,
                    );
                }
                (Count(p.transit_requests), Count(p.transit_responses))
            }
            InterconnectProbe::Noc(p) => {
                let (ports, buses) = (Count(p.busy_ports), Count(p.busy_buses));
                self.show::<REGISTER>(FABRIC, 1, format_args!("noc busy ports"), ports);
                self.show::<REGISTER>(FABRIC, 2, format_args!("noc busy buses"), buses);
                (Count(0), Count(0))
            }
        };
        self.show::<REGISTER>(FABRIC, 20, format_args!("transit requests"), requests);
        self.show::<REGISTER>(FABRIC, 21, format_args!("transit responses"), responses);
        let queued = Count(c.bus_queue_depth());
        self.show::<REGISTER>(BUS, 0, format_args!("queued transfers"), queued);
        let row = c
            .dram_open_row()
            .map_or(Idle, |r| Span("row open", Some(("row", r))));
        self.show::<REGISTER>(DRAM, 0, format_args!("row buffer"), row);
        let (hits, misses) = c.l2_hit_counts();
        let rate = Rate((hits as f64 / (hits + misses) as f64).to_bits());
        let rate = if hits + misses > 0 { rate } else { Idle };
        self.show::<REGISTER>(COUNTERS, 0, format_args!("L2 hit rate"), rate);
        let txs = Count(c.in_flight_transactions());
        self.show::<REGISTER>(COUNTERS, 1, format_args!("in-flight transactions"), txs);
        let wheel = Count(c.event_queue_depth());
        self.show::<REGISTER>(COUNTERS, 2, format_args!("event-wheel occupancy"), wheel);
    }

    /// Shows `value` on the walk's next track: writes the events that
    /// turn the track's last value into `value`, if they differ. A
    /// registering walk appends the track instead, showing nothing yet.
    #[inline(always)]
    fn show<const REGISTER: bool>(
        &mut self,
        pid: u32,
        tid: u32,
        name: fmt::Arguments<'_>,
        value: Shown,
    ) {
        if REGISTER {
            return self.register(pid, tid, name);
        }
        let track = &mut self.tracks[self.cursor];
        self.cursor += 1;
        if track.last == value {
            return;
        }
        let (w, ts, name) = (&mut self.writer, self.last_ts, &track.name);
        if let Shown::Span(..) = track.last {
            w.span_end(pid, tid, ts);
        }
        match value {
            Shown::Idle => {}
            Shown::Span(label, arg) => w.span_begin(pid, tid, ts, label, arg),
            Shown::Count(v) => w.counter_u64(pid, tid, ts, name, v as u64),
            Shown::Rate(bits) => w.counter_f64(pid, tid, ts, name, f64::from_bits(bits)),
        }
        track.last = value;
    }

    /// Appends an idle track and names it in the trace — the one place
    /// the observer allocates.
    #[cold]
    fn register(&mut self, pid: u32, tid: u32, name: fmt::Arguments<'_>) {
        let name = name.to_string();
        self.writer.thread_name(pid, tid, &name);
        self.tracks.push(Track {
            pid,
            tid,
            name,
            last: Shown::Idle,
        });
    }

    /// Closes every open span at the final cycle, seals the document,
    /// and returns the summary.
    ///
    /// # Errors
    ///
    /// Surfaces any write failure from the whole trace's lifetime.
    pub fn finish(mut self) -> io::Result<TraceSummary> {
        let ts = self.last_ts;
        for track in &self.tracks {
            if let Shown::Span(..) = track.last {
                self.writer.span_end(track.pid, track.tid, ts);
            }
        }
        let (path, events) = self.writer.finish()?;
        Ok(TraceSummary {
            path,
            events,
            final_cycle: ts,
        })
    }
}

impl Observer for TraceObserver {
    const ENABLED: bool = true;

    fn sample(&mut self, c: &Cluster) {
        if self.tracks.is_empty() {
            for (pid, name) in PROCESSES {
                self.writer.process_name(pid, name);
            }
            self.walk::<true>(c);
        }
        self.last_ts = c.now();
        self.walk::<false>(c);
    }
}
