//! The [`TraceObserver`]: turns cluster step samples into Chrome JSON
//! timeline tracks.
//!
//! One observer traces one run into one file. It plugs into the
//! simulator through [`mot3d_sim::observe::Observer`]; samples diff the
//! cluster's probe surface against shadow state and write each change
//! straight into the [`TraceWriter`]'s fixed-size buffer, so the sample
//! path allocates nothing after the first sample registers the tracks
//! (`tests/no_alloc.rs` counts it).

use crate::chrome::TraceWriter;
use mot3d_sim::cluster::Cluster;
use mot3d_sim::observe::{CoreActivity, InterconnectProbe, Observer};
use std::io;
use std::path::{Path, PathBuf};

/// Track-group (process) ids — the taxonomy README documents.
const PID_CORES: u32 = 1;
const PID_BANKS: u32 = 2;
const PID_FABRIC: u32 = 3;
const PID_BUS: u32 = 4;
const PID_DRAM: u32 = 5;
const PID_COUNTERS: u32 = 6;

/// A registered track: where events on it land in the Chrome JSON.
#[derive(Debug)]
struct Track {
    pid: u32,
    tid: u32,
    /// Counter name (counter events carry the track's name; span events
    /// carry their own).
    name: String,
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
    tracks: Vec<Track>,
    /// Lazily initialised on the first sample (needs the cluster's
    /// shape); `true` once tracks are registered.
    ready: bool,
    last_ts: u64,
    // --- shadow state, diffed against each sample ---
    /// Open span per active core.
    core_state: Vec<CoreActivity>,
    core_tracks: Vec<u32>,
    /// Bit `b` set while bank `b`'s "busy" span is open.
    bank_open: u64,
    bank_tracks: Vec<u32>,
    /// Last emitted value per counter track (`f64` bits for float
    /// counters), indexed like `tracks`.
    counter_last: Vec<Option<u64>>,
    /// MoT per-level occupancy counter tracks (index = level - 1), or
    /// NoC port/bus counter tracks; resolved at init.
    fabric_tracks: Vec<u32>,
    transit_req_track: u32,
    transit_resp_track: u32,
    bus_track: u32,
    dram_track: u32,
    /// Open DRAM row span.
    dram_row: Option<u64>,
    hit_rate_track: u32,
    inflight_track: u32,
    wheel_track: u32,
}

impl TraceObserver {
    /// Opens `path` for writing and prepares an idle observer; tracks
    /// are registered on the first sample, when the cluster's shape
    /// (active cores, interconnect, gated banks) is known.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<TraceObserver> {
        Ok(TraceObserver {
            writer: TraceWriter::create(path)?,
            tracks: Vec::new(),
            ready: false,
            last_ts: 0,
            core_state: Vec::new(),
            core_tracks: Vec::new(),
            bank_open: 0,
            bank_tracks: Vec::new(),
            counter_last: Vec::new(),
            fabric_tracks: Vec::new(),
            transit_req_track: 0,
            transit_resp_track: 0,
            bus_track: 0,
            dram_track: 0,
            dram_row: None,
            hit_rate_track: 0,
            inflight_track: 0,
            wheel_track: 0,
        })
    }

    /// Registers a track and returns its index in `tracks`.
    fn track(&mut self, pid: u32, tid: u32, name: String) -> u32 {
        let id = self.tracks.len() as u32;
        self.writer.thread_name(pid, tid, &name);
        self.tracks.push(Track { pid, tid, name });
        self.counter_last.push(None);
        id
    }

    /// One-time track registration from the first sample's cluster.
    /// Allocates freely — the run loop calls the first sample before
    /// entering the stepping loop.
    fn init(&mut self, c: &Cluster) {
        self.writer.process_name(PID_CORES, "cores");
        self.writer.process_name(PID_BANKS, "l2-banks");
        self.writer.process_name(PID_FABRIC, "interconnect");
        self.writer.process_name(PID_BUS, "miss-bus");
        self.writer.process_name(PID_DRAM, "dram");
        self.writer.process_name(PID_COUNTERS, "counters");

        for idx in 0..c.active_core_count() {
            let phys = c.core_physical_id(idx);
            let id = self.track(PID_CORES, phys as u32, format!("core {phys}"));
            self.core_tracks.push(id);
            self.core_state.push(c.core_activity(idx));
        }
        for b in 0..c.bank_count() {
            let name = if c.bank_powered(b) {
                format!("bank {b}")
            } else {
                format!("bank {b} (gated)")
            };
            let id = self.track(PID_BANKS, b as u32, name);
            self.bank_tracks.push(id);
        }
        match c.interconnect_probe() {
            InterconnectProbe::Mot(probe) => {
                for level in 1..=probe.routing_levels {
                    let id = self.track(
                        PID_FABRIC,
                        level,
                        format!("mot level {level} active switches"),
                    );
                    self.fabric_tracks.push(id);
                }
            }
            InterconnectProbe::Noc(_) => {
                let ports = self.track(PID_FABRIC, 1, "noc busy ports".to_string());
                let buses = self.track(PID_FABRIC, 2, "noc busy buses".to_string());
                self.fabric_tracks.push(ports);
                self.fabric_tracks.push(buses);
            }
        }
        self.transit_req_track = self.track(PID_FABRIC, 20, "transit requests".to_string());
        self.transit_resp_track = self.track(PID_FABRIC, 21, "transit responses".to_string());
        self.bus_track = self.track(PID_BUS, 0, "queued transfers".to_string());
        self.dram_track = self.track(PID_DRAM, 0, "row buffer".to_string());
        self.hit_rate_track = self.track(PID_COUNTERS, 0, "L2 hit rate".to_string());
        self.inflight_track = self.track(PID_COUNTERS, 1, "in-flight transactions".to_string());
        self.wheel_track = self.track(PID_COUNTERS, 2, "event-wheel occupancy".to_string());

        // Open the cycle-zero core spans so every timeline starts at 0.
        let ts = c.now();
        for slot in 0..self.core_tracks.len() {
            self.begin(self.core_tracks[slot], ts, self.core_state[slot].label());
        }
        self.ready = true;
    }

    /// Opens a span named `name` on `track`.
    fn begin(&mut self, track: u32, ts: u64, name: &str) {
        let t = &self.tracks[track as usize];
        self.writer.span_begin(t.pid, t.tid, ts, name);
    }

    /// Closes the innermost open span on `track`.
    fn end(&mut self, track: u32, ts: u64) {
        let t = &self.tracks[track as usize];
        self.writer.span_end(t.pid, t.tid, ts);
    }

    /// Emits an integer counter event when the value changed.
    #[inline]
    fn counter_u(&mut self, track: u32, ts: u64, value: u64) {
        if self.counter_last[track as usize] != Some(value) {
            self.counter_last[track as usize] = Some(value);
            let t = &self.tracks[track as usize];
            self.writer.counter_u64(t.pid, t.tid, ts, &t.name, value);
        }
    }

    /// Emits a float counter event when the value's bits changed.
    #[inline]
    fn counter_f(&mut self, track: u32, ts: u64, value: f64) {
        let bits = value.to_bits();
        if self.counter_last[track as usize] != Some(bits) {
            self.counter_last[track as usize] = Some(bits);
            let t = &self.tracks[track as usize];
            self.writer.counter_f64(t.pid, t.tid, ts, &t.name, value);
        }
    }

    /// Closes every open span at the final cycle, seals the document,
    /// and returns the summary.
    ///
    /// # Errors
    ///
    /// Surfaces any write failure from the whole trace's lifetime.
    pub fn finish(mut self) -> io::Result<TraceSummary> {
        let ts = self.last_ts;
        for slot in 0..self.core_tracks.len() {
            self.end(self.core_tracks[slot], ts);
        }
        let mut open = self.bank_open;
        while open != 0 {
            let b = open.trailing_zeros() as usize;
            open &= open - 1;
            self.end(self.bank_tracks[b], ts);
        }
        if self.dram_row.take().is_some() {
            self.end(self.dram_track, ts);
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
        if !self.ready {
            self.init(c);
        }
        let ts = c.now();
        self.last_ts = ts;

        // Core state spans: close + reopen on every transition.
        for slot in 0..self.core_tracks.len() {
            let state = c.core_activity(slot);
            if state != self.core_state[slot] {
                self.core_state[slot] = state;
                let track = self.core_tracks[slot];
                self.end(track, ts);
                self.begin(track, ts, state.label());
            }
        }

        // Bank occupancy spans.
        for b in 0..self.bank_tracks.len() {
            let bit = 1u64 << b;
            let busy = c.bank_busy(b);
            if busy != (self.bank_open & bit != 0) {
                self.bank_open ^= bit;
                if busy {
                    self.begin(self.bank_tracks[b], ts, "busy");
                } else {
                    self.end(self.bank_tracks[b], ts);
                }
            }
        }

        // Interconnect occupancy counters.
        match c.interconnect_probe() {
            InterconnectProbe::Mot(probe) => {
                for i in 0..self.fabric_tracks.len() {
                    let track = self.fabric_tracks[i];
                    let level = i as u32 + 1;
                    self.counter_u(track, ts, probe.level_occupancy(level) as u64);
                }
                self.counter_u(self.transit_req_track, ts, probe.transit_requests as u64);
                self.counter_u(self.transit_resp_track, ts, probe.transit_responses as u64);
            }
            InterconnectProbe::Noc(probe) => {
                self.counter_u(self.fabric_tracks[0], ts, probe.busy_ports as u64);
                self.counter_u(self.fabric_tracks[1], ts, probe.busy_buses as u64);
                self.counter_u(self.transit_req_track, ts, 0);
                self.counter_u(self.transit_resp_track, ts, 0);
            }
        }

        // Miss-bus queue depth.
        self.counter_u(self.bus_track, ts, c.bus_queue_depth() as u64);

        // DRAM row-buffer phase spans.
        let row = c.dram_open_row();
        if row != self.dram_row {
            if self.dram_row.is_some() {
                self.end(self.dram_track, ts);
            }
            if let Some(r) = row {
                let t = &self.tracks[self.dram_track as usize];
                self.writer
                    .span_begin_arg(t.pid, t.tid, ts, "row open", "row", r);
            }
            self.dram_row = row;
        }

        // Cluster-wide counters.
        let (hits, misses) = c.l2_hit_counts();
        if hits + misses > 0 {
            let rate = hits as f64 / (hits + misses) as f64;
            self.counter_f(self.hit_rate_track, ts, rate);
        }
        self.counter_u(self.inflight_track, ts, c.in_flight_transactions() as u64);
        self.counter_u(self.wheel_track, ts, c.event_queue_depth() as u64);
    }
}
