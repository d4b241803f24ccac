//! Typed record sinks for [`crate::plan::ExperimentPlan`] runs.
//!
//! A plan streams one [`RunRecord`] per finished run — in deterministic
//! expansion order — through every attached [`RecordSink`]. Sinks are
//! formatting-only: all simulation and derivation happens upstream.
//!
//! * [`TableSink`] — generic pretty table (one row per run), for ad-hoc
//!   sweeps that have no figure-shaped renderer;
//! * [`JsonLinesSink`] — one JSON object per line (a plan-header line,
//!   then one line per record), the machine-readable export behind
//!   `mot3d … --json`;
//! * [`CsvSink`] — spreadsheet-ready rows behind `mot3d … --csv`;
//! * [`PerfSink`] — adapter turning the [`crate::perf::Recorder`]
//!   trajectory tracker into a sink: times the sweep begin→finish and
//!   checksums the canonical record serialisation.
//!
//! A sink may be attached to several consecutive plan runs (the `all`
//! subcommand does); [`RecordSink::begin`]/[`RecordSink::finish`]
//! bracket each plan.
//!
//! File-backed sinks write through an [`AtomicFile`] (temp file +
//! atomic rename on [`AtomicFile::persist`]), so an interrupted run can
//! never leave a truncated `--json`/`--csv` output behind.

use crate::perf::Recorder;
use crate::plan::RunRecord;
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_phys::json::json_string;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Plan-level metadata handed to [`RecordSink::begin`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanMeta<'a> {
    /// The plan's name.
    pub plan: &'a str,
    /// Number of points the plan expands to.
    pub points: usize,
    /// Run-length scale factor.
    pub scale: f64,
    /// Base workload seed.
    pub seed: u64,
}

/// Receives the typed record stream of a plan run, on the thread that
/// runs the plan.
pub trait RecordSink {
    /// Called once before a plan's first record.
    ///
    /// # Errors
    ///
    /// I/O errors abort record emission for the run.
    fn begin(&mut self, _meta: &PlanMeta<'_>) -> io::Result<()> {
        Ok(())
    }

    /// Called once per finished run, in plan expansion order.
    ///
    /// # Errors
    ///
    /// I/O errors abort record emission for the run.
    fn record(&mut self, record: &RunRecord) -> io::Result<()>;

    /// Called whenever the plan is about to wait for a simulation
    /// (never between records that are ready back to back): a sink
    /// that buffers its output pushes out what it holds, so a reader
    /// sees each record before the wait rather than once later records
    /// fill the buffer. The default does nothing.
    ///
    /// # Errors
    ///
    /// I/O errors abort record emission for the run.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Called once after a plan's last record.
    ///
    /// # Errors
    ///
    /// I/O errors abort record emission for the run.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The canonical one-line JSON serialisation of a record (no trailing
/// newline). [`JsonLinesSink`] writes it; [`PerfSink`] checksums it.
pub fn record_json_line(r: &RunRecord) -> String {
    let p = &r.point;
    let m = &r.metrics;
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"index\": {}, \"workload\": {}, \"interconnect\": {}, \"power_state\": {}, \
         \"dram\": {}, \"open_page\": {}, \"seed\": {}, \"repeat\": {}, \"total_ops\": {}, \
         \"cycles\": {}, \"instructions\": {}, \"ipc\": {}, \"l1_hits\": {}, \"l1_misses\": {}, \
         \"l2_hits\": {}, \"l2_misses\": {}, \"dram_accesses\": {}, \"l2_latency_mean\": {}, \
         \"energy_j\": {}, \"edp_js\": {}}}",
        p.index,
        json_string(&p.workload),
        json_string(&p.config.interconnect.to_string()),
        json_string(&p.config.power_state.to_string()),
        json_string(&p.config.dram.to_string()),
        p.config.dram_open_page,
        p.config.seed,
        p.repeat,
        p.spec.total_ops,
        m.cycles,
        m.instructions,
        m.ipc(),
        m.l1_hits,
        m.l1_misses,
        m.l2_hits,
        m.l2_misses,
        m.dram_accesses,
        m.l2_latency.mean(),
        m.energy.cluster().value(),
        m.edp().value(),
    );
    s
}

/// A buffered file writer that only takes the destination name once
/// the caller declares the content complete: bytes go to a sibling
/// `*.tmp.<pid>` file, and [`AtomicFile::persist`] flushes, syncs, and
/// renames it into place in one step. If the process is interrupted —
/// or the writer is dropped after an error — the destination either
/// keeps its previous content or does not exist; it is never a
/// truncated half-write. Unpersisted temp files are removed on drop.
#[derive(Debug)]
pub struct AtomicFile {
    out: Option<BufWriter<File>>,
    tmp: PathBuf,
    dest: PathBuf,
    persisted: bool,
}

impl AtomicFile {
    /// Opens a temp file next to `path` (same filesystem, so the final
    /// rename is atomic).
    ///
    /// # Errors
    ///
    /// Fails when the temp file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<AtomicFile> {
        let dest = path.as_ref().to_path_buf();
        let mut name = dest
            .file_name()
            .map(|n| n.to_os_string())
            .ok_or_else(|| io::Error::other(format!("{}: not a file path", dest.display())))?;
        name.push(format!(".tmp.{}", std::process::id()));
        let tmp = dest.with_file_name(name);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            out: Some(BufWriter::new(file)),
            tmp,
            dest,
            persisted: false,
        })
    }

    /// The destination path the file will take on persist.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Flushes, syncs, and atomically renames the temp file onto the
    /// destination. Consumes the writer: a persisted file is complete.
    ///
    /// # Errors
    ///
    /// Fails when flushing, syncing, or renaming fails; the temp file
    /// is then cleaned up by drop and the destination is untouched.
    pub fn persist(mut self) -> io::Result<()> {
        let out = self
            .out
            .take()
            .ok_or_else(|| io::Error::other("file already persisted"))?;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&self.tmp, &self.dest)?;
        self.persisted = true;
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.out.as_mut() {
            Some(w) => w.write(buf),
            None => Err(io::Error::other("file already persisted")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.out.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.persisted {
            drop(self.out.take());
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// JSON-lines sink: a plan-header object, then one object per record.
///
/// Every line is a complete JSON document, so consumers can stream the
/// file line by line (the CI smoke job parses each line back).
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out }
    }

    /// Writes one preformatted line (plus the newline) into the stream
    /// — the seam the serve crate uses to interleave its own protocol
    /// lines (per-point failure records) with the record stream without
    /// duplicating the writer.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn raw_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.out, "{line}")
    }
}

impl JsonLinesSink<AtomicFile> {
    /// Completes the file: flush + sync + atomic rename into place (an
    /// [`AtomicFile`] appears under its final name only now).
    ///
    /// # Errors
    ///
    /// Propagates [`AtomicFile::persist`] failures.
    pub fn persist(mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.persist()
    }
}

impl<W: Write> RecordSink for JsonLinesSink<W> {
    fn begin(&mut self, meta: &PlanMeta<'_>) -> io::Result<()> {
        writeln!(
            self.out,
            "{{\"plan\": {}, \"points\": {}, \"scale\": {}, \"seed\": {}, \"schema\": 1}}",
            json_string(meta.plan),
            meta.points,
            meta.scale,
            meta.seed,
        )
    }

    fn record(&mut self, record: &RunRecord) -> io::Result<()> {
        writeln!(self.out, "{}", record_json_line(record))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Quotes a CSV field if it contains a separator, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// CSV sink: a header row (once, even across several plans), then one
/// row per record.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    plan: String,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            plan: String::new(),
            wrote_header: false,
        }
    }
}

impl CsvSink<AtomicFile> {
    /// Completes the file: flush + sync + atomic rename into place (an
    /// [`AtomicFile`] appears under its final name only now).
    ///
    /// # Errors
    ///
    /// Propagates [`AtomicFile::persist`] failures.
    pub fn persist(mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.persist()
    }
}

impl<W: Write> RecordSink for CsvSink<W> {
    fn begin(&mut self, meta: &PlanMeta<'_>) -> io::Result<()> {
        self.plan = meta.plan.to_string();
        if !self.wrote_header {
            self.wrote_header = true;
            writeln!(
                self.out,
                "plan,index,workload,interconnect,power_state,dram,open_page,seed,repeat,\
                 total_ops,cycles,instructions,ipc,l1_hits,l1_misses,l2_hits,l2_misses,\
                 dram_accesses,l2_latency_mean,energy_j,edp_js"
            )?;
        }
        Ok(())
    }

    fn record(&mut self, record: &RunRecord) -> io::Result<()> {
        let p = &record.point;
        let m = &record.metrics;
        writeln!(
            self.out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&self.plan),
            p.index,
            csv_field(&p.workload),
            csv_field(&p.config.interconnect.to_string()),
            csv_field(&p.config.power_state.to_string()),
            csv_field(&p.config.dram.to_string()),
            p.config.dram_open_page,
            p.config.seed,
            p.repeat,
            p.spec.total_ops,
            m.cycles,
            m.instructions,
            m.ipc(),
            m.l1_hits,
            m.l1_misses,
            m.l2_hits,
            m.l2_misses,
            m.dram_accesses,
            m.l2_latency.mean(),
            m.energy.cluster().value(),
            m.edp().value(),
        )
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Generic pretty table: one row per record, covering every axis plus
/// the headline metrics — the stdout presenter for ad-hoc `mot3d sweep`
/// grids that have no figure-shaped renderer.
#[derive(Debug)]
pub struct TableSink<W: Write> {
    out: W,
    plan: String,
    records: Vec<RunRecord>,
}

impl<W: Write> TableSink<W> {
    /// A sink rendering to `out` when the plan finishes.
    pub fn new(out: W) -> Self {
        TableSink {
            out,
            plan: String::new(),
            records: Vec::new(),
        }
    }
}

/// Renders the generic sweep table (used by [`TableSink`] and tests).
pub fn render_sweep_table(plan: &str, records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{plan} — {} runs", records.len());
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:<15} {:<22} {:>5} {:>3} {:>12} {:>6} {:>8} {:>12}",
        "workload",
        "interconnect",
        "state",
        "dram",
        "page",
        "rep",
        "cycles",
        "IPC",
        "L2 mean",
        "EDP(J·s)"
    );
    for r in records {
        let p = &r.point;
        let _ = writeln!(
            out,
            "{:<18} {:<20} {:<15} {:<22} {:>5} {:>3} {:>12} {:>6.2} {:>8.1} {:>12.3e}",
            p.workload,
            p.config.interconnect.to_string(),
            p.config.power_state.to_string(),
            p.config.dram.to_string(),
            if p.config.dram_open_page {
                "open"
            } else {
                "flat"
            },
            p.repeat,
            r.metrics.cycles,
            r.metrics.ipc(),
            r.metrics.l2_latency.mean(),
            r.metrics.edp().value(),
        );
    }
    out
}

impl<W: Write> RecordSink for TableSink<W> {
    fn begin(&mut self, meta: &PlanMeta<'_>) -> io::Result<()> {
        self.plan = meta.plan.to_string();
        self.records.clear();
        Ok(())
    }

    fn record(&mut self, record: &RunRecord) -> io::Result<()> {
        self.records.push(record.clone());
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        let table = render_sweep_table(&self.plan, &self.records);
        self.records.clear();
        write!(self.out, "{table}")?;
        self.out.flush()
    }
}

/// Adapter that lets the existing perf-trajectory [`Recorder`] consume
/// a plan's record stream: the sweep's wall-clock is measured
/// begin→finish, the row count is the number of records, and the
/// checksum is an FNV-1a fold over the canonical
/// [`record_json_line`] serialisation — bit-identical sweeps hash
/// equal, so the trajectory still tells regressions from workload
/// changes.
#[derive(Debug)]
pub struct PerfSink<'a> {
    recorder: &'a mut Recorder,
    name: String,
    started: Option<Instant>,
    hash: u64,
    rows: usize,
}

impl<'a> PerfSink<'a> {
    /// A sink recording the sweep under `name` into `recorder`.
    pub fn new(recorder: &'a mut Recorder, name: impl Into<String>) -> Self {
        PerfSink {
            recorder,
            name: name.into(),
            started: None,
            hash: FNV_OFFSET,
            rows: 0,
        }
    }
}

impl RecordSink for PerfSink<'_> {
    #[expect(
        clippy::disallowed_methods,
        reason = "PerfSink times a sweep with Instant: that is its job"
    )]
    fn begin(&mut self, _meta: &PlanMeta<'_>) -> io::Result<()> {
        self.started = Some(Instant::now());
        self.hash = FNV_OFFSET;
        self.rows = 0;
        Ok(())
    }

    fn record(&mut self, record: &RunRecord) -> io::Result<()> {
        self.hash = fnv1a64_fold(self.hash, record_json_line(record).as_bytes());
        self.hash = fnv1a64_fold(self.hash, b"\n");
        self.rows += 1;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        let wall = self.started.take().map(|t| t.elapsed()).unwrap_or_default();
        self.recorder
            .add_raw(&self.name, wall, self.rows, self.hash);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentScale;
    use crate::plan::ExperimentPlan;
    use mot3d_workloads::SplashBenchmark;

    fn two_records() -> Vec<RunRecord> {
        ExperimentPlan::new("unit")
            .splash([SplashBenchmark::Fft])
            .page_policies([false, true])
            .scale(ExperimentScale::tiny())
            .threads(1)
            .run()
            .unwrap()
    }

    #[test]
    fn json_lines_are_balanced_and_complete() {
        let records = two_records();
        let mut sink = JsonLinesSink::new(Vec::new());
        let meta = PlanMeta {
            plan: "unit",
            points: records.len(),
            scale: 0.004,
            seed: 1,
        };
        sink.begin(&meta).unwrap();
        for r in &records {
            sink.record(r).unwrap();
        }
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len() + 1, "header + one per record");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(line.matches('"').count() % 2, 0);
        }
        assert!(lines[0].contains("\"plan\": \"unit\""));
        assert!(lines[1].contains("\"workload\": \"fft\""));
        assert!(lines[1].contains("\"open_page\": false"));
        assert!(lines[2].contains("\"open_page\": true"));
    }

    #[test]
    fn csv_writes_one_header_across_plans() {
        let records = two_records();
        let mut sink = CsvSink::new(Vec::new());
        for plan in ["a", "b"] {
            let meta = PlanMeta {
                plan,
                points: records.len(),
                scale: 0.004,
                seed: 1,
            };
            sink.begin(&meta).unwrap();
            for r in &records {
                sink.record(r).unwrap();
            }
            sink.finish().unwrap();
        }
        let text = String::from_utf8(sink.out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 2 * records.len());
        assert!(lines[0].starts_with("plan,index,workload"));
        let columns = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "{line}");
        }
        assert!(lines[1].starts_with("a,0,fft,3-D MoT,Full connection"));
        assert!(lines[3].starts_with("b,0,fft"));
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn table_sink_renders_one_row_per_record() {
        let records = two_records();
        let mut sink = TableSink::new(Vec::new());
        let meta = PlanMeta {
            plan: "unit",
            points: records.len(),
            scale: 0.004,
            seed: 1,
        };
        sink.begin(&meta).unwrap();
        for r in &records {
            sink.record(r).unwrap();
        }
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(text.lines().count(), 2 + records.len());
        assert!(text.contains("fft"));
        assert!(text.contains("open"));
        assert!(text.contains("flat"));
    }

    #[test]
    fn perf_sink_checksums_pin_the_records() {
        let records = two_records();
        let meta = PlanMeta {
            plan: "unit",
            points: records.len(),
            scale: 0.004,
            seed: 1,
        };
        let run = |records: &[RunRecord]| {
            let mut rec = Recorder::new(0.004, 1);
            let mut sink = PerfSink::new(&mut rec, "unit");
            sink.begin(&meta).unwrap();
            for r in records {
                sink.record(r).unwrap();
            }
            sink.finish().unwrap();
            (rec.sweeps()[0].rows, rec.sweeps()[0].checksum.clone())
        };
        let (rows_a, sum_a) = run(&records);
        let (rows_b, sum_b) = run(&records);
        assert_eq!(rows_a, records.len());
        assert_eq!(rows_b, rows_a);
        assert_eq!(sum_a, sum_b, "identical streams hash equal");
        let (_, sum_c) = run(&records[..1]);
        assert_ne!(sum_a, sum_c, "different streams must not collide");
    }

    /// A unique scratch path under the system temp directory.
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mot3d-sink-{}-{name}", std::process::id()))
    }

    #[test]
    fn atomic_file_appears_only_on_persist() {
        let dest = scratch("atomic_persist.txt");
        let mut file = AtomicFile::create(&dest).unwrap();
        file.write_all(b"complete\n").unwrap();
        assert!(!dest.exists(), "destination must not exist mid-write");
        assert_eq!(file.dest(), dest);
        file.persist().unwrap();
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "complete\n");
        std::fs::remove_file(&dest).unwrap();
    }

    #[test]
    fn atomic_file_drop_without_persist_cleans_up() {
        let dest = scratch("atomic_abandon.txt");
        let tmp = {
            let mut file = AtomicFile::create(&dest).unwrap();
            file.write_all(b"partial").unwrap();
            file.flush().unwrap();
            let tmp = dest.with_file_name(format!(
                "{}.tmp.{}",
                dest.file_name().unwrap().to_string_lossy(),
                std::process::id()
            ));
            assert!(tmp.exists(), "temp file holds the bytes mid-write");
            tmp
        };
        assert!(!dest.exists(), "abandoned write must not surface");
        assert!(!tmp.exists(), "abandoned temp file must be removed");
    }

    #[test]
    fn atomic_file_persist_preserves_previous_content_until_rename() {
        let dest = scratch("atomic_replace.txt");
        std::fs::write(&dest, "old").unwrap();
        let mut file = AtomicFile::create(&dest).unwrap();
        file.write_all(b"new").unwrap();
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "old");
        file.persist().unwrap();
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "new");
        std::fs::remove_file(&dest).unwrap();
    }

    #[test]
    fn file_backed_sinks_persist_complete_documents() {
        let records = two_records();
        let meta = PlanMeta {
            plan: "unit",
            points: records.len(),
            scale: 0.004,
            seed: 1,
        };
        let json_path = scratch("sink_persist.jsonl");
        let mut json = JsonLinesSink::new(AtomicFile::create(&json_path).unwrap());
        let csv_path = scratch("sink_persist.csv");
        let mut csv = CsvSink::new(AtomicFile::create(&csv_path).unwrap());
        json.begin(&meta).unwrap();
        csv.begin(&meta).unwrap();
        for r in &records {
            json.record(r).unwrap();
            csv.record(r).unwrap();
        }
        json.finish().unwrap();
        csv.finish().unwrap();
        assert!(!json_path.exists() && !csv_path.exists());
        json.persist().unwrap();
        csv.persist().unwrap();
        let json_text = std::fs::read_to_string(&json_path).unwrap();
        assert_eq!(json_text.lines().count(), records.len() + 1);
        let csv_text = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv_text.lines().count(), records.len() + 1);
        std::fs::remove_file(&json_path).unwrap();
        std::fs::remove_file(&csv_path).unwrap();
    }
}
