//! Machine-readable performance tracking (`--bench-json`).
//!
//! The `mot3d` CLI times every sweep it runs; with `--bench-json
//! <path>` it writes a small JSON document there — per-sweep
//! wall-clock, run scale, worker thread count, and an FNV-1a checksum
//! of each sweep's record stream. The checksum pins *what* was computed
//! (bit-identical sweeps hash equal), so a perf trajectory assembled
//! from these files can tell a genuine regression apart from a workload
//! change. CI uploads the file as an artifact; see README
//! "Performance".
//!
//! The document is a `writeln!` template (its layout is what the
//! committed `BENCH_results.json` looks like);
//! [`crate::perfcheck::parse_baseline`] reads it back.

use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_phys::json::json_string;
use std::fmt::Write as _;
use std::time::Duration;

/// One timed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Sweep name, e.g. `fig7@200ns`.
    pub name: String,
    /// Wall-clock seconds the sweep took.
    pub wall_s: f64,
    /// Result rows produced.
    pub rows: usize,
    /// FNV-1a 64-bit hex checksum of the rendered table.
    pub checksum: String,
}

/// Collects [`SweepRecord`]s and writes the `BENCH_results.json`
/// document on request.
///
/// # Examples
///
/// ```
/// use mot3d_bench::perf::Recorder;
/// use std::time::Duration;
///
/// let mut rec = Recorder::new(0.35, 4);
/// rec.add("fig7@200ns", Duration::from_millis(1860), 8, "table text");
/// let json = rec.to_json();
/// assert!(json.contains("\"fig7@200ns\""));
/// assert!(json.contains("\"threads\": 4"));
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    scale: f64,
    threads: usize,
    sweeps: Vec<SweepRecord>,
}

impl Recorder {
    /// A recorder for a run at `scale` on `threads` workers.
    pub fn new(scale: f64, threads: usize) -> Self {
        Recorder {
            scale,
            threads,
            sweeps: Vec::new(),
        }
    }

    /// Corrects the recorded worker count once the actual job count is
    /// known (an ad-hoc sweep's parallelism depends on its grid size,
    /// which is only resolved after the recorder is created).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Records one finished sweep: its wall-clock time, row count, and
    /// the rendered table it produced (checksummed, not stored).
    pub fn add(&mut self, name: &str, wall: Duration, rows: usize, rendered_table: &str) {
        let checksum = fnv1a64_fold(FNV_OFFSET, rendered_table.as_bytes());
        self.add_raw(name, wall, rows, checksum);
    }

    /// [`Recorder::add`] with a precomputed FNV-1a checksum — used by
    /// [`crate::sink::PerfSink`], which folds the checksum incrementally
    /// over the record stream instead of a rendered table.
    pub fn add_raw(&mut self, name: &str, wall: Duration, rows: usize, checksum: u64) {
        self.sweeps.push(SweepRecord {
            name: name.to_string(),
            wall_s: wall.as_secs_f64(),
            rows,
            checksum: format!("{checksum:016x}"),
        });
    }

    /// The sweeps recorded so far.
    pub fn sweeps(&self) -> &[SweepRecord] {
        &self.sweeps
    }

    /// Renders the JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"sweeps\": [");
        for (i, s) in self.sweeps.iter().enumerate() {
            let comma = if i + 1 < self.sweeps.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"wall_s\": {:.6}, \"rows\": {}, \"checksum\": \"{}\"}}{}",
                json_string(&s.name),
                s.wall_s,
                s.rows,
                s.checksum,
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_tables_hash_equal_different_tables_do_not() {
        let mut a = Recorder::new(0.35, 1);
        a.add("x", Duration::from_secs(1), 8, "table");
        let mut b = Recorder::new(0.35, 1);
        b.add("x", Duration::from_secs(2), 8, "table"); // time differs
        assert_eq!(a.sweeps()[0].checksum, b.sweeps()[0].checksum);
        let mut c = Recorder::new(0.35, 1);
        c.add("x", Duration::from_secs(1), 8, "other table");
        assert_ne!(a.sweeps()[0].checksum, c.sweeps()[0].checksum);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut rec = Recorder::new(0.004, 4);
        rec.add("fig6", Duration::from_millis(120), 8, "t1");
        rec.add("fig7@200ns", Duration::from_millis(340), 8, "t2");
        let json = rec.to_json();
        // Flat schema: balanced braces/brackets, all fields present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"schema\": 1",
            "\"scale\": 0.004",
            "\"threads\": 4",
            "\"fig6\"",
            "\"fig7@200ns\"",
            "\"rows\": 8",
            "\"checksum\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Exactly one trailing comma between the two sweep objects.
        assert_eq!(
            json.matches("}},").count() + json.matches("\"}},").count(),
            0
        );
    }
}
