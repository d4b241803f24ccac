//! A hand-rolled Chrome JSON trace writer (the format Perfetto and
//! `chrome://tracing` load).
//!
//! The file is one JSON document: a `traceEvents` array of event
//! objects. Each event is written on its own line (`{…},`), so the file
//! is both a valid JSON document *and* line-scannable — the CI smoke job
//! strips the trailing comma per line and parses each object
//! independently.
//!
//! Events stage into one buffer, allocated once at its full size; when
//! it nears capacity the writer writes it out to the file and reuses
//! it. The buffer never grows, so the `TraceObserver` can emit from
//! inside the simulator's allocation-free step.
//!
//! No timestamps here come from the wall clock: `ts` is the simulated
//! cycle (reported as microseconds, so one cycle of the 1 GHz cluster
//! displays as 1 µs — `clippy.toml` disallows `Instant::now` and
//! `SystemTime::now`).

use mot3d_phys::json::escape_into;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Bytes staged before a write-out. Smaller than the golden trace
/// fixture (`tests/golden_trace.rs`), so its hash covers a write-out in
/// the middle of a run.
const BUF_CAPACITY: usize = 1 << 20;
/// Room kept free for one more event line: `open` writes the buffer out
/// once less than this is left, so no line makes it reallocate.
const EVENT_HEADROOM: usize = 4 << 10;

/// Buffered writer for one Chrome JSON trace file.
#[derive(Debug)]
pub struct TraceWriter {
    file: File,
    path: PathBuf,
    /// Events staged + written so far (drives comma placement).
    emitted: u64,
    /// Staged bytes, written out by `flush`; never grows past its
    /// initial capacity.
    buf: String,
    /// Deferred I/O failure, surfaced by [`TraceWriter::finish`].
    err: Option<io::Error>,
}

impl TraceWriter {
    /// Creates `path` (truncating any previous file) and stages the
    /// document preamble.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<TraceWriter> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let mut buf = String::with_capacity(BUF_CAPACITY);
        buf.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        Ok(TraceWriter {
            file,
            path,
            emitted: 0,
            buf,
            err: None,
        })
    }

    /// Opens a new event object line (comma discipline + shared prefix),
    /// writing the buffer out first when it is nearly full.
    fn open(&mut self) {
        if self.buf.len() > BUF_CAPACITY - EVENT_HEADROOM {
            self.flush();
        }
        if self.emitted > 0 {
            self.buf.push_str(",\n");
        }
        self.emitted += 1;
    }

    /// Names the process (track group) `pid`.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.open();
        let _ = write!(
            self.buf,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"args\": {{\"name\": \""
        );
        escape_into(&mut self.buf, name);
        self.buf.push_str("\"}}");
    }

    /// Names thread (track) `tid` inside process `pid`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.open();
        let _ = write!(
            self.buf,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \""
        );
        escape_into(&mut self.buf, name);
        self.buf.push_str("\"}}");
    }

    /// Opens a duration span named `name` on track (`pid`, `tid`),
    /// carrying one integer argument if `arg` is given (e.g. a DRAM row).
    pub fn span_begin(
        &mut self,
        pid: u32,
        tid: u32,
        ts: u64,
        name: &str,
        arg: Option<(&str, u64)>,
    ) {
        self.open();
        self.buf.push_str("{\"name\": \"");
        escape_into(&mut self.buf, name);
        let _ = write!(
            self.buf,
            "\", \"cat\": \"state\", \"ph\": \"B\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}"
        );
        if let Some((key, val)) = arg {
            self.buf.push_str(", \"args\": {\"");
            escape_into(&mut self.buf, key);
            let _ = write!(self.buf, "\": {val}}}");
        }
        self.buf.push('}');
    }

    /// Closes the innermost open span on track (`pid`, `tid`).
    pub fn span_end(&mut self, pid: u32, tid: u32, ts: u64) {
        self.open();
        let _ = write!(
            self.buf,
            "{{\"ph\": \"E\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}}}"
        );
    }

    /// Samples the integer counter `name` on (`pid`, `tid`).
    pub fn counter_u64(&mut self, pid: u32, tid: u32, ts: u64, name: &str, value: u64) {
        self.open();
        self.buf.push_str("{\"name\": \"");
        escape_into(&mut self.buf, name);
        let _ = write!(
            self.buf,
            "\", \"ph\": \"C\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}, \"args\": {{\"value\": {value}}}}}"
        );
    }

    /// Samples the float counter `name` on (`pid`, `tid`). Non-finite
    /// values (not representable in JSON) are clamped to 0.
    pub fn counter_f64(&mut self, pid: u32, tid: u32, ts: u64, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.open();
        self.buf.push_str("{\"name\": \"");
        escape_into(&mut self.buf, name);
        let _ = write!(
            self.buf,
            "\", \"ph\": \"C\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}, \"args\": {{\"value\": {value}}}}}"
        );
    }

    /// Writes the staged bytes to the file and empties the buffer.
    /// Failures are remembered and surfaced by [`TraceWriter::finish`];
    /// after the first one, staged bytes are discarded (the trace is
    /// already lost — the simulation must not be).
    fn flush(&mut self) {
        if self.err.is_none() {
            if let Err(e) = self.file.write_all(self.buf.as_bytes()) {
                self.err = Some(e);
            }
        }
        self.buf.clear();
    }

    /// Closes the `traceEvents` array and writes out what is staged.
    ///
    /// # Errors
    ///
    /// Surfaces the first write failure of the trace's lifetime.
    pub fn finish(mut self) -> io::Result<(PathBuf, u64)> {
        self.buf.push_str("\n]}\n");
        self.flush();
        match self.err {
            Some(e) => Err(e),
            None => Ok((self.path, self.emitted)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_a_valid_document_with_comma_discipline() {
        let dir = std::env::temp_dir().join(format!("mot3d-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("writer.json");
        let mut w = TraceWriter::create(&path).unwrap();
        w.process_name(1, "cores");
        w.thread_name(1, 0, "core 0");
        w.span_begin(1, 0, 0, "Ready", None);
        w.span_end(1, 0, 5);
        w.counter_u64(6, 0, 5, "in-flight", 3);
        w.counter_f64(6, 1, 5, "rate", 0.5);
        w.span_begin(5, 0, 7, "row open", Some(("row", 42)));
        let (got_path, events) = w.finish().unwrap();
        assert_eq!(got_path, path);
        assert_eq!(events, 7);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.ends_with("\n]}\n"));
        // Balanced braces/brackets — the cheap structural check; the
        // integration suite runs a real JSON parser over the file.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        // One event per line, trailing commas between them.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 7);
        for line in &lines[1..7] {
            assert!(line.ends_with("},"), "{line}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn escapes_json_metacharacters_in_names() {
        let mut buf = String::new();
        escape_into(&mut buf, "a\"b\\c\nd");
        assert_eq!(buf, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn non_finite_counters_are_clamped() {
        let dir = std::env::temp_dir().join(format!("mot3d-trace-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nan.json");
        let mut w = TraceWriter::create(&path).unwrap();
        w.counter_f64(6, 0, 1, "rate", f64::NAN);
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"value\": 0"));
        assert!(!text.contains("NaN"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
