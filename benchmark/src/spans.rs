//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into the crates' public functions, from
//! outside; nothing inside the simulator or the service is instrumented.
//! They are kept in memory and written as Chrome JSON when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Per-layer metric stem, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Pass or request number the span belongs to.
    pub pass: u32,
    /// Worker thread, 0 for the driving thread.
    pub tid: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open(usize);

/// Records spans of one thread against a shared epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Recorder {
    /// A recorder for the driving thread; its creation is the epoch.
    pub fn new() -> Self {
        Recorder::on(Instant::now(), 0)
    }

    /// A recorder for pass `pass` on another recorder's epoch, so that
    /// [`Recorder::adopt`] merges the two onto one timeline.
    pub fn on(epoch: Instant, pass: u32) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            pass,
        }
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the pass/request number stamped on later spans.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// The pass/request number being stamped.
    pub fn pass(&self) -> u32 {
        self.pass
    }

    /// Now, in ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Begins a span nested in whatever span is open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
            tid: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Ends `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must end innermost first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records an interval measured elsewhere (ns since the epoch) on
    /// worker `tid`, under whatever span is open.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, tid: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
            tid,
        });
    }

    /// Adopts spans another recorder took on worker `tid`, hanging
    /// the worker's top-level spans under whatever span is open here.
    pub fn adopt(&mut self, worker: Vec<Span>, tid: u32) {
        let base = self.spans.len();
        let under = self.stack.last().copied();
        self.spans.extend(worker.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(under);
            s.tid = tid;
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder (the worker's side of [`Recorder::adopt`]).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children on other threads may overlap each other,
/// so the result saturates at 0.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// one complete event per span, one per line.
pub fn write_chrome(out: &mut impl Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"workload\": \"{workload}\", \"pass\": {}, \
             \"id\": {i}, \"parent\": {parent}}}}}{comma}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.pass,
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            pass: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 22, 20, 8]);
    }

    #[test]
    fn nesting_follows_begin_end_order() {
        let mut rec = Recorder::new();
        let outer = rec.begin("outer");
        rec.time("inner", || ());
        rec.end(outer);
        rec.time("sibling", || ());
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }

    #[test]
    fn adopted_worker_spans_hang_under_the_open_span() {
        let mut rec = Recorder::new();
        let mut worker = Recorder::on(rec.epoch(), 3);
        let job = worker.begin("job");
        worker.time("step", || ());
        worker.end(job);
        let section = rec.begin("section");
        rec.adopt(worker.into_spans(), 1);
        rec.end(section);
        let s = rec.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[2].pass, s[2].tid), (3, 1));
    }

    #[test]
    fn chrome_output_parses_as_one_document() {
        let mut buf = Vec::new();
        write_chrome(
            &mut buf,
            "w",
            &[span(0, 1500, None), span(100, 200, Some(0))],
        )
        .unwrap();
        let doc = mot3d_serve::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").unwrap().num_text(), Some("1.500"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .num_text(),
            Some("0")
        );
    }
}
