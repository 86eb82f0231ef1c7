//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions: name, start, end, the span that caused it
//! (its parent) and, for viewer-session calls, the session's id. They
//! stay in memory until the run ends; [`Tracer::write_csv`] then writes
//! them out in one go. With tracing off, [`Tracer::span`] only calls the
//! closure, so the end-to-end run pays one branch per call.
//!
//! Per-session calls are sampled by session: the calls of one session in
//! every [`SESSION_SAMPLE`] are recorded, all of them, so a sampled
//! session's spans are complete and share its id, while a run with 10^5
//! concurrent viewers keeps its trace to a few hundred thousand spans.

use std::io::Write;
use std::time::Instant;

/// One session in this many has its calls recorded.
pub const SESSION_SAMPLE: u64 = 16;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `server.tick`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Viewer session the call belongs to (0 when it belongs to none).
    pub session: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`; `session` is the viewer
    /// session it serves, or 0. Calls of unsampled sessions (see
    /// [`SESSION_SAMPLE`]) run unrecorded.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled || !session.is_multiple_of(SESSION_SAMPLE) {
            return f();
        }
        let idx = self.begin(name, session);
        let out = f();
        self.end(idx);
        out
    }

    /// Open a span that encloses several calls; close it with [`Tracer::exit`].
    /// Returns `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        self.enabled.then(|| self.begin(name, 0))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, idx: Option<u32>) {
        if let Some(idx) = idx {
            self.end(idx);
        }
    }

    fn begin(&mut self, name: &'static str, session: u64) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(idx);
        idx
    }

    fn end(&mut self, idx: u32) {
        let now = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        self.spans[idx as usize].end_ns = now;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as CSV: `id,parent,session,name,start_ns,end_ns`
    /// (`parent` is empty for a root).
    pub fn write_csv(&self, out: impl Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        writeln!(w, "id,parent,session,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{i},{parent},{},{},{},{}",
                s.session, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Durations of the spans called `name` that lie under a span called
/// `within` (any ancestor).
pub fn durations_ns(spans: &[Span], name: &str, within: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name && has_ancestor(spans, s, within))
        .map(Span::duration_ns)
        .collect()
}

fn has_ancestor(spans: &[Span], span: &Span, name: &str) -> bool {
    let mut cur = span.parent;
    while let Some(p) = cur {
        let s = &spans[p as usize];
        if s.name == name {
            return true;
        }
        cur = s.parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_sessions() {
        let mut t = Tracer::new(true);
        let outer = t.enter("window");
        let v = t.span("server.tick", 0, || 3);
        t.span("server.open_session", SESSION_SAMPLE, || ());
        t.span("server.open_session", SESSION_SAMPLE + 1, || ());
        t.exit(outer);
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3, "the unsampled session left no span");
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].session, SESSION_SAMPLE);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(durations_ns(s, "server.tick", "window").len(), 1);
        assert!(durations_ns(s, "server.tick", "setup").is_empty());
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let g = t.enter("window");
        assert_eq!(t.span("x", 1, || 5), 5);
        t.exit(g);
        assert!(t.spans().is_empty());
    }
}
