//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around calls into a
//! layer's public API: name, start, end, the span that caused it, and the
//! request it belongs to. They are kept in memory and written once, when
//! the run ends. With tracing off the recorder records nothing, so the
//! untraced run measures the program alone.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

struct Span {
    name: Cow<'static, str>,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: Option<u64>,
    /// Calls the span covers: a per-pass span over a whole stream carries
    /// the stream's length, so its duration divides into a per-call cost.
    count: u64,
}

/// In-memory span store.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            request: None,
            count: 1,
        });
        Some(self.spans.len() - 1)
    }

    /// Close an open span, recording how many calls it covered.
    pub fn close(&mut self, id: SpanId, count: u64) {
        if let Some(i) = id {
            let end_ns = self.ns(Instant::now());
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.count = count;
        }
    }

    /// Record a finished per-request span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name: Cow::Borrowed(name),
                start_ns,
                end_ns,
                parent,
                request: Some(request),
                count: 1,
            });
        }
    }

    /// Render every span as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"count\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                s.count
            );
        }
        out.push(']');
        out
    }
}
