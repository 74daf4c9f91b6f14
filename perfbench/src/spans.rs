//! The benchmark's own span recorder: spans are kept in memory while the
//! traced run executes and written out as JSONL once it ends, so recording
//! costs one `Instant::now()` and one `Vec` push per boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    round: Option<u64>,
}

/// An in-memory span log. Span ids are indices into the log.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, round: Option<u64>) -> usize {
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = Instant::now();
        let span = &mut self.spans[id];
        span.end = Some(end);
        end.duration_since(span.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, round);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    /// One JSON object per span, in opening order: id, name, start and end
    /// in microseconds since the recorder was created, parent id, round id.
    pub fn to_jsonl(&self) -> String {
        let micros = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let end = span.end.unwrap_or(span.start);
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"round\":{}}}",
                span.name,
                micros(span.start),
                micros(end),
                opt(span.parent.map(|p| p as u64)),
                opt(span.round),
            );
        }
        out
    }
}
