//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the simulator, around the public
//! calls into `linger-workload` and `linger-cluster`; nothing inside the
//! program is instrumented. Spans stay in memory and are written as one
//! JSON array when the run ends.

use serde::Serialize;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer call: `run`, `realize`, `construct`, `step`, `arrivals` or
    /// `evaluate_policy`.
    pub name: &'static str,
    /// Index of the cell (workload run) the span belongs to; spans of one
    /// cell share it.
    pub cell: u32,
    /// Index of the enclosing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Part of the span spent building streamed window chunks, measured
    /// as the simulator's `stream_build_secs()` delta across the call.
    pub stream_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store. A disabled recorder keeps nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span starting now; returns its index (`usize::MAX` when
    /// disabled). Close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, cell: u32, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
            stream_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `idx` now, charging `stream_secs` of chunk building.
    pub fn close(&mut self, idx: usize, stream_secs: f64) {
        if !self.on {
            return;
        }
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.stream_ns = ((stream_secs * 1e9) as u64).min(span.dur_ns());
    }

    /// Record an already-timed leaf span (the step loop times itself to
    /// keep one clock read per window boundary).
    pub fn push(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's
    /// durations and its own stream-build share.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c + s.stream_ns))
            .collect()
    }

    /// Write the spans as a JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        serde_json::to_writer(&mut out, &self.spans).map_err(std::io::Error::other)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_stream_share() {
        let mut t = Tracer::new(true);
        let span = |name, parent, start_ns, end_ns, stream_ns| Span {
            name,
            cell: 0,
            parent,
            start_ns,
            end_ns,
            stream_ns,
        };
        t.push(span("run", None, 0, 100, 0));
        t.push(span("construct", Some(0), 10, 40, 5));
        t.push(span("step", Some(0), 40, 90, 20));
        assert_eq!(t.self_ns(), vec![20, 25, 30]);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let i = t.open("run", 0, None);
        t.close(i, 0.0);
        assert!(t.spans().is_empty());
    }
}
