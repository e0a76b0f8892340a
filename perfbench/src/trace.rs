//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and, when it
//! belongs to one job, that job's id. Spans stay in memory and are written
//! out once, at the end, as a chrome://tracing file.
//!
//! The clock reads behind a span are the measurement itself, so they happen
//! whether tracing is on or off; turning tracing on only adds the span
//! bookkeeping, and the difference between a traced and an untraced run is
//! the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every layer name a span can carry, in report order.
pub const LAYERS: [&str; 9] = [
    "setup",
    "session",
    "admission_plan",
    "submit",
    "tick",
    "plan_build",
    "gpu_run",
    "snapshot",
    "restore",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: Option<u64>,
}

/// In-memory span recorder. When off, every method is a no-op apart from
/// the clock reads the caller needs anyway.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>, Instant);

impl Tracer {
    /// A recorder; `on` selects whether spans are kept.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: Option<u64>) -> Open {
        let now = Instant::now();
        if !self.on {
            return Open(None, now);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now - self.origin,
            end: now - self.origin,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        Open(Some(idx), now)
    }

    /// Close `span`, returning its host duration.
    pub fn end(&mut self, span: Open) -> Duration {
        let now = Instant::now();
        if let Some(idx) = span.0 {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close in order");
            self.open.pop();
            self.spans[idx].end = now - self.origin;
        }
        now - span.1
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let span = self.begin(name, job);
        let out = f();
        (out, self.end(span))
    }

    /// Set the job id of the most recently closed span named `name` (a
    /// submission learns its job id only when the call returns).
    pub fn tag_last(&mut self, name: &'static str, job: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            s.job = Some(job);
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, in host milliseconds: each span's duration
    /// minus the part its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end - s.start).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// The spans as a chrome://tracing JSON document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                us(s.start),
                us(s.end - s.start),
                i
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(j) = s.job {
                let _ = write!(out, ",\"job\":{j}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("session", None);
        let ((), _) = t.time("tick", None, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let total = t.end(outer);
        let self_ms = t.self_ms();
        assert!(self_ms["tick"] >= 2.0);
        assert!(self_ms["session"] < total.as_secs_f64() * 1e3 - 1.9);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), d) = t.time("tick", None, || ());
        assert_eq!(t.len(), 0);
        assert!(d >= Duration::ZERO);
    }
}
