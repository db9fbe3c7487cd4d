//! In-memory spans around every harness→library call.
//!
//! With tracing off, [`Tracer::call`] runs its closure and nothing else,
//! and [`Tracer::enter`] / [`Tracer::exit`] return at once: end-to-end
//! metrics never pay for a span.
//! With tracing on, each records name, start, end and the enclosing span
//! (the batch, then the workload), and every driver request gets a span
//! keyed by its ticket id from `submit` to the `drain_events` that
//! yielded it. Spans stay in memory until the window has closed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<fn>` for library calls, `phase.<name>` for the harness
    /// phase grouping them, `batch` / `workload` / `request` otherwise.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Driver ticket id (request spans only).
    pub ticket: Option<u64>,
    /// Simulated start and end, in nanoseconds (request spans only).
    pub sim_ns: Option<(u64, u64)>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs one library call inside a leaf span.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            ticket: None,
            sim_ns: None,
        });
        out
    }

    /// Opens a grouping span (workload, batch, phase); close it with
    /// [`Tracer::exit`]. Explicit enter/exit instead of a closure because
    /// the grouped code needs `&mut Tracer` itself.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            ticket: None,
            sim_ns: None,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open grouping span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Wall instant for a request span's start (0 when disabled).
    pub fn mark(&self) -> u64 {
        if self.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    /// Records a finished request: submitted at wall `start_ns` (from
    /// [`Tracer::mark`]), yielded by a drain now.
    pub fn request(&mut self, ticket: u64, start_ns: u64, sim_ns: (u64, u64)) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: "request",
            start_ns,
            end_ns,
            // Requests outlive the phase that submitted them: hang them
            // off the batch (the outermost-but-one open span).
            parent: self.open.get(1).or(self.open.first()).copied(),
            ticket: Some(ticket),
            sim_ns: Some(sim_ns),
        });
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus what its direct children cover.
    /// Request spans overlap everything by construction and are left out.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.ticket.is_some() {
                continue;
            }
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(&child_ns) {
            if span.ticket.is_some() {
                continue;
            }
            let total = span.end_ns - span.start_ns;
            let row = out.entry(span.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += total as f64 / 1e9;
            row.2 += total.saturating_sub(*covered) as f64 / 1e9;
        }
        out
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as one JSON array (compact: one object per span, keys
    /// `n`ame, `s`tart, `e`nd, `p`arent, and `t`icket/`ss`/`se` on request
    /// spans).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48 + 2);
        out.push('[');
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"n\":\"{}\",\"s\":{},\"e\":{}",
                span.name, span.start_ns, span.end_ns
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"p\":{parent}");
            }
            if let (Some(ticket), Some((ss, se))) = (span.ticket, span.sim_ns) {
                let _ = write!(out, ",\"t\":{ticket},\"ss\":{ss},\"se\":{se}");
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("workload");
        assert_eq!(t.call("x.y", || 7), 7);
        t.request(1, t.mark(), (0, 1));
        t.exit();
        assert!(t.is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_requests_hang_off_the_batch() {
        let mut t = Tracer::new(true);
        t.enter("workload");
        t.enter("batch");
        t.enter("phase.a");
        let mark = t.mark();
        t.call("lib.f", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        t.request(9, mark, (5, 8));
        t.exit();
        t.exit();
        let summary = t.summary();
        let (n, total, own) = summary["phase.a"];
        assert_eq!(n, 1);
        assert!(total >= 0.002 && own < total, "children are subtracted");
        assert!(!summary.contains_key("request"));
        let request = t.spans.iter().find(|s| s.ticket == Some(9)).unwrap();
        assert_eq!(t.spans[request.parent.unwrap() as usize].name, "batch");
        assert!(t.to_json().contains("\"t\":9,\"ss\":5,\"se\":8"));
    }
}
