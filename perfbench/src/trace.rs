//! Spans around each call into a library layer, recorded from the
//! benchmark's own code.
//!
//! Workload code is written once against [`Probe`]. The timed run passes
//! a [`Stopwatch`], which times each outermost call of an operation; the
//! traced run passes [`Off`], which only calls through, and a [`Tracer`],
//! which keeps every span (name, start, end, parent, operation id) and
//! every work counter in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Where workload code reports its calls into a layer.
pub trait Probe {
    /// Runs `f` as one call into the layer `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T;
    /// Adds `by` to the work counter `key` (named `<layer>.<counter>`).
    fn count(&mut self, key: &'static str, by: f64);
    /// Starts a new operation: the spans that follow carry a fresh id.
    fn begin_op(&mut self) {}
}

/// The untraced probe: no clock reads, no allocation.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span<T>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }

    #[inline(always)]
    fn count(&mut self, _: &'static str, _: f64) {}
}

/// The timed run's probe: the wall time of each outermost call of the
/// current operation, in call order. Nested calls and counters cost
/// nothing.
#[derive(Default)]
pub struct Stopwatch {
    nested: bool,
    /// Outermost calls of the operation so far.
    pub calls: Vec<Duration>,
}

impl Probe for Stopwatch {
    fn span<T>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.nested {
            return f(self);
        }
        self.nested = true;
        let t = Instant::now();
        let out = f(self);
        self.calls.push(t.elapsed());
        self.nested = false;
        out
    }

    #[inline(always)]
    fn count(&mut self, _: &'static str, _: f64) {}
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (grid candidate, fault scenario, ...) it belongs to.
    pub op: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recording probe.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The summed value of counter `key` (0 when never counted).
    pub fn counter(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Per layer: `(calls, self ns)`. A span's self time is its duration
    /// minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut self_ns: Vec<i128> = self.spans.iter().map(|s| s.dur_ns() as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= s.dur_ns() as i128;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            // Negative only when a panic left a span open (end == start).
            e.1 += u64::try_from(ns).unwrap_or(0);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`), with each span's
    /// parent index and operation id in its args.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn count(&mut self, key: &'static str, by: f64) {
        *self.counts.entry(key).or_default() += by;
    }

    fn begin_op(&mut self) {
        self.op += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut tr = Tracer::default();
        tr.span("root", |tr| {
            busy(200_000);
            tr.span("a", |tr| {
                busy(300_000);
                tr.span("b", |_| busy(100_000));
            });
            tr.span("b", |_| busy(100_000));
        });
        let st = tr.self_times();
        assert_eq!(st["root"].0, 1);
        assert_eq!(st["b"].0, 2);
        let total: u64 = st.values().map(|v| v.1).sum();
        assert_eq!(total, tr.spans()[0].dur_ns());
        assert!(st["a"].1 >= 300_000 && st["b"].1 >= 200_000);
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[3].parent, Some(0));
    }

    #[test]
    fn counters_sum_and_off_calls_through() {
        let mut tr = Tracer::default();
        tr.count("x.n", 2.0);
        tr.count("x.n", 3.0);
        assert_eq!(tr.counter("x.n"), 5.0);
        assert_eq!(tr.counter("y.n"), 0.0);
        assert_eq!(Off.span("x", |p| p.span("y", |_| 7)), 7);
    }

    #[test]
    fn stopwatch_times_outermost_calls_only() {
        let mut sw = Stopwatch::default();
        sw.span("a", |sw| sw.span("b", |_| busy(100_000)));
        sw.span("c", |_| busy(50_000));
        assert_eq!(sw.calls.len(), 2);
        assert!(sw.calls[0] >= Duration::from_micros(100));
        assert!(sw.calls[1] >= Duration::from_micros(50));
    }
}
