//! Metric naming, per-layer metrics from a trace, and the result line.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// As measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; panics on a non-finite value, which JSON cannot carry.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        let name = name.into();
        assert!(value.is_finite(), "{name} is not finite: {value}");
        Self { name, value, unit }
    }
}

/// True when `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The layers the traced run reports, named `<crate area>.<entry point>`.
pub const LAYERS: [&str; 13] = [
    "tuner",
    "schedules.generate",
    "ir.validate",
    "ir.min_channel_capacity",
    "passes.apply_checkpoint",
    "passes.overlap_recompute",
    "passes.remove_redundancy",
    "passes.prepose_forward",
    "simulator.memsim",
    "simulator.timeline",
    "cluster.event",
    "cluster.recovery",
    "critpath.analyze",
];

/// `num / den`, or 0 when nothing was measured.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of sorted `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

/// What the traced run measured besides the spans.
pub struct TracedRun {
    /// Traced rounds run.
    pub rounds: u64,
    /// Summed wall time of the traced operations, ns.
    pub wall_ns: u64,
    /// Summed wall time of as many untraced operations, ns.
    pub untraced_ns: u64,
    /// Mirrored candidates compared with `tuner::evaluate`.
    pub mirror_checked: u64,
    /// Of those, how many differed.
    pub mirror_mismatches: u64,
}

/// Every per-layer metric, per round. Layers a workload never calls
/// report 0. Also returns the `other` self time, ns: traced wall time no
/// layer span covers.
pub fn layer_metrics(tr: &Tracer, run: &TracedRun) -> (Vec<Metric>, i128) {
    let st = tr.self_times();
    let rounds = run.rounds.max(1) as f64;
    let wall = run.wall_ns as f64;
    let mut m = Vec::new();
    let mut covered: i128 = 0;
    for layer in LAYERS {
        let (calls, self_ns) = st.get(layer).copied().unwrap_or((0, 0));
        covered += self_ns as i128;
        let self_ns = self_ns as f64;
        let c = |what: &str| tr.counter(&format!("{layer}.{what}"));
        m.push(Metric::new(
            format!("{layer}.calls"),
            calls as f64 / rounds,
            "count",
        ));
        m.push(Metric::new(
            format!("{layer}.self_ms"),
            self_ns / rounds / 1e6,
            "ms",
        ));
        m.push(Metric::new(
            format!("{layer}.share"),
            per(self_ns, wall),
            "ratio",
        ));
        match layer {
            "schedules.generate" | "ir.validate" | "ir.min_channel_capacity" => {
                m.push(Metric::new(
                    format!("{layer}.ns_per_instr"),
                    per(self_ns, c("instrs")),
                    "ns",
                ))
            }
            "passes.apply_checkpoint" | "passes.overlap_recompute" | "passes.remove_redundancy" => {
                m.push(Metric::new(
                    format!("{layer}.rewrites"),
                    c("rewrites") / rounds,
                    "count",
                ))
            }
            "passes.prepose_forward" => {
                m.push(Metric::new(
                    format!("{layer}.swaps"),
                    c("swaps") / rounds,
                    "count",
                ));
                m.push(Metric::new(
                    format!("{layer}.ms_per_call"),
                    per(self_ns / 1e6, calls as f64),
                    "ms",
                ));
            }
            "simulator.timeline" | "cluster.event" => m.push(Metric::new(
                format!("{layer}.minstr_per_s"),
                per(c("instrs") / 1e6, self_ns / 1e9),
                "Minstr/s",
            )),
            "cluster.recovery" => {
                m.push(Metric::new(
                    format!("{layer}.attempts"),
                    c("attempts") / rounds,
                    "count",
                ));
                m.push(Metric::new(
                    format!("{layer}.replayed_iters"),
                    c("replayed_iters") / rounds,
                    "count",
                ));
            }
            "critpath.analyze" => m.push(Metric::new(
                format!("{layer}.ns_per_span"),
                per(self_ns, c("spans")),
                "ns",
            )),
            "tuner" => {
                let mut cand_ms: Vec<f64> = tr
                    .spans()
                    .iter()
                    .filter(|s| s.name == "tuner")
                    .map(|s| s.dur_ns() as f64 / 1e6)
                    .collect();
                cand_ms.sort_by(f64::total_cmp);
                m.push(Metric::new(
                    "tuner.simulated",
                    c("simulated") / rounds,
                    "count",
                ));
                m.push(Metric::new("tuner.oom", c("oom") / rounds, "count"));
                m.push(Metric::new(
                    "tuner.feasible_ratio",
                    per(c("feasible"), c("simulated")),
                    "ratio",
                ));
                m.push(Metric::new(
                    "tuner.cand_p50_ms",
                    percentile(&cand_ms, 0.5),
                    "ms",
                ));
                m.push(Metric::new(
                    "tuner.cand_p90_ms",
                    percentile(&cand_ms, 0.9),
                    "ms",
                ));
            }
            _ => {}
        }
    }
    let other_ns = run.wall_ns as i128 - covered;
    m.push(Metric::new(
        "other.self_ms",
        other_ns as f64 / rounds / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "other.share",
        per(other_ns as f64, wall),
        "ratio",
    ));
    let (traced_ms, untraced_ms) = (wall / rounds / 1e6, run.untraced_ns as f64 / rounds / 1e6);
    m.push(Metric::new("trace.wall_ms", traced_ms, "ms"));
    m.push(Metric::new("trace.untraced_wall_ms", untraced_ms, "ms"));
    m.push(Metric::new(
        "trace.overhead_ms",
        traced_ms - untraced_ms,
        "ms",
    ));
    m.push(Metric::new(
        "trace.spans",
        tr.spans().len() as f64 / rounds,
        "count",
    ));
    m.push(Metric::new(
        "mirror.checked",
        run.mirror_checked as f64,
        "count",
    ));
    m.push(Metric::new(
        "mirror.mismatches",
        run.mirror_mismatches as f64,
        "count",
    ));
    (m, other_ns)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Probe;

    #[test]
    fn names_are_legal_and_unique() {
        let tr = Tracer::default();
        let run = TracedRun {
            rounds: 1,
            wall_ns: 1,
            untraced_ns: 1,
            mirror_checked: 0,
            mirror_mismatches: 0,
        };
        let (m, _) = layer_metrics(&tr, &run);
        let mut names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.len());
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("a\"b"));
    }

    #[test]
    fn layer_self_times_plus_other_sum_to_the_wall() {
        let mut tr = Tracer::default();
        let start = tr.now_ns();
        tr.span("tuner", |tr| {
            tr.span("schedules.generate", |_| {
                std::hint::black_box(vec![0u8; 1 << 16])
            });
            tr.span("simulator.timeline", |_| {
                std::hint::black_box(vec![0u8; 1 << 16])
            });
        });
        let wall_ns = tr.now_ns() - start;
        let run = TracedRun {
            rounds: 1,
            wall_ns,
            untraced_ns: wall_ns,
            mirror_checked: 0,
            mirror_mismatches: 0,
        };
        let (m, other_ns) = layer_metrics(&tr, &run);
        assert!(other_ns >= 0);
        let self_ms: f64 = m
            .iter()
            .filter(|m| m.name.ends_with(".self_ms"))
            .map(|m| m.value)
            .sum();
        assert!((self_ms - wall_ns as f64 / 1e6).abs() < 1e-9);
        let share: f64 = m
            .iter()
            .filter(|m| m.name.ends_with(".share"))
            .map(|m| m.value)
            .sum();
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("wall_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
