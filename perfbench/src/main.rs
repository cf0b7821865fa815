//! The repository benchmark: the Mario optimizer and executors, timed end
//! to end and layer by layer. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <optimizer|executors> --seed <n> --seconds <n> --trace <0|1>
//!           [--wrong-expectation]
//! ```
//!
//! Each workload is two parts: `optimizer` is `tune` then `optimize`,
//! `executors` is `scale` then `resilient`. A workload is a closed loop on
//! one thread: one operation at a time, in rounds of every operation of
//! both parts, for `--seconds`. With `--trace 0` the operations call the
//! library's public entry points, each call is timed on its own, and the
//! run reports `wall_s`, `setup_s` and `peak_rss_mb`. With `--trace 1` a
//! separate traced run records a span around every call into a layer and
//! reports per-layer metrics. Every operation's output is checked; the
//! last line of standard output is the JSON result, and the exit code is
//! non-zero when any operation failed. `--wrong-expectation` corrupts the
//! expected output, to show that a wrong answer is counted as a failure.

mod report;
mod resilient;
mod scale;
mod trace;
mod tuning;

use report::{layer_metrics, result_json, valid_name, Metric, TracedRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Off, Probe, Stopwatch, Tracer};

/// One part of a workload. A round of the part is [`Part::steps`]
/// operations.
pub trait Part: Sized {
    /// What one operation produces.
    type Out;
    /// Builds the inputs (configs, cost tables, seeded inputs) and the
    /// expected outputs; `wrong` corrupts the expectation.
    fn setup(seed: u64, wrong: bool) -> Self;
    /// Operations in a round of this part.
    fn steps(&self) -> usize {
        1
    }
    /// Operation `step` of a round, with every call into a layer reported
    /// to `p`.
    fn probed<P: Probe>(&self, step: usize, p: &mut P) -> Result<Self::Out, String>;
    /// Operation `step` through the library's public entry points, as the
    /// timed run calls it: each outermost span is one timed call.
    fn run<P: Probe>(&self, step: usize, p: &mut P) -> Result<Self::Out, String> {
        self.probed(step, p)
    }
    /// Checks the output of operation `step` against the expectation.
    fn check(&self, step: usize, out: &Self::Out) -> Result<(), String>;
    /// Holds a probed operation's per-candidate results to the library's
    /// own evaluation: `(compared, mismatches)`.
    fn mirror_check(&self, _step: usize, _out: &Self::Out) -> (u64, u64) {
        (0, 0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    wrong: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut wrong) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--wrong-expectation" {
            wrong = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        wrong,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "optimizer" => drive::<tuning::Tune, tuning::Optimize>(&args),
        "executors" => drive::<scale::Scale, resilient::Resilient>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (optimizer, executors)");
            return ExitCode::from(2);
        }
    };
    let (attempted, failed, metrics) = outcome;
    let correct = failed == 0 && metrics.iter().all(|m| valid_name(&m.name));
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts operations and failures, logging each failure.
struct Tally<'a> {
    workload: &'a str,
    attempted: u64,
    failed: u64,
}

impl Tally<'_> {
    /// Runs one operation `f` of `w`: counts it, and counts an error, a
    /// panic or a failed output check as a failure. Returns the
    /// operation's wall time and its output when it passed. The output is
    /// checked after the clock stopped.
    fn op<W: Part>(
        &mut self,
        w: &W,
        step: usize,
        f: impl FnOnce() -> Result<W::Out, String>,
    ) -> (Duration, Option<W::Out>) {
        self.attempted += 1;
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let wall = t.elapsed();
        let out = match out {
            Ok(Ok(out)) => w.check(step, &out).map(|()| out),
            Ok(Err(e)) => Err(e),
            Err(p) => {
                let msg = p.downcast_ref::<&str>().map(|s| s.to_string());
                let msg = msg.or_else(|| p.downcast_ref::<String>().cloned());
                Err(format!("panicked: {}", msg.unwrap_or_default()))
            }
        };
        match out {
            Ok(out) => (wall, Some(out)),
            Err(e) => {
                self.fail("operation", e);
                (wall, None)
            }
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        eprintln!("perfbench {}: {what} failed: {e}", self.workload);
        self.failed += 1;
    }
}

/// Runs the workload made of parts `A` and `B`; returns
/// `(attempted, failed, metrics)`.
fn drive<A: Part, B: Part>(args: &Args) -> (u64, u64, Vec<Metric>) {
    let mut tally = Tally {
        workload: &args.workload,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        traced::<A, B>(args, &mut tally)
    } else {
        timed::<A, B>(args, &mut tally)
    };
    (tally.attempted, tally.failed, metrics)
}

/// Runs one round of `w`, timing each outermost call of each operation
/// into `calls[step][call]`. Returns the round's wall time.
fn timed_round<W: Part>(w: &W, calls: &mut [Vec<Vec<f64>>], tally: &mut Tally) -> Duration {
    let mut round = Duration::ZERO;
    for (step, calls) in calls.iter_mut().enumerate() {
        let mut sw = Stopwatch::default();
        round += tally.op(w, step, || w.run(step, &mut sw)).0;
        if calls.len() < sw.calls.len() {
            calls.resize(sw.calls.len(), Vec::new());
        }
        for (samples, d) in calls.iter_mut().zip(&sw.calls) {
            samples.push(d.as_secs_f64());
        }
    }
    round
}

/// The timed run: a set-up, then rounds of both parts' operations
/// through the public API with tracing off while the budget lasts. Every
/// round after the first begins with one more set-up, timed and dropped.
///
/// `wall_s` is the sum, over every call of every operation, of that
/// call's fastest time in the run. On a shared machine, outside
/// contention slows this code by up to 1.9x in stretches of milliseconds
/// to minutes; a call of a few milliseconds runs at the machine's quiet
/// speed often enough that its fastest time is steady from run to run,
/// while a call's median, or the fastest time of a long operation,
/// follows the load. `setup_s` is the median set-up: set-ups spread over
/// the whole run see the same mix of load as it. `peak_rss_mb` is the
/// peak resident memory of the first set-up and the first round: later
/// rounds repeat the same operations, and what they add is the
/// allocator's fragmentation, which moves from run to run.
fn timed<A: Part, B: Part>(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let setup = || {
        let t = Instant::now();
        let built = (
            A::setup(args.seed, args.wrong),
            B::setup(args.seed, args.wrong),
        );
        (t.elapsed().as_secs_f64(), built)
    };
    let (first, (a, b)) = setup();
    let mut setups = vec![first];
    let budget = Duration::from_secs(args.seconds);
    let begun = Instant::now();
    let mut calls_a = vec![Vec::new(); a.steps()];
    let mut calls_b = vec![Vec::new(); b.steps()];
    let mut last = None;
    let mut rounds = 0;
    let mut peak = 0.0;
    while fits(begun, last, budget) {
        if rounds > 0 {
            setups.push(setup().0);
        }
        let round = timed_round(&a, &mut calls_a, tally) + timed_round(&b, &mut calls_b, tally);
        last = Some(round);
        rounds += 1;
        if rounds == 1 {
            peak = peak_rss_mb();
        }
    }
    let calls: Vec<&Vec<f64>> = calls_a.iter().chain(&calls_b).flatten().collect();
    let wall_s: f64 = calls.iter().map(|c| fastest(c)).sum();
    let setup_s = median(&setups);
    println!(
        "wall_s      {wall_s:.6} s   fastest time of each call, summed over {} calls \
         ({rounds} rounds)",
        calls.len(),
    );
    for (part, steps) in [("a", &calls_a), ("b", &calls_b)] {
        for (step, calls) in steps.iter().enumerate() {
            let ms: Vec<String> = calls
                .iter()
                .map(|c| format!("{:.3}/{:.3}", fastest(c) * 1e3, median(c) * 1e3))
                .collect();
            println!(
                "            {part}{step} fastest/median ms per call: {}",
                ms.join(" ")
            );
        }
    }
    println!(
        "setup_s     {setup_s:.9} s   median of {} set-ups",
        setups.len()
    );
    println!("peak_rss_mb {peak:.3} MB   after the first set-up and round");
    println!(
        "failed_frac {} ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak, "MB"),
    ]
}

/// One round of `w`, untraced (reported to [`Off`]) and then traced.
/// The first traced round is held to the library's own evaluation (the
/// mirror check). Returns the untraced and traced wall times and whether
/// every traced operation passed.
fn traced_round<W: Part>(
    w: &W,
    tr: &mut Tracer,
    run: &mut TracedRun,
    tally: &mut Tally,
) -> (Duration, Duration, bool) {
    let mut plain = Duration::ZERO;
    for step in 0..w.steps() {
        plain += tally.op(w, step, || w.probed(step, &mut Off)).0;
    }
    let mut traced = Duration::ZERO;
    for step in 0..w.steps() {
        let (wall, out) = tally.op(w, step, || w.probed(step, tr));
        traced += wall;
        let Some(out) = out else {
            return (plain, traced, false);
        };
        if run.rounds == 1 {
            let (checked, mismatches) = w.mirror_check(step, &out);
            run.mirror_checked += checked;
            run.mirror_mismatches += mismatches;
            if mismatches > 0 {
                let what = format!("{mismatches} of {checked} candidates differ");
                tally.fail("mirror check", what);
            }
        }
    }
    (plain, traced, true)
}

/// The traced run: rounds of each part's operations as calls into each
/// layer, untraced and traced in turn, while the budget lasts. Both see
/// the same stretches of machine speed, and they run the same code, so
/// their mean difference is the tracing overhead.
fn traced<A: Part, B: Part>(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds);
    let begun = Instant::now();
    let (a, b) = (
        A::setup(args.seed, args.wrong),
        B::setup(args.seed, args.wrong),
    );
    let mut tr = Tracer::default();
    let mut run = TracedRun {
        rounds: 0,
        wall_ns: 0,
        untraced_ns: 0,
        mirror_checked: 0,
        mirror_mismatches: 0,
    };
    let mut last = None;
    while run.rounds == 0 || fits(begun, last, budget) {
        run.rounds += 1;
        let (plain_a, traced_a, ok_a) = traced_round(&a, &mut tr, &mut run, tally);
        let (plain_b, traced_b, ok_b) = traced_round(&b, &mut tr, &mut run, tally);
        run.untraced_ns += (plain_a + plain_b).as_nanos() as u64;
        run.wall_ns += (traced_a + traced_b).as_nanos() as u64;
        last = Some(plain_a + plain_b + traced_a + traced_b);
        // A failed traced operation may have left spans open: stop.
        if !(ok_a && ok_b) {
            break;
        }
    }
    let (metrics, other_ns) = layer_metrics(&tr, &run);
    if other_ns < 0 {
        tally.fail(
            "self-time accounting",
            format!("layer self times exceed the wall by {} ns", -other_ns),
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, tr.chrome_json()));
    match written {
        Ok(()) => println!("{} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    print_layers(&metrics, run.rounds);
    metrics
}

/// Whether another round as long as the `last` one still ends within
/// `budget` of `begun` (always true before the first).
fn fits(begun: Instant, last: Option<Duration>, budget: Duration) -> bool {
    last.is_none_or(|l| begun.elapsed() + l <= budget)
}

/// The human-readable per-layer table.
fn print_layers(metrics: &[Metric], rounds: u64) {
    let get = |name: String| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    println!("{rounds} traced rounds; per round:");
    println!(
        "{:<26} {:>8} {:>11} {:>7}",
        "layer", "calls", "self ms", "share"
    );
    for layer in report::LAYERS.iter().copied().chain(["other"]) {
        let calls = get(format!("{layer}.calls"));
        let self_ms = get(format!("{layer}.self_ms"));
        if layer != "other" && calls == 0.0 {
            continue;
        }
        println!(
            "{layer:<26} {:>8} {self_ms:>11.3} {:>6.1}%",
            if layer == "other" {
                "-".into()
            } else {
                format!("{calls:.0}")
            },
            100.0 * get(format!("{layer}.share"))
        );
    }
    println!(
        "traced {:.3} ms, untraced {:.3} ms: tracing overhead {:.3} ms",
        get("trace.wall_ms".into()),
        get("trace.untraced_wall_ms".into()),
        get("trace.overhead_ms".into())
    );
}
