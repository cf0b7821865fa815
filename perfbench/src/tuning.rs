//! The `tune` and `optimize` parts of the `optimizer` workload: the
//! ahead-of-time optimizer of paper §5 (grid tuner, graph passes, DP
//! simulator).
//!
//! Each part is a few calls of one public entry point on grids small
//! enough that one call takes milliseconds: `tuner::tune` over the fig11
//! grid, and Listing 1's `mario_core::optimize` + `mario_core::run`.
//! [`Part::probed`] mirrors them one candidate at a time through the
//! public functions each layer exports, in the order the tuner calls
//! them, so every layer call gets a span of its own when traced.
//! [`Part::mirror_check`] then holds the mirror to `tuner::evaluate`,
//! candidate by candidate.

use crate::trace::Probe;
use crate::Part;
use mario_cluster::{EmulatorBackend, EmulatorConfig};
use mario_core::passes::{
    apply_checkpoint, overlap_recompute, prepose_forward, remove_redundancy, PreposeOptions,
};
use mario_core::simulator::{simulate_memory, simulate_timeline};
use mario_core::tuner::{
    admissible, evaluate, scheme_channel_capacity, topology_of, tune, Candidate, SchemeChoice,
    TunerConfig,
};
use mario_core::{optimize, MarioConfig};
use mario_ir::{min_channel_capacity, CostModel, Schedule, SchemeKind};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};

const GIB: u64 = 1 << 30;
const V: SchemeKind = SchemeKind::OneFOneB;
const X: SchemeKind = SchemeKind::Chimera;
const W: SchemeKind = SchemeKind::Interleave { chunks: 2 };

/// One `tune` call and what it finds.
struct TuneSpec {
    model: fn() -> ModelConfig,
    devices: u32,
    gbs: u32,
    /// The scheme searched; `None` searches all three (`SchemeChoice::Auto`).
    scheme: Option<SchemeKind>,
    /// The winner, and the `SearchStats` counts of candidates simulated
    /// and out of memory.
    winner: &'static str,
    simulated: u64,
    oom: u64,
}

/// The `tune` calls.
const TUNES: [TuneSpec; 4] = [
    TuneSpec {
        model: ModelConfig::gpt3_13b,
        devices: 8,
        gbs: 16,
        scheme: None,
        winner: "W-8-2+M",
        simulated: 40,
        oom: 36,
    },
    TuneSpec {
        model: ModelConfig::gpt3_1_6b,
        devices: 8,
        gbs: 32,
        scheme: Some(V),
        winner: "V-4-8+M",
        simulated: 22,
        oom: 9,
    },
    TuneSpec {
        model: ModelConfig::gpt3_1_6b,
        devices: 8,
        gbs: 32,
        scheme: Some(X),
        winner: "X-4-4+M",
        simulated: 18,
        oom: 7,
    },
    TuneSpec {
        model: ModelConfig::gpt3_1_6b,
        devices: 8,
        gbs: 32,
        scheme: Some(W),
        winner: "W-4-4+M",
        simulated: 12,
        oom: 4,
    },
];

/// One `optimize` call (Listing 1 with one scheme) and its winner's
/// simulated iteration time, ns.
struct OptimizeSpec {
    model: fn() -> ModelConfig,
    devices: u32,
    gbs: u32,
    scheme: SchemeKind,
    iter_ns: u64,
}

/// The `optimize` calls.
const OPTIMIZES: [OptimizeSpec; 3] = [
    OptimizeSpec {
        model: ModelConfig::gpt3_13b,
        devices: 8,
        gbs: 8,
        scheme: V,
        iter_ns: 2_450_306_636,
    },
    OptimizeSpec {
        model: ModelConfig::gpt3_13b,
        devices: 8,
        gbs: 8,
        scheme: W,
        iter_ns: 2_219_280_991,
    },
    OptimizeSpec {
        model: ModelConfig::gpt3_1_6b,
        devices: 4,
        gbs: 16,
        scheme: X,
        iter_ns: 856_729_925,
    },
];

fn scheme_choice(scheme: Option<SchemeKind>) -> SchemeChoice {
    scheme.map_or(SchemeChoice::Auto, |s| SchemeChoice::Fixed(vec![s]))
}

/// One candidate as the mirror (or `evaluate`) judged it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// The grid point.
    pub cand: Candidate,
    /// Simulated iteration time, ns (0 when the simulation failed).
    pub iter_ns: u64,
    /// Whether peak memory exceeds the budget.
    pub oom: bool,
}

/// What a `tune` operation produced.
pub struct TuneOut {
    winner: String,
    simulated: u64,
    oom: u64,
    /// Per-candidate results (filled by the traced mirror only).
    judged: Vec<Judged>,
}

/// One `tune` call and what it must find.
struct TuneCase {
    model: ModelConfig,
    cfg: TunerConfig,
    expect: (&'static str, u64, u64),
}

/// The `tune` part: the fig11 grid (mbs 1–32, Mario on and off, prepose
/// off) on A100-40G, one call per entry of [`TUNES`].
pub struct Tune {
    gpu: GpuSpec,
    cases: Vec<TuneCase>,
}

impl Part for Tune {
    type Out = TuneOut;

    fn setup(_seed: u64, wrong: bool) -> Self {
        let cases = TUNES
            .iter()
            .map(|t| TuneCase {
                model: (t.model)(),
                cfg: TunerConfig {
                    scheme_choice: scheme_choice(t.scheme),
                    mbs_options: vec![1, 2, 4, 8, 16, 32],
                    min_pp: 4,
                    prepose: false,
                    ..TunerConfig::new(t.devices, t.gbs, 40 * GIB)
                },
                expect: (t.winner, t.simulated + wrong as u64, t.oom),
            })
            .collect();
        Self {
            gpu: GpuSpec::a100_40g(),
            cases,
        }
    }

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn run<P: Probe>(&self, step: usize, p: &mut P) -> Result<TuneOut, String> {
        let c = &self.cases[step];
        let r = p
            .span("tuner", |_| tune(&c.model, &self.gpu, &c.cfg))
            .map_err(|e| e.to_string())?;
        Ok(TuneOut {
            winner: r.best.candidate.to_string(),
            simulated: r.stats.simulated,
            oom: r.stats.pruned_oom,
            judged: Vec::new(),
        })
    }

    fn check(&self, step: usize, out: &TuneOut) -> Result<(), String> {
        let expected = self.cases[step].expect;
        if (out.winner.as_str(), out.simulated, out.oom) != expected {
            return Err(format!(
                "tune call {step} picked {} with {} simulated / {} OOM, expected {expected:?}",
                out.winner, out.simulated, out.oom
            ));
        }
        Ok(())
    }

    fn probed<P: Probe>(&self, step: usize, p: &mut P) -> Result<TuneOut, String> {
        let c = &self.cases[step];
        let judged = mirror_grid(p, &c.model, &self.gpu, &c.cfg);
        let best = best_of(&c.cfg, &judged).ok_or("no feasible candidate")?;
        Ok(TuneOut {
            winner: best.cand.to_string(),
            simulated: judged.len() as u64,
            oom: judged.iter().filter(|j| j.oom).count() as u64,
            judged,
        })
    }

    fn mirror_check(&self, step: usize, out: &TuneOut) -> (u64, u64) {
        let c = &self.cases[step];
        check_against_evaluate(&c.model, &self.gpu, &c.cfg, &out.judged)
    }
}

/// What an `optimize` operation produced.
pub struct OptimizeOut {
    winner: String,
    eval_iter_ns: u64,
    emu_iter_ns: u64,
    judged: Vec<Judged>,
}

/// One Listing-1 call and the iteration time its winner must reach.
struct OptimizeCase {
    model: ModelConfig,
    conf: MarioConfig,
    expect_iter_ns: u64,
}

impl OptimizeCase {
    /// The tuner configuration `optimize` builds from the Listing-1 config.
    fn tuner_cfg(&self) -> TunerConfig {
        TunerConfig {
            scheme_choice: self.conf.pipeline_scheme.clone(),
            ..TunerConfig::new(
                self.conf.num_devices,
                self.conf.global_batch_size,
                self.conf.memory_per_device,
            )
        }
    }

    fn emulator(&self, cap: usize) -> EmulatorConfig {
        EmulatorConfig {
            backend: EmulatorBackend::Event,
            channel_capacity: cap,
            mem_capacity: Some(self.conf.memory_per_device),
            ..Default::default()
        }
    }
}

/// The `optimize` part: the paper's Listing 1 — `optimize` with a
/// `MarioConfig` of 40 GiB devices, then `run` of the winner on the
/// event backend — once per entry of [`OPTIMIZES`].
pub struct Optimize {
    gpu: GpuSpec,
    cases: Vec<OptimizeCase>,
}

impl Part for Optimize {
    type Out = OptimizeOut;

    fn setup(_seed: u64, wrong: bool) -> Self {
        let cases = OPTIMIZES
            .iter()
            .map(|o| OptimizeCase {
                model: (o.model)(),
                conf: MarioConfig {
                    pipeline_scheme: SchemeChoice::Fixed(vec![o.scheme]),
                    ..MarioConfig::auto(o.devices, o.gbs, 40 * GIB)
                },
                expect_iter_ns: o.iter_ns + wrong as u64,
            })
            .collect();
        Self {
            gpu: GpuSpec::a100_40g(),
            cases,
        }
    }

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn run<P: Probe>(&self, step: usize, p: &mut P) -> Result<OptimizeOut, String> {
        let c = &self.cases[step];
        let opt = p
            .span("optimize", |_| optimize(&c.conf, &c.model, &self.gpu))
            .map_err(|e| e.to_string())?;
        let cand = opt.evaluation.candidate;
        let cap = derived_capacity(&c.model, &c.tuner_cfg(), cand, p)?;
        let report = p
            .span("cluster.event", |_| mario_core::run(&opt, c.emulator(cap)))
            .map_err(|e| format!("emulation: {e}"))?;
        Ok(OptimizeOut {
            winner: cand.to_string(),
            eval_iter_ns: opt.evaluation.iter_ns,
            emu_iter_ns: report.iter_ns,
            judged: Vec::new(),
        })
    }

    fn check(&self, step: usize, out: &OptimizeOut) -> Result<(), String> {
        let expect = self.cases[step].expect_iter_ns;
        if out.eval_iter_ns != expect {
            return Err(format!(
                "optimize call {step} picked {} at {} ns, expected {expect} ns",
                out.winner, out.eval_iter_ns
            ));
        }
        if out.emu_iter_ns != out.eval_iter_ns {
            return Err(format!(
                "{} emulates at {} ns but the tuner simulated {} ns",
                out.winner, out.emu_iter_ns, out.eval_iter_ns
            ));
        }
        Ok(())
    }

    fn probed<P: Probe>(&self, step: usize, p: &mut P) -> Result<OptimizeOut, String> {
        let c = &self.cases[step];
        let cfg = c.tuner_cfg();
        let judged = mirror_grid(p, &c.model, &self.gpu, &cfg);
        let best = best_of(&cfg, &judged).ok_or("no feasible candidate")?;
        let cand = best.cand;
        // Rebuild the winner as `optimize` does: full Mario graph tuning
        // with the default prepose options and the memory budget.
        p.begin_op();
        let micros = admissible(&c.model, &cand, cfg.gbs).ok_or("winner inadmissible")?;
        let cost = cost_of(&c.model, &self.gpu, cand);
        let mut schedule = generate_traced(p, cand, micros);
        if cand.mario {
            let opts = PreposeOptions {
                mem_capacity: Some(c.conf.memory_per_device),
                ..Default::default()
            };
            graph_tuner(p, &mut schedule, &cost, true, opts);
        }
        let cap = derived_capacity(&c.model, &cfg, cand, p)?;
        let report = p
            .span("cluster.event", |_| {
                mario_cluster::run(&schedule, &cost, c.emulator(cap))
            })
            .map_err(|e| format!("emulation: {e}"))?;
        p.count("cluster.event.instrs", schedule.total_instrs() as f64);
        Ok(OptimizeOut {
            winner: cand.to_string(),
            eval_iter_ns: best.iter_ns,
            emu_iter_ns: report.iter_ns,
            judged,
        })
    }

    fn mirror_check(&self, step: usize, out: &OptimizeOut) -> (u64, u64) {
        let c = &self.cases[step];
        check_against_evaluate(&c.model, &self.gpu, &c.tuner_cfg(), &out.judged)
    }
}

/// The candidates `tuner::tune` enumerates, in its order.
fn grid(cfg: &TunerConfig) -> Vec<Candidate> {
    let mut out = Vec::new();
    for scheme in cfg.scheme_choice.schemes() {
        for pp in (cfg.min_pp.max(1)..=cfg.total_devices)
            .filter(|pp| cfg.total_devices.is_multiple_of(*pp))
        {
            for &mbs in &cfg.mbs_options {
                for &mario in &cfg.ckpt_options {
                    let dp = cfg.total_devices / pp;
                    out.push(Candidate {
                        scheme,
                        pp,
                        dp,
                        mbs,
                        mario,
                    });
                }
            }
        }
    }
    out
}

fn cost_of(model: &ModelConfig, gpu: &GpuSpec, cand: Candidate) -> AnalyticCost {
    let topo = topology_of(cand.scheme, cand.pp);
    AnalyticCost::new(
        &TrainSetup::pipeline(model.clone(), gpu.clone(), topo, cand.mbs).with_dp(cand.dp),
    )
}

fn generate_traced<P: Probe>(p: &mut P, cand: Candidate, micros: u32) -> Schedule {
    let s = p.span("schedules.generate", |_| {
        generate(ScheduleConfig::new(cand.scheme, cand.pp, micros).allreduce(cand.dp > 1))
    });
    p.count("schedules.generate.instrs", s.total_instrs() as f64);
    s
}

/// The channel capacity the tuner judges `cand` under: the minimal
/// capacity of its generated schedule (the scheme table's bound when none
/// is proven), at least the configured one.
fn derived_capacity<P: Probe>(
    model: &ModelConfig,
    cfg: &TunerConfig,
    cand: Candidate,
    p: &mut P,
) -> Result<usize, String> {
    let micros = admissible(model, &cand, cfg.gbs).ok_or("candidate inadmissible")?;
    let s = generate_traced(p, cand, micros);
    Ok(cfg.channel_capacity.max(capacity_traced(p, &s, cand)))
}

fn capacity_traced<P: Probe>(p: &mut P, s: &Schedule, cand: Candidate) -> usize {
    let derived = p.span("ir.min_channel_capacity", |_| min_channel_capacity(s));
    p.count("ir.min_channel_capacity.instrs", s.total_instrs() as f64);
    derived.unwrap_or_else(|| scheme_channel_capacity(cand.scheme))
}

/// `run_graph_tuner` with the Mario passes, one span per pass call.
fn graph_tuner<P: Probe>(
    p: &mut P,
    s: &mut Schedule,
    cost: &dyn CostModel,
    prepose: bool,
    opts: PreposeOptions,
) {
    let n = p.span("passes.apply_checkpoint", |_| apply_checkpoint(s));
    p.count("passes.apply_checkpoint.rewrites", n as f64);
    let overlap_and_remove = |p: &mut P, s: &mut Schedule| {
        let n = p.span("passes.overlap_recompute", |_| overlap_recompute(s));
        p.count("passes.overlap_recompute.rewrites", n as f64);
        let n = p.span("passes.remove_redundancy", |_| remove_redundancy(s));
        p.count("passes.remove_redundancy.rewrites", n as f64);
    };
    overlap_and_remove(p, s);
    if prepose {
        for _ in 0..opts.max_rounds {
            let moved = p.span("passes.prepose_forward", |_| prepose_forward(s, cost, opts));
            p.count("passes.prepose_forward.swaps", moved as f64);
            overlap_and_remove(p, s);
            if moved == 0 {
                break;
            }
        }
    }
}

/// Mirrors `tuner::evaluate` over the whole grid, one `tuner` span per
/// admissible candidate.
fn mirror_grid<P: Probe>(
    tr: &mut P,
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
) -> Vec<Judged> {
    let mut judged = Vec::new();
    for cand in grid(cfg) {
        let Some(micros) = admissible(model, &cand, cfg.gbs) else {
            continue;
        };
        tr.begin_op();
        let j = tr.span("tuner", |tr| {
            let cost = cost_of(model, gpu, cand);
            let mut s = generate_traced(tr, cand, micros);
            let cap = cfg.channel_capacity.max(capacity_traced(tr, &s, cand));
            if cand.mario {
                let opts = PreposeOptions {
                    channel_capacity: cap,
                    mem_capacity: Some(cfg.mem_capacity),
                    max_rounds: 2,
                };
                graph_tuner(tr, &mut s, &cost, cfg.prepose, opts);
            }
            let mem = tr.span("simulator.memsim", |_| {
                simulate_memory(&s, &cost, Some(cfg.mem_capacity))
            });
            let timeline = tr.span("simulator.timeline", |_| simulate_timeline(&s, &cost, cap));
            tr.count("simulator.timeline.instrs", s.total_instrs() as f64);
            Judged {
                cand,
                iter_ns: timeline.map_or(0, |t| t.total_ns),
                oom: !mem.fits(cfg.mem_capacity),
            }
        });
        tr.count("tuner.simulated", 1.0);
        tr.count("tuner.oom", j.oom as u8 as f64);
        tr.count("tuner.feasible", (!j.oom && j.iter_ns > 0) as u8 as f64);
        judged.push(j);
    }
    judged
}

/// The tuner's pick: highest throughput among feasible candidates, the
/// earliest on ties (`tune` sorts stably).
fn best_of(cfg: &TunerConfig, judged: &[Judged]) -> Option<Judged> {
    let throughput = |j: &Judged| {
        let eff = cfg.dp_efficiency.powf((j.cand.dp as f64).log2());
        cfg.gbs as f64 / (j.iter_ns as f64 / 1e9) * eff
    };
    let mut best: Option<(f64, Judged)> = None;
    for j in judged.iter().filter(|j| !j.oom && j.iter_ns > 0) {
        let t = throughput(j);
        if best.is_none_or(|(b, _)| t > b) {
            best = Some((t, *j));
        }
    }
    best.map(|(_, j)| j)
}

/// Compares every mirrored candidate with `tuner::evaluate`. Returns
/// `(candidates compared, mismatches)`.
fn check_against_evaluate(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
    judged: &[Judged],
) -> (u64, u64) {
    let mut bad = 0;
    for j in judged {
        let reference = evaluate(model, gpu, cfg, j.cand).map(|e| Judged {
            cand: e.candidate,
            iter_ns: e.iter_ns,
            oom: e.oom,
        });
        if reference != Some(*j) {
            eprintln!(
                "mirror mismatch on {}: {j:?} vs evaluate {reference:?}",
                j.cand
            );
            bad += 1;
        }
    }
    (judged.len() as u64, bad)
}
