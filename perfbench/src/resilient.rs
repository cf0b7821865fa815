//! The `resilient` part of the `executors` workload: a seeded fault sweep
//! over Mario-checkpointed V/X/W schedules of GPT3-1.6B, with sharded
//! asynchronous model-state checkpoints draining into pipeline bubbles.
//!
//! The fault plans are drawn from the seed once, at set-up, so every
//! round replays the same inputs. A round is one scenario per schedule,
//! each its own operation:
//! 1. the DP simulator under the absorbable fault plan's perturbation
//!    profile (`simulate_timeline_ckpt`);
//! 2. the event emulator under the same plan (`run_with_faults`);
//! 3. checkpoint-restart recovery from a crash of a seeded device at a
//!    seeded instruction (`run_with_recovery`).

use crate::trace::Probe;
use crate::Part;
use mario_cluster::{
    run_with_faults, run_with_recovery, EmulatorBackend, EmulatorConfig, FaultKind, FaultPlan,
    RecoveredRun,
};
use mario_core::passes::{run_graph_tuner, GraphTunerOptions};
use mario_core::simulator::simulate_timeline_ckpt;
use mario_core::tuner::topology_of;
use mario_ir::{
    min_channel_capacity, CheckpointPolicy, DeviceId, Nanos, Schedule, SchemeKind, ShardedWrite,
    Telemetry, TimeClasses,
};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};

const PP: u32 = 8;
const MICROS: u32 = 16;
const MBS: u32 = 1;
const ITERS: u32 = 8;
const INTERVAL: u32 = 2;
/// The iteration every seeded crash fires in: the same for every scenario,
/// so that each operation replays the same amount of work whatever the
/// seed draws.
const CRASH_ITER: u32 = 5;
/// Flush bandwidth of a device's checkpoint shard, bytes per µs.
const FLUSH_BPUS: u64 = 10_000;
/// Chunk size of the asynchronous drain, bytes.
const CHUNK_BYTES: u64 = 64 << 20;

/// One Mario-checkpointed schedule with its cost model and the fault
/// plans drawn for it.
struct Case {
    schedule: Schedule,
    cost: AnalyticCost,
    cap: usize,
    /// An absorbable fault: the simulator runs under its perturbation
    /// profile, the emulator under the plan itself.
    degraded: FaultPlan,
    /// A crash of one device at one instruction of iteration [`CRASH_ITER`].
    crash: FaultPlan,
}

/// What the simulator and the emulator must agree on bit for bit: device
/// clocks, per-device time classes and peak memory, checkpoint cost and
/// durability. Not the whole telemetry: absorbed-fault counts exist on the
/// emulator side only.
#[derive(Debug, PartialEq)]
struct Agreed {
    clocks: Vec<Nanos>,
    devices: Vec<(TimeClasses, u64)>,
    ckpt_overhead_ns: Nanos,
    last_checkpoint: Option<u32>,
}

impl Agreed {
    fn of(
        clocks: Vec<Nanos>,
        telemetry: &Telemetry,
        ckpt_overhead_ns: Nanos,
        last_checkpoint: Option<u32>,
    ) -> Self {
        let devices = telemetry
            .devices
            .iter()
            .map(|d| (d.classes, d.peak_mem))
            .collect();
        Self {
            clocks,
            devices,
            ckpt_overhead_ns,
            last_checkpoint,
        }
    }
}

/// One scenario's results.
pub struct Scenario {
    sim: Agreed,
    emu: Agreed,
    recovered: RecoveredRun,
}

/// The `resilient` part.
pub struct Resilient {
    cases: Vec<Case>,
    policy: CheckpointPolicy,
    /// Corrupts the expected resume point (benchmark self-check).
    wrong: bool,
}

/// SplitMix64: the seed stream every drawn input comes from.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Resilient {
    fn emulator(&self, cap: usize) -> EmulatorConfig {
        EmulatorConfig {
            backend: EmulatorBackend::Event,
            channel_capacity: cap,
            iterations: ITERS,
            checkpoint: Some(self.policy),
            ..Default::default()
        }
    }

    /// Draws `schedule`'s two fault plans from `draw`.
    fn draw_plans(draw: u64, schedule: &Schedule) -> (FaultPlan, FaultPlan) {
        let degraded =
            FaultPlan::single_absorbable(draw, schedule).at_iteration((draw % ITERS as u64) as u32);
        let device = DeviceId((mix(draw) % PP as u64) as u32);
        let pc = (mix(draw ^ 1) % schedule.program(device).len() as u64) as usize;
        let crash = FaultPlan::none()
            .with(FaultKind::Crash { device, pc })
            .at_iteration(CRASH_ITER);
        (degraded, crash)
    }

    fn scenario<P: Probe>(&self, case: &Case, p: &mut P) -> Result<Scenario, String> {
        p.begin_op();
        let s = &case.schedule;
        let instrs = (s.total_instrs() * ITERS as usize) as f64;
        let sim = p
            .span("simulator.timeline", |_| {
                simulate_timeline_ckpt(
                    s,
                    &case.cost,
                    case.cap,
                    &case.degraded.perturbation_profile(),
                    ITERS,
                    Some(self.policy),
                )
            })
            .map_err(|e| format!("degraded simulation: {e:?}"))?;
        // Only the compared fields are kept.
        let sim = Agreed::of(
            sim.device_clocks,
            &sim.telemetry,
            sim.ckpt_overhead_ns,
            sim.last_checkpoint,
        );
        p.count("simulator.timeline.instrs", instrs);
        let emu = p
            .span("cluster.event", |_| {
                run_with_faults(s, &case.cost, self.emulator(case.cap), &case.degraded)
            })
            .map_err(|e| format!("degraded emulation: {e}"))?;
        let emu = Agreed::of(
            emu.device_clocks,
            &emu.telemetry,
            emu.ckpt_overhead_ns,
            emu.last_checkpoint,
        );
        p.count("cluster.event.instrs", instrs);

        let recovered = p
            .span("cluster.recovery", |_| {
                run_with_recovery(s, &case.cost, self.emulator(case.cap), &case.crash, 1)
            })
            .map_err(|e| format!("recovery: {e}"))?;
        p.count("cluster.recovery.attempts", recovered.attempts as f64);
        p.count(
            "cluster.recovery.replayed_iters",
            recovered.replayed_iters as f64,
        );
        Ok(Scenario {
            sim,
            emu,
            recovered,
        })
    }

    fn check_scenario(&self, sc: &Scenario) -> Result<(), String> {
        if sc.sim != sc.emu {
            let device = (sc.sim.devices.iter().zip(&sc.emu.devices)).position(|(a, b)| a != b);
            return Err(format!(
                "simulator and emulator disagree (first differing device {device:?}): \
                 makespans {:?} vs {:?} ns",
                sc.sim.clocks.iter().max(),
                sc.emu.clocks.iter().max()
            ));
        }
        if sc.emu.devices.iter().all(|d| d.0.ckpt_absorbed_ns == 0) {
            return Err("no checkpoint chunk drained into a bubble".into());
        }
        let rec = &sc.recovered;
        let durable = rec.fault_log.first().map(|f| f.last_checkpoint);
        if rec.attempts != 2 || durable != Some(rec.resumed_from) {
            return Err(format!(
                "recovery took {} attempts and resumed from {} (last durable {durable:?})",
                rec.attempts, rec.resumed_from
            ));
        }
        // Asynchronous writes become durable once their last chunk drains,
        // so the resume point is the boundary before the crash or the one
        // before that.
        let shift = if self.wrong { INTERVAL + 1 } else { 0 };
        let latest = self.policy.saved_before(CRASH_ITER) + shift;
        if rec.resumed_from > latest || rec.resumed_from + INTERVAL < latest {
            return Err(format!(
                "resumed from {} after a crash in iteration {CRASH_ITER}",
                rec.resumed_from
            ));
        }
        if rec.replayed_iters != CRASH_ITER - rec.resumed_from {
            return Err(format!("replayed {} iterations", rec.replayed_iters));
        }
        Ok(())
    }
}

impl Part for Resilient {
    type Out = Scenario;

    fn setup(seed: u64, wrong: bool) -> Self {
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let cases = [
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, scheme)| {
            let topo = topology_of(scheme, PP);
            let cost =
                AnalyticCost::new(&TrainSetup::pipeline(model.clone(), gpu.clone(), topo, MBS));
            let mut schedule = generate(ScheduleConfig::new(scheme, PP, MICROS));
            let cap = min_channel_capacity(&schedule).expect("generated schedules execute");
            let passes = GraphTunerOptions {
                prepose: false,
                ..GraphTunerOptions::mario()
            };
            run_graph_tuner(&mut schedule, &cost, passes);
            let (degraded, crash) = Self::draw_plans(mix(mix(seed) ^ i as u64), &schedule);
            Case {
                schedule,
                cost,
                cap,
                degraded,
                crash,
            }
        })
        .collect();
        Self {
            cases,
            policy: CheckpointPolicy::every(INTERVAL)
                .with_sharded(ShardedWrite::new(FLUSH_BPUS, CHUNK_BYTES).with_async_overlap()),
            wrong,
        }
    }

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn probed<P: Probe>(&self, step: usize, p: &mut P) -> Result<Scenario, String> {
        self.scenario(&self.cases[step], p)
    }

    fn check(&self, _step: usize, out: &Scenario) -> Result<(), String> {
        self.check_scenario(out)
    }
}
