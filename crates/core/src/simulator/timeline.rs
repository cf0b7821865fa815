//! The dynamic-programming timeline simulator (paper §5.2).
//!
//! Instead of hand-identifying critical paths, the simulator infers the
//! earliest start time of every instruction from its dependencies:
//! *horizontal* (in-order execution within a device's instruction list) and
//! *vertical* (p2p messages between devices, per Algorithm 1's virtual
//! pipeline). The sweep and its channels are the simulator's own; what
//! each firing does to a device (clock, time classes, checkpoint chunks,
//! the span recorder) goes through the [`mario_ir::DeviceCore`] the cluster
//! emulator (mario-cluster) drives too, so with zero jitter the two
//! produce identical timelines, and the simulator-accuracy experiment
//! (Fig. 10) isolates genuine modeling error (profiling regression,
//! jitter).
//!
//! [`simulate_timeline_with`] extends the alignment to *degraded*
//! clusters: a [`PerturbationProfile`] (stragglers, slow links) scales
//! every instruction's duration and every packet's departure time exactly
//! as the emulator's fault layer enforces the corresponding absorbable
//! fault plan, so a zero-jitter faulted run and a degraded
//! simulation still agree bit for bit — the property that lets
//! the tuner predict a straggler's impact without paying an emulator run.

use mario_ir::exec::MsgClass;
use mario_ir::{
    merge_reports, CheckpointPolicy, CkptBoard, CostModel, DeviceCore, DeviceId, InstrKind,
    MemLedger, MemoryRules, Nanos, PerturbationProfile, Schedule, SpanGraph, Telemetry,
    TimeClasses, Work,
};
use mario_ir::fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The simulated timeline of one iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimTimeline {
    /// Final clock per device.
    pub device_clocks: Vec<Nanos>,
    /// Iteration makespan (max device clock).
    pub total_ns: Nanos,
    /// Virtual time spent writing model-state checkpoints, summed across
    /// devices, ns (0 unless a policy was passed to
    /// [`simulate_timeline_ckpt`]). With async overlap only the residue
    /// the bubbles could not hide is counted — the emulator's
    /// `RunReport::ckpt_overhead_ns` semantics, bit for bit.
    #[serde(default)]
    pub ckpt_overhead_ns: Nanos,
    /// Iterations covered by the last cluster-durable checkpoint (None
    /// when no policy was active) — the emulator's
    /// `RunReport::last_checkpoint` semantics.
    #[serde(default)]
    pub last_checkpoint: Option<u32>,
    /// The simulated flight-recorder output: per-device time-class
    /// breakdowns (conserving each device clock exactly) and per-link
    /// transfer statistics, bit-identical to a zero-jitter emulator run's
    /// `RunReport::telemetry`.
    #[serde(default)]
    pub telemetry: Telemetry,
    /// The executed span graph (one [`mario_ir::OpSpan`] per instruction
    /// occurrence plus checkpoint boundaries), the input to
    /// `mario_core::critpath::analyze` and every renderer — bit-identical
    /// to a zero-jitter emulator run captured with `record_spans`.
    #[serde(default)]
    pub spans: SpanGraph,
}

impl SimTimeline {
    /// Training throughput in samples/s for `samples` per iteration.
    pub fn throughput(&self, samples: u64) -> f64 {
        samples as f64 / (self.total_ns as f64 / 1e9)
    }

    /// Total idle ("bubble") time summed over devices: device lifetime not
    /// spent in compute. Communication waits and serving ingress-gate
    /// waits count as bubble — they are exactly the idle slots Mario hides
    /// recomputation in.
    pub fn bubble_ns(&self) -> Nanos {
        // Each device's time classes sum to its clock.
        let idle = |c: &TimeClasses| c.total() - c.compute_ns;
        self.telemetry.devices.iter().map(|d| idle(&d.classes)).sum()
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The schedule deadlocks under the given channel capacity.
    Deadlock(String),
    /// A receive saw a mismatched message.
    Mismatch(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(s) => write!(f, "simulated deadlock: {s}"),
            SimError::Mismatch(s) => write!(f, "simulated comm mismatch: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgId {
    class: MsgClass,
    micro: u32,
    part: u32,
}

#[derive(Debug, Default)]
struct Channel {
    /// In-flight messages: (identity, sent_at, payload bytes).
    queue: VecDeque<(MsgId, Nanos, u64)>,
    /// Dequeue timestamps not yet consumed by the sender's capacity logic.
    dequeues: VecDeque<Nanos>,
    /// Messages sent so far minus dequeue-acks consumed by sender.
    outstanding: usize,
}

/// Simulates `schedule` under `cost` with per-class FIFO channels of
/// `channel_capacity`, assuming a pristine cluster.
pub fn simulate_timeline(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_with(schedule, cost, channel_capacity, &PerturbationProfile::identity())
}

/// Simulates `schedule` on a *degraded* cluster described by `profile`:
/// compute instructions on straggling devices are scaled by their
/// slowdown windows (indexed by instruction pc, like the emulator's
/// `Slowdown` faults) and perturbed packets depart late by the link's
/// extra latency while the sender's clock is unaffected (the emulator's
/// `LinkDelay` semantics). With the identity profile this is exactly
/// [`simulate_timeline`].
pub fn simulate_timeline_with(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_iters(schedule, cost, channel_capacity, profile, 1)
}

/// [`simulate_timeline_with`] over `iterations` back-to-back training
/// iterations, mirroring the emulator's multi-iteration runs: device
/// clocks and channel state persist across the iteration boundary (the
/// next iteration's warmup overlaps the previous flush, exactly as the
/// threaded devices do), while per-pair packet numbering and the
/// profile's iteration-scoped windows reset each iteration.
pub fn simulate_timeline_iters(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_ckpt(schedule, cost, channel_capacity, profile, iterations, None)
}

/// [`simulate_timeline_iters`] with a model-state checkpointing policy:
/// each device pays its write at every interval boundary exactly as the
/// cluster emulator charges it — synchronously for flat/sharded-sync
/// policies, or chunk-by-chunk into the next iteration's recv bubbles
/// when the policy asks for async overlap (any residue is charged at the
/// following boundary, or at end of run). With `None` this is exactly
/// [`simulate_timeline_iters`].
pub fn simulate_timeline_ckpt(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
    checkpoint: Option<CheckpointPolicy>,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_startup(
        schedule,
        cost,
        channel_capacity,
        profile,
        iterations,
        checkpoint,
        &[],
    )
}

/// [`simulate_timeline_ckpt`] with per-device *startup offsets*: device
/// `d`'s clock begins at `startup[d]` (0 when the slice is short), and the
/// offset is recorded in the `reconfig_ns` telemetry class so Σ classes ==
/// device clock still holds. This models the one-time state-redistribution
/// cost of an elastic reconfiguration — survivors start executing only
/// once the layer state they did not already hold has been fetched —
/// mirroring the emulator's `run_with_faults_startup` bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn simulate_timeline_startup(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
    checkpoint: Option<CheckpointPolicy>,
    startup: &[Nanos],
) -> Result<SimTimeline, SimError> {
    simulate_core(
        schedule,
        cost,
        channel_capacity,
        profile,
        iterations,
        checkpoint,
        startup,
        None,
    )
    .map(|(t, _)| t)
}

/// Serving-mode simulation: one forward-only iteration under an
/// *ingress release schedule*. A first-stage `Forward` for micro-batch
/// `m` may not start before `release[m]` — the wait is recv-blocked idle
/// time exactly like a link wait (async checkpoint chunks drain into it)
/// — and each micro-batch's completion time is taken at the last-stage
/// `Forward`'s finish. Returns the timeline plus per-micro completion
/// times, bit-identical to a zero-jitter emulator `run_serving` on both
/// backends (the egress record is observational: an un-gated run is
/// bit-identical to an un-instrumented one).
pub fn simulate_timeline_serving(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    release: &[Nanos],
) -> Result<(SimTimeline, Vec<Option<Nanos>>), SimError> {
    simulate_core(
        schedule,
        cost,
        channel_capacity,
        profile,
        1,
        None,
        &[],
        Some(release),
    )
}

/// The unchecked ledgers never reject: capacity enforcement is the
/// emulator's job.
const UNCHECKED: &str = "unchecked ledger never rejects an allocation";

/// The DP recurrence: sweeps the devices round-robin, firing each one's
/// next instruction once its dependencies are met, until every device
/// ran its program `iterations` times. Each firing's accounting goes
/// through the device's [`DeviceCore`], the same core both emulator
/// backends drive.
#[allow(clippy::too_many_arguments)]
fn simulate_core(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
    checkpoint: Option<CheckpointPolicy>,
    startup: &[Nanos],
    serving: Option<&[Nanos]>,
) -> Result<(SimTimeline, Vec<Option<Nanos>>), SimError> {
    assert!(channel_capacity >= 1);
    assert!(iterations >= 1);
    let devices = schedule.devices() as usize;
    // Global instruction cursor per device: local pc = gpc % len,
    // iteration = gpc / len.
    let mut gpc = vec![0usize; devices];
    let mut chans: FxHashMap<(u32, u32, MsgClass, u32), Channel> = FxHashMap::default();
    // Packets sent per (src, dst) pair *this iteration*, all classes and
    // parts in program order — the emulator's link-fault packet
    // numbering, which resets every iteration.
    let mut sends_to: Vec<FxHashMap<u32, usize>> = vec![FxHashMap::default(); devices];
    let mut cur_iter = vec![0u32; devices];
    // Per-micro completion board (serving mode): earliest last-stage
    // forward finish — the emulator's `ServeBoard::record` (fetch_min).
    let mut completions: Vec<Option<Nanos>> = match serving {
        Some(_) => vec![None; schedule.micros as usize],
        None => Vec::new(),
    };
    let rules = MemoryRules::new(schedule);
    let board = CkptBoard::new(devices);
    let mut cores: Vec<DeviceCore> = (0..devices)
        .map(|d| {
            let dev = DeviceId(d as u32);
            let ledger = MemLedger::new(cost.static_mem(dev), None);
            let mut core =
                DeviceCore::new(dev, ledger, startup.get(d).copied().unwrap_or(0), &board)
                    .with_checkpoint(checkpoint, cost)
                    .recording(true);
            // Every instruction, each iteration's boundary, the final drain.
            core.reserve((schedule.program(dev).len() + 1) * iterations as usize + 1);
            core
        })
        .collect();

    // The emulator runs the checkpoint boundary every iteration even for
    // a device with an empty program; the main loop below skips such
    // devices, so process their boundaries (which never block) up front.
    for (d, core) in cores.iter_mut().enumerate() {
        if schedule.program(DeviceId(d as u32)).is_empty() {
            for it in 0..iterations {
                core.boundary(it).expect(UNCHECKED);
            }
        }
    }

    let class_of = |k: &InstrKind| match k {
        InstrKind::SendAct { .. } | InstrKind::RecvAct { .. } => MsgClass::Act,
        _ => MsgClass::Grad,
    };

    loop {
        let mut fired = false;
        let mut all_done = true;
        for d in 0..devices {
            let dev = DeviceId(d as u32);
            let prog = schedule.program(dev);
            let len = prog.len();
            if len == 0 || gpc[d] >= len * iterations as usize {
                continue;
            }
            let lpc = gpc[d] % len;
            let iter = (gpc[d] / len) as u32;
            if iter != cur_iter[d] {
                cur_iter[d] = iter;
                sends_to[d].clear();
            }
            let instr = prog.instrs()[lpc];
            all_done = false;
            let core = &mut cores[d];
            core.begin();
            let id = MsgId {
                class: class_of(&instr.kind),
                micro: instr.micro.0,
                part: instr.part.0,
            };
            match instr.kind {
                InstrKind::Forward { .. }
                | InstrKind::Backward
                | InstrKind::BackwardInput
                | InstrKind::BackwardWeight
                | InstrKind::Recompute => {
                    let forward = matches!(instr.kind, InstrKind::Forward { .. });
                    let release = serving.filter(|_| forward);
                    // Serving ingress gate: a first-stage forward may not
                    // start before its micro-batch was released.
                    if let Some(release) =
                        release.filter(|_| schedule.topology.is_first_stage(dev, instr.part))
                    {
                        core.gate(release.get(instr.micro.index()).copied().unwrap_or(0));
                    }
                    let dur = profile.scaled_compute(dev, iter, lpc, cost.duration(dev, &instr));
                    core.busy(Work::Compute, dur);
                    core.apply(&rules, cost, &instr).expect(UNCHECKED);
                    // Serving egress: a last-stage forward completes its
                    // micro-batch (observational — never read back here).
                    if release.is_some() && schedule.topology.is_last_stage(dev, instr.part) {
                        let slot = &mut completions[instr.micro.index()];
                        let now = core.clock();
                        *slot = Some(slot.map_or(now, |v| v.min(now)));
                    }
                }
                InstrKind::AllReduce => core.busy(Work::AllReduce, cost.allreduce_time(dev)),
                InstrKind::OptimizerStep => core.busy(Work::Optimizer, cost.optimizer_time(dev)),
                InstrKind::SendAct { peer } | InstrKind::SendGrad { peer } => {
                    let ch = chans.entry((dev.0, peer.0, id.class, id.part)).or_default();
                    // A full channel blocks until the receiver dequeues
                    // the oldest in-flight message; that time is known
                    // only after the receiver fires, so wait for it.
                    let freed = if ch.outstanding == channel_capacity {
                        let Some(t) = ch.dequeues.pop_front() else {
                            continue;
                        };
                        ch.outstanding -= 1;
                        t
                    } else {
                        0
                    };
                    core.busy(Work::Launch, cost.p2p_launch_overhead());
                    let bytes = cost.boundary_bytes(dev, instr.part);
                    ch.outstanding += 1;
                    core.sent(peer, freed, bytes, ch.outstanding as u32);
                    // A perturbed link delays the packet's departure while
                    // the sender's own clock is unaffected, exactly like
                    // the emulator's delayed send.
                    let nth = sends_to[d].entry(peer.0).or_insert(0);
                    let extra = profile.link_extra(dev, peer, iter, *nth);
                    *nth += 1;
                    ch.queue.push_back((id, core.clock() + extra, bytes));
                    core.apply(&rules, cost, &instr).expect(UNCHECKED);
                }
                InstrKind::RecvAct { peer } | InstrKind::RecvGrad { peer } => {
                    let ch = chans.entry((peer.0, dev.0, id.class, id.part)).or_default();
                    let Some(&(got, sent_at, bytes)) = ch.queue.front() else {
                        continue;
                    };
                    if got != id {
                        return Err(SimError::Mismatch(format!(
                            "{dev} expected {id:?}, found {got:?}"
                        )));
                    }
                    ch.queue.pop_front();
                    core.busy(Work::Launch, cost.p2p_launch_overhead());
                    // The wire time is priced from the packet's own bytes
                    // (the sender's boundary), as the emulators do.
                    let wire = cost.p2p_time_between(peer, dev, bytes);
                    ch.dequeues.push_back(core.received(peer, sent_at, wire));
                }
            }
            core.end(iter, lpc);
            gpc[d] += 1;
            fired = true;
            // Completing the program's last instruction is the
            // emulator's end-of-iteration checkpoint boundary.
            if gpc[d].is_multiple_of(len) {
                core.boundary((gpc[d] / len - 1) as u32).expect(UNCHECKED);
            }
        }
        if all_done {
            break;
        }
        if !fired {
            let blocked: Vec<String> = (0..devices)
                .filter_map(|d| {
                    let prog = &schedule.programs()[d];
                    if prog.is_empty() || gpc[d] >= prog.len() * iterations as usize {
                        return None;
                    }
                    let lpc = gpc[d] % prog.len();
                    prog.get(lpc)
                        .map(|i| format!("d{d}#{lpc} iter {}: {i}", gpc[d] / prog.len()))
                })
                .collect();
            return Err(SimError::Deadlock(blocked.join(", ")));
        }
    }

    // No bubbles remain past the last instruction: pay any async residue
    // synchronously so the final checkpoint is durable when the run ends.
    let reports = cores
        .into_iter()
        .map(|mut core| {
            core.drain_end(iterations - 1);
            core.finish()
        })
        .collect();
    let run = merge_reports(reports, channel_capacity);
    Ok((
        SimTimeline {
            device_clocks: run.device_clocks,
            total_ns: run.total_ns,
            ckpt_overhead_ns: board.total_paid(),
            last_checkpoint: checkpoint.map(|_| board.cluster_saved()),
            telemetry: run.telemetry,
            spans: run.spans,
        },
        completions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn matches_1f1b_closed_form() {
        for (d, n) in [(2u32, 4u32), (4, 8), (8, 16)] {
            let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, d, n));
            let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
            assert_eq!(t.total_ns, ((3 * (d - 1) + 3 * n) * 1_000) as u64);
        }
    }

    #[test]
    fn deadlock_is_reported() {
        use mario_ir::{Instr, Schedule, Topology};
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 1, vec![0]);
        s.program_mut(DeviceId(0))
            .push(Instr::recv_grad(0u32, 0u32, DeviceId(1)));
        s.program_mut(DeviceId(1))
            .push(Instr::recv_act(0u32, 0u32, DeviceId(0)));
        let err = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
    }

    #[test]
    fn bubble_accounting() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        // Each device is busy 3N units; makespan is 3(N + D - 1).
        let expect_bubble: u64 = (0..4u64).map(|_| 3 * 3 * 1_000).sum();
        // Devices finish at different times; bubble = sum(clock_d - busy_d).
        assert!(t.bubble_ns() > 0);
        assert!(t.bubble_ns() <= expect_bubble * 2);
    }

    #[test]
    fn span_count_matches_instruction_count() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(t.spans.len(), s.total_instrs());
    }

    #[test]
    fn identity_profile_is_bit_identical_to_baseline() {
        for scheme in [SchemeKind::OneFOneB, SchemeKind::Chimera] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
            let degr = simulate_timeline_with(
                &s,
                &UnitCost::paper_grid(),
                1,
                &PerturbationProfile::identity(),
            )
            .unwrap();
            assert_eq!(base.device_clocks, degr.device_clocks, "{scheme:?}");
            assert_eq!(base.total_ns, degr.total_ns, "{scheme:?}");
        }
    }

    #[test]
    fn straggler_stretches_the_pipeline() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let profile = PerturbationProfile::identity().with_straggler(DeviceId(0), 2.0);
        let degr =
            simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &profile).unwrap();
        // The straggling first stage gates the whole pipeline: the
        // degraded makespan must grow, and every device finishes no
        // earlier than in the pristine run.
        assert!(degr.total_ns > base.total_ns);
        for (b, d) in base.device_clocks.iter().zip(&degr.device_clocks) {
            assert!(d >= b);
        }
    }

    #[test]
    fn slow_link_shifts_downstream_arrivals() {
        // Unit grid has free comm; give the perturbed link real latency.
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let profile = PerturbationProfile::identity().with_link_slack(mario_ir::LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: None,
            extra_ns: 10_000,
            iteration: None,
        });
        let degr =
            simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &profile).unwrap();
        assert!(degr.total_ns > base.total_ns);
        // Backpressure propagates the slack upstream through the bounded
        // channel: no device finishes earlier than in the pristine run.
        for (b, d) in base.device_clocks.iter().zip(&degr.device_clocks) {
            assert!(d >= b);
        }
    }

    #[test]
    fn nth_packet_slack_hits_only_that_packet() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 4));
        let all = PerturbationProfile::identity().with_link_slack(mario_ir::LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: None,
            extra_ns: 3_000,
            iteration: None,
        });
        let one = PerturbationProfile::identity().with_link_slack(mario_ir::LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: Some(0),
            extra_ns: 3_000,
            iteration: None,
        });
        let t_all = simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &all).unwrap();
        let t_one = simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &one).unwrap();
        let t_base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert!(t_one.total_ns >= t_base.total_ns);
        assert!(t_all.total_ns >= t_one.total_ns);
    }

    #[test]
    fn multi_iteration_simulation_matches_single_iteration_structure() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let one = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let three = simulate_timeline_iters(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            3,
        )
        .unwrap();
        assert_eq!(three.spans.len(), 3 * s.total_instrs());
        // Back-to-back iterations overlap across the boundary, so the
        // makespan is at least 2 but at most 3 single-iteration spans.
        assert!(three.total_ns >= 2 * one.total_ns);
        assert!(three.total_ns <= 3 * one.total_ns);
    }

    #[test]
    fn checkpointed_simulation_charges_writes_and_reports_durability() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let cost = UnitCost::paper_grid();
        let idle = PerturbationProfile::identity();
        let base = simulate_timeline_iters(&s, &cost, 1, &idle, 4).unwrap();
        assert_eq!(base.last_checkpoint, None);
        assert_eq!(base.ckpt_overhead_ns, 0);
        let policy = mario_ir::CheckpointPolicy::every(2).with_write_ns(500);
        let ck = simulate_timeline_ckpt(&s, &cost, 1, &idle, 4, Some(policy)).unwrap();
        // 2 writes of 500 ns on each of the 4 devices, plus a CKPT span
        // per boundary per device.
        assert_eq!(ck.last_checkpoint, Some(4));
        assert_eq!(ck.ckpt_overhead_ns, 4 * 2 * 500);
        assert_eq!(ck.total_ns, base.total_ns + 2 * 500);
        assert_eq!(ck.spans.len(), base.spans.len() + 4 * 2);
        // An async sharded policy over a zero-byte shard is free and
        // durable immediately.
        let sharded = mario_ir::CheckpointPolicy::every(2)
            .with_sharded(mario_ir::ShardedWrite::new(1, 1).with_async_overlap());
        let free = simulate_timeline_ckpt(&s, &cost, 1, &idle, 4, Some(sharded)).unwrap();
        assert_eq!(free.last_checkpoint, Some(4));
        assert_eq!(free.ckpt_overhead_ns, 0);
        assert_eq!(free.device_clocks, base.device_clocks);
    }

    #[test]
    fn forward_only_fill_drain_closed_form() {
        // Fill–drain under the unit grid (F = 1000 ns, free comm): the
        // makespan is (m + p − 1)·F and device d drains at (d + m)·F —
        // the closed form the serve bench and CI gate pin.
        for (p, m) in [(2u32, 4u32), (4, 8), (8, 3)] {
            let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, m));
            let (t, done) = simulate_timeline_serving(
                &s,
                &UnitCost::paper_grid(),
                1,
                &PerturbationProfile::identity(),
                &vec![0; m as usize],
            )
            .unwrap();
            assert_eq!(t.total_ns, ((m + p - 1) * 1_000) as u64, "p={p} m={m}");
            for (d, &c) in t.device_clocks.iter().enumerate() {
                assert_eq!(c, ((d as u32 + m) * 1_000) as u64, "p={p} m={m} d={d}");
            }
            assert!(done.iter().all(|c| c.is_some()));
        }
    }

    #[test]
    fn serving_release_gates_first_stage_forwards() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 2, 3));
        let (t, done) = simulate_timeline_serving(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            &[0, 5_000, 5_000],
        )
        .unwrap();
        // Micro 0 flows ungated; micros 1 and 2 wait at stage 0 until
        // their release, then pipeline back to back.
        assert_eq!(done, vec![Some(2_000), Some(7_000), Some(8_000)]);
        assert_eq!(t.total_ns, 8_000);
        // The gate is recv-blocked idle: conservation still holds
        // (`DeviceCore::finish` checks it in every build), and the first
        // stage's recv_blocked class carries the 4_000 ns wait.
        assert!(t.telemetry.devices[0].classes.recv_blocked_ns >= 4_000);
    }

    #[test]
    fn serving_gate_wait_counts_as_bubble() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 2, 3));
        let (t, _) = simulate_timeline_serving(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            &[0, 5_000, 5_000],
        )
        .unwrap();
        // Each device computes three 1 000 ns forwards. Device 0 idles
        // 4 000 ns at the gate of micro 1 (clock 7 000); device 1 waits on
        // recvs for the rest of its 8 000 ns.
        assert_eq!(t.device_clocks, vec![7_000, 8_000]);
        assert_eq!(t.bubble_ns(), (7_000 - 3_000) + (8_000 - 3_000));
    }

    #[test]
    fn empty_release_gate_is_bit_identical_to_ungated() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 4, 6));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let (gated, done) = simulate_timeline_serving(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            &[],
        )
        .unwrap();
        assert_eq!(base.device_clocks, gated.device_clocks);
        assert_eq!(base.total_ns, gated.total_ns);
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|c| c.is_some()));
    }

    #[test]
    fn iteration_scoped_straggler_slows_only_its_iteration() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let base = simulate_timeline_iters(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            3,
        )
        .unwrap();
        let scoped = PerturbationProfile::identity().with_slowdown(mario_ir::SlowdownWindow {
            device: DeviceId(0),
            factor: 3.0,
            from_pc: 0,
            until_pc: usize::MAX,
            iteration: Some(1),
        });
        let always = PerturbationProfile::identity().with_straggler(DeviceId(0), 3.0);
        let t_scoped =
            simulate_timeline_iters(&s, &UnitCost::paper_grid(), 1, &scoped, 3).unwrap();
        let t_always =
            simulate_timeline_iters(&s, &UnitCost::paper_grid(), 1, &always, 3).unwrap();
        assert!(t_scoped.total_ns > base.total_ns);
        assert!(t_always.total_ns > t_scoped.total_ns);
    }
}
