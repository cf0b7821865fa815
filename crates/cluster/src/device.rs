//! The emulator's per-instruction interpreter, written once for both
//! backends.
//!
//! `Device` walks one instruction list on top of a
//! [`mario_ir::DeviceCore`] (which owns the clock, time classes,
//! checkpoint chunk drain and recorders every executor shares) and adds
//! what only the emulators have: seeded jitter and straggler factors,
//! the fault hooks of a [`crate::FaultPlan`] (crashes, slowdowns, link
//! delays and stalls, memory squeezes) and the conversion of every
//! induced failure into a structured [`FaultReport`].
//!
//! It is a resumable state machine: `Device::step` runs until the next
//! send or recv and hands that request (`LinkOp`) to its driver. The
//! thread backend fulfils it with blocking [`crate::link`] halves, the
//! event backend with its queues and parking; either reports back
//! through `Device::sent`, `Device::received` or
//! `Device::link_failed`.

use crate::error::EmuError;
use crate::faults::{DeviceFaults, FaultKind, FaultReport};
use crate::link::{Header, LinkError};
use crate::runner::EmulatorConfig;
use crate::serving::ServingHooks;
use mario_ir::exec::MsgClass;
use mario_ir::fxhash::{FxHashMap, FxHashSet};
use mario_ir::{
    CkptBoard, CostModel, DeviceCore, DeviceId, DeviceProgram, DeviceReport, Instr, InstrKind,
    MemLedger, MemoryRules, Nanos, OomError, PartId, Schedule, Work,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a blocked device is waiting on right now.
#[derive(Debug, Clone, Copy)]
pub struct BlockedOn {
    /// The peer whose send/recv must pair for progress.
    pub peer: DeviceId,
    /// Instruction index of the blocked operation.
    pub pc: usize,
}

/// Shared table of blocked devices: each device registers the peer it is
/// about to block on and clears the entry once the operation pairs. When
/// a watchdog fires, the timed-out device snapshots the table and names
/// the wait chain — turning "2 s elapsed" into "d0 -> d2 -> d1 -> d0".
#[derive(Debug, Default)]
pub struct StallTable {
    slots: Vec<Mutex<Option<BlockedOn>>>,
}

impl StallTable {
    /// A table for `devices` devices, all initially unblocked.
    pub fn new(devices: usize) -> Self {
        Self {
            slots: (0..devices).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Marks `device` as about to block on `peer` at `pc`.
    pub fn enter(&self, device: DeviceId, peer: DeviceId, pc: usize) {
        if let Some(slot) = self.slots.get(device.index()) {
            *slot.lock() = Some(BlockedOn { peer, pc });
        }
    }

    /// Clears `device`'s blocked mark.
    pub fn clear(&self, device: DeviceId) {
        if let Some(slot) = self.slots.get(device.index()) {
            *slot.lock() = None;
        }
    }

    /// The wait chain starting at `device`: follows blocked-on edges until
    /// an unblocked device or a repeat (a true cycle). The starting device
    /// is always the first entry.
    pub fn wait_chain(&self, device: DeviceId) -> Vec<DeviceId> {
        let mut chain = vec![device];
        let mut current = device;
        while let Some(slot) = self.slots.get(current.index()) {
            let next = match *slot.lock() {
                Some(b) => b.peer,
                None => break,
            };
            let looped = chain.contains(&next);
            chain.push(next);
            if looped {
                break;
            }
            current = next;
        }
        chain
    }
}

/// A directed link: (sender, receiver, class, part).
pub(crate) type LinkKey = (DeviceId, DeviceId, MsgClass, PartId);

/// Every directed link the schedule's sends use, once each, in program
/// order — the links a driver must build before the run.
pub(crate) fn links_of(schedule: &Schedule) -> Vec<LinkKey> {
    let mut seen = FxHashSet::default();
    let mut keys = Vec::new();
    for prog in schedule.programs() {
        for (_, i) in prog.iter() {
            let key = match i.kind {
                InstrKind::SendAct { peer } => (prog.device, peer, MsgClass::Act, i.part),
                InstrKind::SendGrad { peer } => (prog.device, peer, MsgClass::Grad, i.part),
                _ => continue,
            };
            if seen.insert(key) {
                keys.push(key);
            }
        }
    }
    keys
}

/// A send or recv a device hands to its driver.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LinkOp {
    /// Send `bytes` under `header` to `peer`; the packet departs `delay`
    /// ns after the send completes (an injected link delay).
    Send {
        peer: DeviceId,
        header: Header,
        bytes: u64,
        delay: Nanos,
    },
    /// Receive the packet `expect` from `peer`.
    Recv { peer: DeviceId, expect: Header },
}

impl LinkOp {
    /// The peer the operation pairs with.
    pub(crate) fn peer(&self) -> DeviceId {
        match *self {
            LinkOp::Send { peer, .. } | LinkOp::Recv { peer, .. } => peer,
        }
    }

    /// The link's `(class, part)` key on this device's side.
    pub(crate) fn class_part(&self) -> (MsgClass, PartId) {
        match *self {
            LinkOp::Send { header, .. } | LinkOp::Recv { expect: header, .. } => {
                (header.class, header.part)
            }
        }
    }
}

/// Where [`Device::step`] stopped.
pub(crate) enum Step {
    /// The driver must fulfil this send or recv.
    Link(LinkOp),
    /// Every iteration ran to completion.
    Finished,
    /// A structured failure.
    Failed(EmuError),
}

/// A device's outcome: its report plus the faults it absorbed, or the
/// error that stopped it.
pub(crate) type Settled = Result<(DeviceReport, Vec<FaultReport>), EmuError>;

/// Run-wide context every device of one run shares.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a> {
    pub schedule: &'a Schedule,
    pub cost: &'a dyn CostModel,
    pub cfg: &'a EmulatorConfig,
    pub rules: &'a MemoryRules,
    pub stalls: &'a StallTable,
    pub ckpts: &'a CkptBoard,
    /// Serving-mode release gates and completion scoreboard.
    pub serving: Option<ServingHooks<'a>>,
}

/// One emulated device: a [`DeviceCore`] plus jitter, fault hooks and a
/// program counter, so execution can suspend at a link and resume.
pub(crate) struct Device<'a> {
    core: DeviceCore<'a>,
    program: &'a DeviceProgram,
    env: Shared<'a>,
    rng: StdRng,
    straggler: f64,
    faults: DeviceFaults,
    /// Packets sent per peer this iteration (link faults target the
    /// `nth`, matching `send_sites` and the profile's `LinkSlack::nth`).
    sends_to: FxHashMap<DeviceId, usize>,
    absorbed: Vec<FaultReport>,
    iteration: u32,
    pc: usize,
    pending: Option<LinkOp>,
}

impl<'a> Device<'a> {
    /// Device `device` of `env`'s schedule, enforcing `faults`, its clock
    /// starting at `startup_ns` (an elastic reconfiguration charge).
    pub(crate) fn new(
        env: Shared<'a>,
        device: DeviceId,
        faults: DeviceFaults,
        startup_ns: Nanos,
    ) -> Self {
        let cfg = env.cfg;
        // A fixed per-device slowdown in [1, 1+spread], derived from the
        // seed so runs stay deterministic.
        let mix = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((device.0 as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let unit = (mix >> 11) as f64 / (1u64 << 53) as f64;
        // An injected memory squeeze clamps the capacity for the whole
        // run (it models lost headroom, not a transient glitch).
        let capacity = match faults.squeezed_capacity() {
            Some(squeezed) => Some(cfg.mem_capacity.unwrap_or(u64::MAX).min(squeezed)),
            None => cfg.mem_capacity,
        };
        let ledger = MemLedger::new(env.cost.static_mem(device), capacity);
        Self {
            core: DeviceCore::new(device, ledger, startup_ns, env.ckpts)
                .with_checkpoint(cfg.checkpoint, env.cost)
                .recording(cfg.record_spans),
            program: env.schedule.program(device),
            env,
            rng: StdRng::seed_from_u64(
                cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(device.0 as u64 + 1)),
            ),
            straggler: 1.0 + cfg.straggler_spread * unit,
            faults,
            sends_to: FxHashMap::default(),
            absorbed: Vec::new(),
            iteration: 0,
            pc: 0,
            pending: None,
        }
    }

    pub(crate) fn id(&self) -> DeviceId {
        self.core.device()
    }

    pub(crate) fn clock(&self) -> Nanos {
        self.core.clock()
    }

    pub(crate) fn pc(&self) -> usize {
        self.pc
    }

    /// The link operation the device is parked on, if any.
    pub(crate) fn pending(&self) -> Option<LinkOp> {
        self.pending
    }

    /// Runs until the next link operation, the end of the run, or a
    /// failure. At each program end the checkpoint boundary fires; after
    /// the last iteration any async-checkpoint residue is paid.
    pub(crate) fn step(&mut self) -> Step {
        let iterations = self.env.cfg.iterations;
        loop {
            if self.iteration >= iterations {
                self.core.drain_end(iterations.saturating_sub(1));
                return Step::Finished;
            }
            let Some(&instr) = self.program.instrs().get(self.pc) else {
                if let Err(cause) = self.core.boundary(self.iteration) {
                    return Step::Failed(self.oom(cause));
                }
                self.iteration += 1;
                self.pc = 0;
                self.sends_to.clear();
                continue;
            };
            match self.fire(instr) {
                Ok(None) => {}
                Ok(Some(op)) => {
                    self.pending = Some(op);
                    return Step::Link(op);
                }
                Err(e) => return Step::Failed(e),
            }
        }
    }

    /// Fires the instruction at `pc`, or issues its link operation.
    fn fire(&mut self, instr: Instr) -> Result<Option<LinkOp>, EmuError> {
        let me = self.id();
        let cost = self.env.cost;
        let faults_active = !self.faults.is_empty() && self.iteration == self.faults.iteration;
        let crash = self.faults.crash.filter(|_| faults_active);
        if let Some(fault @ FaultKind::Crash { pc, .. }) = crash {
            if pc == self.pc {
                let report = self.report(fault, "device crashed");
                return Err(EmuError::Fault(Box::new(report)));
            }
        }
        self.core.begin();
        let class = match instr.kind {
            InstrKind::SendAct { .. } | InstrKind::RecvAct { .. } => MsgClass::Act,
            _ => MsgClass::Grad,
        };
        let header = Header {
            class,
            micro: instr.micro,
            part: instr.part,
        };
        match instr.kind {
            InstrKind::Forward { .. }
            | InstrKind::Backward
            | InstrKind::BackwardInput
            | InstrKind::BackwardWeight
            | InstrKind::Recompute => {
                let forward = matches!(instr.kind, InstrKind::Forward { .. });
                let serving = self.env.serving.filter(|_| forward);
                // Serving ingress gate: a first-stage forward may not
                // start before its micro-batch was released.
                if let Some(sv) = serving.filter(|sv| sv.topo.is_first_stage(me, instr.part)) {
                    self.core.gate(sv.release_of(instr.micro));
                }
                let mut dur = self.jittered(cost.duration(me, &instr));
                let factor = self.faults.slow_factor(self.iteration, self.pc);
                if faults_active && factor != 1.0 {
                    dur = (dur as f64 * factor).round() as Nanos;
                    let pc = self.pc;
                    let slowdown = self.faults.slowdowns.iter().copied().find(|s| {
                        matches!(*s, FaultKind::Slowdown { from_pc, until_pc, .. } if (from_pc..until_pc).contains(&pc))
                    });
                    // One report per fault, not one per slowed instruction.
                    if let Some(fault) =
                        slowdown.filter(|f| !self.absorbed.iter().any(|r| r.fault == *f))
                    {
                        self.absorb(fault, "compute slowed");
                    }
                }
                self.core.busy(Work::Compute, dur);
                self.apply_mem(&instr)?;
                // Serving egress: a last-stage forward completes its
                // micro-batch (observational write — never read here).
                if let Some(sv) = serving.filter(|sv| sv.topo.is_last_stage(me, instr.part)) {
                    sv.board.record(instr.micro, self.core.clock());
                }
            }
            InstrKind::SendAct { peer } | InstrKind::SendGrad { peer } => {
                self.core.busy(Work::Launch, cost.p2p_launch_overhead());
                let nth = self.sends_to.entry(peer).or_insert(0);
                let fault = faults_active
                    .then(|| self.faults.send_fault(self.iteration, peer, *nth))
                    .flatten();
                *nth += 1;
                let delay = match fault {
                    // Drop the packet: the receiver's pairing recv can
                    // never complete and reports the stall. The send side
                    // absorbs it (buffers freed as usual).
                    Some(stall @ FaultKind::LinkStall { .. }) => {
                        self.absorb(stall, "packet dropped");
                        self.apply_mem(&instr)?;
                        self.complete();
                        return Ok(None);
                    }
                    Some(f @ FaultKind::LinkDelay { extra_ns, .. }) => {
                        self.absorb(f, "packet delayed");
                        extra_ns
                    }
                    _ => 0,
                };
                let bytes = cost.boundary_bytes(me, instr.part);
                return Ok(Some(LinkOp::Send {
                    peer,
                    header,
                    bytes,
                    delay,
                }));
            }
            InstrKind::RecvAct { peer } | InstrKind::RecvGrad { peer } => {
                self.core.busy(Work::Launch, cost.p2p_launch_overhead());
                return Ok(Some(LinkOp::Recv {
                    peer,
                    expect: header,
                }));
            }
            InstrKind::AllReduce => self.core.busy(Work::AllReduce, cost.allreduce_time(me)),
            InstrKind::OptimizerStep => self.core.busy(Work::Optimizer, cost.optimizer_time(me)),
        }
        self.complete();
        Ok(None)
    }

    /// The pending send completed: its capacity wait ended at `freed`,
    /// leaving `occupancy` packets un-acked on the channel.
    pub(crate) fn sent(&mut self, freed: Nanos, occupancy: u32) -> Result<(), EmuError> {
        let Some(LinkOp::Send { peer, bytes, .. }) = self.pending.take() else {
            unreachable!("no send pending");
        };
        self.core.sent(peer, freed, bytes, occupancy);
        let instr = self.program.instrs()[self.pc];
        self.apply_mem(&instr)?;
        self.complete();
        Ok(())
    }

    /// The pending recv got a packet that departed at `sent_at` and spent
    /// `wire_ns` on the wire. Returns the arrival (the receiver's ack).
    pub(crate) fn received(&mut self, sent_at: Nanos, wire_ns: Nanos) -> Nanos {
        let Some(LinkOp::Recv { peer, .. }) = self.pending.take() else {
            unreachable!("no recv pending");
        };
        let arrival = self.core.received(peer, sent_at, wire_ns);
        self.complete();
        arrival
    }

    /// Wire time of a `bytes` packet from `peer` to this device.
    pub(crate) fn wire_ns(&self, peer: DeviceId, bytes: u64) -> Nanos {
        self.env.cost.p2p_time_between(peer, self.id(), bytes)
    }

    /// The pending operation failed at the link level. An injected stall
    /// on the incoming link takes precedence over the mechanical failure
    /// shape, so seeded runs reproduce identical reports on both backends.
    pub(crate) fn link_failed(&mut self, e: LinkError) -> EmuError {
        if let Some(err) = self.injected_stall() {
            return err;
        }
        let (device, pc) = (self.id(), self.pc);
        match e {
            LinkError::Timeout => self.deadlocked(self.env.stalls.wait_chain(device)),
            LinkError::Disconnected => EmuError::PeerFailed { device, pc },
            LinkError::Mismatch(h) => EmuError::CommMismatch {
                device,
                pc,
                detail: format!("expected {}, got {h:?}", self.current()),
            },
        }
    }

    /// The structured report of an injected stall on the link the device
    /// is parked on, if there is one.
    pub(crate) fn injected_stall(&self) -> Option<EmuError> {
        let peer = self.pending?.peer();
        let fault = self.faults.recv_stall_from(peer)?;
        let mut report = self.report(fault, "incoming link stalled");
        report.blocked_peer = Some(peer);
        Some(EmuError::Fault(Box::new(report)))
    }

    /// A deadlock observed while parked, naming the wait chain `cycle`.
    pub(crate) fn deadlocked(&self, cycle: Vec<DeviceId>) -> EmuError {
        EmuError::DeadlockSuspected {
            device: self.id(),
            pc: self.pc,
            instr: self.current(),
            cycle,
        }
    }

    /// The pending operation names a peer no link was built for.
    pub(crate) fn no_route(&self, peer: DeviceId) -> EmuError {
        EmuError::NoRoute {
            device: self.id(),
            pc: self.pc,
            peer,
        }
    }

    /// Finishes the run: the core's report plus the absorbed faults.
    pub(crate) fn finish(self) -> (DeviceReport, Vec<FaultReport>) {
        let mut report = self.core.finish();
        report.telemetry.absorbed_faults = self.absorbed.len() as u32;
        (report, self.absorbed)
    }

    fn complete(&mut self) {
        self.core.end(self.iteration, self.pc);
        self.pc += 1;
    }

    fn jittered(&mut self, ns: Nanos) -> Nanos {
        let jitter = self.env.cfg.jitter;
        if jitter == 0.0 && self.straggler == 1.0 {
            return ns;
        }
        let f = if jitter == 0.0 {
            1.0
        } else {
            1.0 + self.rng.gen_range(-2.0 * jitter..=2.0 * jitter)
        };
        (ns as f64 * f * self.straggler).round() as Nanos
    }

    /// The instruction at `pc`, rendered; `CKPT` at the iteration
    /// boundary past the program's end.
    fn current(&self) -> String {
        self.program
            .get(self.pc)
            .map_or_else(|| "CKPT".to_string(), |i| i.to_string())
    }

    fn report(&self, fault: FaultKind, detail: &str) -> FaultReport {
        FaultReport {
            fault,
            device: self.id(),
            pc: self.pc,
            instr: self.current(),
            blocked_peer: None,
            vtime: self.core.clock(),
            iteration: self.iteration,
            last_checkpoint: self.core.last_checkpoint(),
            ckpt_paid_ns: 0,
            group: None,
            detail: detail.to_string(),
        }
    }

    fn absorb(&mut self, fault: FaultKind, detail: &str) {
        let report = self.report(fault, detail);
        self.absorbed.push(report);
    }

    fn apply_mem(&mut self, instr: &Instr) -> Result<(), EmuError> {
        let applied = self.core.apply(self.env.rules, self.env.cost, instr);
        applied.map_err(|cause| self.oom(cause))
    }

    /// An allocation failure at `pc`: under an injected capacity squeeze
    /// it is the squeeze surfacing, reported as the structured fault.
    fn oom(&self, cause: OomError) -> EmuError {
        match self.faults.squeeze {
            Some(fault) => EmuError::Fault(Box::new(
                self.report(fault, &format!("memory squeezed: {cause}")),
            )),
            None => EmuError::Oom {
                device: self.id(),
                pc: self.pc,
                instr: self.current(),
                cause,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_chain_names_a_cycle() {
        let t = StallTable::new(3);
        t.enter(DeviceId(0), DeviceId(1), 5);
        t.enter(DeviceId(1), DeviceId(2), 7);
        t.enter(DeviceId(2), DeviceId(0), 9);
        assert_eq!(
            t.wait_chain(DeviceId(0)),
            vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(0)]
        );
        t.clear(DeviceId(2));
        assert_eq!(
            t.wait_chain(DeviceId(0)),
            vec![DeviceId(0), DeviceId(1), DeviceId(2)]
        );
    }

    #[test]
    fn wait_chain_stops_at_self_loops() {
        let t = StallTable::new(2);
        t.enter(DeviceId(1), DeviceId(1), 0);
        assert_eq!(t.wait_chain(DeviceId(1)), vec![DeviceId(1), DeviceId(1)]);
    }
}
