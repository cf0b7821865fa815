//! The discrete-event executor: the emulator's scale path.
//!
//! One thread, no watchdog, no real-time blocking — every device is the
//! shared resumable interpreter (`crate::device::Device`) and every
//! link a plain queue of timestamped packets. This module is only a
//! driver: it fulfils each send/recv the interpreter hands over with the
//! same `arrival = max(now, sent_at + transfer)` rule and the same
//! ack-window capacity blocking as the thread backend's [`crate::link`],
//! parking the device while its queue is empty or its window full. All
//! per-device semantics — jitter, fault hooks, memory lifecycle, the
//! checkpoint chunk drain and telemetry — live in the interpreter and in
//! [`mario_ir::DeviceCore`], so with zero jitter the two backends (and
//! the DP simulator) agree bit-for-bit by construction; the three-way
//! parity tests check the drivers.
//!
//! Why any execution order works: each device's instruction sequence is
//! fixed, each channel is FIFO, and every clock update depends only on
//! packet timestamps — never on when the scheduler happened to run the
//! device. The worklist is therefore confluent: any order of ready
//! devices reaches the same final state (a property
//! `tests/properties.rs` checks by permuting the seed order through
//! [`run_event_ordered`]).
//!
//! Deadlock needs no timer here: when the worklist drains and devices
//! are still blocked, no event can ever wake them — that *is* the
//! deadlock, detected in zero real time where the thread backend must
//! wait out a watchdog.

use crate::device::{links_of, Device, LinkKey, LinkOp, Settled, Shared, StallTable, Step};
use crate::error::EmuError;
use crate::faults::FaultPlan;
use crate::link::{Header, LinkError};
use crate::runner::{settle_report, EmulatorConfig, RunReport};
use mario_ir::{CkptBoard, CostModel, DeviceId, MemoryRules, Nanos, Schedule};
use mario_ir::fxhash::FxHashMap;
use std::collections::VecDeque;

/// One bounded-FIFO link, event-style: the data queue carries
/// `(header, bytes, sent_at)` packets, `dequeues` buffers the receiver's
/// arrival timestamps (the acks), and `outstanding` is the sender's
/// un-acked window — it grows on every push and shrinks only when a
/// capacity-blocked send consumes the oldest ack, exactly like
/// `SendHalf::pending` and the simulator's `Channel::outstanding`.
#[derive(Debug, Default)]
struct EventChannel {
    queue: VecDeque<(Header, u64, Nanos)>,
    dequeues: VecDeque<Nanos>,
    outstanding: usize,
    sender_settled: bool,
    receiver_settled: bool,
}

/// The channel `op` on device `me` uses.
fn chan_key(me: DeviceId, op: LinkOp) -> LinkKey {
    let (class, part) = op.class_part();
    match op {
        LinkOp::Send { peer, .. } => (me, peer, class, part),
        LinkOp::Recv { peer, .. } => (peer, me, class, part),
    }
}

/// One attempt at the operation `dev` is parked on: the event-queue
/// mirror of `SendHalf::send_delayed` / `RecvHalf::recv_info`. None while
/// it must stay parked; otherwise the completed operation's outcome.
fn attempt(
    dev: &mut Device<'_>,
    op: LinkOp,
    chan: &mut EventChannel,
    capacity: usize,
    stalls: &StallTable,
) -> Option<Result<(), EmuError>> {
    let me = dev.id();
    match op {
        LinkOp::Send {
            header,
            bytes,
            delay,
            ..
        } => {
            let mut now = dev.clock();
            if chan.outstanding == capacity {
                match chan.dequeues.pop_front() {
                    // The buffer was full until the receiver dequeued the
                    // oldest packet: the send completes at that time.
                    Some(dequeued_at) => {
                        chan.outstanding -= 1;
                        now = now.max(dequeued_at);
                    }
                    // No ack will ever come: the receiver settled. FIFO
                    // order guarantees every genuine ack was consumed
                    // first — the observation the thread backend's
                    // ack-poison makes.
                    None if chan.receiver_settled => {
                        stalls.clear(me);
                        return Some(Err(dev.link_failed(LinkError::Disconnected)));
                    }
                    None => return None,
                }
            }
            chan.queue.push_back((header, bytes, now + delay));
            chan.outstanding += 1;
            stalls.clear(me);
            Some(dev.sent(now, chan.outstanding as u32))
        }
        LinkOp::Recv { peer, expect } => {
            let Some((header, bytes, sent_at)) = chan.queue.pop_front() else {
                if !chan.sender_settled {
                    return None;
                }
                // Queue drained and the sender will never send again:
                // FIFO-ordered end-of-stream, after all genuine packets.
                stalls.clear(me);
                return Some(Err(dev.link_failed(LinkError::Disconnected)));
            };
            stalls.clear(me);
            if header != expect {
                // The mismatched packet is consumed and never acked,
                // exactly like the thread backend.
                return Some(Err(dev.link_failed(LinkError::Mismatch(header))));
            }
            let arrival = dev.received(sent_at, dev.wire_ns(peer, bytes));
            chan.dequeues.push_back(arrival);
            Some(Ok(()))
        }
    }
}

/// Per-device lists of the channel keys each device sends on (`out`)
/// and receives on (`inp`), for settlement.
struct Wiring {
    out: Vec<Vec<LinkKey>>,
    inp: Vec<Vec<LinkKey>>,
}

/// Mutable scheduler state threaded through [`Sched::drain_queue`] and
/// [`Sched::settle`]. A device slot empties once the device settles.
struct Sched<'a> {
    devs: Vec<Option<Device<'a>>>,
    chans: FxHashMap<LinkKey, EventChannel>,
    wiring: Wiring,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    results: Vec<Option<Settled>>,
    capacity: usize,
    stalls: &'a StallTable,
}

impl<'a> Sched<'a> {
    /// Enqueues `d` unless it already settled or is already queued.
    fn wake(&mut self, d: usize) {
        if self.devs.get(d).is_some_and(Option::is_some) && !self.queued[d] {
            self.queued[d] = true;
            self.queue.push_back(d);
        }
    }

    /// Records device `d`'s outcome, then marks every channel half it
    /// owns as ended — the event mirror of poisoning the links: peers
    /// observe end-of-stream only after consuming all genuine traffic
    /// (FIFO order) — and wakes the affected peers.
    fn settle(&mut self, d: usize, outcome: Result<(), EmuError>) {
        let dev = self.devs[d].take().expect("a device settles once");
        if outcome.is_err() {
            self.stalls.clear(dev.id());
        }
        self.results[d] = Some(outcome.map(|()| dev.finish()));
        let out = std::mem::take(&mut self.wiring.out[d]);
        for key in &out {
            if let Some(chan) = self.chans.get_mut(key) {
                chan.sender_settled = true;
            }
            self.wake(key.1.index());
        }
        let inp = std::mem::take(&mut self.wiring.inp[d]);
        for key in &inp {
            if let Some(chan) = self.chans.get_mut(key) {
                chan.receiver_settled = true;
            }
            self.wake(key.0.index());
        }
    }

    /// Runs device `d` until it parks on a link (None), finishes or
    /// fails. The loop top owns the single resume path for both the first
    /// attempt at an operation and every retry.
    fn run_device(&mut self, d: usize, wakes: &mut Vec<usize>) -> Option<Result<(), EmuError>> {
        let dev = self.devs[d].as_mut().expect("only unsettled devices run");
        loop {
            let op = match dev.pending() {
                Some(op) => op,
                None => match dev.step() {
                    Step::Link(op) => {
                        if !self.chans.contains_key(&chan_key(dev.id(), op)) {
                            return Some(Err(dev.no_route(op.peer())));
                        }
                        self.stalls.enter(dev.id(), op.peer(), dev.pc());
                        op
                    }
                    Step::Finished => return Some(Ok(())),
                    Step::Failed(e) => return Some(Err(e)),
                },
            };
            let chan = self
                .chans
                .get_mut(&chan_key(dev.id(), op))
                .expect("route checked at issue");
            match attempt(dev, op, chan, self.capacity, self.stalls)? {
                Ok(()) => wakes.push(op.peer().index()),
                Err(e) => return Some(Err(e)),
            }
        }
    }

    /// Runs the worklist dry: steps every queued device, records
    /// settlements, propagates wakes.
    fn drain_queue(&mut self) {
        let mut wakes = Vec::new();
        while let Some(d) = self.queue.pop_front() {
            self.queued[d] = false;
            if self.devs[d].is_none() {
                continue;
            }
            if let Some(outcome) = self.run_device(d, &mut wakes) {
                self.settle(d, outcome);
            }
            for w in wakes.drain(..) {
                self.wake(w);
            }
        }
    }
}

/// Runs `schedule` on the discrete-event backend (no injected faults).
/// The event-backend equivalent of [`crate::run`].
pub fn run_event(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
) -> Result<RunReport, EmuError> {
    run_event_with_faults(schedule, cost, cfg, &FaultPlan::none())
}

/// [`run_event`] with the faults of `plan` injected — the event-backend
/// equivalent of [`crate::run_with_faults`].
pub fn run_event_with_faults(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
) -> Result<RunReport, EmuError> {
    run_event_with_faults_startup(schedule, cost, cfg, plan, &[])
}

/// [`run_event_with_faults`] with per-device startup offsets (elastic
/// reconfiguration charges) — the event-backend equivalent of
/// [`crate::run_with_faults_startup`], which dispatches here when
/// [`EmulatorConfig::backend`] is [`crate::EmulatorBackend::Event`].
pub fn run_event_with_faults_startup(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
    startup: &[Nanos],
) -> Result<RunReport, EmuError> {
    let order: Vec<u32> = (0..schedule.devices()).collect();
    run_event_inner(schedule, cost, cfg, plan, startup, &order, None)
}

/// One serving attempt on the event backend: the event-side twin of the
/// thread path taken by [`crate::runner::run_serving`], with the serving
/// hooks (ingress release gates, completion scoreboard) threaded into
/// every device.
pub fn run_event_serving(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
    hooks: crate::serving::ServingHooks<'_>,
) -> Result<RunReport, EmuError> {
    let order: Vec<u32> = (0..schedule.devices()).collect();
    run_event_inner(schedule, cost, cfg, plan, &[], &order, Some(hooks))
}

/// [`run_event_with_faults_startup`] with an explicit initial worklist
/// order. The executor is confluent — any permutation of `order`
/// produces a bit-identical result — and the determinism proptests
/// exercise exactly that by permuting it.
#[doc(hidden)]
pub fn run_event_ordered(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
    startup: &[Nanos],
    order: &[u32],
) -> Result<RunReport, EmuError> {
    run_event_inner(schedule, cost, cfg, plan, startup, order, None)
}

fn run_event_inner(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
    startup: &[Nanos],
    order: &[u32],
    serving: Option<crate::serving::ServingHooks<'_>>,
) -> Result<RunReport, EmuError> {
    let devices = schedule.devices() as usize;
    let mut seen = vec![false; devices];
    for &d in order {
        assert!(
            (d as usize) < devices && !std::mem::replace(&mut seen[d as usize], true),
            "order must be a permutation of 0..{devices}"
        );
    }
    assert!(
        seen.iter().all(|&s| s),
        "order must cover every device 0..{devices}"
    );

    let rules = MemoryRules::new(schedule);
    let stalls = StallTable::new(devices);
    let ckpts = CkptBoard::new(devices);
    let env = Shared {
        schedule,
        cost,
        cfg: &cfg,
        rules: &rules,
        stalls: &stalls,
        ckpts: &ckpts,
        serving,
    };

    let mut chans: FxHashMap<LinkKey, EventChannel> = FxHashMap::default();
    let mut wiring = Wiring {
        out: vec![Vec::new(); devices],
        inp: vec![Vec::new(); devices],
    };
    for key in links_of(schedule) {
        chans.insert(key, EventChannel::default());
        wiring.out[key.0.index()].push(key);
        if let Some(keys) = wiring.inp.get_mut(key.1.index()) {
            keys.push(key);
        }
    }

    let devs = (0..devices)
        .map(|d| {
            let device = DeviceId(d as u32);
            let startup_ns = startup.get(d).copied().unwrap_or(0);
            Some(Device::new(
                env,
                device,
                plan.for_device(device),
                startup_ns,
            ))
        })
        .collect();
    let mut sched = Sched {
        devs,
        chans,
        wiring,
        queue: order.iter().map(|&d| d as usize).collect(),
        queued: vec![true; devices],
        results: (0..devices).map(|_| None).collect(),
        capacity: cfg.channel_capacity,
        stalls: &stalls,
    };
    sched.drain_queue();

    // Quiescence, phase 1: devices parked on a link with an injected
    // incoming stall are the stall surfacing — the event analogue of
    // the thread backend's watchdog-timeout-then-stall normalization in
    // `Device::link_failed`. Settling one can cascade (peers observe the
    // failure), so loop until no stall fires.
    loop {
        let stalled: Vec<(usize, EmuError)> = (0..devices)
            .filter_map(|d| Some((d, sched.devs[d].as_ref()?.injected_stall()?)))
            .collect();
        if stalled.is_empty() {
            break;
        }
        for (d, err) in stalled {
            sched.settle(d, Err(err));
        }
        sched.drain_queue();
    }

    // Quiescence, phase 2: anything still parked can never be woken —
    // that is a deadlock, detected in zero real time. Snapshot every
    // wait chain *before* settling anyone, so the named cycles do not
    // depend on settlement order.
    let parked: Vec<(usize, EmuError)> = (0..devices)
        .filter_map(|d| {
            let dev = sched.devs[d].as_ref()?;
            Some((d, dev.deadlocked(stalls.wait_chain(dev.id()))))
        })
        .collect();
    for (d, err) in parked {
        sched.settle(d, Err(err));
    }
    sched.drain_queue();

    let results = sched
        .results
        .into_iter()
        .map(|r| r.expect("every device settles before the worklist drains"))
        .collect();
    settle_report(results, &cfg, plan, &ckpts)
}
