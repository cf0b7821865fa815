//! The per-device execution core every executor drives.
//!
//! The DP timeline simulator (`mario-core`), the thread emulator and the
//! discrete-event emulator (`mario-cluster`) differ only in *when* a
//! device may fire its next instruction: a round-robin sweep over
//! channels, an OS thread blocking on its links, or an event worklist.
//! What a firing *does* to the device is written once, here, in
//! [`DeviceCore`]:
//!
//! * clock and time-class accounting ([`crate::TimeClasses`]);
//! * idle gaps (a recv wait, a capacity-blocked send, a serving ingress
//!   gate) and the async-checkpoint chunks that drain into them;
//! * the end-of-iteration checkpoint boundary and the end-of-run drain;
//! * per-link statistics and the span recorder;
//! * [`DeviceCore::finish`], which checks Σ time classes == clock.
//!
//! [`merge_reports`] then assembles the per-device reports into run-level
//! telemetry and span graph, again for every executor. With
//! zero jitter the three executors therefore agree bit for bit by
//! construction; the parity tests check the drivers, not copies.

use crate::checkpoint::CheckpointPolicy;
use crate::cost::{CostModel, Nanos};
use crate::fxhash::FxHashMap;
use crate::ids::DeviceId;
use crate::instr::Instr;
use crate::ledger::{AllocKey, MemLedger, OomError};
use crate::rules::MemoryRules;
use crate::span::{OpSpan, SpanGraph, CKPT_PC};
use crate::telemetry::{DeviceTelemetry, LinkSendStats, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Shared scoreboard of completed checkpoint writes: each device records
/// the number of iterations its latest checkpoint covers, and the
/// cluster-durable checkpoint is the minimum across devices — a model
/// checkpoint only exists once *every* shard of it was written, exactly
/// like a real distributed snapshot. An async write is recorded only once
/// its last chunk flushed, so a crash mid-flush leaves it invisible.
///
/// The board also tracks the virtual time each device actually *paid* on
/// its critical path writing checkpoints — the measured overhead run
/// reports expose.
#[derive(Debug, Default)]
pub struct CkptBoard {
    saved: Vec<AtomicU32>,
    paid: Vec<AtomicU64>,
}

impl CkptBoard {
    /// A board for `devices` devices, nothing saved yet.
    pub fn new(devices: usize) -> Self {
        Self {
            saved: (0..devices).map(|_| AtomicU32::new(0)).collect(),
            paid: (0..devices).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records that `device` completed a checkpoint covering the first
    /// `saved` iterations.
    pub fn record(&self, device: DeviceId, saved: u32) {
        if let Some(slot) = self.saved.get(device.index()) {
            slot.fetch_max(saved, Ordering::Relaxed);
        }
    }

    /// Charges `ns` of checkpoint write time actually paid by `device`
    /// (synchronous writes and residue flushes; chunks hidden in bubbles
    /// cost nothing).
    pub fn record_paid(&self, device: DeviceId, ns: Nanos) {
        if let Some(slot) = self.paid.get(device.index()) {
            slot.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Checkpoint write time `device` paid on its critical path, ns.
    pub fn paid_of(&self, device: DeviceId) -> Nanos {
        self.paid
            .get(device.index())
            .map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// Checkpoint write time paid across all devices, ns.
    pub fn total_paid(&self) -> Nanos {
        self.paid.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Iterations covered by the last checkpoint *every* device
    /// completed (the only checkpoint a resume can trust).
    pub fn cluster_saved(&self) -> u32 {
        self.saved
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }
}

/// The time class a busy charge lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A compute kernel.
    Compute,
    /// The fixed p2p launch overhead of a send or recv.
    Launch,
    /// A gradient all-reduce.
    AllReduce,
    /// An optimizer step.
    Optimizer,
    /// Checkpoint write time paid synchronously.
    CkptWrite,
}

/// What a device's core reports once its run completed.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Final virtual clock.
    pub clock: Nanos,
    /// Iterations covered by this device's last completed checkpoint
    /// write (0 when no policy was active or nothing was saved).
    pub last_checkpoint: u32,
    /// Time-class breakdown of the clock, peak memory and counters.
    pub telemetry: DeviceTelemetry,
    /// Send-side link statistics, keyed by receiving peer.
    pub link_sends: FxHashMap<DeviceId, LinkSendStats>,
    /// Total recv-wait time per sending peer, ns.
    pub link_recv_wait: FxHashMap<DeviceId, Nanos>,
    /// Executed spans (execution order), if span recording was enabled.
    pub spans: Vec<OpSpan>,
}

/// One device's execution state and the transitions every executor
/// applies to it. An executor brackets each instruction occurrence with
/// [`DeviceCore::begin`] and [`DeviceCore::end`]; in between it charges
/// busy time ([`DeviceCore::busy`]) and completes idle waits
/// ([`DeviceCore::gate`], [`DeviceCore::sent`], [`DeviceCore::received`]).
pub struct DeviceCore<'a> {
    device: DeviceId,
    clock: Nanos,
    /// Memory ledger, driven by the shared [`MemoryRules`].
    ledger: MemLedger,
    /// Time classes and counters; Σ classes == `clock` at all times.
    telemetry: DeviceTelemetry,
    /// Iterations covered by this device's last durable checkpoint.
    last_checkpoint: u32,
    board: &'a CkptBoard,
    checkpoint: Option<CheckpointPolicy>,
    shard_bytes: u64,
    /// Chunk flush times of the in-flight async checkpoint write, drained
    /// front-first into idle gaps.
    pending_chunks: VecDeque<Nanos>,
    /// Iterations the in-flight write covers once every chunk flushed.
    pending_iters: u32,
    link_sends: FxHashMap<DeviceId, LinkSendStats>,
    link_recv_wait: FxHashMap<DeviceId, Nanos>,
    record_spans: bool,
    spans: Vec<OpSpan>,
    /// The op in progress: its start, work and wire fields.
    op: OpSpan,
}

impl<'a> DeviceCore<'a> {
    /// A core for `device` whose clock starts at `startup_ns` (charged to
    /// the `reconfig_ns` class), recording durable checkpoints on
    /// `board`. No checkpoint policy, nothing recorded.
    pub fn new(
        device: DeviceId,
        ledger: MemLedger,
        startup_ns: Nanos,
        board: &'a CkptBoard,
    ) -> Self {
        let mut telemetry = DeviceTelemetry::new(device);
        telemetry.classes.reconfig_ns = startup_ns;
        Self {
            device,
            clock: startup_ns,
            ledger,
            telemetry,
            last_checkpoint: 0,
            board,
            checkpoint: None,
            shard_bytes: 0,
            pending_chunks: VecDeque::new(),
            pending_iters: 0,
            link_sends: FxHashMap::default(),
            link_recv_wait: FxHashMap::default(),
            record_spans: false,
            spans: Vec::new(),
            op: OpSpan {
                device,
                iter: 0,
                pc: 0,
                start: startup_ns,
                end: startup_ns,
                work_ns: 0,
                sent_at: 0,
                wire_ns: 0,
                gate_ns: 0,
            },
        }
    }

    /// Writes model-state checkpoints under `policy`, sized by the
    /// device's `cost.ckpt_shard_bytes`.
    pub fn with_checkpoint(
        mut self,
        policy: Option<CheckpointPolicy>,
        cost: &dyn CostModel,
    ) -> Self {
        self.checkpoint = policy;
        self.shard_bytes = cost.ckpt_shard_bytes(self.device);
        self
    }

    /// Turns the span recorder on or off.
    pub fn recording(mut self, spans: bool) -> Self {
        self.record_spans = spans;
        self
    }

    /// The device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The virtual clock, ns.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Iterations covered by this device's last durable checkpoint.
    pub fn last_checkpoint(&self) -> u32 {
        self.last_checkpoint
    }

    /// Reserves recorder room for `ops` more ops.
    pub fn reserve(&mut self, ops: usize) {
        if self.record_spans {
            self.spans.reserve_exact(ops);
        }
    }

    /// Starts an op at the current clock.
    pub fn begin(&mut self) {
        self.op.start = self.clock;
        self.op.work_ns = 0;
        self.op.sent_at = 0;
        self.op.wire_ns = 0;
        self.op.gate_ns = 0;
    }

    /// Charges `ns` of busy time to `class`; it counts as the op's work.
    pub fn busy(&mut self, class: Work, ns: Nanos) {
        let c = &mut self.telemetry.classes;
        match class {
            Work::Compute => c.compute_ns += ns,
            Work::Launch => c.comm_launch_ns += ns,
            Work::AllReduce => c.allreduce_ns += ns,
            Work::Optimizer => c.optimizer_ns += ns,
            Work::CkptWrite => {
                c.ckpt_sync_ns += ns;
                self.board.record_paid(self.device, ns);
            }
        }
        self.clock += ns;
        self.op.work_ns += ns;
    }

    /// Applies `instr`'s memory effect through the shared lifecycle rules.
    pub fn apply(
        &mut self,
        rules: &MemoryRules,
        cost: &dyn CostModel,
        instr: &Instr,
    ) -> Result<(), OomError> {
        rules.apply(&mut self.ledger, cost, self.device, instr)
    }

    /// The serving ingress gate: the op may not start before `release`.
    /// The wait is idle time exactly like a recv wait.
    pub fn gate(&mut self, release: Nanos) {
        self.op.gate_ns = release;
        let gap = release.saturating_sub(self.clock);
        let drained = self.drain_chunks(gap);
        self.telemetry.classes.on_recv_gap(gap, drained);
        self.clock += gap;
    }

    /// Completes a send of `bytes` to `peer` whose capacity wait ended at
    /// `freed`, leaving `occupancy` packets un-acked on the channel.
    pub fn sent(&mut self, peer: DeviceId, freed: Nanos, bytes: u64, occupancy: u32) {
        let blocked = freed.saturating_sub(self.clock);
        let drained = self.drain_chunks(blocked);
        self.telemetry.classes.on_send_gap(blocked, drained);
        self.clock += blocked;
        self.link_sends
            .entry(peer)
            .or_default()
            .on_send(bytes, blocked, occupancy);
    }

    /// Completes a receive from `peer` of a packet that departed at
    /// `sent_at` and spent `wire_ns` on the wire. Returns the arrival
    /// `max(clock, sent_at + wire_ns)`, the receiver's new clock.
    pub fn received(&mut self, peer: DeviceId, sent_at: Nanos, wire_ns: Nanos) -> Nanos {
        let arrival = self.clock.max(sent_at + wire_ns);
        let gap = arrival - self.clock;
        let drained = self.drain_chunks(gap);
        self.telemetry.classes.on_recv_gap(gap, drained);
        *self.link_recv_wait.entry(peer).or_default() += gap;
        self.clock = arrival;
        self.op.sent_at = sent_at;
        self.op.wire_ns = wire_ns;
        arrival
    }

    /// Ends the op as instruction `pc` of iteration `iter`, recording it.
    pub fn end(&mut self, iter: u32, pc: usize) {
        self.record(iter, pc as u32);
    }

    /// The end-of-iteration checkpoint write when the policy puts a
    /// boundary after iteration `iter`: pays the previous async write's
    /// residue, holds the serialization buffer against capacity (an OOM
    /// here means the snapshot never becomes a resume point), then charges
    /// the (unjittered) write or queues its chunks for the next
    /// iteration's idle gaps.
    pub fn boundary(&mut self, iter: u32) -> Result<(), OomError> {
        let Some(policy) = self.checkpoint.filter(|p| p.is_boundary(iter)) else {
            return Ok(());
        };
        self.begin();
        self.flush_residue();
        self.ledger.alloc(AllocKey::Snapshot, policy.mem_overhead)?;
        self.ledger.free(AllocKey::Snapshot);
        if policy.async_overlap() {
            self.pending_chunks = policy.device_chunk_times(self.shard_bytes).into();
            self.pending_iters = iter + 1;
            if self.pending_chunks.is_empty() {
                // Nothing to write: durable immediately at zero cost.
                self.durable(iter + 1);
            }
        } else {
            self.busy(Work::CkptWrite, policy.device_write_ns(self.shard_bytes));
            self.durable(iter + 1);
        }
        self.record(iter, CKPT_PC);
        Ok(())
    }

    /// The end-of-run drain: no bubbles remain past the last instruction,
    /// so any async residue is paid synchronously (recorded against the
    /// last iteration, `iter`) and the final checkpoint is durable.
    pub fn drain_end(&mut self, iter: u32) {
        self.begin();
        self.flush_residue();
        if self.clock > self.op.start {
            self.record(iter, CKPT_PC);
        }
    }

    /// Finishes the run and reports, checking the conservation invariant
    /// (every nanosecond of the clock is in exactly one time class).
    ///
    /// # Panics
    /// Panics when the time classes do not sum to the clock — an executor
    /// bug, never an input error.
    pub fn finish(mut self) -> DeviceReport {
        self.telemetry.peak_mem = self.ledger.peak();
        if let Err(e) = self.telemetry.check_conservation(self.clock) {
            panic!("time classes do not conserve the clock: {e}");
        }
        DeviceReport {
            clock: self.clock,
            last_checkpoint: self.last_checkpoint,
            telemetry: self.telemetry,
            link_sends: self.link_sends,
            link_recv_wait: self.link_recv_wait,
            spans: self.spans,
        }
    }

    /// Flushes whole pending chunks into an idle gap of `gap` ns, front
    /// first; the in-flight checkpoint becomes durable once the queue
    /// empties. Returns the flush time drained (the `ckpt_absorbed_ns`
    /// slice of the gap).
    fn drain_chunks(&mut self, mut gap: Nanos) -> Nanos {
        if self.pending_chunks.is_empty() {
            return 0;
        }
        let mut drained = 0;
        while let Some(&chunk) = self.pending_chunks.front() {
            if chunk > gap {
                return drained;
            }
            gap -= chunk;
            drained += chunk;
            self.pending_chunks.pop_front();
        }
        self.durable(self.pending_iters);
        drained
    }

    /// Synchronously pays whatever the bubbles did not absorb of the
    /// in-flight async write, which then becomes durable.
    fn flush_residue(&mut self) {
        if self.pending_chunks.is_empty() {
            return;
        }
        let residue: Nanos = self.pending_chunks.drain(..).sum();
        self.busy(Work::CkptWrite, residue);
        self.durable(self.pending_iters);
    }

    fn durable(&mut self, iters: u32) {
        self.last_checkpoint = iters;
        self.board.record(self.device, iters);
    }

    fn record(&mut self, iter: u32, pc: u32) {
        if self.record_spans {
            self.spans.push(OpSpan {
                iter,
                pc,
                end: self.clock,
                ..self.op
            });
        }
    }
}

/// Run-level results assembled from per-device reports.
#[derive(Debug, Clone)]
pub struct MergedRun {
    /// Final clock per report, in report order.
    pub device_clocks: Vec<Nanos>,
    /// Makespan: the maximum device clock.
    pub total_ns: Nanos,
    /// Per-device telemetry and per-link statistics.
    pub telemetry: Telemetry,
    /// Every recorded span, by device id.
    pub spans: SpanGraph,
}

/// Merges per-device reports into run-level results. Reports may carry
/// any device ids — an elastic shrink's survivor set need not be dense —
/// so everything is keyed by each report's own id, never by position.
///
/// # Panics
/// Panics when recorded spans do not tile each device's clock — an
/// executor bug, never an input error. Every renderer relies on the
/// tiling; with recording off there is nothing to check.
pub fn merge_reports(reports: Vec<DeviceReport>, channel_capacity: usize) -> MergedRun {
    let device_clocks: Vec<Nanos> = reports.iter().map(|r| r.clock).collect();
    let total_ns = device_clocks.iter().copied().max().unwrap_or(0);
    let slots = reports
        .iter()
        .map(|r| r.telemetry.device.index() + 1)
        .max()
        .unwrap_or(0);
    let mut clocks_by_id = vec![0; slots];
    let mut spans = SpanGraph::new(slots, channel_capacity);
    spans.makespan = total_ns;
    let mut devices = Vec::with_capacity(reports.len());
    let mut sends = Vec::new();
    let mut recv_waits = Vec::new();
    for r in reports {
        let me = r.telemetry.device;
        clocks_by_id[me.index()] = r.clock;
        sends.extend(r.link_sends.into_iter().map(|(dst, s)| ((me, dst), s)));
        recv_waits.extend(
            r.link_recv_wait
                .into_iter()
                .map(|(src, ns)| ((src, me), ns)),
        );
        spans.per_device[me.index()] = r.spans;
        devices.push(r.telemetry);
    }
    if let Err(d) = spans.check_tiling(&clocks_by_id) {
        panic!("recorded spans do not tile the clock of {d}");
    }
    MergedRun {
        device_clocks,
        total_ns,
        telemetry: Telemetry::assemble(devices, sends, recv_waits),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ShardedWrite;
    use crate::cost::UnitCost;

    fn core(board: &CkptBoard) -> DeviceCore<'_> {
        DeviceCore::new(DeviceId(0), MemLedger::new(0, None), 0, board)
    }

    #[test]
    fn chunks_drain_into_gaps_and_become_durable_when_empty() {
        let board = CkptBoard::new(1);
        // 2 000 bytes/µs over 600-byte chunks: a 1 500-byte shard flushes
        // as chunks of 300, 300 and 150 ns.
        let policy = CheckpointPolicy::every(1)
            .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap());
        let cost = UnitCost::paper_grid().with_shard_bytes(1_500);
        let mut c = core(&board).with_checkpoint(Some(policy), &cost);
        c.boundary(0).unwrap();
        assert_eq!((c.clock, board.cluster_saved()), (0, 0));
        // A 400 ns recv gap fits one chunk only.
        c.begin();
        c.received(DeviceId(1), 400, 0);
        assert_eq!(c.telemetry.classes.ckpt_absorbed_ns, 300);
        assert_eq!(c.telemetry.classes.recv_blocked_ns, 100);
        assert_eq!(board.cluster_saved(), 0);
        // A send blocked 500 ns takes the rest: durable.
        c.sent(DeviceId(1), 900, 8, 1);
        assert_eq!(c.telemetry.classes.ckpt_absorbed_ns, 750);
        assert_eq!(board.cluster_saved(), 1);
        assert_eq!(c.finish().clock, 900);
    }

    #[test]
    fn residue_is_paid_at_the_next_boundary_and_at_end_of_run() {
        let board = CkptBoard::new(1);
        let policy = CheckpointPolicy::every(1)
            .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap());
        let cost = UnitCost::paper_grid().with_shard_bytes(1_500);
        let mut c = core(&board)
            .with_checkpoint(Some(policy), &cost)
            .recording(true);
        c.boundary(0).unwrap();
        c.boundary(1).unwrap();
        assert_eq!(
            (c.clock, board.total_paid(), board.cluster_saved()),
            (750, 750, 1)
        );
        c.drain_end(1);
        let r = c.finish();
        assert_eq!((r.clock, r.last_checkpoint), (1_500, 2));
        assert_eq!(r.telemetry.classes.ckpt_sync_ns, 1_500);
        assert_eq!(r.spans.len(), 3);
        assert!(r
            .spans
            .iter()
            .all(|s| s.is_ckpt() && s.work_ns == s.duration()));
    }

    #[test]
    fn snapshot_buffer_oom_is_reported_before_any_write() {
        let board = CkptBoard::new(1);
        let policy = CheckpointPolicy::every(1)
            .with_write_ns(500)
            .with_mem_overhead(10);
        let mut c = DeviceCore::new(DeviceId(0), MemLedger::new(0, Some(5)), 0, &board)
            .with_checkpoint(Some(policy), &UnitCost::paper_grid());
        assert!(c.boundary(0).is_err());
        assert_eq!((c.clock, board.cluster_saved()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn merge_rejects_spans_that_do_not_tile() {
        let board = CkptBoard::new(1);
        let mut c = core(&board).recording(true);
        c.begin();
        c.busy(Work::Compute, 10);
        c.end(0, 0);
        let mut r = c.finish();
        // The only span now ends before the device clock.
        r.spans[0].end = 5;
        merge_reports(vec![r], 1);
    }

    #[test]
    fn merge_keys_by_device_id() {
        let board = CkptBoard::new(4);
        let reports: Vec<DeviceReport> = [1u32, 3]
            .iter()
            .map(|&d| {
                let mut c = DeviceCore::new(DeviceId(d), MemLedger::new(0, None), 0, &board)
                    .recording(true);
                c.begin();
                c.busy(Work::Compute, 10 * d as Nanos);
                c.end(0, 0);
                c.finish()
            })
            .collect();
        let m = merge_reports(reports, 1);
        assert_eq!(m.device_clocks, vec![10, 30]);
        assert_eq!(m.total_ns, 30);
        assert_eq!(m.spans.per_device.len(), 4);
        assert_eq!(m.spans.per_device[3][0].end, 30);
        assert_eq!(m.spans.len(), 2);
    }
}
