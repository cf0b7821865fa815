//! Chrome-trace export: serialize a recorded run — its [`SpanGraph`], read
//! through the schedule it executed — to the Trace Event Format consumed
//! by `chrome://tracing` / Perfetto, giving an interactive alternative to
//! the ASCII/SVG Gantt charts. The simulator and both emulators record the
//! same span graph, so either exporter renders any executor's run.
//!
//! Two tiers of export:
//!
//! * [`chrome_trace`] — slices grouped into one process per pipeline
//!   *part* (so Chimera's up and down pipelines land in separate process
//!   groups), with `process_name`/`thread_name` metadata;
//! * [`chrome_trace_rich`] — additionally emits flow arrows connecting
//!   every send slice to its matching recv slice, per-device live-memory
//!   counter tracks (replayed through the shared `MemoryRules` ledger),
//!   per-link queue-depth counter tracks, schedule-aware thread names
//!   (`device N · stage S`) and, optionally, the critical-path overlay and
//!   serving completion markers.
//!
//! Slice names are the instructions' compact notation (`F3^0`, `SA3^0>d2`,
//! `CKPT` for checkpoint writes), rendered only here, at output time. The
//! writer is self-contained (no JSON dependency): the event fields are
//! numbers plus names of our own, so the only escaping required is for
//! the quote/backslash/control classes.

use crate::critpath::CritReport;
use crate::simulator::memory_series;
use mario_ir::{CostModel, DeviceId, Instr, InstrKind, Nanos, OpSpan, PartId, Schedule, SpanGraph};
use mario_ir::fxhash::FxHashMap;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The synthetic process id counter tracks are parented under, so memory
/// and link-depth series render as one "counters" group instead of being
/// interleaved with the per-part slice tracks.
pub const COUNTER_PID: u32 = 9999;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// The slice category of an instruction (`None`: a checkpoint write).
fn category(kind: Option<InstrKind>) -> &'static str {
    match kind {
        Some(InstrKind::Forward { ckpt: true }) => "ckpt-forward",
        Some(InstrKind::Forward { ckpt: false }) => "forward",
        Some(InstrKind::Backward) => "backward",
        Some(InstrKind::BackwardInput) => "backward-input",
        Some(InstrKind::BackwardWeight) => "backward-weight",
        Some(InstrKind::Recompute) => "recompute",
        Some(InstrKind::SendAct { .. } | InstrKind::SendGrad { .. }) => "send",
        Some(InstrKind::RecvAct { .. } | InstrKind::RecvGrad { .. }) => "recv",
        _ => "other",
    }
}

/// One span resolved through the schedule: its index in its device's
/// stream, the span, and its instruction (`None` for checkpoint writes).
type Slice<'a> = (usize, &'a OpSpan, Option<&'a Instr>);

/// Every span in `(start, device)` order, resolved through `schedule`.
fn slices<'a>(schedule: &'a Schedule, spans: &'a SpanGraph) -> Vec<Slice<'a>> {
    spans
        .in_time_order()
        .into_iter()
        .map(|(i, s)| (i, s, schedule.instr_at(s.device, s.pc)))
        .collect()
}

/// The process id a slice renders under: its pipeline part, so each part
/// is its own group. `AR`, `OS` (part 0 by construction) and `CKPT` sit in
/// part 0.
fn pid_of(instr: Option<&Instr>) -> u32 {
    instr.map_or(0, |i| i.part.0)
}

/// Identity of one logical transfer: `(activation?, micro, part, src,
/// dst)`. A send and its matching recv share a key; repeated iterations
/// repeat keys and are paired FIFO.
type XferKey = (bool, u32, u32, u32, u32);

/// `(is_send, key)` of a p2p instruction executed on `device`.
fn transfer(device: DeviceId, instr: Option<&Instr>) -> Option<(bool, XferKey)> {
    let i = instr?;
    let peer = i.kind.peer()?;
    let send = i.kind.is_send();
    let act = matches!(
        i.kind,
        InstrKind::SendAct { .. } | InstrKind::RecvAct { .. }
    );
    let (src, dst) = if send { (device, peer) } else { (peer, device) };
    Some((send, (act, i.micro.0, i.part.0, src.0, dst.0)))
}

/// Incremental Trace Event Format writer.
struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["),
            first: true,
        }
    }

    fn open(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    /// A slice with optional causal annotation: `Some((on_path, slack))`
    /// stamps `args.cp` / `args.slack_ns`, and critical-path slices get a
    /// reserved color name so the path pops visually in the viewer.
    fn slice(&mut self, s: &OpSpan, instr: Option<&Instr>, annot: Option<(bool, Nanos)>) {
        let (pid, tid) = (pid_of(instr), s.device.0);
        self.open();
        self.out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\""
        ));
        escape(
            &instr.map_or_else(|| "CKPT".to_string(), Instr::to_string),
            &mut self.out,
        );
        self.out.push_str("\",\"cat\":\"");
        self.out.push_str(category(instr.map(|i| i.kind)));
        self.out.push_str(&format!(
            "\",\"ts\":{:.3},\"dur\":{:.3}",
            s.start as f64 / 1e3,
            s.duration() as f64 / 1e3
        ));
        if let Some((cp, slack)) = annot {
            if cp {
                self.out.push_str(",\"cname\":\"terrible\"");
            }
            self.out
                .push_str(&format!(",\"args\":{{\"cp\":{cp},\"slack_ns\":{slack}}}"));
        }
        self.out.push('}');
    }

    /// An instant marker (`ph: i`), e.g. a serving completion.
    fn instant(&mut self, pid: u32, tid: u32, name: &str, ts: Nanos) {
        self.open();
        self.out.push_str(&format!(
            "{{\"ph\":\"i\",\"s\":\"g\",\"pid\":{pid},\"tid\":{tid},\"name\":\""
        ));
        escape(name, &mut self.out);
        self.out.push_str(&format!(
            "\",\"cat\":\"serving\",\"ts\":{:.3}}}",
            ts as f64 / 1e3
        ));
    }

    /// `M`-phase metadata: names a process (`tid: None`) or a thread.
    fn metadata(&mut self, pid: u32, tid: Option<u32>, kind: &str, name: &str) {
        self.open();
        self.out.push_str(&format!("{{\"ph\":\"M\",\"pid\":{pid}"));
        if let Some(tid) = tid {
            self.out.push_str(&format!(",\"tid\":{tid}"));
        }
        self.out
            .push_str(&format!(",\"name\":\"{kind}\",\"args\":{{\"name\":\""));
        escape(name, &mut self.out);
        self.out.push_str("\"}}");
    }

    fn counter(&mut self, pid: u32, name: &str, ts: Nanos, series: &str, value: u64) {
        self.open();
        self.out
            .push_str(&format!("{{\"ph\":\"C\",\"pid\":{pid},\"name\":\""));
        escape(name, &mut self.out);
        self.out.push_str(&format!(
            "\",\"ts\":{:.3},\"args\":{{\"{series}\":{value}}}}}",
            ts as f64 / 1e3
        ));
    }

    /// A flow arrow `s`/`f` pair binding a send slice to its recv slice.
    fn flow(&mut self, id: u64, from: (u32, u32, Nanos), to: (u32, u32, Nanos)) {
        self.open();
        self.out.push_str(&format!(
            "{{\"ph\":\"s\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{:.3},\"name\":\"xfer\",\"cat\":\"flow\"}}",
            from.0,
            from.1,
            from.2 as f64 / 1e3
        ));
        self.open();
        self.out.push_str(&format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{:.3},\"name\":\"xfer\",\"cat\":\"flow\"}}",
            to.0,
            to.1,
            to.2 as f64 / 1e3
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Emits slices — annotated from `crit` when given — plus the
/// process/thread naming metadata. Thread names come from
/// `thread_name(part, device)`.
fn write_slices(
    w: &mut Writer,
    slices: &[Slice<'_>],
    thread_name: impl Fn(u32, u32) -> String,
    crit: Option<&CritReport>,
) {
    // (part → devices) seen, for the metadata pass.
    let mut groups: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(i, s, instr) in slices {
        let d = s.device.index();
        groups.entry(pid_of(instr)).or_default().insert(s.device.0);
        w.slice(s, instr, crit.map(|r| (r.on_path[d][i], r.slack[d][i])));
    }
    for (pid, devices) in groups {
        w.metadata(pid, None, "process_name", &format!("pipeline part {pid}"));
        for d in devices {
            w.metadata(pid, Some(d), "thread_name", &thread_name(pid, d));
        }
    }
}

/// Renders a recorded run as a Chrome Trace Event Format JSON document
/// (`displayTimeUnit: ns`; durations are emitted in microseconds as the
/// format requires). Slices are grouped into one process per pipeline
/// part — Chimera's two pipelines get separate groups — and every
/// process/thread carries naming metadata.
pub fn chrome_trace(schedule: &Schedule, spans: &SpanGraph) -> String {
    let mut w = Writer::new();
    write_slices(
        &mut w,
        &slices(schedule, spans),
        |_, d| format!("device {d}"),
        None,
    );
    w.finish()
}

/// The enriched export: slices and naming metadata (threads are
/// `device N · stage S`, the stage resolved through the schedule's
/// virtual-pipeline topology), flow arrows binding each send to the recv
/// that consumes its payload (paired FIFO per logical transfer, so
/// multi-iteration runs pair correctly), a live-memory counter track per
/// device (the schedule replayed through the shared `MemoryRules` ledger —
/// the same arithmetic every executor charges), and a queue-depth counter
/// track per directed link (+1 when a send completes, −1 when the matching
/// recv drains it). Counter tracks live under the synthetic
/// [`COUNTER_PID`] process.
///
/// Optional overlays:
///
/// * `crit` — the [`CritReport`] computed over `spans`: every slice gets
///   `args.cp` (on the critical path?) and `args.slack_ns` (how much it
///   could slow before the makespan moves), and critical-path slices get
///   a distinct reserved color;
/// * `completions` — serving completion times per micro-batch (the
///   ServeBoard record of a forward-only run): each lands as a global
///   instant marker at the moment the last stage finished that micro.
///
/// Memory counters replay the fault-free program, so on a faulted
/// emulator recording they describe the schedule's intended footprint,
/// not the truncated run.
pub fn chrome_trace_rich(
    schedule: &Schedule,
    cost: &dyn CostModel,
    spans: &SpanGraph,
    crit: Option<&CritReport>,
    completions: Option<&[Option<Nanos>]>,
) -> String {
    let topo = &schedule.topology;
    let slices = slices(schedule, spans);
    let mut w = Writer::new();
    write_slices(
        &mut w,
        &slices,
        |p, d| {
            format!(
                "device {d} · stage {}",
                topo.stage_of(DeviceId(d), PartId(p)).0
            )
        },
        crit,
    );
    // Serving completion markers: one instant per finished micro-batch.
    if let Some(done) = completions {
        for (m, t) in done.iter().enumerate() {
            if let Some(t) = t {
                w.instant(0, 0, &format!("serve: micro {m} done"), *t);
            }
        }
    }

    // Flow arrows: sends queue their span under the transfer key, recvs
    // consume FIFO. An `s` event anchors at the send slice start and the
    // matching `f` at the recv slice end, so the arrow spans the whole
    // transfer even when backpressure stretches the send.
    // Two passes because the slices are start-ordered and a recv slice can
    // *start* (begin waiting) before its send slice does: first queue every
    // send under its key, then pair recvs FIFO — per key both sides come
    // from a single device, so slice order is program order.
    let mut pending: FxHashMap<XferKey, VecDeque<&OpSpan>> = FxHashMap::default();
    let mut next_id = 0u64;
    // Queue-depth deltas per directed link: +1 at send end, −1 at recv end.
    let mut depth: BTreeMap<(u32, u32), Vec<(Nanos, i64)>> = BTreeMap::new();
    for &(_, s, instr) in &slices {
        if let Some((true, key)) = transfer(s.device, instr) {
            pending.entry(key).or_default().push_back(s);
            depth.entry((key.3, key.4)).or_default().push((s.end, 1));
        }
    }
    for &(_, s, instr) in &slices {
        if let Some((false, key)) = transfer(s.device, instr) {
            // Both ends of a transfer render under its part.
            let part = key.2;
            if let Some(send) = pending.get_mut(&key).and_then(VecDeque::pop_front) {
                w.flow(
                    next_id,
                    (part, send.device.0, send.start),
                    (part, s.device.0, s.end),
                );
                next_id += 1;
            }
            depth.entry((key.3, key.4)).or_default().push((s.end, -1));
        }
    }

    // Live-memory counters: the ledger level after each executed
    // instruction, in the device's execution order.
    w.metadata(COUNTER_PID, None, "process_name", "counters");
    for series in memory_series(schedule, cost) {
        let d = series.device;
        if series.points.is_empty() {
            continue;
        }
        let name = format!("mem d{}", d.0);
        let ops = spans
            .per_device
            .get(d.index())
            .map_or(&[][..], Vec::as_slice);
        for s in ops.iter().filter(|s| !s.is_ckpt()) {
            w.counter(
                COUNTER_PID,
                &name,
                s.end,
                "bytes",
                series.points[s.pc as usize].1,
            );
        }
    }

    // Link queue-depth counters: accumulate the deltas in time order (a
    // drain at the same instant applies before a fill, keeping the series
    // at its minimal envelope).
    for ((src, dst), mut deltas) in depth {
        deltas.sort_by_key(|&(ts, delta)| (ts, delta));
        let name = format!("link d{src}\u{2192}d{dst}");
        let mut level = 0i64;
        for (ts, delta) in deltas {
            level += delta;
            w.counter(COUNTER_PID, &name, ts, "packets", level.max(0) as u64);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate_timeline;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn trace() -> String {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        chrome_trace(&s, &t.spans)
    }

    /// Sends recorded in a run, resolved through the schedule.
    fn sends(s: &Schedule, spans: &SpanGraph) -> usize {
        spans
            .per_device
            .iter()
            .flatten()
            .filter(|sp| {
                s.instr_at(sp.device, sp.pc)
                    .is_some_and(|i| i.kind.is_send())
            })
            .count()
    }

    #[test]
    fn emits_one_event_per_instruction() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let json = chrome_trace(&s, &t.spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), s.total_instrs());
    }

    #[test]
    fn document_is_structurally_sound() {
        let json = trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces/brackets (no nesting surprises in our writer).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"cat\":\"forward\""));
        assert!(json.contains("\"cat\":\"backward\""));
    }

    #[test]
    fn escaping_handles_hostile_names() {
        let mut out = String::new();
        escape("we\"ird\\na\nme", &mut out);
        assert_eq!(out, "we\\\"ird\\\\na\\u000ame");
    }

    #[test]
    fn categories_cover_every_notation() {
        let d = DeviceId(1);
        for (instr, cat) in [
            (Some(Instr::forward(0u32, 0u32)), "forward"),
            (Some(Instr::ckpt_forward(0u32, 0u32)), "ckpt-forward"),
            (Some(Instr::backward(0u32, 0u32)), "backward"),
            (Some(Instr::backward_input(0u32, 0u32)), "backward-input"),
            (Some(Instr::backward_weight(0u32, 0u32)), "backward-weight"),
            (Some(Instr::recompute(0u32, 0u32)), "recompute"),
            (Some(Instr::send_act(0u32, 0u32, d)), "send"),
            (Some(Instr::send_grad(0u32, 0u32, d)), "send"),
            (Some(Instr::recv_act(0u32, 0u32, d)), "recv"),
            (Some(Instr::recv_grad(0u32, 0u32, d)), "recv"),
            (Some(Instr::all_reduce()), "other"),
            (Some(Instr::optimizer_step()), "other"),
            (None, "other"),
        ] {
            assert_eq!(category(instr.map(|i| i.kind)), cat, "{instr:?}");
        }
    }

    #[test]
    fn emulator_timeline_exports_too() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let r = mario_cluster::run(
            &s,
            &UnitCost::paper_grid(),
            mario_cluster::EmulatorConfig {
                record_spans: true,
                ..Default::default()
            },
        )
        .unwrap();
        let json = chrome_trace(&s, r.spans.as_ref().unwrap());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), s.total_instrs());
    }

    #[test]
    fn metadata_names_every_process_and_thread() {
        let json = trace();
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("pipeline part 0"));
        assert!(json.contains("device 0"));
        // 1F1B has a single part, so a single process group.
        assert!(!json.contains("pipeline part 1"));
    }

    #[test]
    fn chimera_parts_get_separate_process_groups() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 2).unwrap();
        let json = chrome_trace(&s, &t.spans);
        // Both pipelines present, each with its own named process.
        assert!(json.contains("pipeline part 0"));
        assert!(json.contains("pipeline part 1"));
        assert!(json.contains("\"pid\":1,"));
    }

    #[test]
    fn rich_trace_pairs_every_transfer_with_a_flow_arrow() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let cost = UnitCost::paper_grid();
        let t = simulate_timeline(&s, &cost, 1).unwrap();
        let json = chrome_trace_rich(&s, &cost, &t.spans, None, None);
        let sends = sends(&s, &t.spans);
        assert!(sends > 0);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), sends);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), sends);
        // Schedule-aware thread names and both counter families present.
        assert!(json.contains("device 0 · stage 0"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("mem d0"));
        assert!(json.contains("link d0\u{2192}d1"));
        assert!(json.contains("\"name\":\"counters\""));
        // Still structurally sound.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn rich_trace_covers_the_emulator_and_multi_part_schemes() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let cost = UnitCost::paper_grid();
        let r = mario_cluster::run(
            &s,
            &cost,
            mario_cluster::EmulatorConfig {
                record_spans: true,
                channel_capacity: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let spans = r.spans.as_ref().unwrap();
        let json = chrome_trace_rich(&s, &cost, spans, None, None);
        // Chimera device 0 hosts stage 0 of part 0 and the last stage of
        // part 1 — the thread metadata reflects both.
        assert!(json.contains("device 0 · stage 0"));
        assert!(json.contains("pipeline part 1"));
        let sends = sends(&s, spans);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), sends);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), sends);
    }

    #[test]
    fn annotated_trace_marks_the_critical_path() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 4));
        let cost = UnitCost::paper_grid();
        let t = simulate_timeline(&s, &cost, 1).unwrap();
        let report = crate::critpath::analyze(&s, &t.spans);
        let json = chrome_trace_rich(&s, &cost, &t.spans, Some(&report), None);
        // Every instruction slice got an annotation, critical-path ones
        // carry the reserved color, and at least one off-path slice
        // reports nonzero slack.
        let slices = t.spans.len();
        assert_eq!(json.matches("\"cp\":").count(), slices);
        let on_path: usize = report.on_path.iter().flatten().filter(|&&on| on).count();
        assert_eq!(json.matches("\"cname\":\"terrible\"").count(), on_path);
        assert!(json.contains("\"cp\":true"));
        assert!(json.matches("\"slack_ns\":0").count() >= on_path);
        // Structurally sound JSON with the overlay present.
        assert!(json.contains("\"slack_ns\":"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn annotated_trace_emits_serving_completion_markers() {
        use crate::simulator::timeline::simulate_timeline_serving;
        use mario_ir::PerturbationProfile;
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 3, 3));
        let cost = UnitCost::paper_grid();
        let release = vec![0, 5_000, 9_000];
        let (t, done) =
            simulate_timeline_serving(&s, &cost, 1, &PerturbationProfile::identity(), &release)
                .unwrap();
        let report = crate::critpath::analyze(&s, &t.spans);
        let json = chrome_trace_rich(&s, &cost, &t.spans, Some(&report), Some(&done));
        let finished = done.iter().filter(|c| c.is_some()).count();
        assert_eq!(finished, 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), finished);
        assert!(json.contains("serve: micro 0 done"));
        // The held releases surface as path bubbles in the report the
        // overlay was built from.
        assert!(report.breakdown.bubble_ns > 0);
    }
}
