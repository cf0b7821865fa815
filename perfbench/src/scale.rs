//! The `scale` part of the `executors` workload: one 1F1B pipeline
//! on the unit grid through every layer that has no graph pass — generate,
//! validate, capacity derivation, DP simulation, event emulation with
//! spans, critical path.

use crate::trace::Probe;
use crate::Part;
use mario_cluster::{run, EmulatorBackend, EmulatorConfig, RunReport};
use mario_core::critpath::{analyze, CritReport};
use mario_core::simulator::{simulate_timeline, SimTimeline};
use mario_ir::{min_channel_capacity, validate, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};

const DEVICES: u32 = 32;
const MICROS: u32 = 32;

/// What one pass of the pipeline produced.
pub struct ScaleOut {
    sim: SimTimeline,
    emu: RunReport,
    crit: CritReport,
}

/// The `scale` part.
pub struct Scale {
    cost: UnitCost,
    /// The 1F1B closed form `(3(D−1) + 3N)·t`.
    expect_ns: u64,
}

impl Part for Scale {
    type Out = ScaleOut;

    fn setup(_seed: u64, wrong: bool) -> Self {
        let cost = UnitCost::paper_grid();
        let units = 3 * (DEVICES as u64 - 1) + 3 * MICROS as u64 + wrong as u64;
        Self {
            expect_ns: units * cost.unit,
            cost,
        }
    }

    fn probed<P: Probe>(&self, _step: usize, p: &mut P) -> Result<ScaleOut, String> {
        p.begin_op();
        let s = p.span("schedules.generate", |_| {
            generate(ScheduleConfig::new(SchemeKind::OneFOneB, DEVICES, MICROS))
        });
        let instrs = s.total_instrs() as f64;
        p.count("schedules.generate.instrs", instrs);
        p.span("ir.validate", |_| validate(&s))
            .map_err(|e| format!("validate: {} errors, first {:?}", e.len(), e.first()))?;
        p.count("ir.validate.instrs", instrs);
        let cap = p
            .span("ir.min_channel_capacity", |_| min_channel_capacity(&s))
            .ok_or("no channel capacity up to 8 executes the schedule")?;
        p.count("ir.min_channel_capacity.instrs", instrs);
        let sim = p
            .span("simulator.timeline", |_| {
                simulate_timeline(&s, &self.cost, cap)
            })
            .map_err(|e| format!("simulation: {e:?}"))?;
        p.count("simulator.timeline.instrs", instrs);
        let cfg = EmulatorConfig {
            backend: EmulatorBackend::Event,
            channel_capacity: cap,
            record_spans: true,
            ..Default::default()
        };
        let emu = p
            .span("cluster.event", |_| run(&s, &self.cost, cfg))
            .map_err(|e| format!("emulation: {e}"))?;
        p.count("cluster.event.instrs", instrs);
        let spans = emu.spans.as_ref().ok_or("emulator recorded no spans")?;
        let crit = p.span("critpath.analyze", |_| analyze(&s, spans));
        let span_count: usize = spans.per_device.iter().map(Vec::len).sum();
        p.count("critpath.analyze.spans", span_count as f64);
        Ok(ScaleOut { sim, emu, crit })
    }

    fn check(&self, _step: usize, out: &ScaleOut) -> Result<(), String> {
        let (sim, emu, crit) = (&out.sim, &out.emu, &out.crit);
        if sim.device_clocks != emu.device_clocks || sim.total_ns != emu.total_ns {
            return Err(format!(
                "simulator ({} ns) and event emulator ({} ns) disagree",
                sim.total_ns, emu.total_ns
            ));
        }
        if emu.total_ns != self.expect_ns {
            return Err(format!(
                "makespan {} ns, 1F1B closed form {} ns",
                emu.total_ns, self.expect_ns
            ));
        }
        let mut at = 0;
        for seg in &crit.path {
            if seg.start != at || seg.end < seg.start {
                return Err(format!("critical path gap or overlap at {at} ns"));
            }
            at = seg.end;
        }
        if at != emu.total_ns || crit.breakdown.total() != emu.total_ns {
            return Err(format!(
                "critical path covers {at} ns (classes {} ns) of a {} ns makespan",
                crit.breakdown.total(),
                emu.total_ns
            ));
        }
        Ok(())
    }
}
