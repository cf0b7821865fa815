//! Pipeline visualization (paper §5.2 "Visualization", Fig. 5): render a
//! recorded run as an ASCII Gantt chart or an SVG document, so users can
//! inspect bubble distribution and checkpoint placement instead of
//! staring at throughput numbers. Both read the run's [`SpanGraph`]
//! through the schedule it executed.

use mario_ir::{InstrKind, Nanos, Schedule, SpanGraph};

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct VizOptions {
    /// Virtual nanoseconds per character cell (ASCII) / per pixel (SVG).
    pub ns_per_cell: Nanos,
    /// Show micro-batch digits instead of instruction-class letters.
    pub show_micro_ids: bool,
}

impl Default for VizOptions {
    fn default() -> Self {
        Self {
            ns_per_cell: 1_000,
            show_micro_ids: false,
        }
    }
}

/// The glyph and SVG fill of a drawn instruction. Only compute is drawn;
/// communication, collectives and checkpoint writes are skipped.
fn style(kind: InstrKind) -> Option<(char, &'static str)> {
    Some(match kind {
        InstrKind::Forward { ckpt: true } => ('f', "#7fb3d5"), // light blue
        InstrKind::Forward { ckpt: false } => ('F', "#2e86c1"), // blue
        InstrKind::BackwardInput => ('b', "#1e8449"),          // dark green
        InstrKind::BackwardWeight => ('w', "#a9dfbf"),         // pale green
        InstrKind::Backward => ('B', "#27ae60"),               // green
        InstrKind::Recompute => ('R', "#e67e22"),              // orange
        _ => return None,
    })
}

/// Renders an ASCII Gantt chart: one row per device, `.` for bubbles.
pub fn render_ascii(schedule: &Schedule, spans: &SpanGraph, opts: VizOptions) -> String {
    let width = (spans.makespan / opts.ns_per_cell) as usize + 1;
    let mut out = String::new();
    for (d, ops) in spans.per_device.iter().enumerate() {
        let mut row = vec!['.'; width];
        for s in ops {
            let Some(instr) = schedule.instr_at(s.device, s.pc) else {
                continue;
            };
            let Some((class, _)) = style(instr.kind) else {
                continue;
            };
            let g = if opts.show_micro_ids {
                char::from_digit(instr.micro.0 % 10, 10).unwrap()
            } else {
                class
            };
            let start = (s.start / opts.ns_per_cell) as usize;
            let end = (s.end / opts.ns_per_cell) as usize;
            for cell in row.iter_mut().take(end.max(start + 1)).skip(start) {
                *cell = g;
            }
        }
        out.push_str(&format!("d{d}: "));
        // Trim trailing idle cells.
        let last = row.iter().rposition(|&c| c != '.').map_or(0, |p| p + 1);
        out.extend(row[..last].iter());
        out.push('\n');
    }
    out
}

/// Renders a minimal SVG Gantt chart.
pub fn render_svg(schedule: &Schedule, spans: &SpanGraph, opts: VizOptions) -> String {
    let devices = spans.per_device.len();
    let row_h = 22u64;
    let width = spans.makespan / opts.ns_per_cell + 40;
    let height = devices as u64 * row_h + 10;
    let mut out =
        format!(r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">"#);
    for (_, s) in spans.in_time_order() {
        let Some(instr) = schedule.instr_at(s.device, s.pc) else {
            continue;
        };
        let Some((_, color)) = style(instr.kind) else {
            continue;
        };
        let x = s.start / opts.ns_per_cell + 30;
        let w = (s.duration() / opts.ns_per_cell).max(1);
        let y = s.device.0 as u64 * row_h + 4;
        out.push_str(&format!(
            r##"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{color}" stroke="#333" stroke-width="0.5"><title>{instr}</title></rect>"##,
            h = row_h - 6,
        ));
    }
    for d in 0..devices {
        out.push_str(&format!(
            r#"<text x="2" y="{y}" font-size="10">d{d}</text>"#,
            y = d as u64 * row_h + 16
        ));
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate_timeline;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn ascii(s: &Schedule, opts: VizOptions) -> String {
        let t = simulate_timeline(s, &UnitCost::paper_grid(), 1).unwrap();
        render_ascii(s, &t.spans, opts)
    }

    fn one_f_one_b() -> Schedule {
        generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3))
    }

    #[test]
    fn ascii_has_one_row_per_device() {
        let a = ascii(&one_f_one_b(), VizOptions::default());
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains('F'));
        assert!(a.contains('B'));
    }

    #[test]
    fn last_device_starts_with_bubbles() {
        let a = ascii(&one_f_one_b(), VizOptions::default());
        let last = a.lines().last().unwrap();
        // 1F1B: device 2 idles 2 cells before its first forward.
        assert!(last.starts_with("d2: ..F"), "{last}");
    }

    #[test]
    fn micro_id_mode_uses_digits() {
        let a = ascii(
            &one_f_one_b(),
            VizOptions {
                show_micro_ids: true,
                ..Default::default()
            },
        );
        assert!(a.contains('0'));
        assert!(a.contains('2'));
        assert!(!a.contains('F'));
    }

    #[test]
    fn checkpointed_timeline_shows_recomputes() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        crate::passes::apply_checkpoint(&mut s);
        let a = ascii(&s, VizOptions::default());
        assert!(a.contains('R'), "{a}");
        assert!(a.contains('f'), "{a}");
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let s = one_f_one_b();
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let svg = render_svg(&s, &t.spans, VizOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.matches("<rect").count() >= 9); // 3 devices × 3 F + B
    }
}
