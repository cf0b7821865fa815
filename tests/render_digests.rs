//! Output identity of every renderer on a fixed corpus: the ASCII and SVG
//! Gantt charts, the plain Chrome trace, and the rich Chrome trace with
//! the critical-path overlay (plus serving completion markers where the
//! run is a serving one). Each output is pinned by its FNV-1a digest, so a
//! refactor of the recording or of a renderer must reproduce every byte.
//!
//! The corpus covers a Mario-tuned schedule (checkpointed forwards and
//! recomputes), a two-part Chimera pipeline at channel capacity 2, a
//! gated forward-only serving run, and a multi-iteration run under an
//! async sharded checkpoint policy (so `CKPT` slices appear).

use mario::core::critpath::analyze;
use mario::core::simulator::timeline::simulate_timeline_serving;
use mario::core::viz::{render_ascii, render_svg, VizOptions};
use mario::core::{chrome_trace, chrome_trace_rich, SimTimeline};
use mario::ir::Nanos;
use mario::prelude::*;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One corpus entry: the schedule, the cost it ran under, the recorded
/// run and, for serving runs, the per-micro completion times.
struct Case {
    name: &'static str,
    schedule: Schedule,
    cost: UnitCost,
    timeline: SimTimeline,
    completions: Option<Vec<Option<Nanos>>>,
}

fn corpus() -> Vec<Case> {
    let idle = PerturbationProfile::identity();
    let mut cases = Vec::new();

    let cost = UnitCost::paper_grid();
    let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 4));
    run_graph_tuner(&mut s, &cost, GraphTunerOptions::mario());
    let t = simulate_timeline(&s, &cost, 1).unwrap();
    cases.push(Case {
        name: "1f1b-p3-m4-mario",
        schedule: s,
        cost,
        timeline: t,
        completions: None,
    });

    let cost = UnitCost::paper_grid();
    let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 4));
    let t = simulate_timeline(&s, &cost, 2).unwrap();
    cases.push(Case {
        name: "chimera-p4-m4-cap2",
        schedule: s,
        cost,
        timeline: t,
        completions: None,
    });

    let cost = UnitCost::paper_grid();
    let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 3, 3));
    let (t, done) = simulate_timeline_serving(&s, &cost, 1, &idle, &[0, 5_000, 9_000]).unwrap();
    cases.push(Case {
        name: "forward-only-p3-m3-serving",
        schedule: s,
        cost,
        timeline: t,
        completions: Some(done),
    });

    let cost = UnitCost::paper_grid().with_shard_bytes(1_500);
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
    let policy = CheckpointPolicy::every(1)
        .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap());
    let t = simulate_timeline_ckpt(&s, &cost, 1, &idle, 4, Some(policy)).unwrap();
    cases.push(Case {
        name: "1f1b-p4-m8-async-ckpt-4it",
        schedule: s,
        cost,
        timeline: t,
        completions: None,
    });
    cases
}

/// Every renderer's output for one case, labelled.
fn render(c: &Case) -> Vec<(&'static str, String)> {
    let plain = VizOptions::default();
    let micro = VizOptions {
        show_micro_ids: true,
        ..plain
    };
    let (s, spans) = (&c.schedule, &c.timeline.spans);
    let report = analyze(s, spans);
    vec![
        ("ascii", render_ascii(s, spans, plain)),
        ("ascii-micro", render_ascii(s, spans, micro)),
        ("svg", render_svg(s, spans, plain)),
        ("chrome", chrome_trace(s, spans)),
        (
            "chrome-rich",
            chrome_trace_rich(s, &c.cost, spans, Some(&report), c.completions.as_deref()),
        ),
    ]
}

/// `(case, output, digest)` for every pinned output.
const PINNED: &[(&str, &str, u64)] = &[
    ("1f1b-p3-m4-mario", "ascii", 0x1b3bf81ebd66d46c),
    ("1f1b-p3-m4-mario", "ascii-micro", 0x68c16ec0c01c8fd6),
    ("1f1b-p3-m4-mario", "svg", 0x8989df23f557364a),
    ("1f1b-p3-m4-mario", "chrome", 0x704dae78d4eb2798),
    ("1f1b-p3-m4-mario", "chrome-rich", 0x95005c6662f8ceb2),
    ("chimera-p4-m4-cap2", "ascii", 0x27b8f5c945b977a9),
    ("chimera-p4-m4-cap2", "ascii-micro", 0xabdbb0a8ec97ebcd),
    ("chimera-p4-m4-cap2", "svg", 0xa5c1545bfba35281),
    ("chimera-p4-m4-cap2", "chrome", 0xb138223df0b8709d),
    ("chimera-p4-m4-cap2", "chrome-rich", 0x944e00326b8311e8),
    ("forward-only-p3-m3-serving", "ascii", 0x7767678e7ba18128),
    ("forward-only-p3-m3-serving", "ascii-micro", 0x2e6db28b297a7bf1),
    ("forward-only-p3-m3-serving", "svg", 0x049730213987eba8),
    ("forward-only-p3-m3-serving", "chrome", 0xe09ec473acf55722),
    ("forward-only-p3-m3-serving", "chrome-rich", 0xf36ffa94be50b08c),
    ("1f1b-p4-m8-async-ckpt-4it", "ascii", 0xe993da959047864d),
    ("1f1b-p4-m8-async-ckpt-4it", "ascii-micro", 0xaa0ad1f1199bc77d),
    ("1f1b-p4-m8-async-ckpt-4it", "svg", 0x3f490f7a3f996752),
    ("1f1b-p4-m8-async-ckpt-4it", "chrome", 0xa0ce60d510872b23),
    ("1f1b-p4-m8-async-ckpt-4it", "chrome-rich", 0x7d10556066837911),
];

#[test]
fn renderer_outputs_match_their_pinned_digests() {
    let mut got = Vec::new();
    for c in corpus() {
        for (output, text) in render(&c) {
            got.push((c.name, output, fnv1a(text.as_bytes())));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, o, h)| format!("    (\"{c}\", \"{o}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "digest table:\n{table}");
    for (g, p) in got.iter().zip(PINNED) {
        assert_eq!(g, p, "digest table:\n{table}");
    }
}

#[test]
fn corpus_exercises_every_slice_family() {
    let cases = corpus();
    let all: Vec<String> = cases
        .iter()
        .flat_map(|c| render(c).into_iter().map(|(_, t)| t))
        .collect();
    let joined = all.join("\n");
    // Checkpointed forwards and recomputes, a second pipeline part,
    // serving completions, checkpoint writes, overlay annotations.
    for needle in [
        "\"cat\":\"ckpt-forward\"",
        "\"cat\":\"recompute\"",
        "pipeline part 1",
        "serve: micro 2 done",
        "\"name\":\"CKPT\"",
        "\"cname\":\"terrible\"",
        "\"ph\":\"s\"",
        "mem d3",
    ] {
        assert!(joined.contains(needle), "corpus lacks {needle}");
    }
}
