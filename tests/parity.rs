//! Exhaustive small-world parity: every scheme at every small size, under
//! every checkpoint mode, runs on the DP simulator, the thread emulator
//! and the event emulator, and the three must agree bit for bit.
//!
//! Plain deterministic loops rather than sampled properties: the whole
//! world (p ≤ 6, m ≤ 12) is small enough to enumerate.

use mario::cluster::run;
use mario::ir::{min_channel_capacity, ComputeKind, Nanos};
use mario::prelude::*;

/// A cost model with nonzero wires, launch charges and per-device shards,
/// so every accounting path moves the clock. Boundary bytes are the same
/// on every device.
struct WireCost;

impl CostModel for WireCost {
    fn compute_time(&self, d: DeviceId, p: PartId, k: ComputeKind) -> Nanos {
        UnitCost::paper_grid().compute_time(d, p, k)
    }
    fn act_full(&self, _: DeviceId, _: PartId) -> u64 {
        10
    }
    fn act_ckpt(&self, _: DeviceId, _: PartId) -> u64 {
        3
    }
    fn boundary_bytes(&self, _: DeviceId, _: PartId) -> u64 {
        150
    }
    fn p2p_time(&self, bytes: u64) -> Nanos {
        2 * bytes + 50
    }
    fn p2p_launch_overhead(&self) -> Nanos {
        20
    }
    fn allreduce_time(&self, _: DeviceId) -> Nanos {
        300
    }
    fn optimizer_time(&self, _: DeviceId) -> Nanos {
        200
    }
    fn static_mem(&self, _: DeviceId) -> u64 {
        1_000
    }
    fn ckpt_shard_bytes(&self, d: DeviceId) -> u64 {
        900 + 700 * d.0 as u64
    }
}

/// Every (scheme, p, m) the generators accept with p in 2..=6 and m in
/// 1..=12.
fn small_world() -> Vec<(SchemeKind, u32, u32)> {
    let mut out = Vec::new();
    for p in 2..=6u32 {
        for m in 1..=12u32 {
            for scheme in [
                SchemeKind::GPipe,
                SchemeKind::OneFOneB,
                SchemeKind::ForwardOnly,
                SchemeKind::ZeroBubbleH1,
                SchemeKind::ZeroBubbleV,
            ] {
                out.push((scheme, p, m));
            }
            if p % 2 == 0 && m % 2 == 0 {
                out.push((SchemeKind::Chimera, p, m));
            }
            for chunks in 1..=3 {
                if m % p == 0 {
                    out.push((SchemeKind::Interleave { chunks }, p, m));
                }
                out.push((SchemeKind::Wave { chunks }, p, m));
            }
        }
    }
    out
}

/// No checkpointing, a flat write, and a sharded write overlapped into
/// the next iteration's bubbles.
fn checkpoint_modes() -> [Option<CheckpointPolicy>; 3] {
    [
        None,
        Some(CheckpointPolicy::every(1).with_write_ns(700)),
        Some(
            CheckpointPolicy::every(1)
                .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap()),
        ),
    ]
}

/// Runs `s` on all three executors and asserts they agree on clocks,
/// telemetry, the span graph and checkpoint accounting.
fn assert_three_way(
    s: &Schedule,
    cost: &dyn CostModel,
    policy: Option<CheckpointPolicy>,
    what: &str,
) {
    const ITERS: u32 = 2;
    let cap = min_channel_capacity(s).unwrap_or_else(|| panic!("{what}: not executable"));
    let sim = simulate_timeline_ckpt(
        s,
        cost,
        cap,
        &PerturbationProfile::identity(),
        ITERS,
        policy,
    )
    .unwrap_or_else(|e| panic!("{what}: simulation failed: {e}"));
    let cfg = EmulatorConfig {
        channel_capacity: cap,
        iterations: ITERS,
        checkpoint: policy,
        record_spans: true,
        ..Default::default()
    };
    let thread = run(s, cost, cfg).unwrap_or_else(|e| panic!("{what}: thread run failed: {e}"));
    let event = run(
        s,
        cost,
        EmulatorConfig {
            backend: EmulatorBackend::Event,
            ..cfg
        },
    )
    .unwrap_or_else(|e| panic!("{what}: event run failed: {e}"));
    for (name, emu) in [("thread", &thread), ("event", &event)] {
        assert_eq!(
            sim.device_clocks, emu.device_clocks,
            "{what}: {name} clocks"
        );
        assert_eq!(sim.telemetry, emu.telemetry, "{what}: {name} telemetry");
        assert_eq!(Some(&sim.spans), emu.spans.as_ref(), "{what}: {name} spans");
        assert_eq!(
            sim.ckpt_overhead_ns, emu.ckpt_overhead_ns,
            "{what}: {name} ckpt paid"
        );
        assert_eq!(
            sim.last_checkpoint, emu.last_checkpoint,
            "{what}: {name} durable ckpt"
        );
    }
}

#[test]
fn small_world_three_way_parity() {
    let mut cases = 0;
    for (scheme, p, m) in small_world() {
        let s = generate(ScheduleConfig::new(scheme, p, m));
        for (mode, policy) in checkpoint_modes().into_iter().enumerate() {
            assert_three_way(
                &s,
                &WireCost,
                policy,
                &format!("{scheme:?} p={p} m={m} mode {mode}"),
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 1_647);
}

/// Boundary bytes that grow with the device: `100 · (d + 1)`, priced one
/// nanosecond per byte on the wire. A recv must price the packet it got,
/// i.e. the *sender's* boundary, not its own.
struct DeviceBoundary;

impl CostModel for DeviceBoundary {
    fn compute_time(&self, d: DeviceId, p: PartId, k: ComputeKind) -> Nanos {
        UnitCost::paper_grid().compute_time(d, p, k)
    }
    fn act_full(&self, d: DeviceId, p: PartId) -> u64 {
        UnitCost::paper_grid().act_full(d, p)
    }
    fn act_ckpt(&self, d: DeviceId, p: PartId) -> u64 {
        UnitCost::paper_grid().act_ckpt(d, p)
    }
    fn boundary_bytes(&self, d: DeviceId, _: PartId) -> u64 {
        100 * (d.0 as u64 + 1)
    }
    fn p2p_time(&self, bytes: u64) -> Nanos {
        bytes
    }
    fn allreduce_time(&self, _: DeviceId) -> Nanos {
        0
    }
    fn optimizer_time(&self, _: DeviceId) -> Nanos {
        0
    }
    fn static_mem(&self, _: DeviceId) -> u64 {
        0
    }
}

#[test]
fn recv_wire_time_is_priced_from_the_senders_bytes() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
    let sim = simulate_timeline(&s, &DeviceBoundary, 1).expect("simulation completes");
    assert_eq!(sim.device_clocks, vec![37_200, 35_000, 32_700, 30_300]);
    assert_three_way(
        &s,
        &DeviceBoundary,
        None,
        "1F1B p=4 m=8, device-dependent boundary",
    );
}
