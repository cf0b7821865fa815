//! Zero-bubble schedule generators (ZB-H1 and ZB-V).
//!
//! "Zero Bubble Pipeline Parallelism" (Qi et al., ICLR '24) splits every
//! backward into its input-gradient half `Bi` — the only part downstream
//! stages wait on — and its weight-gradient half `Bw`, which nothing but the
//! optimizer step depends on. Scheduling `Bi` on the critical path and
//! dropping `Bw` into the warmup/cooldown and recv-gap bubbles removes most
//! of 1F1B's trailing bubble: on the unit grid the cooldown shrinks from
//! `2(p-1)` backward slots to `(p-1)` input-grad slots plus the deferred
//! weight work, giving makespan `3m + 2(p-1)` versus 1F1B's `3m + 3(p-1)`.
//!
//! Like Chimera's bidirectional merge, the ZB orders are easier to *derive*
//! than to transcribe: this module runs a greedy dependency-driven list
//! scheduler (the three-phase sibling of [`crate::engine`]) and emits the
//! firing order directly. Readiness rules on the unit grid (`F`=1, `Bi`=1,
//! `Bw`=1 — the halves of the classic `B`=2):
//!
//! * `F(m, hop0)` is ready at t=0, gated by the device's in-flight limit;
//! * `F(m, h)` is ready when `F(m, h-1)` finished;
//! * `Bi(m, last)` is ready when `F(m, last)` finished;
//! * `Bi(m, h)` is ready when `F(m, h)` and `Bi(m, h+1)` finished;
//! * `Bw(m, h)` is ready when `Bi(m, h)` finished (same device, any time).
//!
//! Ties prefer `Bi` over `F` over `Bw`: input grads drive the pipeline,
//! fresh forwards keep it fed, and weight grads soak up whatever bubble is
//! left. The in-flight slot taken by a micro's first arrival on a device is
//! released only at that hop's `Bw` — the weight GEMM still reads the
//! activation, so this is what bounds live memory to the 1F1B level (ZB-H1's
//! defining trade: releasing at `Bi` would be faster still, but the last
//! device would hold every activation at once).

use crate::engine::EnginePolicy;
use mario_ir::{DeviceId, Instr, PartId, Schedule, SchemeKind, Topology};
use mario_ir::fxhash::FxHashMap;

/// The three compute phases of one (micro, hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Phase {
    /// Input-gradient backward half: the critical path.
    Bi,
    /// Forward.
    F,
    /// Weight-gradient backward half: bubble filler.
    Bw,
}

/// One schedulable unit of compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Item {
    micro: u32,
    hop: u32,
    phase: Phase,
}

/// ZB-H1 compute order: the 1F1B chain with split backwards.
pub fn generate_compute(devices: u32, micros: u32) -> Schedule {
    let topo = Topology::new(SchemeKind::ZeroBubbleH1, devices);
    derive_zb_schedule(
        topo,
        micros,
        vec![0; micros as usize],
        &EnginePolicy::one_f_one_b(devices),
    )
}

/// ZB-V compute order: two chunks per device in a V, split backwards.
pub fn generate_compute_v(devices: u32, micros: u32) -> Schedule {
    let topo = Topology::new(SchemeKind::ZeroBubbleV, devices);
    derive_zb_schedule(
        topo,
        micros,
        vec![0; micros as usize],
        &EnginePolicy::wave(devices),
    )
}

/// Greedy three-phase list scheduling over the virtual-pipeline dependency
/// graph — the split-backward sibling of [`crate::engine::derive_schedule`].
fn derive_zb_schedule(
    topology: Topology,
    micros: u32,
    routes: Vec<u32>,
    policy: &EnginePolicy,
) -> Schedule {
    const FW_T: u64 = 1;
    const BI_T: u64 = 1;
    const BW_T: u64 = 1;

    let paths: Vec<Vec<(DeviceId, PartId)>> = (0..topology.num_routes())
        .map(|r| topology.forward_path(r))
        .collect();
    let devices = topology.devices as usize;

    let mut finish: FxHashMap<Item, u64> = FxHashMap::default();
    let mut remaining: FxHashMap<Item, u32> = FxHashMap::default();
    let mut ready_time: FxHashMap<Item, u64> = FxHashMap::default();
    let mut ready: Vec<Vec<Item>> = vec![Vec::new(); devices];
    let mut gated: Vec<Vec<Item>> = vec![Vec::new(); devices];
    let mut in_flight: Vec<Vec<u32>> = vec![vec![0; topology.num_routes() as usize]; devices];
    let mut clocks: Vec<u64> = vec![0; devices];
    let mut order: Vec<Vec<Instr>> = vec![Vec::new(); devices];

    let hop_of = |m: u32, hop: u32| -> (DeviceId, PartId) {
        paths[routes[m as usize] as usize][hop as usize]
    };
    let path_len = |m: u32| -> u32 { paths[routes[m as usize] as usize].len() as u32 };

    // In-flight gating applies at a micro's first arrival on a device; the
    // matching release happens at that hop's `Bw` (the last compute the
    // device runs for the micro — the weight GEMM reads the activation).
    let first_hop_on_dev: Vec<Vec<Option<u32>>> = paths
        .iter()
        .map(|path| {
            let mut firsts = vec![None; devices];
            for (hop, &(d, _)) in path.iter().enumerate() {
                if firsts[d.index()].is_none() {
                    firsts[d.index()] = Some(hop as u32);
                }
            }
            firsts
        })
        .collect();

    // Seed dependency counters.
    for m in 0..micros {
        let len = path_len(m);
        for hop in 0..len {
            let f = Item { micro: m, hop, phase: Phase::F };
            let bi = Item { micro: m, hop, phase: Phase::Bi };
            let bw = Item { micro: m, hop, phase: Phase::Bw };
            remaining.insert(f, if hop == 0 { 0 } else { 1 });
            remaining.insert(bi, if hop + 1 == len { 1 } else { 2 });
            remaining.insert(bw, 1);
        }
        let inj = Item { micro: m, hop: 0, phase: Phase::F };
        ready_time.insert(inj, 0);
        let (d, _) = hop_of(m, 0);
        ready[d.index()].push(inj);
    }

    let total_items: usize = (0..micros).map(|m| 3 * path_len(m) as usize).sum();
    let mut done = 0usize;

    // (start time, phase, micro, hop): Phase orders Bi < F < Bw, so ties
    // prefer input grads, then forwards, then weight grads.
    type FireKey = (u64, Phase, u32, u32);

    while done < total_items {
        let mut best: Option<(usize, usize, FireKey)> = None;
        for d in 0..devices {
            for (idx, &it) in ready[d].iter().enumerate() {
                let start = clocks[d].max(ready_time[&it]);
                let key = (start, it.phase, it.micro, it.hop);
                if best.is_none_or(|(_, _, bk)| key < bk) {
                    best = Some((d, idx, key));
                }
            }
        }
        let (d, idx, (start, ..)) = best.expect("zb scheduler stalled: dependency cycle");
        let it = ready[d].swap_remove(idx);
        let (dev, part) = hop_of(it.micro, it.hop);
        debug_assert_eq!(dev.index(), d);

        let route = routes[it.micro as usize] as usize;
        let is_first_arrival = first_hop_on_dev[route][d] == Some(it.hop);
        if it.phase == Phase::F && is_first_arrival {
            if in_flight[d][route] >= policy.limits[d][route] {
                gated[d].push(it);
                continue;
            }
            in_flight[d][route] += 1;
        }

        let dur = match it.phase {
            Phase::F => FW_T,
            Phase::Bi => BI_T,
            Phase::Bw => BW_T,
        };
        let end = start + dur;
        clocks[d] = end;
        finish.insert(it, end);
        done += 1;
        order[d].push(match it.phase {
            Phase::F => Instr::forward(it.micro, part.0),
            Phase::Bi => Instr::backward_input(it.micro, part.0),
            Phase::Bw => Instr::backward_weight(it.micro, part.0),
        });

        // Wake dependents.
        let len = path_len(it.micro);
        let mut wake = |target: Item, t: u64| {
            let rem = remaining.get_mut(&target).expect("dependent exists");
            *rem -= 1;
            let rt = ready_time.entry(target).or_insert(0);
            *rt = (*rt).max(t);
            if *rem == 0 {
                let (td, _) =
                    paths[routes[target.micro as usize] as usize][target.hop as usize];
                ready[td.index()].push(target);
            }
        };
        match it.phase {
            Phase::F => {
                if it.hop + 1 < len {
                    wake(Item { micro: it.micro, hop: it.hop + 1, phase: Phase::F }, end);
                }
                wake(Item { micro: it.micro, hop: it.hop, phase: Phase::Bi }, end);
            }
            Phase::Bi => {
                if it.hop > 0 {
                    wake(Item { micro: it.micro, hop: it.hop - 1, phase: Phase::Bi }, end);
                }
                wake(Item { micro: it.micro, hop: it.hop, phase: Phase::Bw }, end);
            }
            Phase::Bw => {
                // The weight half frees the activation: release the in-flight
                // slot taken by the micro's first arrival on this device.
                if !is_first_arrival {
                    continue;
                }
                in_flight[d][route] -= 1;
                if let Some(pos) = gated[d]
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| routes[g.micro as usize] as usize == route)
                    .min_by_key(|(_, g)| g.micro)
                    .map(|(i, _)| i)
                {
                    let g = gated[d].swap_remove(pos);
                    ready[d].push(g);
                }
            }
        }
    }

    let programs = order
        .into_iter()
        .enumerate()
        .map(|(d, instrs)| mario_ir::DeviceProgram::from_instrs(DeviceId(d as u32), instrs))
        .collect();
    Schedule::from_programs(topology, micros, routes, programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unit_makespan;
    use mario_ir::{validate, InstrTag};

    #[test]
    fn zb_h1_is_valid_and_fully_split() {
        for (d, n) in [(2u32, 4u32), (3, 6), (4, 8), (8, 16)] {
            let s = generate_compute(d, n);
            validate(&s).unwrap_or_else(|e| panic!("D={d} N={n}: {e:?}"));
            assert_eq!(s.count_tag(InstrTag::Backward), 0);
            assert_eq!(
                s.count_tag(InstrTag::BackwardInput),
                s.expected_forward_count()
            );
            assert_eq!(
                s.count_tag(InstrTag::BackwardWeight),
                s.expected_forward_count()
            );
        }
    }

    #[test]
    fn zb_v_is_valid_and_fully_split() {
        for (d, n) in [(2u32, 4u32), (4, 8), (6, 12)] {
            let s = generate_compute_v(d, n);
            validate(&s).unwrap_or_else(|e| panic!("D={d} N={n}: {e:?}"));
            assert_eq!(s.count_tag(InstrTag::Backward), 0);
            assert_eq!(
                s.count_tag(InstrTag::BackwardInput),
                s.expected_forward_count()
            );
            assert_eq!(
                s.count_tag(InstrTag::BackwardWeight),
                s.expected_forward_count()
            );
        }
    }

    #[test]
    fn zb_h1_makespan_closed_form() {
        // Cooldown shrinks from 2(p-1) backward slots to (p-1) input-grad
        // slots: makespan 3m + 2(p-1) on the unit grid, for m >= p.
        for (d, n) in [(2u32, 4u32), (3, 6), (4, 8), (4, 12), (8, 16)] {
            let s = generate_compute(d, n);
            assert_eq!(
                unit_makespan(&s),
                3 * n as u64 + 2 * (d as u64 - 1),
                "D={d} N={n}"
            );
        }
    }

    #[test]
    fn zb_h1_strictly_beats_1f1b_makespan() {
        for (d, n) in [(2u32, 4u32), (3, 6), (4, 8), (8, 16)] {
            let zb = generate_compute(d, n);
            let v = crate::one_f_one_b::generate_compute(d, n);
            assert!(
                unit_makespan(&zb) < unit_makespan(&v),
                "D={d} N={n}: zb {} !< 1f1b {}",
                unit_makespan(&zb),
                unit_makespan(&v)
            );
        }
    }

    #[test]
    fn zb_h1_memory_stays_at_the_1f1b_level() {
        // Releasing at Bw keeps device d at <= D - d live micro-batches —
        // the 1F1B profile, ZB-H1's defining memory bound.
        let d = 4u32;
        let s = generate_compute(d, 8);
        let peaks = s.peak_on_the_fly_per_device(true);
        assert_eq!(peaks, vec![4, 3, 2, 1]);
    }
}
