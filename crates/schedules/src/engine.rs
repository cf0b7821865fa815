//! A generic dependency-driven list scheduler.
//!
//! Some schemes (1F1B, Interleave) have well-known closed-form instruction
//! orders; others (Chimera's bidirectional merge, wave pipelines) are easier
//! to *derive* than to transcribe. This engine performs a greedy
//! earliest-start list scheduling over the virtual-pipeline dependency graph
//! under per-device in-flight limits, and emits the resulting per-device
//! compute order as a schedule. The same mechanism doubles as a reference
//! implementation to cross-check the closed-form generators in tests.
//!
//! Model (the paper's unit grid): forwards take 1 unit, backwards take 2,
//! communication is free. Readiness rules:
//!
//! * `F(m, hop0)` is ready at t=0, but *gated* by the in-flight limit of its
//!   injection device (this is what differentiates GPipe from 1F1B);
//! * `F(m, hop i)` is ready when `F(m, hop i-1)` finished;
//! * `B(m, last hop)` is ready when `F(m, last hop)` finished;
//! * `B(m, hop i)` is ready when both `F(m, hop i)` and `B(m, hop i+1)`
//!   finished.
//!
//! Ties prefer backwards over forwards (the 1F1B discipline), then lower
//! micro ids.

use mario_ir::{DeviceId, Instr, MicroId, PartId, Schedule, Topology};
use mario_ir::fxhash::FxHashMap;

/// One schedulable unit of compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Item {
    micro: u32,
    hop: u32,
    forward: bool,
}

/// Policy knobs for the engine.
#[derive(Debug, Clone)]
pub struct EnginePolicy {
    /// `limits[device][route]`: maximum number of route-`route` micro-batches
    /// simultaneously "on the fly" at `device` (forward started here,
    /// backward not yet finished here). Use `u32::MAX` for unlimited.
    pub limits: Vec<Vec<u32>>,
}

impl EnginePolicy {
    /// No limits anywhere: produces GPipe-like eager injection.
    pub fn unlimited(devices: u32, routes: u32) -> Self {
        Self {
            limits: vec![vec![u32::MAX; routes as usize]; devices as usize],
        }
    }

    /// The 1F1B limit: device `d` keeps at most `D - d` micro-batches on the
    /// fly.
    pub fn one_f_one_b(devices: u32) -> Self {
        Self {
            limits: (0..devices).map(|d| vec![devices - d]).collect(),
        }
    }

    /// The Chimera limit: each direction injects at most `D/2` micro-batches
    /// at its head device.
    pub fn chimera(devices: u32) -> Self {
        let half = devices / 2;
        let mut limits = vec![vec![u32::MAX, u32::MAX]; devices as usize];
        limits[0][0] = half; // down pipeline injects at device 0
        limits[devices as usize - 1][1] = half; // up pipeline injects at D-1
        Self { limits }
    }

    /// A wave-pipeline limit: device `d` keeps at most `D - d/2` on the fly
    /// (looser than 1F1B because each device hosts several chunks).
    pub fn wave(devices: u32) -> Self {
        Self {
            limits: (0..devices).map(|d| vec![devices - d / 2]).collect(),
        }
    }
}

/// Derives a compute-only schedule for `topology` with `micros` micro-batches
/// and the given per-micro `routes`, under `policy`.
pub fn derive_schedule(
    topology: Topology,
    micros: u32,
    routes: Vec<u32>,
    policy: &EnginePolicy,
) -> Schedule {
    const FW_T: u64 = 1;
    const BW_T: u64 = 2;

    let paths: Vec<Vec<(DeviceId, PartId)>> = (0..topology.num_routes())
        .map(|r| topology.forward_path(r))
        .collect();
    let devices = topology.devices as usize;

    // Remaining dependency counts and finish times.
    let mut finish: FxHashMap<Item, u64> = FxHashMap::default();
    let mut remaining: FxHashMap<Item, u32> = FxHashMap::default();
    let mut ready_time: FxHashMap<Item, u64> = FxHashMap::default();
    // Per-device ready and gated pools.
    let mut ready: Vec<Vec<Item>> = vec![Vec::new(); devices];
    let mut gated: Vec<Vec<Item>> = vec![Vec::new(); devices];
    let mut in_flight: Vec<Vec<u32>> = vec![vec![0; topology.num_routes() as usize]; devices];
    let mut clocks: Vec<u64> = vec![0; devices];
    let mut order: Vec<Vec<Instr>> = vec![Vec::new(); devices];

    let hop_of = |m: u32, hop: u32| -> (DeviceId, PartId) {
        paths[routes[m as usize] as usize][hop as usize]
    };
    let path_len = |m: u32| -> u32 { paths[routes[m as usize] as usize].len() as u32 };

    // `first_hop_on_dev[route][device]`: the first hop index of that route
    // landing on that device. In-flight gating applies only at a micro's
    // first arrival on a device (and the matching release happens at the
    // backward of that same hop — the last backward the device runs for the
    // micro), so routes crossing a device several times (Interleave, Wave)
    // are counted once and mid-route forwards are never blocked.
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
            let f = Item {
                micro: m,
                hop,
                forward: true,
            };
            let b = Item {
                micro: m,
                hop,
                forward: false,
            };
            remaining.insert(f, if hop == 0 { 0 } else { 1 });
            remaining.insert(b, if hop + 1 == len { 1 } else { 2 });
        }
        let inj = Item {
            micro: m,
            hop: 0,
            forward: true,
        };
        ready_time.insert(inj, 0);
        let (d, _) = hop_of(m, 0);
        ready[d.index()].push(inj);
    }

    let total_items: usize = (0..micros).map(|m| 2 * path_len(m) as usize).sum();
    let mut done = 0usize;

    // (start time, is-forward, micro, hop): lower sorts first, so ties
    // prefer backwards, then lower micros, then lower hops.
    type FireKey = (u64, bool, u32, u32);

    while done < total_items {
        // Pick the (device, item) pair with the globally smallest start time.
        let mut best: Option<(usize, usize, FireKey)> = None;
        for d in 0..devices {
            for (idx, &it) in ready[d].iter().enumerate() {
                let start = clocks[d].max(ready_time[&it]);
                let key = (start, it.forward, it.micro, it.hop);
                if best.is_none_or(|(_, _, bk)| key < bk) {
                    best = Some((d, idx, key));
                }
            }
        }
        let (d, idx, (start, ..)) = best.expect("scheduler stalled: dependency cycle");
        let it = ready[d].swap_remove(idx);
        let (dev, part) = hop_of(it.micro, it.hop);
        debug_assert_eq!(dev.index(), d);

        // Gate first-arrival forwards by the in-flight limit.
        let route = routes[it.micro as usize] as usize;
        let is_first_arrival = first_hop_on_dev[route][d] == Some(it.hop);
        if it.forward && is_first_arrival {
            if in_flight[d][route] >= policy.limits[d][route] {
                gated[d].push(it);
                continue;
            }
            in_flight[d][route] += 1;
        }

        let dur = if it.forward { FW_T } else { BW_T };
        let end = start + dur;
        clocks[d] = end;
        finish.insert(it, end);
        done += 1;
        order[d].push(if it.forward {
            Instr::forward(it.micro, part.0)
        } else {
            Instr::backward(it.micro, part.0)
        });

        // Wake dependents.
        let len = path_len(it.micro);
        let mut wake = |target: Item, t: u64| {
            let rem = remaining.get_mut(&target).expect("dependent exists");
            *rem -= 1;
            let rt = ready_time.entry(target).or_insert(0);
            *rt = (*rt).max(t);
            if *rem == 0 {
                let (td, _) = paths[routes[target.micro as usize] as usize]
                    [target.hop as usize];
                ready[td.index()].push(target);
            }
        };
        if it.forward {
            if it.hop + 1 < len {
                wake(
                    Item {
                        micro: it.micro,
                        hop: it.hop + 1,
                        forward: true,
                    },
                    end,
                );
            }
            wake(
                Item {
                    micro: it.micro,
                    hop: it.hop,
                    forward: false,
                },
                end,
            );
        } else {
            if it.hop > 0 {
                wake(
                    Item {
                        micro: it.micro,
                        hop: it.hop - 1,
                        forward: false,
                    },
                    end,
                );
            }
            // The backward of the micro's first-arrival hop is the last
            // backward this device runs for it: release the in-flight slot
            // and maybe un-gate a queued arrival.
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

    let programs = order
        .into_iter()
        .enumerate()
        .map(|(d, instrs)| mario_ir::DeviceProgram::from_instrs(DeviceId(d as u32), instrs))
        .collect();
    Schedule::from_programs(topology, micros, routes, programs)
}

/// The makespan (total unit-grid time) of the derived order, re-simulated
/// under the same rules — exposed for tests and scheme comparisons.
pub fn unit_makespan(schedule: &Schedule) -> u64 {
    // Re-run a simple in-order simulation of the compute-only lists: an
    // instruction starts when the device is free and its cross-device
    // dependency (previous-hop forward / next-hop backward) has finished.
    const FW_T: u64 = 1;
    const BW_T: u64 = 2;
    // Split halves: Bi + Bw = B on the unit grid.
    const BI_T: u64 = 1;
    const BWGT_T: u64 = 1;
    let devices = schedule.devices() as usize;
    let mut pc = vec![0usize; devices];
    let mut clocks = vec![0u64; devices];
    // Phase 0 = forward, 1 = backward or its input half, 2 = weight half.
    let mut finish: FxHashMap<(u8, u32, u32), u64> = FxHashMap::default(); // (phase, micro, hop)
    let hopidx = |m: MicroId, d: DeviceId, p: PartId| -> u32 {
        schedule
            .forward_path_of(m)
            .iter()
            .position(|&(dd, pp)| dd == d && pp == p)
            .expect("on route") as u32
    };
    loop {
        let mut fired = false;
        let mut all_done = true;
        for d in 0..devices {
            let prog = schedule.program(DeviceId(d as u32));
            let Some(&i) = prog.instrs().get(pc[d]) else {
                continue;
            };
            all_done = false;
            let hop = hopidx(i.micro, DeviceId(d as u32), i.part);
            let (phase, dep, dur) = match i.kind {
                mario_ir::InstrKind::Forward { .. } => {
                    let dep = if hop == 0 {
                        Some(0)
                    } else {
                        finish.get(&(0, i.micro.0, hop - 1)).copied()
                    };
                    (0u8, dep, FW_T)
                }
                mario_ir::InstrKind::Backward | mario_ir::InstrKind::BackwardInput => {
                    // The input half carries the same cross-stage dependency
                    // as the full backward; only its duration differs.
                    let len = schedule.forward_path_of(i.micro).len() as u32;
                    let fw_done = finish.get(&(0, i.micro.0, hop)).copied();
                    let dep = if hop + 1 == len {
                        fw_done
                    } else {
                        match (fw_done, finish.get(&(1, i.micro.0, hop + 1)).copied()) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            _ => None,
                        }
                    };
                    let dur = if matches!(i.kind, mario_ir::InstrKind::Backward) {
                        BW_T
                    } else {
                        BI_T
                    };
                    (1, dep, dur)
                }
                mario_ir::InstrKind::BackwardWeight => {
                    // Local only: waits for its own input half.
                    (2, finish.get(&(1, i.micro.0, hop)).copied(), BWGT_T)
                }
                _ => (3, Some(0), 0),
            };
            if let Some(dep) = dep {
                let start = clocks[d].max(dep);
                clocks[d] = start + dur;
                finish.insert((phase, i.micro.0, hop), start + dur);
                pc[d] += 1;
                fired = true;
            }
        }
        if all_done {
            return clocks.into_iter().max().unwrap_or(0);
        }
        assert!(fired, "unit_makespan: schedule deadlocks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{validate, SchemeKind};

    #[test]
    fn engine_reproduces_1f1b_memory_profile() {
        let d = 4u32;
        let topo = Topology::new(SchemeKind::OneFOneB, d);
        let s = derive_schedule(topo, 8, vec![0; 8], &EnginePolicy::one_f_one_b(d));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        // Device d keeps at most D - d micro-batches on the fly.
        let peaks = s.peak_on_the_fly_per_device(true);
        assert_eq!(peaks, vec![4, 3, 2, 1]);
    }

    #[test]
    fn gpipe_policy_floods_device_zero() {
        let topo = Topology::new(SchemeKind::GPipe, 4);
        let s = derive_schedule(topo, 8, vec![0; 8], &EnginePolicy::unlimited(4, 1));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(s.peak_on_the_fly_per_device(true)[0], 8);
    }

    #[test]
    fn one_f_one_b_beats_gpipe_makespan_is_equal_here() {
        // With free comm and balanced stages GPipe and 1F1B have the same
        // critical path; 1F1B wins on memory, not time.
        let topo_g = Topology::new(SchemeKind::GPipe, 4);
        let g = derive_schedule(topo_g, 8, vec![0; 8], &EnginePolicy::unlimited(4, 1));
        let topo_v = Topology::new(SchemeKind::OneFOneB, 4);
        let v = derive_schedule(topo_v, 8, vec![0; 8], &EnginePolicy::one_f_one_b(4));
        assert_eq!(unit_makespan(&g), unit_makespan(&v));
    }

    #[test]
    fn chimera_policy_produces_valid_bidirectional_schedule() {
        let d = 4u32;
        let topo = Topology::new(SchemeKind::Chimera, d);
        let routes: Vec<u32> = (0..8).map(|m| m % 2).collect();
        let s = derive_schedule(topo, 8, routes, &EnginePolicy::chimera(d));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        // Table 1: Chimera peak activation lies in [D/2+1, D] per device.
        for (dev, &peak) in s.peak_on_the_fly_per_device(true).iter().enumerate() {
            assert!(
                peak as u32 <= d,
                "device {dev} holds {peak} > D on-the-fly micro-batches"
            );
        }
    }

    #[test]
    fn derived_schedules_have_every_compute_instr() {
        let d = 6u32;
        let topo = Topology::new(SchemeKind::Chimera, d);
        let n = 12u32;
        let routes: Vec<u32> = (0..n).map(|m| m % 2).collect();
        let s = derive_schedule(topo, n, routes, &EnginePolicy::chimera(d));
        assert_eq!(
            s.count_tag(mario_ir::InstrTag::Forward),
            s.expected_forward_count()
        );
        assert_eq!(
            s.count_tag(mario_ir::InstrTag::Backward),
            s.expected_forward_count()
        );
    }

    #[test]
    fn wave_policy_is_valid() {
        let topo = Topology::new(SchemeKind::Wave { chunks: 2 }, 4);
        let s = derive_schedule(topo, 8, vec![0; 8], &EnginePolicy::wave(4));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn makespan_respects_pipeline_lower_bound() {
        // With D stages and N micros, the last device cannot finish before
        // it has processed all N forwards + N backwards, and the first
        // forward cannot arrive before D-1 units.
        let d = 4u32;
        let n = 8u64;
        let topo = Topology::new(SchemeKind::OneFOneB, d);
        let s = derive_schedule(topo, n as u32, vec![0; n as usize], &EnginePolicy::one_f_one_b(d));
        let m = unit_makespan(&s);
        assert!(m >= (d as u64 - 1) + 3 * n);
        // And greedy scheduling should achieve the classic 1F1B makespan
        // (D-1) warmup + ... within a small slack.
        assert!(m <= (d as u64 - 1) * 3 + 3 * n, "makespan {m} too large");
    }
}
