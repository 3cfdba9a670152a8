//! Integration tests of the record–replay protocol beyond the single-phase
//! BT/SP usage: multiple phase transitions per iteration, interaction with
//! the distribution mechanism, and overhead accounting.

use ccnuma::{Machine, MachineConfig, SimArray, PAGE_SIZE};
use omp::{Runtime, Schedule};
use upmlib::{UpmEngine, UpmOptions};
use vmm::{install_placement, PlacementScheme};

/// A synthetic three-phase iterative program:
/// * phase A: threads sweep their own blocks (owner-local);
/// * phase B: threads sweep blocks shifted by half the team (remote set 1);
/// * phase C: threads sweep reversed blocks (remote set 2).
///
/// Phase boundaries A|B and B|C are the two record/replay points.
struct ThreePhase {
    data: SimArray<f64>,
    len: usize,
}

impl ThreePhase {
    fn new(rt: &mut Runtime) -> Self {
        // 128 pages (2 MB): each thread's slice exceeds the scaled 32 KB L2,
        // so every phase streams from memory and the counters see it.
        let len = 128 * (PAGE_SIZE as usize / 8);
        let data = SimArray::new(rt.machine_mut(), "tp", len, 0.0);
        Self { data, len }
    }

    fn phase(&self, rt: &mut Runtime, mapping: impl Fn(usize, usize) -> usize + Copy) {
        let len = self.len;
        let data = &self.data;
        rt.parallel_for(len, Schedule::Static, |par, i| {
            let j = mapping(i, len);
            par.update(data, j, |v| v + 1.0);
            par.flops(1);
        });
    }

    fn phase_a(&self, rt: &mut Runtime) {
        self.phase(rt, |i, _| i);
    }

    fn phase_b(&self, rt: &mut Runtime) {
        self.phase(rt, |i, len| (i + len / 2) % len);
    }

    fn phase_c(&self, rt: &mut Runtime) {
        self.phase(rt, |i, len| len - 1 - i);
    }
}

fn setup() -> (Runtime, ThreePhase, UpmEngine) {
    let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
    install_placement(&mut machine, PlacementScheme::FirstTouch);
    let mut rt = Runtime::new(machine);
    let prog = ThreePhase::new(&mut rt);
    let mut upm = UpmEngine::new(
        rt.machine(),
        UpmOptions {
            critical_pages: 256,
            ..Default::default()
        },
    );
    upm.memrefcnt(&prog.data);
    // Cold start on phase A, so first-touch distributes by A's mapping.
    prog.phase_a(&mut rt);
    upm.reset_counters(rt.machine());
    (rt, prog, upm)
}

#[test]
fn multi_phase_record_builds_one_list_per_transition() {
    let (mut rt, prog, mut upm) = setup();
    // Recording iteration: record before B, before C, and at the end.
    prog.phase_a(&mut rt);
    upm.record(rt.machine());
    prog.phase_b(&mut rt);
    upm.record(rt.machine());
    prog.phase_c(&mut rt);
    upm.record(rt.machine());
    let scheduled = upm.compare_counters();
    let sizes = upm.replay_list_sizes();
    assert_eq!(sizes.len(), 2, "two transitions => two replay lists");
    assert!(scheduled > 0, "phase shifts must schedule migrations");
    assert!(sizes[0] > 0, "B's delta is remote-shifted: {sizes:?}");
    assert!(sizes[1] > 0, "C's delta is remote-shifted: {sizes:?}");
}

#[test]
fn replay_cursor_walks_transitions_and_undo_rewinds() {
    let (mut rt, prog, mut upm) = setup();
    prog.phase_a(&mut rt);
    upm.record(rt.machine());
    prog.phase_b(&mut rt);
    upm.record(rt.machine());
    prog.phase_c(&mut rt);
    upm.record(rt.machine());
    upm.compare_counters();

    let (base, len) = prog.data.vrange();
    let homes = |m: &Machine| -> Vec<usize> {
        ccnuma::vpages(base, len)
            .map(|vp| m.node_of_vpage(vp).unwrap())
            .collect()
    };
    let initial = homes(rt.machine());
    for _iteration in 0..3 {
        prog.phase_a(&mut rt);
        let moved_b = upm.replay(rt.machine_mut());
        prog.phase_b(&mut rt);
        let moved_c = upm.replay(rt.machine_mut());
        prog.phase_c(&mut rt);
        assert!(moved_b > 0 && moved_c > 0, "replays act every iteration");
        // A third replay in the same iteration has no list: no-op.
        assert_eq!(upm.replay(rt.machine_mut()), 0);
        upm.undo(rt.machine_mut());
        assert_eq!(homes(rt.machine()), initial, "undo restores the placement");
    }
}

#[test]
fn replaying_toward_phase_b_reduces_its_remote_traffic() {
    let (mut rt, prog, mut upm) = setup();
    prog.phase_a(&mut rt);
    upm.record(rt.machine());
    prog.phase_b(&mut rt);
    upm.record(rt.machine());
    upm.compare_counters();

    // Measure phase B remote misses without replay...
    let r0 = rt.machine().aggregate_cpu_stats().mem_remote;
    prog.phase_b(&mut rt);
    let remote_plain = rt.machine().aggregate_cpu_stats().mem_remote - r0;
    // ...and with the replayed placement.
    upm.replay(rt.machine_mut());
    let r1 = rt.machine().aggregate_cpu_stats().mem_remote;
    prog.phase_b(&mut rt);
    let remote_replayed = rt.machine().aggregate_cpu_stats().mem_remote - r1;
    upm.undo(rt.machine_mut());
    assert!(
        remote_replayed < remote_plain / 4,
        "replay must localize phase B: {remote_replayed} vs {remote_plain}"
    );
}

#[test]
fn distribution_then_recording_compose() {
    // The Figure 3 protocol: migrate_memory in iteration 1, record in
    // iteration 2 — the recording must observe the *post-distribution*
    // homes as `original_home`s so undo restores the distributed layout,
    // not the initial one.
    let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
    install_placement(&mut machine, PlacementScheme::WorstCase { node: 0 });
    let mut rt = Runtime::new(machine);
    let prog = ThreePhase::new(&mut rt);
    let mut upm = UpmEngine::new(
        rt.machine(),
        UpmOptions {
            critical_pages: 256,
            ..Default::default()
        },
    );
    upm.memrefcnt(&prog.data);
    prog.phase_a(&mut rt); // cold start: everything lands on node 0
    upm.reset_counters(rt.machine());

    // Iteration 1: phase A runs, distribution moves pages to their owners.
    prog.phase_a(&mut rt);
    let moved = upm.migrate_memory(rt.machine_mut());
    assert!(moved > 0, "worst-case placement must trigger distribution");
    let (base, len) = prog.data.vrange();
    let distributed: Vec<_> = ccnuma::vpages(base, len)
        .map(|vp| rt.machine().node_of_vpage(vp).unwrap())
        .collect();
    assert!(
        distributed.iter().any(|&n| n != 0),
        "pages must have left node 0"
    );

    // Iteration 2: record around phase B.
    prog.phase_a(&mut rt);
    upm.record(rt.machine());
    prog.phase_b(&mut rt);
    upm.record(rt.machine());
    upm.compare_counters();

    // Iteration 3: replay + undo must return to the *distributed* layout.
    prog.phase_a(&mut rt);
    upm.replay(rt.machine_mut());
    prog.phase_b(&mut rt);
    upm.undo(rt.machine_mut());
    let after: Vec<_> = ccnuma::vpages(base, len)
        .map(|vp| rt.machine().node_of_vpage(vp).unwrap())
        .collect();
    assert_eq!(after, distributed);
}
