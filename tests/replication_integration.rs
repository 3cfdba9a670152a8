//! Integration tests of read-only replication composed with the rest of the
//! stack: correctness under collapse, interaction with migration, and the
//! broadcast-workload win.

use ccnuma::{Machine, MachineConfig, SimArray, PAGE_SIZE};
use omp::{Runtime, Schedule};
use upmlib::{UpmEngine, UpmOptions};
use vmm::{install_placement, PlacementScheme};

fn broadcast_setup() -> (Runtime, SimArray<f64>, SimArray<f64>, UpmEngine) {
    let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
    install_placement(&mut machine, PlacementScheme::WorstCase { node: 0 });
    let mut rt = Runtime::new(machine);
    let table_len = 8 * (PAGE_SIZE as usize / 8);
    let work_len = 32 * (PAGE_SIZE as usize / 8);
    let table = SimArray::from_fn(rt.machine_mut(), "table", table_len, |i| (i % 13) as f64);
    let work = SimArray::new(rt.machine_mut(), "work", work_len, 0.0f64);
    let mut upm = UpmEngine::new(rt.machine(), UpmOptions::default());
    upm.memrefcnt(&table);
    upm.memrefcnt(&work);
    (rt, table, work, upm)
}

fn sweep(rt: &mut Runtime, table: &SimArray<f64>, work: &SimArray<f64>) {
    let (tl, wl) = (table.len(), work.len());
    rt.parallel_for(wl, Schedule::Static, |par, i| {
        let coeff = par.get(table, (i.wrapping_mul(7919)) % tl);
        par.update(work, i, |v| v + coeff);
        par.flops(2);
    });
}

#[test]
fn replication_accelerates_broadcast_reads() {
    let run = |replicate: bool| -> (f64, Vec<f64>) {
        let (mut rt, table, work, mut upm) = broadcast_setup();
        sweep(&mut rt, &table, &work); // cold start
        upm.reset_counters(rt.machine());
        let t0 = rt.machine().clock().now_secs();
        for _ in 0..8 {
            sweep(&mut rt, &table, &work);
            if upm.is_active() {
                upm.migrate_memory(rt.machine_mut());
            }
            if replicate {
                upm.replicate_readonly(rt.machine_mut());
            }
        }
        (rt.machine().clock().now_secs() - t0, work.to_vec())
    };
    let (plain, data_plain) = run(false);
    let (replicated, data_replicated) = run(true);
    assert!(
        replicated < plain,
        "replication must win on a broadcast table: {replicated} vs {plain}"
    );
    assert_eq!(
        data_plain, data_replicated,
        "replication must not change results"
    );
}

#[test]
fn a_late_write_collapses_and_stays_correct() {
    let (mut rt, table, work, mut upm) = broadcast_setup();
    sweep(&mut rt, &table, &work);
    upm.reset_counters(rt.machine());
    for _ in 0..3 {
        sweep(&mut rt, &table, &work);
        if upm.is_active() {
            upm.migrate_memory(rt.machine_mut());
        }
        upm.replicate_readonly(rt.machine_mut());
    }
    assert!(
        upm.stats().replications > 0,
        "the table must have been replicated"
    );
    let (tbase, tlen) = table.vrange();
    let replicated_pages: usize = ccnuma::vpages(tbase, tlen)
        .map(|vp| rt.machine().replica_count(vp))
        .sum();
    assert!(replicated_pages > 0);

    // Someone writes the table (e.g. coefficients updated): collapse.
    rt.serial(|par| {
        for i in 0..table.len() {
            let v = par.get(&table, i);
            par.set(&table, i, 2.0 * v);
        }
    });
    let after: usize = ccnuma::vpages(tbase, tlen)
        .map(|vp| rt.machine().replica_count(vp))
        .sum();
    assert_eq!(after, 0, "writes must collapse every replica");

    // The next sweep sees the doubled coefficients everywhere.
    let before = work.to_vec();
    sweep(&mut rt, &table, &work);
    let tl = table.len();
    for (i, (b, a)) in before.iter().zip(work.to_vec()).enumerate() {
        let coeff = table.peek((i.wrapping_mul(7919)) % tl);
        assert_eq!(a, b + coeff, "element {i}");
    }
}

#[test]
fn frame_accounting_survives_replication_cycles() {
    let (mut rt, table, work, mut upm) = broadcast_setup();
    let total = rt.machine().memory().total_frames();
    sweep(&mut rt, &table, &work);
    for round in 0..4 {
        sweep(&mut rt, &table, &work);
        upm.replicate_readonly(rt.machine_mut());
        if round % 2 == 1 {
            // Collapse by writing one table element.
            rt.serial(|par| par.set(&table, 0, round as f64));
        }
        let replicas: usize = rt
            .machine()
            .mapped_pages()
            .map(|(vp, _)| rt.machine().replica_count(vp))
            .sum();
        let mapped = rt.machine().mapped_pages().count();
        assert_eq!(
            rt.machine().memory().total_free() + mapped + replicas,
            total,
            "round {round}"
        );
    }
}
