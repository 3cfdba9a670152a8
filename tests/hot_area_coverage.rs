//! The paper's compiler identifies "hot memory areas" (shared arrays both
//! read and written across parallel constructs) and registers them with
//! UPMlib. These tests check that each benchmark's `register_hot` actually
//! covers the pages its kernels touch — an engine watching the wrong ranges
//! would silently do nothing.

use ccnuma::{Machine, MachineConfig};
use nas::bt::Bt;
use nas::cg::Cg;
use nas::common::{NasBenchmark, PhasePoint};
use nas::ft::Ft;
use nas::mg::Mg;
use nas::sp::Sp;
use nas::Scale;
use omp::Runtime;
use upmlib::{UpmEngine, UpmOptions};
use vmm::{install_placement, PlacementScheme};

/// Run one cold-start + one iteration and report what fraction of the
/// machine's counted memory accesses landed inside the benchmark's
/// registered hot areas.
fn hot_coverage(mut bench: impl NasBenchmark, mut rt: Runtime) -> f64 {
    let mut upm = UpmEngine::new(rt.machine(), UpmOptions::default());
    bench.register_hot(&mut upm);
    bench.cold_start(&mut rt);
    let mut noop = |_: &mut Runtime, _: PhasePoint| {};
    bench.iterate(&mut rt, &mut noop);

    let machine = rt.machine();
    let in_hot = |vpage: u64| {
        upm.hot_areas()
            .iter()
            .any(|&(base, len)| ccnuma::vpages(base, len).contains(&vpage))
    };
    let mut total = 0u64;
    let mut hot = 0u64;
    for (vpage, frame) in machine.mapped_pages() {
        let page_total: u64 = (0..machine.topology().nodes())
            .map(|n| machine.counters().get(frame, n))
            .sum();
        total += page_total;
        if in_hot(vpage) {
            hot += page_total;
        }
    }
    assert!(total > 0, "the iteration must generate memory traffic");
    hot as f64 / total as f64
}

macro_rules! coverage_test {
    ($name:ident, $ty:ident) => {
        #[test]
        fn $name() {
            let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
            install_placement(&mut machine, PlacementScheme::FirstTouch);
            let mut rt = Runtime::new(machine);
            let bench = $ty::new(&mut rt, Scale::Tiny);
            let coverage = hot_coverage(bench, rt);
            assert!(
                coverage >= 0.9,
                "{}: hot areas cover only {:.0}% of memory traffic",
                stringify!($ty),
                coverage * 100.0
            );
        }
    };
}

coverage_test!(bt_hot_areas_cover_its_traffic, Bt);
coverage_test!(sp_hot_areas_cover_its_traffic, Sp);
coverage_test!(cg_hot_areas_cover_its_traffic, Cg);
coverage_test!(mg_hot_areas_cover_its_traffic, Mg);
coverage_test!(ft_hot_areas_cover_its_traffic, Ft);
