//! Ad-hoc probe: wall-time effect of the phase fast path per benchmark.
//! Usage: mgprobe [tiny|small|medium] [bench[:placement-engine]...]
//!        mgprobe [tiny|small|medium] grid <bench>
//!        mgprobe [tiny|small|medium] derive
//!
//! A plain `bench` runs under the `xp trace` reference configuration
//! (round-robin placement, UPMlib); `ft:rand-upmlib` runs that cell of the
//! figures instead. Either way pages move, and the counters show the engine
//! re-timing memos (`cpu_retimes`) where it used to re-record them. These
//! runs are private (`BenchRun::new`): no run borrows another's memos, so
//! on/off and warm compare one run with itself.
//!
//! `grid <bench>` runs the bench's `fig1` grid (15 cells) in plan order,
//! once as named runs — what a sweep runs, sharing memos through the
//! library — and once as private runs, and prints per cell the first step,
//! the later steps and the engine's counters of each.
//!
//! `derive` prints per kernel, and for BT at Figure 6's phase scales, the
//! region instances of its model, the constructs proved for them and the
//! describe and derive times of one private run's first step.

use std::time::Instant;

/// `bench` or `bench:placement-engine` (the labels of the report bars).
fn parse(arg: &str) -> Option<(nas::BenchName, nas::RunConfig)> {
    let reference = xp::selfprof::reference_config();
    let Some((bench, cell)) = arg.split_once(':') else {
        return Some((nas::BenchName::parse(arg)?, reference));
    };
    let (placement, engine) = cell.split_once('-')?;
    let (kcfg, upm) = xp::default_engine_configs();
    let placements = vmm::PlacementScheme::all(xp::seed::get());
    let engines = [
        nas::EngineMode::None,
        nas::EngineMode::IrixMig(kcfg),
        nas::EngineMode::Upmlib(upm),
        nas::EngineMode::RecRep(upm),
    ];
    let cfg = nas::RunConfig {
        placement: placements.into_iter().find(|p| p.label() == placement)?,
        engine: engines.into_iter().find(|e| e.label() == engine)?,
        ..reference
    };
    Some((nas::BenchName::parse(bench)?, cfg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = args
        .first()
        .and_then(|s| nas::Scale::parse(s))
        .unwrap_or(nas::Scale::Tiny);
    match args.get(1).map(String::as_str) {
        Some("grid") => {
            let bench = args.get(2).and_then(|b| nas::BenchName::parse(b));
            grid(bench.unwrap_or(nas::BenchName::Mg), scale);
            return;
        }
        Some("derive") => return derive(scale),
        _ => {}
    }
    let cells: Vec<_> = if args.len() > 1 {
        args[1..].iter().filter_map(|s| parse(s)).collect()
    } else {
        ["cg", "mg"].into_iter().filter_map(parse).collect()
    };
    for (bench, cfg) in cells {
        let cell = format!("{}-{}", cfg.placement.label(), cfg.engine.label());
        let slow = timed(private(bench, scale, &cfg, false));
        let fast = timed(private(bench, scale, &cfg, true));
        println!(
            "{} {} {cell}: off {:.4}s on {:.4}s speedup {:.2}x sim {:.6} identical={} {:?}",
            bench.label(),
            scale.label(),
            slow.total(),
            fast.total(),
            slow.total() / fast.total(),
            fast.result.total_secs,
            slow.bytes() == fast.bytes(),
            fast.stats,
        );
        println!(
            "{} {} {cell}: warm_off {:.4}s warm_on {:.4}s warm_speedup {:.2}x",
            bench.label(),
            scale.label(),
            slow.later_s,
            fast.later_s,
            slow.later_s / fast.later_s,
        );
    }
}

/// A private run of `bench` at `scale` under `cfg`, the fast path `on` or
/// off.
fn private(
    bench: nas::BenchName,
    scale: nas::Scale,
    cfg: &nas::RunConfig,
    on: bool,
) -> nas::BenchRun {
    let mut run = nas::BenchRun::new(|rt| nas::instantiate(bench, rt, scale), cfg);
    run.set_fastpath(on);
    run
}

/// What one run measured: its first step (cold start and first-sight
/// recording included) and its later steps, timed apart.
struct Timed {
    first_s: f64,
    later_s: f64,
    stats: Option<ccnuma::FastpathStats>,
    result: nas::RunResult,
}

impl Timed {
    fn total(&self) -> f64 {
        self.first_s + self.later_s
    }

    fn bytes(&self) -> String {
        self.result.to_cache_json().to_string()
    }
}

fn timed(mut run: nas::BenchRun) -> Timed {
    let t = Instant::now();
    run.step();
    let first_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    while !run.is_done() {
        run.step();
    }
    let later_s = t.elapsed().as_secs_f64();
    let stats = run.fastpath_stats();
    Timed {
        first_s,
        later_s,
        stats,
        result: run.finish(),
    }
}

/// Per kernel at `scale` (team of 16), and BT with Figure 6's lengthened
/// phases: the region instances a run's model holds, the distinct
/// constructs proved for them, and what describing and deriving cost.
fn derive(scale: nas::Scale) {
    let kernels = nas::BenchName::all().into_iter().map(|b| (b, 1));
    let fig6 = [4, 16].map(|phase_scale| (nas::BenchName::Bt, phase_scale));
    for (bench, phase_scale) in kernels.chain(fig6) {
        let mut rt = omp::Runtime::with_threads(
            ccnuma::Machine::new(ccnuma::MachineConfig::origin2000_16p_scaled()),
            16,
        );
        let kernel: Box<dyn nas::NasBenchmark> = if phase_scale > 1 {
            let cfg = nas::bt::BtConfig {
                phase_scale,
                ..nas::bt::BtConfig::for_scale(scale)
            };
            Box::new(nas::bt::Bt::with_config(&mut rt, cfg))
        } else {
            nas::instantiate(bench, &mut rt, scale)
        };
        let t = Instant::now();
        let model = kernel.access_model().expect("every kernel is modeled");
        let describe_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let set = nas::facts::ProofSet::derive(&model, rt.threads());
        let derive_s = t.elapsed().as_secs_f64();
        println!(
            "{} {} phases x{phase_scale}: {} instances, {} constructs, describe {:.2} ms derive \
             {:.1} ms",
            bench.label(),
            scale.label(),
            set.instances,
            set.constructs,
            describe_s * 1e3,
            derive_s * 1e3,
        );
    }
}

/// The `fig1` grid of `bench` in plan order: named runs, then private ones.
fn grid(bench: nas::BenchName, scale: nas::Scale) {
    let cells = xp::fig1::cells(bench, scale, true);
    let named: Vec<Timed> = (cells.iter())
        .map(|c| timed(nas::BenchRun::for_bench(c.bench, c.scale, &c.cfg)))
        .collect();
    let held = nas::facts::library_stats();
    let private: Vec<Timed> = (cells.iter())
        .map(|c| timed(private(c.bench, c.scale, &c.cfg, true)))
        .collect();
    let sum = |runs: &[Timed], f: fn(&Timed) -> f64| runs.iter().map(f).sum::<f64>();
    for ((cell, n), p) in cells.iter().zip(&named).zip(&private) {
        let label = format!("{}-{}", cell.cfg.placement.label(), cell.cfg.engine.label());
        println!(
            "{} {} {label:<15} named first {:.4}s later {:.4}s | private first {:.4}s later \
             {:.4}s | identical={}",
            bench.label(),
            scale.label(),
            n.first_s,
            n.later_s,
            p.first_s,
            p.later_s,
            n.bytes() == p.bytes(),
        );
        println!("    named   {:?}", n.stats);
        println!("    private {:?}", p.stats);
    }
    println!(
        "{} {} grid: named first {:.3}s later {:.3}s, private first {:.3}s later {:.3}s",
        bench.label(),
        scale.label(),
        sum(&named, |t| t.first_s),
        sum(&named, |t| t.later_s),
        sum(&private, |t| t.first_s),
        sum(&private, |t| t.later_s),
    );
    println!(
        "{} {} grid: named runs left {held:?}",
        bench.label(),
        scale.label()
    );
}
