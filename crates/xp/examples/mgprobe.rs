//! Ad-hoc probe: wall-time effect of the phase fast path per benchmark.
//! Usage: mgprobe [tiny|small|medium] [bench[:placement-engine]...]
//!        mgprobe [tiny|small|medium] grid <bench>
//!        mgprobe [tiny|small|medium] derive
//!        mgprobe [tiny|small|medium] fork <bench>
//!        mgprobe [tiny|small|medium] side <bench[:placement-engine]> [borrow]
//!
//! A plain `bench` runs under the `xp trace` reference configuration
//! (round-robin placement, UPMlib); `ft:rand-upmlib` runs that cell of the
//! figures instead. Either way pages move, and the counters show the engine
//! re-timing memos (`cpu_retimes`) where it used to re-record them. Each
//! cell runs on a key of its own (a machine a few virtual pages larger than
//! the cell's, which moves no simulated byte): its run is the first of its
//! memo library and borrows nothing, so on/off and warm compare one run
//! with itself.
//!
//! `grid <bench>` runs the bench's `fig1` grid (15 cells) in plan order,
//! once sharing one key — what a sweep runs, later cells borrowing what
//! earlier ones published — and once each cell first on a key of its own,
//! and prints per cell the first step, the later steps and the engine's
//! counters of each; the footer sums them, and the pages the engine faulted
//! in at region entry (`fault_pages`: cold starts replayed, not simulated).
//!
//! `derive` prints per kernel, and for BT at Figure 6's phase scales, the
//! region instances of its model, the constructs proved for them and the
//! describe and derive times of one run's first step.
//!
//! `fork <bench>` prints the resident memory (VmRSS) of a bare
//! `Machine::new` and of one run held after its first step, then per
//! placement of the bench's Figure 4 grid, per fork edge (IRIX→UPMlib,
//! UPMlib→IRIX, UPMlib→UPMlib of other options, and for BT and SP every
//! other ordered pair of IRIX, UPMlib and record–replay), the child's wall
//! run fresh and forked at its parent's fork point, each on a key of its
//! own.
//!
//! `side <bench>` runs the cell once to warm its memo library, then again
//! with a host profile of its later steps: their wall, what `omp.region`
//! spends itself (the kernel text's data side: loop bodies and their index
//! arithmetic) against what it spends in `ccnuma.fastpath` and in
//! `nas.line_solve` (the host numerics of BT, SP and FT). With `borrow` it
//! profiles a timing-only run of the cell too (`BenchRun::set_timing_only`,
//! what a plan's borrower runs): the wall and `omp.region` self time it no
//! longer spends are the data side's host-side reading.

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
        Some("fork") => {
            let bench = args.get(2).and_then(|b| nas::BenchName::parse(b));
            return fork(bench.unwrap_or(nas::BenchName::Mg), scale);
        }
        Some("side") => {
            let cell = args.get(2).and_then(|c| parse(c));
            let (bench, cfg) = cell.unwrap_or_else(|| parse("mg").expect("mg parses"));
            let borrow = args.get(3).map(String::as_str) == Some("borrow");
            return side(bench, scale, &cfg, borrow);
        }
        _ => {}
    }
    let cells: Vec<_> = if args.len() > 1 {
        args[1..].iter().filter_map(|s| parse(s)).collect()
    } else {
        ["cg", "mg"].into_iter().filter_map(parse).collect()
    };
    for (i, (bench, cfg)) in cells.into_iter().enumerate() {
        let cell = format!("{}-{}", cfg.placement.label(), cfg.engine.label());
        let cfg = own_key(&cfg, i);
        let slow = timed(run(bench, scale, &cfg, false));
        let fast = timed(run(bench, scale, &cfg, true));
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

/// A run of `bench` at `scale` under `cfg`, the fast path `on` or off.
fn run(bench: nas::BenchName, scale: nas::Scale, cfg: &nas::RunConfig, on: bool) -> nas::BenchRun {
    let mut run = nas::BenchRun::for_bench(bench, scale, cfg);
    run.set_fastpath(on);
    run
}

/// `cfg` on the `i`th key of the probe's own: a machine `i + 1` virtual
/// pages larger, whose memo library nothing else in the process uses.
fn own_key(cfg: &nas::RunConfig, i: usize) -> nas::RunConfig {
    let mut cfg = cfg.clone();
    cfg.machine.max_vpages += i + 1;
    cfg
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
        let model = kernel.access_model();
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

/// The `fig1` grid of `bench` in plan order: sharing one key, then each
/// cell first on a key of its own.
fn grid(bench: nas::BenchName, scale: nas::Scale) {
    let cells = xp::fig1::cells(bench, scale, true);
    let shared: Vec<Timed> = (cells.iter())
        .map(|c| timed(run(c.bench, c.scale, &c.cfg, true)))
        .collect();
    let held = nas::facts::library_stats();
    let alone: Vec<Timed> = (cells.iter().enumerate())
        .map(|(i, c)| timed(run(c.bench, c.scale, &own_key(&c.cfg, i), true)))
        .collect();
    let sum = |runs: &[Timed], f: fn(&Timed) -> f64| runs.iter().map(f).sum::<f64>();
    for ((cell, n), p) in cells.iter().zip(&shared).zip(&alone) {
        let label = format!("{}-{}", cell.cfg.placement.label(), cell.cfg.engine.label());
        println!(
            "{} {} {label:<15} shared first {:.4}s later {:.4}s | alone first {:.4}s later \
             {:.4}s | identical={}",
            bench.label(),
            scale.label(),
            n.first_s,
            n.later_s,
            p.first_s,
            p.later_s,
            n.bytes() == p.bytes(),
        );
        println!("    shared {:?}", n.stats);
        println!("    alone  {:?}", p.stats);
    }
    let faulted = |runs: &[Timed]| -> u64 {
        let stats = runs.iter().filter_map(|t| t.stats);
        stats.map(|s| s.fault_pages).sum()
    };
    println!(
        "{} {} grid: shared first {:.3}s later {:.3}s fault_pages {}, alone first {:.3}s later \
         {:.3}s fault_pages {}",
        bench.label(),
        scale.label(),
        sum(&shared, |t| t.first_s),
        sum(&shared, |t| t.later_s),
        faulted(&shared),
        sum(&alone, |t| t.first_s),
        sum(&alone, |t| t.later_s),
        faulted(&alone),
    );
    println!(
        "{} {} grid: the shared runs left {held:?}",
        bench.label(),
        scale.label()
    );
}

/// This process's resident memory, MB (`VmRSS` of `/proc/self/status`).
fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// What a bare machine and a held run cost resident, then each fork edge
/// of `bench`'s Figure 4 grid: the child fresh and forked.
fn fork(bench: nas::BenchName, scale: nas::Scale) {
    use nas::EngineMode;
    let paper = nas::RunConfig::paper_default();
    let before = vm_rss_mb();
    let machine = ccnuma::Machine::new(paper.machine.clone());
    let bare = vm_rss_mb() - before;
    drop(machine);
    let before = vm_rss_mb();
    let mut held = nas::BenchRun::for_bench(bench, scale, &own_key(&paper, 0));
    held.step();
    let stepped = vm_rss_mb() - before;
    drop(held);
    println!(
        "{} {}: bare Machine::new {bare:.2} MB resident, one run held after its first step \
         {stepped:.2} MB",
        bench.label(),
        scale.label()
    );
    let (_, opts) = xp::default_engine_configs();
    let (irix, upmlib, recrep) = (
        EngineMode::None,
        EngineMode::Upmlib(opts),
        EngineMode::RecRep(opts),
    );
    let other = EngineMode::Upmlib(upmlib::UpmOptions {
        critical_pages: 3,
        ..opts
    });
    let mut edges = vec![(&irix, &upmlib), (&upmlib, &irix), (&upmlib, &other)];
    if matches!(bench, nas::BenchName::Bt | nas::BenchName::Sp) {
        edges.extend([
            (&irix, &recrep),
            (&upmlib, &recrep),
            (&recrep, &irix),
            (&recrep, &upmlib),
        ]);
    }
    let mut placements = vmm::PlacementScheme::all(xp::seed::get()).to_vec();
    placements.push(xp::lint::static_scheme(bench, scale));
    let mut key = 1;
    let mut cfg = |placement: &vmm::PlacementScheme, engine: &EngineMode| {
        key += 1;
        let cfg = nas::RunConfig {
            placement: placement.clone(),
            engine: engine.clone(),
            ..paper.clone()
        };
        own_key(&cfg, key)
    };
    for placement in &placements {
        for &(parent, child) in &edges {
            let mut run = nas::BenchRun::for_bench(bench, scale, &cfg(placement, parent));
            // The first fork brings the parent to its fork point, so that
            // only the child's own work is timed; its copy is dropped.
            drop(run.fork(parent));
            let t = Instant::now();
            let forked = run.fork(child).complete();
            let forked_s = t.elapsed().as_secs_f64();
            drop(run);
            let t = Instant::now();
            let fresh = nas::BenchRun::for_bench(bench, scale, &cfg(placement, child)).complete();
            let fresh_s = t.elapsed().as_secs_f64();
            let bytes = |r: &nas::RunResult| r.to_cache_json().to_string();
            let label = |e: &EngineMode| if e == &other { "upmlib'" } else { e.label() };
            println!(
                "{} {} {}-{}→{}: fresh {fresh_s:.4}s forked {forked_s:.4}s saved {:.0}% \
                 identical={}",
                bench.label(),
                scale.label(),
                placement.label(),
                label(parent),
                label(child),
                100.0 * (1.0 - forked_s / fresh_s),
                bytes(&forked) == bytes(&fresh),
            );
        }
    }
}

/// Self and inclusive nanoseconds of every node named `name` in `nodes`'
/// trees, summed.
fn span_ns(nodes: &[hostprof::SpanNode], name: &str) -> (u64, u64) {
    let mut total = (0, 0);
    for node in nodes {
        if node.name == name {
            total.0 += node.excl_ns();
            total.1 += node.incl_ns;
        }
        let (excl, incl) = span_ns(&node.children, name);
        total = (total.0 + excl, total.1 + incl);
    }
    total
}

/// One warm run of the cell, then a second whose later steps run under a
/// host profile: where a replayed region's time goes. With `borrow`, a
/// timing-only run's later steps are profiled after the full one's.
fn side(bench: nas::BenchName, scale: nas::Scale, cfg: &nas::RunConfig, borrow: bool) {
    run(bench, scale, cfg, true).complete();
    profile_later_steps(bench, scale, cfg, false);
    if borrow {
        profile_later_steps(bench, scale, cfg, true);
    }
}

/// A warm run of the cell, `timing_only` or full, its later steps under a
/// host profile.
fn profile_later_steps(
    bench: nas::BenchName,
    scale: nas::Scale,
    cfg: &nas::RunConfig,
    timing_only: bool,
) {
    let mut warm = run(bench, scale, cfg, true);
    if timing_only {
        warm.set_timing_only();
    }
    warm.step();
    let session = hostprof::start();
    let t = std::time::Instant::now();
    while !warm.is_done() {
        warm.step();
    }
    let later_s = t.elapsed().as_secs_f64();
    let report = session.finish();
    let stats = warm.fastpath_stats();
    let roots = report.merged();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let (region_self, region) = span_ns(&roots, "omp.region");
    let (_, fastpath) = span_ns(&roots, "ccnuma.fastpath");
    let (_, line_solve) = span_ns(&roots, "nas.line_solve");
    let share = |ns: u64| 100.0 * ns as f64 / region.max(1) as f64;
    println!(
        "{} {} {}-{} {} later steps: wall {later_s:.4}s, omp.region {:.4}s: self {:.4}s \
         ({:.1}%), ccnuma.fastpath {:.4}s ({:.1}%), nas.line_solve {:.4}s ({:.1}%)",
        bench.label(),
        scale.label(),
        cfg.placement.label(),
        cfg.engine.label(),
        if timing_only { "timing-only" } else { "full" },
        secs(region),
        secs(region_self),
        share(region_self),
        secs(fastpath),
        share(fastpath),
        secs(line_solve),
        share(line_solve),
    );
    println!("    {stats:?}");
}
