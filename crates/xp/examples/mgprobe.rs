//! Ad-hoc probe: wall-time effect of the phase fast path per benchmark.
//! Usage: mgprobe [tiny|small|medium] [bench[:placement-engine]...]
//!
//! A plain `bench` runs under the `xp trace` reference configuration
//! (round-robin placement, UPMlib); `ft:rand-upmlib` runs that cell of the
//! figures instead. Either way pages move, and the counters show the engine
//! re-timing memos (`cpu_retimes`) where it used to re-record them.

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
    let cells: Vec<_> = if args.len() > 1 {
        args[1..].iter().filter_map(|s| parse(s)).collect()
    } else {
        ["cg", "mg"].into_iter().filter_map(parse).collect()
    };
    for (bench, cfg) in cells {
        let cell = format!("{}-{}", cfg.placement.label(), cfg.engine.label());
        let t = Instant::now();
        let slow = xp::run_one_fastpath(bench, scale, &cfg, false);
        let w_off = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (fast, stats) = run_with_stats(bench, scale, &cfg);
        let w_on = t.elapsed().as_secs_f64();
        let warm_off = run_warm(bench, scale, &cfg, false);
        let warm_on = run_warm(bench, scale, &cfg, true);
        println!(
            "{} {} {cell}: off {:.4}s on {:.4}s speedup {:.2}x sim {:.6} identical={} {:?}",
            bench.label(),
            scale.label(),
            w_off,
            w_on,
            w_off / w_on,
            fast.total_secs,
            slow.to_cache_json().to_string() == fast.to_cache_json().to_string(),
            stats,
        );
        println!(
            "{} {} {cell}: warm_off {:.4}s warm_on {:.4}s warm_speedup {:.2}x",
            bench.label(),
            scale.label(),
            warm_off,
            warm_on,
            warm_off / warm_on,
        );
    }
}

/// Warm-iteration wall time: cold start plus the first step run untimed (for
/// the fast path that is where the memos get recorded), then the remaining
/// steps timed. Isolates the steady-state iteration cost from init and
/// first-sight recording.
fn run_warm(bench: nas::BenchName, scale: nas::Scale, cfg: &nas::RunConfig, fast: bool) -> f64 {
    let mut run = nas::BenchRun::for_bench(bench, scale, cfg);
    run.set_fastpath(fast);
    run.step();
    let t = Instant::now();
    while !run.is_done() {
        run.step();
    }
    t.elapsed().as_secs_f64()
}

fn run_with_stats(
    bench: nas::BenchName,
    scale: nas::Scale,
    cfg: &nas::RunConfig,
) -> (nas::RunResult, Option<ccnuma::FastpathStats>) {
    let mut run = nas::BenchRun::for_bench(bench, scale, cfg);
    run.set_fastpath(true);
    while !run.is_done() {
        run.step();
    }
    let stats = run.fastpath_stats();
    (run.finish(), stats)
}
