//! Ad-hoc probe: wall-time effect of the phase fast path per benchmark.
//! Usage: mgprobe [tiny|small|medium] [bench...]

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = args
        .first()
        .and_then(|s| nas::Scale::parse(s))
        .unwrap_or(nas::Scale::Tiny);
    let benches: Vec<nas::BenchName> = if args.len() > 1 {
        args[1..]
            .iter()
            .filter_map(|s| nas::BenchName::parse(s))
            .collect()
    } else {
        vec![nas::BenchName::Cg, nas::BenchName::Mg]
    };
    let cfg = xp::selfprof::reference_config();
    for bench in benches {
        let t = Instant::now();
        let slow = xp::run_one_fastpath(bench, scale, &cfg, false);
        let w_off = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (fast, stats) = run_with_stats(bench, scale, &cfg);
        let w_on = t.elapsed().as_secs_f64();
        let warm_off = run_warm(bench, scale, &cfg, false);
        let warm_on = run_warm(bench, scale, &cfg, true);
        println!(
            "{} {}: off {:.4}s on {:.4}s speedup {:.2}x sim {:.6} identical={} {:?}",
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
            "{} {}: warm_off {:.4}s warm_on {:.4}s warm_speedup {:.2}x",
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
