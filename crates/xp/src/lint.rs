//! `xp lint`: drive the static NUMA/race analyzer over the benchmarks.
//!
//! Builds each benchmark's [`nas::KernelModel`] on the paper's machine
//! (same allocation sequence as a real run, so virtual addresses match the
//! simulator bit-for-bit), folds it into one [`::lint::Footprint`] that both
//! the analyzer and the placement synthesizer read, and renders one report
//! row per finding. Findings whose stable keys appear in the allowlist are
//! marked `allowed`; findings whose code is in the deny set and not
//! allowlisted are marked `denied` and make the command exit non-zero —
//! that is the CI gate.

use ::lint::{Allowlist, Analysis, Code, Finding, Footprint, LintConfig, PlacementMap};
use ccnuma::Machine;
use nas::facts::{Facts, FactsStats};
use nas::{BenchName, Scale};
use omp::Runtime;
use std::collections::BTreeSet;
use std::sync::{Arc, LazyLock};
use vmm::PlacementScheme;

use crate::Report;

/// Outcome of one `xp lint` invocation.
pub struct LintRun {
    /// The renderable report (one row per finding, plus summary notes).
    pub report: Report,
    /// Findings hit by the deny set and not waived by the allowlist.
    pub denied: Vec<Finding>,
    /// Each benchmark's synthesized placement, in `benches` order.
    pub maps: Vec<PlacementMap>,
}

/// Build `bench`'s access model exactly as a dynamic run would allocate it:
/// fresh machine, full-team runtime, then the benchmark constructor. The
/// machine hands out virtual ranges sequentially, so the model's addresses
/// equal those of a [`nas::BenchRun`] over the same scale. Machine and team
/// are `cfg`'s, so addresses are laid out for the configuration ownership
/// is evaluated under.
fn model_under(cfg: &LintConfig, bench: BenchName, scale: Scale) -> nas::KernelModel {
    let machine = Machine::new(cfg.machine.clone());
    let mut rt = Runtime::with_threads(machine, cfg.threads);
    nas::instantiate(bench, &mut rt, scale).access_model()
}

/// `bench`'s access model under the paper-default lint configuration.
pub fn model_for(bench: BenchName, scale: Scale) -> nas::KernelModel {
    model_under(&LintConfig::paper_default(), bench, scale)
}

/// Analyze one benchmark with the paper-default lint configuration.
pub fn analyze_bench(bench: BenchName, scale: Scale) -> Analysis {
    let cfg = LintConfig::paper_default();
    ::lint::analyze(&model_under(&cfg, bench, scale), &cfg)
}

/// Synthesize `bench`'s static placement prescription with the paper-default
/// lint configuration. Deterministic: a pure function of (bench, scale), and
/// derived afresh by every call — what `xp lint` prints and what
/// [`static_scheme`]'s shared entries are tested against.
pub fn placement_map(bench: BenchName, scale: Scale) -> PlacementMap {
    let cfg = LintConfig::paper_default();
    ::lint::synthesize(&model_under(&cfg, bench, scale), &cfg)
}

/// [`analyze_bench`] and [`placement_map`] off one model, one footprint and
/// one converged replay.
fn analyze_and_place(bench: BenchName, scale: Scale) -> (Analysis, PlacementMap) {
    let cfg = LintConfig::paper_default();
    let model = model_under(&cfg, bench, scale);
    let fp = Footprint::build(&model, &cfg);
    let converged = fp.replay(&cfg);
    (
        ::lint::analyze_footprint(&model, &cfg, &fp, &converged),
        ::lint::synthesize_footprint(&model, &cfg, &fp, &converged),
    )
}

/// The installable `static` placement scheme prescribing `map`.
pub fn scheme_of(map: &PlacementMap) -> PlacementScheme {
    PlacementScheme::Static {
        map: Arc::new(map.to_static()),
    }
}

/// One synthesis per (bench, scale) for the life of the process: the map
/// and the scheme prescribing it. Every plan that names a `static` cell,
/// every server-side rebuild of one and `xp staticplace`'s report clone the
/// `Arc`s the first asker synthesized.
static SCHEMES: LazyLock<Facts<(BenchName, Scale), Synthesized>> = LazyLock::new(Facts::default);

/// One (bench, scale)'s [`static_placement`].
type Synthesized = (PlacementScheme, Arc<PlacementMap>);

/// The installable `static` placement scheme for `bench` at `scale` and the
/// [`placement_map`] it prescribes ([`scheme_of`]), synthesized once per
/// process.
pub fn static_placement(bench: BenchName, scale: Scale) -> (PlacementScheme, Arc<PlacementMap>) {
    SCHEMES.get((bench, scale), || {
        let _hp = hostprof::span("lint.facts.derive");
        let map = placement_map(bench, scale);
        (scheme_of(&map), Arc::new(map))
    })
}

/// [`static_placement`]'s scheme.
pub fn static_scheme(bench: BenchName, scale: Scale) -> PlacementScheme {
    static_placement(bench, scale).0
}

/// Whether this process has synthesized [`static_scheme`]`(bench, scale)`.
pub fn static_scheme_held(bench: BenchName, scale: Scale) -> bool {
    SCHEMES.holds(&(bench, scale))
}

/// How often [`static_placement`] synthesized and how often it shared.
pub fn static_scheme_stats() -> FactsStats {
    SCHEMES.stats()
}

/// Run the analyzer over `benches` and assemble the `xp` report.
pub fn run(
    benches: &[BenchName],
    scale: Scale,
    deny: &BTreeSet<Code>,
    allow: &Allowlist,
) -> LintRun {
    let scale_label = scale.label();
    let mut report = Report::new(
        &format!("lint_{scale_label}"),
        &format!("Static NUMA/race lint ({scale_label}, 16 threads, paper machine)"),
        &[
            "code", "severity", "bench", "site", "subject", "count", "status", "message",
        ],
    );
    let mut denied = Vec::new();
    let mut total = 0usize;
    let mut waived = 0usize;
    let mut maps = Vec::new();
    for &bench in benches {
        let (analysis, map) = analyze_and_place(bench, scale);
        // Synthesis warnings (L009: pages with no phase-invariant home) ride
        // the same report, deny gate and allowlist as the analyzer findings.
        let synth = map.findings();
        maps.push(map);
        for f in analysis.findings.into_iter().chain(synth) {
            total += 1;
            let allowed = allow.allows(&f);
            let status = if allowed {
                waived += 1;
                "allowed"
            } else if deny.contains(&f.code) {
                "denied"
            } else {
                "reported"
            };
            report.row(vec![
                f.code.as_str().to_string(),
                f.severity().as_str().to_string(),
                f.bench.clone(),
                f.site.clone(),
                f.subject.clone(),
                f.count.to_string(),
                status.to_string(),
                f.message.clone(),
            ]);
            if status == "denied" {
                denied.push(f);
            }
        }
    }
    report.note(format!(
        "{} findings over {} benchmarks; {} allowlisted, {} denied",
        total,
        benches.len(),
        waived,
        denied.len()
    ));
    if !deny.is_empty() {
        let codes: Vec<&str> = deny.iter().map(|c| c.as_str()).collect();
        report.note(format!("deny set: {}", codes.join(",")));
    }
    LintRun {
        report,
        denied,
        maps,
    }
}

/// `xp lint --emit-placement`: write the placement maps [`run`] synthesized
/// as deterministic JSON (`placement-{bench}-{scale}.json` under `out`).
/// Returns the paths written, in map order.
pub fn emit_placement(
    maps: &[PlacementMap],
    scale: Scale,
    out: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(out)?;
    let mut paths = Vec::new();
    for map in maps {
        let path = out.join(format!(
            "placement-{}-{}.json",
            map.bench().to_ascii_lowercase(),
            scale.label()
        ));
        std::fs::write(&path, map.to_json().to_string_pretty())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-audited expectation for the kernels at Tiny: no races
    /// anywhere, and false sharing only where BT/SP's z-sweep writes
    /// 320-byte y-rows of `rhs` against 128-byte lines.
    #[test]
    fn tiny_findings_match_the_audit() {
        let run = run(
            &BenchName::all(),
            Scale::Tiny,
            &BTreeSet::new(),
            &Allowlist::empty(),
        );
        assert!(run.denied.is_empty());
        let keys: Vec<String> = BenchName::all()
            .iter()
            .flat_map(|&b| analyze_bench(b, Scale::Tiny).findings)
            .map(|f| f.key())
            .collect();
        assert!(
            keys.iter()
                .all(|k| !k.starts_with("L001") && !k.starts_with("L002")),
            "no races expected, got {keys:?}"
        );
        let fs: Vec<&String> = keys.iter().filter(|k| k.starts_with("L003")).collect();
        assert_eq!(
            fs,
            vec!["L003 BT z_solve bt.rhs", "L003 SP z_solve sp.rhs"],
            "false sharing exactly in the z-sweeps' rhs rows"
        );
        assert!(
            keys.iter().all(|k| !k.starts_with("L004")),
            "no predicted frozen pages at Tiny: {keys:?}"
        );
    }

    #[test]
    fn the_shared_scheme_is_the_freshly_synthesized_one() {
        // Small synthesizes for seconds unoptimized; CI's `fastpath` job
        // runs this test in release.
        let scales: &[Scale] = if cfg!(debug_assertions) {
            &[Scale::Tiny]
        } else {
            &[Scale::Tiny, Scale::Small]
        };
        for &scale in scales {
            for bench in BenchName::all() {
                let shared = static_scheme(bench, scale);
                assert!(static_scheme_held(bench, scale));
                assert_eq!(shared, scheme_of(&placement_map(bench, scale)));
                let (PlacementScheme::Static { map }, PlacementScheme::Static { map: again }) =
                    (shared, static_scheme(bench, scale))
                else {
                    panic!("static_scheme builds the static scheme");
                };
                assert!(Arc::ptr_eq(&map, &again), "one map per (bench, scale)");
                let fresh = placement_map(bench, scale);
                assert_eq!(map.fingerprint(), fresh.to_static().fingerprint());
                let (_, held) = static_placement(bench, scale);
                assert_eq!(held.to_json().to_string(), fresh.to_json().to_string());
            }
        }
        let stats = static_scheme_stats();
        assert!(stats.derived >= 1 && stats.shared >= 1, "{stats:?}");
    }

    #[test]
    fn deny_gate_respects_allowlist() {
        let deny = ::lint::parse_deny("races,false-sharing").unwrap();
        let bare = run(&[BenchName::Bt], Scale::Tiny, &deny, &Allowlist::empty());
        assert_eq!(bare.denied.len(), 1, "BT's z_solve false sharing is denied");
        let allow = Allowlist::from_text("L003 BT z_solve bt.rhs\n");
        let waived = run(&[BenchName::Bt], Scale::Tiny, &deny, &allow);
        assert!(waived.denied.is_empty());
    }
}
