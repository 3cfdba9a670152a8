//! Experiment harness: regenerates every table and figure of *"Is Data
//! Distribution Necessary in OpenMP?"* on the simulated machine.
//!
//! | `xp` command | Experiment | Paper artifact | Function | Cells |
//! |---|---|---|---|---|
//! | `table1` | Memory-hierarchy latencies | Table 1 | [`table1::run`] | none (one probe job) |
//! | `fig1` | Placement sensitivity (5 schemes x IRIX-migration on/off, 5 benchmarks) | Figure 1 | [`fig1::run`] | [`fig1::cells`], served |
//! | `fig4` | UPMlib distribution emulation | Figure 4 | [`fig4::run`] | [`fig4::cells`], served |
//! | `table2` | Residual slowdown + migration timing statistics | Table 2 | [`table2::run`] | [`table2::cells`], served |
//! | `fig5` | Record–replay on BT and SP | Figure 5 | [`fig5::run`] | [`fig5::cells`], served |
//! | `fig6` | Record–replay with 1x/4x/16x-scaled phases | Figure 6 | [`fig6::run`] | [`fig6::cells`], served |
//! | `ablations` | Latency-ratio, threshold and machine-size sweeps; freezing, replication, scheduler disruption | beyond the paper | [`ablation::SWEEP`] | tagged cells (offline cache only) and synthetic-kernel jobs |
//! | `multiprog` | Job mixes under the kernel scheduler | beyond the paper | [`multiprog::run`] | baselines served; schedule jobs uncached |
//! | `staticplace` | Static distribution vs first-touch, ± UPMlib (four-way) | beyond the paper | [`staticplace::run`] | [`staticplace::cells`], served |
//!
//! The command column is [`cli::EXPERIMENTS`], the table the binary
//! dispatches from. An experiment is a [`grid::Sweep`]: its grid, a
//! `Vec<`[`grid::Cell`]`>` per group (one `Cell` derives the cache key,
//! the local job and the server-side reconstruction), its jobs, and
//! reports that only render their outputs. [`grid::sweep`] runs all the
//! work of the experiments it is given as one plan on one pool, so `xp
//! all` computes each distinct cell once; each module's `run` is the sweep
//! of its one row.
//!
//! Each report holds structured rows and renders a markdown table; the
//! `xp` binary writes both to stdout and to `results/*.json`.

pub mod ablation;
pub mod artifacts;
pub mod cache;
pub mod cells;
mod dash;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod grid;
pub mod jobs;
pub mod lint;
pub mod multiprog;
pub mod prof;
pub mod remote;
pub mod report;
pub mod run_one;
pub mod seed;
pub mod selfprof;
pub mod spec;
pub mod staticplace;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod top;
pub mod trace;

pub use cells::{CellOutput, CellPlan};
pub use report::Report;
pub use run_one::{default_engine_configs, run_one, run_one_fastpath};

/// The two tables the `xp` binary is driven from (and that
/// `tests/cli_usage.rs` walks, so the usage text cannot drift from them).
pub mod cli {
    use crate::grid::Sweep;

    /// An experiment: its command name (also its id in
    /// `bench_summary.json`) and its sweep.
    pub type Experiment = (&'static str, Sweep);

    /// The experiments, in `xp all` order.
    pub const EXPERIMENTS: &[Experiment] = &[
        ("table1", crate::table1::SWEEP),
        ("fig1", crate::fig1::SWEEP),
        ("fig4", crate::fig4::SWEEP),
        ("table2", crate::table2::SWEEP),
        ("fig5", crate::fig5::SWEEP),
        ("fig6", crate::fig6::SWEEP),
        ("ablations", crate::ablation::SWEEP),
        ("multiprog", crate::multiprog::SWEEP),
        ("staticplace", crate::staticplace::SWEEP),
    ];

    /// The commands that are not experiments (`all` runs every experiment).
    pub const TOOLS: &[&str] = &[
        "all", "trace", "prof", "selfprof", "lint", "serve", "client", "cache", "top",
    ];

    /// One command-line flag.
    pub struct Flag {
        /// The flag as typed.
        pub name: &'static str,
        /// What a missing value is called (`--out needs a value`); `None`
        /// for a switch.
        pub value: Option<&'static str>,
        /// The commands the flag applies to, as a misuse is answered
        /// (`--x applies to `xp a` and `xp b``); empty for every command.
        /// Flags with equal sets are named together. See
        /// [`Flag::applies_to`] for how an entry matches.
        pub commands: &'static [&'static str],
    }

    impl Flag {
        /// Whether the flag may be given to `command` (run under the
        /// `client` prefix when `client_mode`). An entry's first word is
        /// the command it admits (`cache gc` admits any `xp cache`), except
        /// that `client` admits anything in client mode.
        pub fn applies_to(&self, command: &str, client_mode: bool) -> bool {
            let admits = |entry: &&str| match *entry {
                "client" => client_mode,
                _ => entry.split(' ').next() == Some(command),
            };
            self.commands.is_empty() || self.commands.iter().any(admits)
        }
    }

    const ANY: &[&str] = &[];
    const LINT: &[&str] = &["lint"];
    const SERVER: &[&str] = &["serve", "client", "top"];
    const CACHE_GC: &[&str] = &["cache gc"];
    const TOP: &[&str] = &["top"];

    /// Every flag `xp` accepts (besides `-h`/`--help`).
    #[rustfmt::skip]
    pub const FLAGS: &[Flag] = &[
        Flag { name: "--scale", value: Some("a value"), commands: ANY },
        Flag { name: "--seed", value: Some("a value"), commands: ANY },
        Flag { name: "--jobs", value: Some("a value"), commands: ANY },
        Flag { name: "--out", value: Some("a value"), commands: ANY },
        // Every command but trace/prof/selfprof, which manage their own
        // tracing; the binary words that refusal itself.
        Flag { name: "--trace", value: Some("a directory"), commands: ANY },
        Flag { name: "--cache", value: None, commands: ANY },
        Flag { name: "--cache-dir", value: Some("a directory"), commands: ANY },
        Flag { name: "--bench", value: Some("a value"), commands: LINT },
        Flag { name: "--all", value: None, commands: &["lint", "prof", "selfprof"] },
        Flag { name: "--deny", value: Some("a value"), commands: LINT },
        Flag { name: "--allow", value: Some("a file"), commands: LINT },
        Flag { name: "--emit-placement", value: None, commands: LINT },
        Flag { name: "--from", value: Some("a file"), commands: &["prof"] },
        Flag { name: "--addr", value: Some("an address"), commands: SERVER },
        Flag { name: "--port", value: Some("a value"), commands: SERVER },
        Flag { name: "--max-bytes", value: Some("a value"), commands: CACHE_GC },
        Flag { name: "--max-age", value: Some("a value"), commands: CACHE_GC },
        Flag { name: "--once", value: None, commands: TOP },
        Flag { name: "--interval", value: Some("milliseconds"), commands: TOP },
        Flag { name: "--spans", value: Some("a directory"), commands: &["serve"] },
        Flag { name: "--json", value: None, commands: &["top", "cache stats"] },
    ];
}
