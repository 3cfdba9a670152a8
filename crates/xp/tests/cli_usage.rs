//! The `xp` command-line contract, walked from the two tables the binary
//! is driven from (`xp::cli::{EXPERIMENTS, FLAGS}`): a flag outside its
//! commands is refused by name, an unknown command is answered with every
//! command there is, and the usage text mentions every row of both tables
//! — so neither the dispatcher nor `--help` can drift from them.
//!
//! Every invocation here exits during argument handling; nothing runs.

use std::process::Command;
use xp::cli::{EXPERIMENTS, FLAGS, TOOLS};

/// Run `xp args...`; returns the exit code, stdout and stderr.
fn xp(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(args)
        .output()
        .expect("xp binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `xp args...` must exit 2 with `needle` on stderr and the usage pointer.
fn refused(args: &[&str], needle: &str) {
    let (code, _, stderr) = xp(args);
    assert_eq!(code, Some(2), "xp {args:?} should exit 2:\n{stderr}");
    assert!(stderr.contains(needle), "xp {args:?}: {stderr}");
    assert!(stderr.contains("run `xp --help` for usage"), "{stderr}");
}

/// `xp <command> <flag> [value]`.
fn invocation(command: &'static str, flag: &xp::cli::Flag) -> Vec<&'static str> {
    let mut args = vec![command, flag.name];
    args.extend(flag.value.map(|_| "1"));
    args
}

fn commands() -> Vec<&'static str> {
    let experiments = EXPERIMENTS.iter().map(|(name, _)| *name);
    experiments.chain(TOOLS.iter().copied()).collect()
}

#[test]
fn a_flag_outside_its_commands_exits_2_and_is_named() {
    let mut checked = 0;
    for flag in FLAGS.iter().filter(|f| !f.commands.is_empty()) {
        let scoped_to: Vec<&str> = flag
            .commands
            .iter()
            .map(|c| c.split(' ').next().unwrap())
            .collect();
        // `client` is a mode prefix, not a command of its own.
        for command in commands().into_iter().filter(|c| *c != "client") {
            if scoped_to.contains(&command) {
                continue;
            }
            refused(&invocation(command, flag), flag.name);
            checked += 1;
        }
        // Every command the flag *is* scoped to is named in the refusal.
        let (_, _, stderr) = xp(&invocation("table1", flag));
        for entry in flag.commands {
            assert!(stderr.contains(&format!("`xp {entry}`")), "{stderr}");
        }
    }
    assert!(checked > 200, "only {checked} flag x command pairs walked");
    // The `client` prefix widens no scope but the server flags'.
    refused(&["client", "fig1", "--json"], "--json");
    // The one exclusion-shaped scope: commands that manage their own trace.
    for command in ["trace", "prof", "selfprof"] {
        refused(
            &[command, "cg", "--trace", "d"],
            &format!("`xp {command}` manages its own tracing"),
        );
    }
}

#[test]
fn a_missing_value_or_an_unknown_flag_exits_2() {
    for flag in FLAGS {
        if let Some(noun) = flag.value {
            refused(&[flag.name], &format!("{} needs {noun}", flag.name));
        }
    }
    refused(&["--bogus"], "unknown flag '--bogus'");
}

#[test]
fn an_unknown_command_exits_2_and_lists_every_command() {
    let (code, _, stderr) = xp(&["bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown command 'bogus'"), "{stderr}");
    let listed = stderr
        .split_once("(expected ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .map(|(list, _)| list.split('|').collect::<Vec<_>>())
        .unwrap_or_else(|| panic!("no command list in: {stderr}"));
    assert_eq!(listed, commands());
}

/// The perf record is `BENCHMARK.json` + `benchmark/` and the server's
/// window is `xp top`; `xp` has no second one of either to drift from it,
/// and no flag whose only use is to cancel another.
#[test]
fn the_deleted_commands_and_flags_are_unknown() {
    for command in ["bench", "history"] {
        refused(&[command], &format!("unknown command '{command}'"));
    }
    refused(&["client", "stats"], "unknown command 'stats'");
    for flag in [
        "--record",
        "--check",
        "--threshold",
        "--history",
        "--no-cache",
    ] {
        refused(&["lint", flag], &format!("unknown flag '{flag}'"));
    }
}

#[test]
fn help_mentions_every_command_and_every_flag() {
    for args in [&["--help"][..], &["-h"], &["fig1", "--help"]] {
        let (code, stdout, _) = xp(args);
        assert_eq!(code, Some(0));
        for command in commands() {
            // As a row of the `commands:` section or, for the `client`
            // prefix, of the usage synopsis.
            assert!(
                stdout.contains(&format!("\n  {command} "))
                    || stdout.contains(&format!("xp {command} ")),
                "`{command}` missing from --help"
            );
        }
        for flag in FLAGS {
            let row = format!("  {} ", flag.name);
            let described = stdout.lines().any(|l| l.starts_with(&row));
            assert!(described, "`{}` missing from --help options", flag.name);
        }
    }
}

#[test]
fn the_hand_written_refusals_keep_their_messages() {
    refused(
        &["serve", "--addr", "127.0.0.1:1", "--port", "1"],
        "--addr and --port are mutually exclusive",
    );
    refused(
        &["cache", "gc"],
        "cache gc needs --max-bytes and/or --max-age",
    );
    refused(
        &["prof", "cg", "--all"],
        "prof takes a benchmark or --all, not both",
    );
    refused(
        &["selfprof", "cg", "--all"],
        "selfprof takes a benchmark or --all, not both",
    );
    refused(&["client", "top"], "`xp client top` is not a thing");
    refused(&["fig1", "extra"], "unexpected argument 'extra'");
    refused(
        &["cache", "verify", "--json"],
        "--json applies to `xp cache stats`",
    );
    refused(
        &["--scale", "huge"],
        "unknown scale 'huge' (expected tiny|small|medium)",
    );
    refused(&["--jobs", "0"], "--jobs needs a positive integer, got '0'");
    refused(
        &["trace", "nope"],
        "unknown benchmark 'nope' (expected bt|sp|cg|mg|ft)",
    );
}
