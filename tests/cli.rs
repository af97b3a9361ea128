//! Integration: the `htims` binary rejects what it cannot honour — an
//! unknown flag, a retired one, a value that does not parse, a flag
//! missing its value, a surplus argument, an unknown subcommand — with
//! exit status 2 and the offender named on stderr, and still runs what
//! it can.

use htims::core::pipeline::PipelineReport;
use std::process::{Command, Output};

fn htims(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_htims"))
        .args(args)
        .output()
        .expect("htims starts")
}

fn assert_rejected(args: &[&str], offender: &str) {
    let out = htims(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(offender),
        "{args:?} must name {offender}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn unknown_and_retired_flags_exit_2_naming_the_flag() {
    assert_rejected(
        &["pipeline", "--bogus-flag", "3", "--no-ledger"],
        "--bogus-flag",
    );
    assert_rejected(&["pipeline", "--sparse", "--no-ledger"], "--sparse");
    assert_rejected(&["trace", "--shard", "4", "--no-ledger"], "--shard");
    // A flag of another subcommand is unknown here; chaos takes its
    // faults from the matrix, so `--faults` would be silently dropped.
    assert_rejected(&["sequence", "--mz", "40"], "--mz");
    assert_rejected(
        &["chaos", "--faults", "frame.drop=1", "--no-ledger"],
        "--faults",
    );
}

#[test]
fn unparsable_and_missing_values_exit_2_naming_the_flag() {
    assert_rejected(&["pipeline", "--degree", "abc", "--no-ledger"], "--degree");
    assert_rejected(&["pipeline", "--no-ledger", "--frames", "-1"], "--frames");
    assert_rejected(&["feasibility", "--mz", "1e3"], "--mz");
    assert_rejected(&["pipeline", "--no-ledger", "--out"], "--out");
    assert_rejected(&["pipeline", "--out", "--no-ledger"], "--out");
}

#[test]
fn surplus_arguments_and_unknown_commands_exit_2() {
    assert_rejected(&["sequence", "7"], "'7'");
    assert_rejected(
        &["bench", "compare", "a.json", "b.json", "c.json"],
        "'c.json'",
    );
    assert_rejected(&["bench", "nope"], "bench nope");
    assert_rejected(&["e13"], "e13");
}

#[test]
fn known_flags_still_run() {
    let out = htims(&["sequence", "--degree", "5", "--factor", "2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("degree 5"));

    let out = htims(&[
        "pipeline",
        "--degree",
        "5",
        "--mz",
        "20",
        "--frames",
        "2",
        "--blocks",
        "1",
        "--no-ledger",
    ]);
    assert!(out.status.success(), "{out:?}");
    let report: PipelineReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("report JSON");
    assert_eq!((report.frames, report.blocks), (2, 1));
}
