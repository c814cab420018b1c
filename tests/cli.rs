//! End-to-end tests of the `randsync` CLI binary.

use std::process::Command;

fn randsync(args: &[&str]) -> (String, String, bool) {
    let exe = env!("CARGO_BIN_EXE_randsync");
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_every_subcommand() {
    let (stdout, _, ok) = randsync(&[]);
    assert!(ok);
    for cmd in ["table", "bounds", "attack", "check", "valency", "walk"] {
        assert!(stdout.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn bounds_reports_the_thresholds() {
    let (stdout, _, ok) = randsync(&["bounds", "1024"]);
    assert!(ok);
    assert!(stdout.contains("Thm 3.7"));
    assert!(stdout.contains(": 19"), "√n bound for 1024 is 19: {stdout}");
    assert!(stdout.contains(": 1024"), "O(n) upper bound");
}

#[test]
fn bounds_without_n_fails_with_usage() {
    let (_, stderr, ok) = randsync(&["bounds"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn table_renders_primitives() {
    let (stdout, _, ok) = randsync(&["table", "64"]);
    assert!(ok);
    assert!(stdout.contains("swap register"));
    assert!(stdout.contains("compare&swap register"));
}

#[test]
fn attack_zigzag_constructs_and_minimizes_a_witness() {
    let (stdout, _, ok) = randsync(&["attack", "zigzag", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("inconsistency constructed"));
    assert!(stdout.contains("incomparable"), "zigzag must hit Figure 4");
    assert!(stdout.contains("minimized:"));
    assert!(stdout.contains("DECIDES 0") && stdout.contains("DECIDES 1"));
}

#[test]
fn attack_swapchain_uses_the_general_adversary() {
    let (stdout, _, ok) = randsync(&["attack", "swapchain"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Lemma 3.6"));
    assert!(stdout.contains("pieces executed"));
}

#[test]
fn check_verdicts_match_the_protocol_zoo() {
    let (stdout, _, ok) = randsync(&["check", "cas"]);
    assert!(ok);
    assert!(stdout.contains("SAFE"));
    let (stdout, _, ok) = randsync(&["check", "naive"]);
    assert!(ok);
    assert!(stdout.contains("BROKEN"));
}

#[test]
fn valency_reports_the_flp_structure() {
    let (stdout, _, ok) = randsync(&["valency", "walk-deterministic"]);
    assert!(ok);
    assert!(stdout.contains("Bivalent"));
    assert!(stdout.contains("bivalent cycle      : true"));
    let (stdout, _, ok) = randsync(&["valency", "cas"]);
    assert!(ok);
    assert!(stdout.contains("bivalent cycle      : false"));
}

#[test]
fn valency_explores_the_space_once() {
    // One BFS serves both the outcome and the valency analysis: every
    // configuration but the start is interned once, and one level is
    // walked per depth step.
    let (stdout, _, ok) = randsync(&["valency", "cas", "1", "--metrics"]);
    assert!(ok);
    let metric = |name: &str| -> usize {
        let line = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} line in:\n{stdout}"));
        line.trim().parse().unwrap_or_else(|_| panic!("{name} is not a count: {line}"))
    };
    let configs = metric("configurations      :");
    assert_eq!(metric("explore.interned"), configs - 1);
    assert_eq!(metric("explore.levels"), metric("explore.max_depth"));
}

#[test]
fn por_valency_honours_the_memory_budget() {
    // localcoin reduces without cycles; phase exercises the cycle
    // proviso, whose selection is pinned to its established counts.
    for (protocol, por_line) in [
        ("localcoin", "on — 97 enabled moves pruned, 0 cycle-proviso fallbacks"),
        ("phase", "on — 350 enabled moves pruned, 64 cycle-proviso fallbacks"),
    ] {
        let (ram, _, ok) = randsync(&["valency", protocol, "--por"]);
        assert!(ok);
        let (spill, _, ok) = randsync(&["valency", protocol, "--por", "--mem-budget", "65536"]);
        assert!(ok);
        let (spill_lines, rest): (Vec<&str>, Vec<&str>) =
            spill.lines().partition(|l| l.starts_with("out-of-core"));
        assert_eq!(spill_lines.len(), 1, "{protocol}: the budgeted run reports its spill line");
        assert_eq!(rest, ram.lines().collect::<Vec<_>>(), "{protocol}: other lines match RAM");
        assert!(ram.contains(&format!("partial-order red.  : {por_line}")), "{protocol}: {ram}");
    }
}

#[test]
fn walk_decides_consistently() {
    let (stdout, _, ok) = randsync(&["walk", "4", "7"]);
    assert!(ok);
    assert!(stdout.contains("decisions"));
    assert!(stdout.contains("1 object(s)"));
}

#[test]
fn unknown_subtargets_fail_cleanly() {
    let (_, stderr, ok) = randsync(&["attack", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown"));
    let (_, stderr, ok) = randsync(&["check", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown"));
}
