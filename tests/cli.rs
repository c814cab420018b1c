//! End-to-end tests of the `randsync` CLI binary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;

use randsync::obs::{parse_json, Json};

fn randsync(args: &[&str]) -> (String, String, bool) {
    randsync_in(Path::new("."), args)
}

/// Run the binary with `dir` as its working directory.
fn randsync_in(dir: &Path, args: &[&str]) -> (String, String, bool) {
    let exe = env!("CARGO_BIN_EXE_randsync");
    let out = Command::new(exe).args(args).current_dir(dir).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// A fresh, empty per-test directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("randsync-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Spawn `randsync <args>` as a server. Returns the child, the address
/// its `listening on` line names, and a thread collecting the rest of
/// its stdout (so the child never blocks on a full pipe).
fn spawn_server(args: &[&str]) -> (Child, String, thread::JoinHandle<Vec<String>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_randsync"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr = lines
        .by_ref()
        .find_map(|l| Some(l.ok()?.strip_prefix("randsync-svc listening on ")?.to_string()))
        .expect("server prints its address");
    (child, addr, thread::spawn(move || lines.map_while(Result::ok).collect()))
}

#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    // The reader is gone before the first line is written, as with
    // `randsync check localcoin | true`.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_randsync"))
        .args(["check", "localcoin"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn help_lists_every_subcommand() {
    let (stdout, _, ok) = randsync(&[]);
    assert!(ok);
    for cmd in [
        "table", "bounds", "protocols", "attack", "check", "valency", "shrink", "resume", "run",
        "replay", "montecarlo", "walk", "serve", "worker", "submit", "shutdown", "top", "soak",
        "gate", "trace-tree",
    ] {
        assert!(stdout.contains(&format!("\n  randsync {cmd}")), "help missing {cmd}");
    }
    for help in ["help", "--help"] {
        assert_eq!(randsync(&[help]), (stdout.clone(), String::new(), true), "{help}");
    }
}

#[test]
fn malformed_arguments_are_refused_with_the_usage_line() {
    let cases: [(&[&str], &str, &str); 7] = [
        (&["valncy", "cas"], "valncy", "usage: randsync <table|bounds|"),
        (&["check", "cas", "abc"], "abc", "usage: randsync check <protocol> [r]"),
        (&["check", "cas", "2", "extra"], "extra", "usage: randsync check <protocol> [r]"),
        (&["valency", "cas", "canonical"], "canonical", "usage: randsync valency <protocol>"),
        (&["valency", "cas", "--nope"], "--nope", "usage: randsync valency <protocol>"),
        (&["valency", "cas", "--mem-budget"], "--mem-budget", "usage: randsync valency <protocol>"),
        // swapchain's object set is fixed: an r would change nothing.
        (
            &["attack", "swapchain", "5"],
            "set (1 swap register (3 processes)) and takes no r, got: 5",
            "usage: randsync attack <protocol> [r]",
        ),
    ];
    for (argv, token, usage) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_randsync")).args(argv).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed on stdout");
        assert_eq!(lines.len(), 2, "{argv:?}: {stderr}");
        assert!(lines[0].contains(token), "{argv:?} must name {token}: {stderr}");
        assert!(lines[1].starts_with(usage), "{argv:?}: {stderr}");
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
fn attack_sizes_the_lemma_36_pool_to_the_object_count() {
    // mixedzigzag spans several historyless objects: a one-object pool
    // reports "insufficient processes", the object-count pool breaks it.
    let (stdout, stderr, ok) = randsync(&["attack", "mixedzigzag"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("Lemma 3.6"), "{stdout}");
    assert!(stdout.contains("pieces executed"), "{stdout}");
    assert!(!stdout.contains("insufficient"), "{stdout}");
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
fn check_without_r_builds_at_the_entry_default_r() {
    // localcoin's default_r is 4, and `check` explores the same space
    // as `valency`.
    let (stdout, _, ok) = randsync(&["check", "localcoin"]);
    assert!(ok);
    assert_eq!(stdout.lines().next(), Some("configs: 689"), "{stdout}");
    let (valency, _, ok) = randsync(&["valency", "localcoin"]);
    assert!(ok);
    assert!(valency.contains("configurations      : 689"), "{valency}");
    let (explicit, _, ok) = randsync(&["check", "localcoin", "4"]);
    assert!(ok);
    assert_eq!(explicit, stdout);
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
fn valency_metrics_report_the_graph_bytes() {
    // The graph beside the arena is one 12-byte parent link per node,
    // n + 1 CSR offsets and one word per edge; in a raw search every
    // candidate is an edge. walk-counter's figure is pinned.
    let (stdout, _, ok) = randsync(&["valency", "walk-counter", "1", "--metrics"]);
    assert!(ok);
    let metric = |name: &str| -> usize {
        let line = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} line in:\n{stdout}"));
        line.trim().parse().unwrap_or_else(|_| panic!("{name} is not a count: {line}"))
    };
    let (n, e) = (metric("configurations      :"), metric("explore.candidates"));
    assert_eq!(metric("explore.graph_bytes"), 12 * n + 4 * (n + 1) + 4 * e);
    assert_eq!((n, e, metric("explore.graph_bytes")), (262, 472, 6084));
}

#[test]
fn valency_metrics_report_the_seen_set_bytes() {
    // The in-RAM seen-set holds one 12-byte (hash, arena index) pair
    // per configuration and no copy of its words; the stdout line and
    // the gauge name the same figure. walk-counter's figure is pinned.
    let (stdout, _, ok) = randsync(&["valency", "walk-counter", "1", "--metrics"]);
    assert!(ok);
    let metric = |name: &str| -> usize {
        let line = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} line in:\n{stdout}"));
        let figure = line.split_whitespace().next().unwrap_or_default();
        figure.parse().unwrap_or_else(|_| panic!("{name} is not a count: {line}"))
    };
    let n = metric("configurations      :");
    assert_eq!(metric("explore.seen_bytes"), 12 * n);
    assert_eq!(metric("seen-set            :"), metric("explore.seen_bytes"));
    assert_eq!((n, metric("explore.seen_bytes")), (262, 3144));
    assert_eq!(metric("arena               :"), metric("explore.arena_bytes"));
}

#[test]
fn valency_metrics_time_every_search_phase_once_per_level() {
    // Each level observes expand, encode, group, probe, intern and
    // insert once; the analysis is one observation per search.
    let (stdout, _, ok) = randsync(&["valency", "walk-counter", "1", "--metrics"]);
    assert!(ok);
    let field = |name: &str, key: &str| -> u64 {
        let line = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} line in:\n{stdout}"));
        let figure = line.split_whitespace().find_map(|f| f.strip_prefix(key)).unwrap_or(line.trim());
        figure.parse().unwrap_or_else(|_| panic!("{name} has no {key} count: {line}"))
    };
    let levels = field("explore.levels", "");
    assert!(levels > 10, "{stdout}");
    for phase in ["expand", "encode", "group", "probe", "intern", "insert"] {
        assert_eq!(field(&format!("explore.phase.{phase}_us"), "count="), levels, "{phase}");
    }
    assert_eq!(field("explore.phase.analysis_us", "count="), 1);
    // The step table: a step runs through the protocol at each node of
    // the level it first shows up in, and is replayed from the table
    // after that; walk-counter's figures are pinned.
    assert_eq!((field("explore.step_misses", ""), field("explore.step_entries", "")), (104, 92));
    // The level merge groups the candidates of each level into its
    // distinct keys before it sorts and probes them; walk-counter's 472
    // candidates make 307 keys.
    assert_eq!((field("explore.candidates", ""), field("explore.level_keys", "")), (472, 307));
}

#[test]
fn budgeted_valency_metrics_time_the_spill_phases() {
    // localcoin under 4 KiB flushes runs, probes them, compacts them
    // and faults arena segments back in: each phase is timed.
    let budgeted = |protocol| ["valency", protocol, "1", "--mem-budget", "4096", "--metrics"];
    let (stdout, _, ok) = randsync(&budgeted("localcoin"));
    assert!(ok);
    for phase in ["run_probe", "run_flush", "run_compact", "segment_load"] {
        let name = format!("explore.phase.{phase}_us");
        assert!(
            stdout.lines().any(|l| l.trim().starts_with(&name) && l.contains("count=")),
            "no {name} histogram in:\n{stdout}"
        );
    }
    // The bytes probes and compactions read from runs are exact, and
    // the metrics leave the report's other lines as they were.
    let (stdout, _, ok) = randsync(&budgeted("walk-counter"));
    assert!(ok);
    let run_bytes = stdout.lines().find_map(|l| l.trim().strip_prefix("explore.dedup_run_bytes"));
    assert_eq!(run_bytes.map(str::trim), Some("43824"), "{stdout}");
    let (plain, _, ok) = randsync(&budgeted("walk-counter")[..5]);
    assert!(ok);
    assert!(stdout.starts_with(&plain), "--metrics only appends to the report:\n{stdout}");
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
        // The seen-set line reports what the seen-set holds in RAM,
        // which a budget bounds; every other line but the spill line
        // must match.
        let residency = |l: &&str| l.starts_with("out-of-core") || l.starts_with("seen-set");
        let (spill_lines, rest): (Vec<&str>, Vec<&str>) = spill.lines().partition(residency);
        let (ram_lines, ram_rest): (Vec<&str>, Vec<&str>) = ram.lines().partition(residency);
        assert_eq!(spill_lines.len(), 2, "{protocol}: the budgeted run reports its spill line");
        assert_eq!(ram_lines.len(), 1, "{protocol}: the RAM run reports its seen-set line");
        assert_eq!(rest, ram_rest, "{protocol}: other lines match RAM");
        assert!(ram.contains(&format!("partial-order red.  : {por_line}")), "{protocol}: {ram}");

        // Against the unreduced search: strictly fewer configurations,
        // the same valency verdict and bivalent-cycle fact.
        let (raw, _, ok) = randsync(&["valency", protocol]);
        assert!(ok);
        let line = |out: &str, key: &str| -> String {
            out.lines()
                .find_map(|l| l.strip_prefix(key))
                .unwrap_or_else(|| panic!("{protocol}: no {key:?} line in:\n{out}"))
                .to_string()
        };
        let configs = |out: &str| -> usize {
            line(out, "configurations      : ").parse().expect("a configuration count")
        };
        assert!(configs(&ram) < configs(&raw), "{protocol}: POR must prune");
        for key in ["initial valency     : ", "bivalent cycle      : "] {
            assert_eq!(line(&ram, key), line(&raw, key), "{protocol}: {key}");
        }
    }
}

#[test]
fn deadline_cut_valency_resumes_to_the_check_verdict() {
    let dir = scratch_dir("resume");
    let ckpt = dir.join("cut.ckpt");
    // An already-expired deadline cuts the search at the first level
    // boundary: the run fails (truncated) but leaves a checkpoint.
    let (_, _, ok) = randsync(&[
        "valency",
        "walk-counter",
        "0",
        "--deadline-ms",
        "0",
        "--checkpoint",
        path_str(&ckpt),
    ]);
    assert!(!ok, "a deadline-cut valency run must exit nonzero");
    assert!(ckpt.exists(), "the cut run must write its checkpoint");
    // Resuming on the spill tier prints what an uninterrupted check
    // prints, byte for byte.
    let (resumed, stderr, ok) = randsync(&["resume", path_str(&ckpt), "--mem-budget", "65536"]);
    assert!(ok, "{stderr}");
    let (check, _, ok) = randsync(&["check", "walk-counter"]);
    assert!(ok);
    assert_eq!(resumed, check);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_runs_replay_through_the_binary() {
    let dir = scratch_dir("trace");
    let runs = [("walk-counter", "2", "1"), ("fetchinc2", "2", "7"), ("cas", "3", "42")];
    for (protocol, n, seed) in runs {
        let trace = dir.join(format!("{protocol}.jsonl"));
        let trace_arg = path_str(&trace);
        let (stdout, stderr, ok) = randsync(&["run", protocol, n, seed, "--trace", trace_arg]);
        assert!(ok, "{protocol}: {stderr}");
        assert!(stdout.contains("verdict   : consistent and valid"), "{protocol}: {stdout}");
        let (stdout, stderr, ok) = randsync(&["replay", trace_arg]);
        assert!(ok, "{protocol}: replay diverged: {stderr}");
        assert!(stdout.contains("decisions match the recorded run"), "{protocol}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn best_first_witness_shrinks_and_replays() {
    let dir = scratch_dir("best-first");
    let (stdout, stderr, ok) = randsync_in(&dir, &["valency", "naive", "--best-first"]);
    assert!(ok, "best-first must produce a verified witness: {stderr}");
    assert!(stdout.contains("guided search       : inconsistency reached"), "{stdout}");
    assert!(stdout.contains("minimized           : "), "{stdout}");
    // The minimized witness lands in the working directory as a trace.
    let trace = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.to_string_lossy().contains("randsync-witness-"))
        .expect("best-first dumps a flight trace");
    let (_, stderr, ok) = randsync(&["replay", path_str(&trace)]);
    assert!(ok, "the dumped trace must replay: {stderr}");
    let min = dir.join("min.jsonl");
    let (_, stderr, ok) = randsync(&["shrink", path_str(&trace), "--out", path_str(&min)]);
    assert!(ok, "shrink must accept the dumped trace: {stderr}");
    let (_, stderr, ok) = randsync(&["replay", path_str(&min)]);
    assert!(ok, "the shrunk trace must replay: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_jobs_resume_soak_and_drain_over_a_worker_shard() {
    let dir = scratch_dir("serve");
    let (mut worker, worker_addr, worker_out) = spawn_server(&["worker", "127.0.0.1:0"]);
    let (mut coord, addr, coord_out) = spawn_server(&[
        "serve",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--workers-addrs",
        &worker_addr,
        "--checkpoint-dir",
        path_str(&dir),
    ]);
    let submit = |args: &[&str]| -> Json {
        let (stdout, stderr, ok) = randsync(&[&["submit", addr.as_str()], args].concat());
        assert!(ok, "submit {args:?}: {stderr}");
        parse_json(stdout.trim()).expect("submit prints the result JSON")
    };

    let run = submit(&["run", "protocol=walk-counter", "seed=7"]);
    assert_eq!(run.get("consistent"), Some(&Json::Bool(true)));
    // A depth-capped explore on the spill tier checkpoints into the
    // server's --checkpoint-dir; resuming its id reaches the full count.
    let full = submit(&["explore", "protocol=naive"]);
    let cut = submit(&["explore", "protocol=naive", "max_depth=2", "mem_budget=4096"]);
    assert_eq!(cut.get("truncation_reason").and_then(Json::as_str), Some("depth-cap"));
    let id = cut.get("checkpoint").and_then(Json::as_str).expect("checkpoint id");
    assert!(std::fs::read_dir(&dir).expect("checkpoint dir").next().is_some());
    let resumed = submit(&["resume", &format!("checkpoint={id}")]);
    let configs = |job: &Json| job.get("configs").and_then(Json::as_u64).expect("config count");
    assert_eq!(configs(&resumed), configs(&full));
    assert_eq!(resumed.get("truncated"), Some(&Json::Bool(false)));
    // Mixed load at the backpressure boundary; a leaked gauge, a broken
    // p99 ceiling or a cache hit rate under the floor exits nonzero.
    let (stdout, stderr, ok) = randsync(&["soak", &addr, "--duration-s", "5"]);
    assert!(ok, "the soak monitor flagged the server: {stdout}{stderr}");
    assert!(stdout.contains("PASS"), "{stdout}");
    let (stdout, stderr, ok) = randsync(&["submit", &addr, "metrics"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("svc.jobs.ok"), "metrics must carry svc.* entries: {stdout}");

    let servers = [(&mut coord, coord_out, &addr), (&mut worker, worker_out, &worker_addr)];
    for (server, out, addr) in servers {
        let (_, stderr, ok) = randsync(&["shutdown", addr]);
        assert!(ok, "shutdown {addr}: {stderr}");
        assert!(server.wait().expect("server exits").success());
        let out = out.join().expect("stdout reader");
        assert!(out.iter().any(|l| l == "randsync-svc drained and stopped"), "{out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misspelt_job_parameters_are_refused_by_the_server() {
    let (mut server, addr, out) = spawn_server(&["serve", "127.0.0.1:0", "--workers", "1"]);
    let submit = Command::new(env!("CARGO_BIN_EXE_randsync"))
        .args(["submit", &addr, "valency", "protocl=naive"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&submit.stderr);
    assert_eq!(submit.status.code(), Some(1), "{stderr}");
    assert!(submit.stdout.is_empty(), "no result may be printed");
    assert!(stderr.contains("bad_request") && stderr.contains("\"protocl\""), "{stderr}");
    let (_, stderr, ok) = randsync(&["shutdown", &addr]);
    assert!(ok, "{stderr}");
    assert!(server.wait().expect("server exits").success());
    drop(out.join());
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
