//! The fail-closed verification gate, attacked: every way a regression
//! can hide — a lost witness, a tampered or truncated trace, a stray
//! file, a loosened bound, a silent skip — must flip `randsync gate`
//! to a failure. These tests demonstrate the acceptance criteria by
//! running the real runner over doctored copies of the shipped corpus.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use randsync::gate::{self, catalog, corpus, GateConfig};
use randsync::obs::{self, Json};

fn randsync_cli(args: &[&str]) -> (String, String, bool) {
    let exe = env!("CARGO_BIN_EXE_randsync");
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// A fresh scratch directory seeded with a copy of the shipped corpus
/// (tests run from the workspace root, where `corpus/` lives).
fn corpus_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("randsync-gate-test-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    for entry in fs::read_dir("corpus").expect("shipped corpus exists") {
        let entry = entry.expect("readable");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy");
    }
    dir
}

fn corpus_only_config(dir: &Path) -> GateConfig {
    // "corpus" matches no catalog entry, so only the witness corpus
    // runs — the doctored-corpus tests stay fast.
    GateConfig { filter: Some("corpus".to_string()), corpus_dir: dir.to_path_buf() }
}

#[test]
fn gate_passes_on_the_shipped_corpus() {
    let report = gate::run_gate(&corpus_only_config(Path::new("corpus")));
    assert!(report.passed(), "shipped corpus must replay green:\n{}", report.render());
    assert!(report.corpus_size >= 6, "expected the six adversary-target witnesses");
    assert!(report.witnesses.iter().all(|w| w.passed));
}

#[test]
fn deleting_a_witness_file_fails_the_gate() {
    let dir = corpus_copy("lost-witness");
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("naive-"))
        .expect("naive witness filed");
    fs::remove_file(victim.path()).unwrap();
    let report = gate::run_gate(&corpus_only_config(&dir));
    assert!(!report.passed(), "a lost witness must fail the gate");
    let lost = report.witnesses.iter().find(|w| w.file.starts_with("naive-")).unwrap();
    assert!(!lost.passed);
    assert!(lost.reason.as_deref().unwrap().contains("lost witness"), "{:?}", lost.reason);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupting_a_trace_fails_the_gate() {
    let dir = corpus_copy("tampered-witness");
    let victim = dir.join(
        fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("tasrace-"))
            .expect("tasrace witness filed")
            .file_name(),
    );
    let mut bytes = fs::read(&victim).unwrap();
    bytes.push(b'x');
    fs::write(&victim, bytes).unwrap();
    let report = gate::run_gate(&corpus_only_config(&dir));
    assert!(!report.passed(), "a tampered trace must fail the gate");
    let bad = report.witnesses.iter().find(|w| w.file.starts_with("tasrace-")).unwrap();
    assert!(bad.reason.as_deref().unwrap().contains("checksum mismatch"), "{:?}", bad.reason);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncating_a_trace_fails_even_with_a_matching_checksum() {
    // An attacker who re-hashes the truncated file still loses: the
    // trace footer records the step count, so the parse fails.
    let dir = corpus_copy("truncated-witness");
    let mut manifest = corpus::Manifest::load(&dir).unwrap();
    let record = manifest
        .witnesses
        .iter_mut()
        .find(|w| w.protocol == "swapchain")
        .expect("swapchain witness filed");
    let path = dir.join(&record.file);
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let truncated = lines[..lines.len() - 1].join("\n") + "\n";
    record.checksum = corpus::checksum_hex(truncated.as_bytes());
    fs::write(&path, truncated).unwrap();
    manifest.save(&dir).unwrap();
    let report = gate::run_gate(&corpus_only_config(&dir));
    assert!(!report.passed(), "a truncated trace must fail the gate");
    let bad = report.witnesses.iter().find(|w| w.protocol == "swapchain").unwrap();
    assert!(!bad.passed, "{:?}", bad.reason);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_stray_unfiled_trace_fails_the_gate() {
    let dir = corpus_copy("stray-witness");
    fs::write(dir.join("mystery.jsonl"), "{\"type\":\"header\"}\n").unwrap();
    let report = gate::run_gate(&corpus_only_config(&dir));
    assert!(!report.passed(), "an unfiled trace must fail the gate");
    let entry = report.entries.iter().find(|e| e.id == gate::CORPUS_ENTRY_ID).unwrap();
    assert!(entry.reason.as_deref().unwrap().contains("unfiled"), "{:?}", entry.reason);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn losing_all_witnesses_for_a_required_property_fails_coverage() {
    // Delete every thm-3.3-adversary witness, file AND manifest row —
    // the consistent corpus still fails because the catalog entry
    // requires at least one replaying witness.
    let dir = corpus_copy("no-coverage");
    let mut manifest = corpus::Manifest::load(&dir).unwrap();
    for record in &manifest.witnesses {
        if record.property == "thm-3.3-adversary" {
            fs::remove_file(dir.join(&record.file)).unwrap();
        }
    }
    manifest.witnesses.retain(|w| w.property != "thm-3.3-adversary");
    manifest.save(&dir).unwrap();
    let config = GateConfig {
        filter: Some("thm-3.3-adversary".to_string()),
        corpus_dir: dir.clone(),
    };
    let report = gate::run_gate(&config);
    assert!(!report.passed(), "missing coverage must fail the gate");
    let entry = report.entries.iter().find(|e| e.id == gate::CORPUS_ENTRY_ID).unwrap();
    assert!(
        entry.reason.as_deref().unwrap().contains("thm-3.3-adversary"),
        "{:?}",
        entry.reason
    );
    // The property check itself still passed — only the corpus is bad.
    let adversary = report.entries.iter().find(|e| e.id == "thm-3.3-adversary").unwrap();
    assert_eq!(adversary.status, "pass");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_manifest_is_a_failure_not_a_skip() {
    let dir = corpus_copy("no-manifest");
    fs::remove_file(dir.join(corpus::MANIFEST_FILE)).unwrap();
    let report = gate::run_gate(&corpus_only_config(&dir));
    assert!(!report.passed());
    let entry = report.entries.iter().find(|e| e.id == gate::CORPUS_ENTRY_ID).unwrap();
    assert_eq!(entry.status, "fail");
    let _ = fs::remove_dir_all(&dir);
}

fn passing_outcome_with_loosened_bound(_ctx: &catalog::CheckContext) -> catalog::CheckOutcome {
    // The check itself claims a pass; the bound it reports does not
    // hold (observed 7 > required 3). The runner must notice.
    catalog::CheckOutcome::pass().bound("doctored", 7, catalog::BoundOp::Le, 3)
}

fn skipping_outcome(_ctx: &catalog::CheckContext) -> catalog::CheckOutcome {
    catalog::CheckOutcome::skip("environment said no")
}

fn panicking_outcome(_ctx: &catalog::CheckContext) -> catalog::CheckOutcome {
    panic!("check blew up");
}

fn synthetic_entry(run: fn(&catalog::CheckContext) -> catalog::CheckOutcome) -> catalog::PropertyEntry {
    catalog::PropertyEntry {
        id: "synthetic",
        paper: "none",
        statement: "a doctored entry driven straight through the runner",
        protocols: &[],
        severity: catalog::Severity::Critical,
        tags: &[],
        budget_ms: 5_000,
        requires_witness: false,
        run,
    }
}

#[test]
fn a_bound_loosened_past_the_observed_value_fails_the_entry() {
    let report = gate::run_entry(&synthetic_entry(passing_outcome_with_loosened_bound));
    assert_eq!(report.status, "fail");
    assert!(report.reason.as_deref().unwrap().contains("doctored"), "{:?}", report.reason);
    assert!(!report.bounds[0].holds());
}

#[test]
fn a_skip_is_reported_distinctly_and_still_fails() {
    let report = gate::run_entry(&synthetic_entry(skipping_outcome));
    assert_eq!(report.status, "skipped");
    assert!(!report.ok(), "fail-closed: skips fail the gate");
    assert!(report.reason.as_deref().unwrap().contains("environment said no"));
}

#[test]
fn a_panicking_check_fails_instead_of_crashing_the_runner() {
    let report = gate::run_entry(&synthetic_entry(panicking_outcome));
    assert_eq!(report.status, "fail");
    assert!(report.reason.as_deref().unwrap().contains("check blew up"), "{:?}", report.reason);
}

#[test]
fn report_json_round_trips_through_obs_json() {
    let report = gate::run_gate(&corpus_only_config(Path::new("corpus")));
    let text = report.to_json("abc1234").render();
    let parsed = obs::parse_json(&text).expect("report renders valid JSON");
    assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
    assert_eq!(parsed.get("git_rev").and_then(Json::as_str), Some("abc1234"));
    assert_eq!(parsed.get("passed"), Some(&Json::Bool(report.passed())));
    assert_eq!(parsed.get("total_millis").and_then(Json::as_u64), Some(report.total_millis()));
    let entries = parsed.get("entries").and_then(Json::as_arr).expect("entries");
    let ids: Vec<&str> = entries.iter().filter_map(|e| e.get("id")?.as_str()).collect();
    let want: Vec<&str> = report.entries.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids, want);
    let witnesses = parsed.get("witnesses").and_then(Json::as_arr).expect("witnesses");
    assert_eq!(witnesses.len(), report.witnesses.len());
    // The rendered record parses back to the same text.
    assert_eq!(parsed.render(), text);
}

#[test]
fn every_catalog_entry_appears_in_a_full_report() {
    // Filtered-out entries are still listed (status "filtered"), so a
    // report always accounts for the complete catalog.
    let config = GateConfig {
        filter: Some("no-such-filter-matches-anything".to_string()),
        corpus_dir: PathBuf::from("corpus"),
    };
    let report = gate::run_gate(&config);
    for entry in catalog::catalog() {
        let found = report.entries.iter().find(|e| e.id == entry.id).expect("listed");
        assert_eq!(found.status, "filtered");
    }
    assert!(report.passed(), "an all-filtered run is green");
}

#[test]
fn cli_list_names_the_required_theorems() {
    let (stdout, _, ok) = randsync_cli(&["gate", "--list"]);
    assert!(ok);
    for id in ["thm-3.3-bound", "thm-3.3-adversary", "lemma-3.6", "thm-4.2", "thm-4.4", "bound-2.1"]
    {
        assert!(stdout.contains(id), "--list missing {id}:\n{stdout}");
    }
    assert!(stdout.contains(gate::CORPUS_ENTRY_ID));
}

#[test]
fn cli_gate_exits_nonzero_on_a_doctored_corpus_and_writes_the_report() {
    let dir = corpus_copy("cli-doctored");
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("optimistic-"))
        .expect("optimistic witness filed");
    fs::remove_file(victim.path()).unwrap();
    let report_path = dir.join("report.json");
    let (_, _, ok) = randsync_cli(&[
        "gate",
        "--filter",
        "corpus",
        "--corpus",
        dir.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert!(!ok, "CLI must exit nonzero on a lost witness");
    let text = fs::read_to_string(&report_path).expect("report written even on failure");
    let parsed = obs::parse_json(&text).expect("valid JSON");
    assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
    assert_eq!(parsed.get("passed"), Some(&Json::Bool(false)));
    let entries = parsed.get("entries").and_then(Json::as_arr).expect("entries");
    let corpus_entry = entries
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some(gate::CORPUS_ENTRY_ID))
        .expect("corpus entry listed");
    assert_eq!(corpus_entry.get("status").and_then(Json::as_str), Some("fail"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_gate_arith_passes_and_writes_a_bench_artifact() {
    let dir = std::env::temp_dir().join("randsync-gate-test-bench");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let bench_path = dir.join("BENCH_gate.json");
    let (stdout, stderr, ok) = randsync_cli(&[
        "gate",
        "--filter",
        "arith",
        "--report",
        bench_path.to_str().unwrap(),
    ]);
    assert!(ok, "arithmetic entries must pass:\n{stdout}\n{stderr}");
    let parsed = obs::parse_json(&fs::read_to_string(&bench_path).unwrap()).unwrap();
    assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
    assert!(parsed.get("git_rev").and_then(Json::as_str).is_some_and(|r| !r.is_empty()));
    assert!(parsed.get("total_millis").and_then(Json::as_u64).is_some());
    assert_eq!(parsed.get("passed"), Some(&Json::Bool(true)));
    let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
    let run: Vec<&str> = entries
        .iter()
        .filter(|e| e.get("status").and_then(Json::as_str) != Some("filtered"))
        .filter_map(|e| e.get("id")?.as_str())
        .collect();
    assert_eq!(run, ["thm-3.3-bound", "bound-2.1"], "arith selects exactly these entries");
    // `--report` is the gate's only run record; `--bench` is refused.
    let (stdout, stderr, ok) =
        randsync_cli(&["gate", "--bench", bench_path.to_str().unwrap()]);
    assert!(!ok && stdout.is_empty(), "--bench must be refused:\n{stdout}");
    assert!(stderr.contains("usage: randsync gate"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn add_witness_validates_shrinks_and_files_with_provenance() {
    use randsync::consensus::registry;
    use randsync::core::attack::{attack_identical, AttackOutcome, AttackStats};
    use randsync::core::combine31::CombineLimits;

    // Produce an UNminimized witness trace the way a user would (an
    // adversary run dumped to disk), then file it through the CLI path.
    let entry = registry::find("naive").unwrap();
    let protocol = entry.build_default();
    let Ok(AttackOutcome::Inconsistent { witness, stats: AttackStats::Register(_) }) =
        attack_identical(&protocol, &CombineLimits::default())
    else {
        panic!("the Lemma 3.2 adversary breaks naive");
    };
    let dir = std::env::temp_dir().join("randsync-gate-test-add");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("found.jsonl");
    witness
        .flight_trace(entry.name, entry.default_n, entry.default_r)
        .write_to(&trace_path)
        .unwrap();

    let corpus_dir = dir.join("corpus");
    let record = corpus::add_witness(&corpus_dir, &trace_path)
        .expect("witness is valid")
        .expect("corpus was empty, so it files");
    assert_eq!(record.property, "thm-3.3-adversary");
    assert_eq!(record.protocol, "naive");
    assert!(record.steps <= witness.execution.len(), "filed witness is the shrunk one");
    let bytes = fs::read(corpus_dir.join(&record.file)).unwrap();
    assert_eq!(corpus::checksum_hex(&bytes), record.checksum);

    // Filing the same trace again is a no-op (checksum dedup).
    assert!(corpus::add_witness(&corpus_dir, &trace_path).unwrap().is_none());

    // The corpus it produced replays green.
    let report = gate::run_gate(&corpus_only_config(&corpus_dir));
    assert!(report.passed(), "{}", report.render());

    // Garbage is rejected, not filed.
    let garbage = dir.join("garbage.jsonl");
    fs::write(&garbage, "not a trace\n").unwrap();
    assert!(corpus::add_witness(&corpus_dir, &garbage).is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn smoke_subset_runs_the_corpus_and_stays_fast_enough_for_ci() {
    let started = Instant::now();
    let config = GateConfig { filter: Some("smoke".to_string()), corpus_dir: PathBuf::from("corpus") };
    let report = gate::run_gate(&config);
    assert!(report.passed(), "{}", report.render());
    // The smoke tag must exercise the corpus (its evidence backs
    // thm-3.3-adversary, which is in the smoke set).
    assert!(!report.witnesses.is_empty(), "smoke run must replay the corpus");
    let soak = report.entries.iter().find(|e| e.id == "svc-soak").unwrap();
    assert_eq!(soak.status, "filtered", "the soak entry is not in the smoke set");
    assert!(started.elapsed().as_secs() < 60, "smoke subset must stay CI-fast");
}

/// The text of every Rust source under `dir`, concatenated.
fn rust_sources(dir: &Path, text: &mut String) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable").path();
        if path.is_dir() {
            rust_sources(&path, text);
        } else if path.extension().is_some_and(|e| e == "rs") {
            text.push_str(&fs::read_to_string(&path).expect("utf-8 source"));
        }
    }
}

/// EXPERIMENTS.md cannot drift from what is checked: a section whose
/// shape is marked ✓ cites, in backticks in its Shape paragraph, the
/// gate entry (`id`, or `id: bound` as BENCH_gate.json names the bound)
/// or the test (`module::test_name`) that asserts it, and every cited
/// entry, bound and test must exist.
#[test]
fn every_checked_shape_in_experiments_cites_an_existing_check() {
    let doc = fs::read_to_string("EXPERIMENTS.md").expect("EXPERIMENTS.md at the root");
    let record = fs::read_to_string("BENCH_gate.json").expect("the gate record at the root");
    let record = obs::parse_json(&record).expect("the gate record parses");
    let mut sources = String::new();
    for dir in ["src", "tests", "crates"] {
        rust_sources(Path::new(dir), &mut sources);
    }
    let mut checked = 0;
    for section in doc.split("\n## ").skip(1) {
        let title = section.lines().next().unwrap_or_default();
        let Some(at) = section.find("**Shape.** ✓") else { continue };
        let shape = section[at..].split("\n\n").next().unwrap_or_default();
        let cites: Vec<&str> = shape.split('`').skip(1).step_by(2).collect();
        assert!(!cites.is_empty(), "{title}: a ✓ shape cites no gate entry or test");
        for cite in cites {
            if let Some((_, test)) = cite.rsplit_once("::") {
                assert!(sources.contains(&format!("fn {test}(")), "{title}: no test {cite:?}");
                continue;
            }
            let (id, bound) = cite.split_once(": ").map_or((cite, None), |(i, b)| (i, Some(b)));
            assert!(catalog::find(id).is_some(), "{title}: unknown gate entry {id:?}");
            let Some(bound) = bound else { continue };
            let entry = record
                .get("entries")
                .and_then(Json::as_arr)
                .and_then(|es| es.iter().find(|e| e.get("id").and_then(Json::as_str) == Some(id)))
                .unwrap_or_else(|| panic!("{title}: BENCH_gate.json has no entry {id:?}"));
            let names = entry.get("bounds").and_then(Json::as_arr).unwrap_or_default();
            assert!(
                names.iter().any(|b| b.get("name").and_then(Json::as_str) == Some(bound)),
                "{title}: {id} records no bound {bound:?}"
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "EXPERIMENTS.md marks no shape ✓");
}
