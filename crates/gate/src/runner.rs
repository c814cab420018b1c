//! The gate runner: executes the property catalog and the witness
//! corpus, fail-closed, and produces a machine-readable report.
//!
//! "Fail-closed" means the runner only ever answers "everything I was
//! asked to check is affirmatively green". A panicking check, a
//! non-holding bound, a blown budget, a skipped entry, a lost or
//! tampered witness, a stray trace file, or a required property with
//! no replaying witness each fail the run — there is no soft mode and
//! no way for a regression to degrade into a warning.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use randsync_obs::Json;

use crate::catalog::{self, CheckContext, CheckOutcome, CheckStatus, PropertyEntry};
use crate::corpus::{self, Manifest};

/// Gate report format version, bumped on incompatible change.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// The id the corpus replay reports under (it behaves like a catalog
/// entry in filters and reports, but its body is the corpus walk).
pub const CORPUS_ENTRY_ID: &str = "witness-corpus";

/// How a gate run is parameterized.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Only run catalog entries matching this filter (tag or id
    /// substring); `None` runs everything.
    pub filter: Option<String>,
    /// The corpus directory.
    pub corpus_dir: PathBuf,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { filter: None, corpus_dir: PathBuf::from("corpus") }
    }
}

/// One catalog entry's result.
#[derive(Clone, PartialEq, Debug)]
pub struct EntryReport {
    /// Catalog id.
    pub id: String,
    /// `"pass"`, `"fail"`, `"skipped"`, or `"filtered"`.
    pub status: String,
    /// Why, for anything but a pass.
    pub reason: Option<String>,
    /// Wall-clock time the check took.
    pub millis: u64,
    /// The observed-vs-required comparisons the check asserted.
    pub bounds: Vec<catalog::BoundCheck>,
    /// Free-form observations.
    pub notes: Vec<(String, Json)>,
}

impl EntryReport {
    /// Whether this entry leaves the gate green: passes and
    /// filtered-out entries do; fails and skips do not.
    pub fn ok(&self) -> bool {
        self.status == "pass" || self.status == "filtered"
    }

    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("status".to_string(), Json::Str(self.status.clone())),
            ("reason".to_string(), opt_str(&self.reason)),
            ("millis".to_string(), Json::Int(i128::from(self.millis))),
            (
                "bounds".to_string(),
                Json::Arr(self.bounds.iter().map(catalog::BoundCheck::to_json).collect()),
            ),
            ("notes".to_string(), Json::Obj(self.notes.clone())),
        ])
    }
}

/// One corpus witness's replay result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WitnessReport {
    /// Trace filename, relative to the corpus directory.
    pub file: String,
    /// Catalog property the witness substantiates.
    pub property: String,
    /// Registry protocol name.
    pub protocol: String,
    /// Whether the replay reproduced the inconsistency.
    pub passed: bool,
    /// Why not, if it failed.
    pub reason: Option<String>,
    /// Wall-clock replay time.
    pub millis: u64,
}

impl WitnessReport {
    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("file".to_string(), Json::Str(self.file.clone())),
            ("property".to_string(), Json::Str(self.property.clone())),
            ("protocol".to_string(), Json::Str(self.protocol.clone())),
            ("passed".to_string(), Json::Bool(self.passed)),
            ("reason".to_string(), opt_str(&self.reason)),
            ("millis".to_string(), Json::Int(i128::from(self.millis))),
        ])
    }
}

/// The whole run's result.
#[derive(Clone, PartialEq, Debug)]
pub struct GateReport {
    /// The filter the run used, if any.
    pub filter: Option<String>,
    /// One report per catalog entry (plus the corpus pseudo-entry).
    pub entries: Vec<EntryReport>,
    /// One report per filed witness replayed.
    pub witnesses: Vec<WitnessReport>,
    /// Witnesses in the manifest at run time.
    pub corpus_size: usize,
}

impl GateReport {
    /// Whether the gate is green: every entry ok, every replayed
    /// witness reproduced.
    pub fn passed(&self) -> bool {
        self.entries.iter().all(EntryReport::ok) && self.witnesses.iter().all(|w| w.passed)
    }

    /// Total wall-clock across entries and witnesses.
    pub fn total_millis(&self) -> u64 {
        self.entries.iter().map(|e| e.millis).sum::<u64>()
            + self.witnesses.iter().map(|w| w.millis).sum::<u64>()
    }

    /// The gate's run record (`randsync gate --report`, and
    /// `BENCH_gate.json`): the verdict, every entry with its wall time,
    /// bounds and notes, and every replayed witness, stamped with the
    /// source revision `git_rev` the run was built from.
    pub fn to_json(&self, git_rev: &str) -> Json {
        Json::Obj(vec![
            ("schema_version".to_string(), Json::Int(i128::from(REPORT_SCHEMA_VERSION))),
            ("git_rev".to_string(), Json::Str(git_rev.to_string())),
            ("filter".to_string(), opt_str(&self.filter)),
            ("passed".to_string(), Json::Bool(self.passed())),
            ("corpus_size".to_string(), Json::Int(self.corpus_size as i128)),
            ("total_millis".to_string(), Json::Int(i128::from(self.total_millis()))),
            (
                "entries".to_string(),
                Json::Arr(self.entries.iter().map(EntryReport::to_json).collect()),
            ),
            (
                "witnesses".to_string(),
                Json::Arr(self.witnesses.iter().map(WitnessReport::to_json).collect()),
            ),
        ])
    }

    /// Human-readable rendering for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let tag = match e.status.as_str() {
                "pass" => "PASS",
                "filtered" => "----",
                "skipped" => "SKIP",
                _ => "FAIL",
            };
            out.push_str(&format!("{tag}  {:<24} {:>6} ms", e.id, e.millis));
            if let Some(reason) = &e.reason {
                out.push_str(&format!("  {reason}"));
            }
            out.push('\n');
            for b in &e.bounds {
                out.push_str(&format!(
                    "      {} {} {} {}  [{}]\n",
                    b.name,
                    b.observed,
                    b.op.symbol(),
                    b.required,
                    if b.holds() { "ok" } else { "VIOLATED" }
                ));
            }
        }
        for w in &self.witnesses {
            out.push_str(&format!(
                "{}  witness {:<40} {:>6} ms",
                if w.passed { "PASS" } else { "FAIL" },
                w.file,
                w.millis
            ));
            if let Some(reason) = &w.reason {
                out.push_str(&format!("  {reason}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "gate: {} ({} entries, {} witnesses, {} ms)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.entries.len(),
            self.witnesses.len(),
            self.total_millis()
        ));
        out
    }
}

/// An optional string as JSON: the string, or `null`.
fn opt_str(s: &Option<String>) -> Json {
    s.as_ref().map_or(Json::Null, |s| Json::Str(s.clone()))
}

/// Run one catalog entry under its budget, converting panics and
/// blown deadlines into failures. Public so tests can drive synthetic
/// entries (a violated bound, a skip, a panic) through the exact
/// machinery the gate uses.
pub fn run_entry(entry: &PropertyEntry) -> EntryReport {
    let budget = Duration::from_millis(entry.budget_ms);
    let started = Instant::now();
    let ctx = CheckContext { deadline: started + budget };
    let result = panic::catch_unwind(AssertUnwindSafe(|| (entry.run)(&ctx)));
    let elapsed = started.elapsed();
    let millis = elapsed.as_millis() as u64;
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            CheckOutcome::fail(format!("check panicked: {msg}"))
        }
    };
    let mut status;
    let mut reason;
    match outcome.status {
        CheckStatus::Pass => {
            status = "pass";
            reason = None;
        }
        CheckStatus::Fail(r) => {
            status = "fail";
            reason = Some(r);
        }
        CheckStatus::Skipped(r) => {
            status = "skipped";
            reason = Some(format!("skipped: {r} (fail-closed: skips fail the gate)"));
        }
    }
    // The runner, not the check, has the last word on bounds.
    let violated: Vec<String> =
        outcome.bounds.iter().filter(|b| !b.holds()).map(|b| b.name.clone()).collect();
    if status == "pass" && !violated.is_empty() {
        status = "fail";
        reason = Some(format!("bound(s) violated: {}", violated.join(", ")));
    }
    if status == "pass" && elapsed > budget {
        status = "fail";
        reason = Some(format!(
            "budget exceeded: {millis} ms against a {} ms budget",
            entry.budget_ms
        ));
    }
    EntryReport {
        id: entry.id.to_string(),
        status: status.to_string(),
        reason,
        millis,
        bounds: outcome.bounds,
        notes: outcome.notes,
    }
}

/// Replay the whole corpus and enforce coverage for the catalog
/// entries in `included` that require a witness. Returns the corpus
/// pseudo-entry plus one report per filed witness.
fn run_corpus(
    config: &GateConfig,
    included: &[&'static PropertyEntry],
) -> (EntryReport, Vec<WitnessReport>, usize) {
    let started = Instant::now();
    let dir = config.corpus_dir.as_path();
    let manifest = match Manifest::load(dir) {
        Ok(m) => m,
        Err(e) => {
            let report = EntryReport {
                id: CORPUS_ENTRY_ID.to_string(),
                status: "fail".to_string(),
                reason: Some(format!("corpus manifest unreadable: {e}")),
                millis: started.elapsed().as_millis() as u64,
                bounds: Vec::new(),
                notes: Vec::new(),
            };
            return (report, Vec::new(), 0);
        }
    };
    let mut witnesses = Vec::new();
    for record in &manifest.witnesses {
        let replay_start = Instant::now();
        let result = replay_record_guarded(dir, record);
        witnesses.push(WitnessReport {
            file: record.file.clone(),
            property: record.property.clone(),
            protocol: record.protocol.clone(),
            passed: result.is_ok(),
            reason: result.err(),
            millis: replay_start.elapsed().as_millis() as u64,
        });
    }
    let mut problems = Vec::new();
    let failing = witnesses.iter().filter(|w| !w.passed).count();
    if failing > 0 {
        problems.push(format!("{failing} corpus witness(es) failed replay"));
    }
    match corpus::stray_files(dir, &manifest) {
        Ok(strays) if strays.is_empty() => {}
        Ok(strays) => problems.push(format!(
            "unfiled witness trace(s) in the corpus directory: {}",
            strays.join(", ")
        )),
        Err(e) => problems.push(e),
    }
    for entry in included {
        if !entry.requires_witness {
            continue;
        }
        let replaying = witnesses
            .iter()
            .filter(|w| w.property == entry.id && w.passed)
            .count();
        if replaying == 0 {
            problems.push(format!(
                "{} requires at least one replaying corpus witness, found none",
                entry.id
            ));
        }
    }
    let status = if problems.is_empty() { "pass" } else { "fail" };
    let report = EntryReport {
        id: CORPUS_ENTRY_ID.to_string(),
        status: status.to_string(),
        reason: if problems.is_empty() { None } else { Some(problems.join("; ")) },
        millis: started.elapsed().as_millis() as u64,
        bounds: Vec::new(),
        notes: vec![(
            "corpus_size".to_string(),
            Json::Int(manifest.witnesses.len() as i128),
        )],
    };
    (report, witnesses, manifest.witnesses.len())
}

/// [`corpus::replay_record`] with panics converted to failures, so one
/// corrupted trace cannot take down the whole gate run.
fn replay_record_guarded(
    dir: &std::path::Path,
    record: &corpus::WitnessRecord,
) -> Result<(), String> {
    match panic::catch_unwind(AssertUnwindSafe(|| corpus::replay_record(dir, record))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("replay panicked: {msg}"))
        }
    }
}

/// Whether a filtered run should still replay the corpus: yes when the
/// filter selects the corpus pseudo-entry itself or any included
/// catalog entry whose evidence lives in the corpus.
fn corpus_selected(filter: &str, included: &[&'static PropertyEntry]) -> bool {
    CORPUS_ENTRY_ID.contains(filter)
        || "corpus" == filter
        || "smoke" == filter
        || included.iter().any(|e| e.requires_witness)
}

/// Execute the gate: every selected catalog entry, then the corpus.
pub fn run_gate(config: &GateConfig) -> GateReport {
    let mut entries = Vec::new();
    let mut included: Vec<&'static PropertyEntry> = Vec::new();
    for entry in catalog::catalog() {
        let selected = config.filter.as_deref().is_none_or(|f| entry.matches(f));
        if selected {
            included.push(entry);
            entries.push(run_entry(entry));
        } else {
            entries.push(EntryReport {
                id: entry.id.to_string(),
                status: "filtered".to_string(),
                reason: None,
                millis: 0,
                bounds: Vec::new(),
                notes: Vec::new(),
            });
        }
    }
    let run_corpus_too = match config.filter.as_deref() {
        None => true,
        Some(f) => corpus_selected(f, &included),
    };
    let (mut witnesses, mut corpus_size) = (Vec::new(), 0);
    if run_corpus_too {
        let (corpus_entry, w, size) = run_corpus(config, &included);
        entries.push(corpus_entry);
        witnesses = w;
        corpus_size = size;
    } else {
        entries.push(EntryReport {
            id: CORPUS_ENTRY_ID.to_string(),
            status: "filtered".to_string(),
            reason: None,
            millis: 0,
            bounds: Vec::new(),
            notes: Vec::new(),
        });
    }
    GateReport { filter: config.filter.clone(), entries, witnesses, corpus_size }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> GateReport {
        GateReport {
            filter: Some("smoke".to_string()),
            entries: vec![EntryReport {
                id: "thm-3.3-bound".to_string(),
                status: "pass".to_string(),
                reason: None,
                millis: 3,
                bounds: vec![catalog::BoundCheck {
                    name: "max_identical_processes(2)".to_string(),
                    observed: 3,
                    required: 3,
                    op: catalog::BoundOp::Eq,
                }],
                notes: vec![("configs".to_string(), Json::Int(209))],
            }],
            witnesses: vec![WitnessReport {
                file: "naive-n3-r1-6steps-abcd1234.jsonl".to_string(),
                property: "thm-3.3-adversary".to_string(),
                protocol: "naive".to_string(),
                passed: true,
                reason: None,
                millis: 1,
            }],
            corpus_size: 1,
        }
    }

    #[test]
    fn any_failing_witness_fails_the_report() {
        let mut report = sample_report();
        report.witnesses[0].passed = false;
        report.witnesses[0].reason = Some("checksum mismatch".to_string());
        assert!(!report.passed());
    }

    #[test]
    fn skipped_entries_fail_but_filtered_do_not() {
        let mut report = sample_report();
        report.entries[0].status = "filtered".to_string();
        assert!(report.passed());
        report.entries[0].status = "skipped".to_string();
        assert!(!report.passed());
    }

    #[test]
    fn report_json_is_schema_versioned_and_stamped() {
        let report = sample_report();
        let parsed = randsync_obs::parse_json(&report.to_json("abc1234").render())
            .expect("renders valid JSON");
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("git_rev").and_then(Json::as_str), Some("abc1234"));
        assert_eq!(parsed.get("total_millis").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("passed"), Some(&Json::Bool(true)));
        let entries = parsed.get("entries").and_then(Json::as_arr).expect("entries");
        assert_eq!(entries[0].get("id").and_then(Json::as_str), Some("thm-3.3-bound"));
        assert_eq!(entries[0].get("notes").and_then(|n| n.get("configs")), Some(&Json::Int(209)));
    }
}
