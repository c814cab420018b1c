//! The machine-readable property catalog: one [`PropertyEntry`] per
//! theorem/lemma this workspace reproduces, each binding a paper hook
//! and a stated bound to an *executable* check.
//!
//! The catalog is the contract the gate runner enforces. Every entry
//! names the paper result it stands for, the registry protocols it
//! exercises, and a budget; its check function returns a
//! [`CheckOutcome`] whose [`BoundCheck`]s record the observed value
//! next to the required one, so a report can show *how much* margin a
//! bound passed with, not just that it passed. Serialization
//! ([`catalog_json`]) is schema-versioned like every other artifact in
//! this workspace (trace files, checkpoints, threshold catalogs).

use std::time::Instant;

use randsync_obs::Json;

use crate::checks;

/// Catalog serialization format version, bumped on incompatible change.
pub const CATALOG_SCHEMA_VERSION: u32 = 1;

/// How bad a failed entry is. Everything currently shipped is
/// [`Severity::Critical`] — the gate exists to fail closed — but the
/// schema keeps the axis so successor-paper bounds (e.g. the Ovens 2023
/// swap tightening) can land as advisory checks before their
/// implementations stabilize.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// A failure fails the whole gate run.
    Critical,
    /// Reported, and still fails the run (the gate has no soft mode),
    /// but marked for readers triaging a red report.
    Advisory,
}

impl Severity {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Critical => "critical",
            Severity::Advisory => "advisory",
        }
    }
}

/// The comparison a [`BoundCheck`] asserts between observed and
/// required values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoundOp {
    /// `observed <= required`.
    Le,
    /// `observed < required` (strict separations).
    Lt,
    /// `observed >= required`.
    Ge,
    /// `observed == required` (closed-form arithmetic).
    Eq,
}

impl BoundOp {
    /// The comparison symbol, for reports.
    pub fn symbol(self) -> &'static str {
        match self {
            BoundOp::Le => "<=",
            BoundOp::Lt => "<",
            BoundOp::Ge => ">=",
            BoundOp::Eq => "==",
        }
    }

    /// Whether `observed op required` holds.
    pub fn holds(self, observed: i128, required: i128) -> bool {
        match self {
            BoundOp::Le => observed <= required,
            BoundOp::Lt => observed < required,
            BoundOp::Ge => observed >= required,
            BoundOp::Eq => observed == required,
        }
    }
}

/// One observed-vs-required comparison a check asserted. A bound that
/// does not hold fails its entry even if the check function itself
/// reported a pass — the runner, not the check, has the last word.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundCheck {
    /// What was measured (e.g. `"naive.processes_used"`).
    pub name: String,
    /// The measured value.
    pub observed: i128,
    /// The paper's stated bound.
    pub required: i128,
    /// The asserted comparison.
    pub op: BoundOp,
}

impl BoundCheck {
    /// Whether the comparison holds.
    pub fn holds(&self) -> bool {
        self.op.holds(self.observed, self.required)
    }

    /// JSON encoding (for reports and `BENCH_gate.json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("observed".to_string(), Json::Int(self.observed)),
            ("op".to_string(), Json::Str(self.op.symbol().to_string())),
            ("required".to_string(), Json::Int(self.required)),
            ("ok".to_string(), Json::Bool(self.holds())),
        ])
    }
}

/// What a check function reported (before the runner applies bound
/// verdicts and budget enforcement on top).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckStatus {
    /// The property held.
    Pass,
    /// The property failed, with the reason.
    Fail(String),
    /// The check could not run. The gate is fail-closed: a skip still
    /// fails the run — the status exists so reports distinguish "the
    /// property is false" from "the property went unchecked".
    Skipped(String),
}

/// A check function's result: status, asserted bounds, and free-form
/// observations for the report.
#[derive(Clone, PartialEq, Debug)]
pub struct CheckOutcome {
    /// Pass/fail/skip as reported by the check.
    pub status: CheckStatus,
    /// Observed-vs-required comparisons; any non-holding bound fails
    /// the entry.
    pub bounds: Vec<BoundCheck>,
    /// Extra observations worth keeping in the report (config counts,
    /// reduction factors, step counts).
    pub notes: Vec<(String, Json)>,
}

impl CheckOutcome {
    /// A passing outcome with no bounds yet.
    pub fn pass() -> CheckOutcome {
        CheckOutcome { status: CheckStatus::Pass, bounds: Vec::new(), notes: Vec::new() }
    }

    /// A failing outcome.
    pub fn fail(reason: impl Into<String>) -> CheckOutcome {
        CheckOutcome {
            status: CheckStatus::Fail(reason.into()),
            bounds: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A skipped outcome (still fails the gate; see
    /// [`CheckStatus::Skipped`]).
    pub fn skip(reason: impl Into<String>) -> CheckOutcome {
        CheckOutcome {
            status: CheckStatus::Skipped(reason.into()),
            bounds: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append an observed-vs-required bound.
    pub fn bound(
        mut self,
        name: impl Into<String>,
        observed: i128,
        op: BoundOp,
        required: i128,
    ) -> CheckOutcome {
        self.bounds.push(BoundCheck { name: name.into(), observed, required, op });
        self
    }

    /// Append a report note.
    pub fn note(mut self, name: impl Into<String>, value: Json) -> CheckOutcome {
        self.notes.push((name.into(), value));
        self
    }
}

/// Ambient inputs a check runs under.
#[derive(Clone, Copy, Debug)]
pub struct CheckContext {
    /// The entry's cooperative deadline: explorations pass it to
    /// [`ExploreConfig::deadline`](randsync_model::ExploreConfig) so a
    /// runaway search truncates (and the truncated result fails the
    /// check) instead of hanging the gate.
    pub deadline: Instant,
}

/// One reproduced theorem/lemma and its executable check.
#[derive(Clone, Copy, Debug)]
pub struct PropertyEntry {
    /// Stable catalog id (`randsync gate --filter <id>`).
    pub id: &'static str,
    /// Where in the paper the property lives.
    pub paper: &'static str,
    /// The property, stated.
    pub statement: &'static str,
    /// Registry protocols the check exercises (empty for pure
    /// arithmetic).
    pub protocols: &'static [&'static str],
    /// How bad a failure is.
    pub severity: Severity,
    /// Filter tags (`"smoke"` marks the fast subset verify.sh runs
    /// end-to-end).
    pub tags: &'static [&'static str],
    /// Per-entry wall-clock budget; exceeding it fails the entry.
    pub budget_ms: u64,
    /// Whether the witness corpus must hold at least one replaying
    /// witness attributed to this entry — deleting the corpus entry
    /// (file *or* manifest row) then fails the gate.
    pub requires_witness: bool,
    /// The executable check.
    pub run: fn(&CheckContext) -> CheckOutcome,
}

impl PropertyEntry {
    /// Whether a `--filter` string selects this entry: exact tag match
    /// or id substring.
    pub fn matches(&self, filter: &str) -> bool {
        self.tags.contains(&filter) || self.id.contains(filter)
    }

    /// The entry's static metadata as JSON (no check result).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::Str(self.id.to_string())),
            ("paper".to_string(), Json::Str(self.paper.to_string())),
            ("statement".to_string(), Json::Str(self.statement.to_string())),
            (
                "protocols".to_string(),
                Json::Arr(self.protocols.iter().map(|p| Json::Str((*p).to_string())).collect()),
            ),
            ("severity".to_string(), Json::Str(self.severity.label().to_string())),
            (
                "tags".to_string(),
                Json::Arr(self.tags.iter().map(|t| Json::Str((*t).to_string())).collect()),
            ),
            ("budget_ms".to_string(), Json::Int(i128::from(self.budget_ms))),
            ("requires_witness".to_string(), Json::Bool(self.requires_witness)),
        ])
    }
}

/// The shipped catalog: every theorem/lemma the workspace reproduces,
/// in paper order.
pub static CATALOG: &[PropertyEntry] = &[
    PropertyEntry {
        id: "thm-3.3-bound",
        paper: "Theorem 3.3",
        statement: "Consensus for r*r - r + 2 or more identical processes is impossible from \
                    r registers; the closed forms invert each other and are monotone",
        protocols: &[],
        severity: Severity::Critical,
        tags: &["smoke", "arith"],
        budget_ms: 5_000,
        requires_witness: false,
        run: checks::thm_3_3_bound,
    },
    PropertyEntry {
        id: "thm-3.3-adversary",
        paper: "Theorem 3.3 via Lemma 3.2",
        statement: "The register-identical adversary constructs a replay-verified \
                    inconsistency against the flawed register protocols using at most \
                    r*r - r + 2 processes, swept over r = 1..12 for zigzag and optimistic",
        protocols: &["naive", "optimistic", "zigzag"],
        severity: Severity::Critical,
        tags: &["smoke", "adversary"],
        budget_ms: 60_000,
        requires_witness: true,
        run: checks::thm_3_3_adversary,
    },
    PropertyEntry {
        id: "thm-3.3-symmetry",
        paper: "Theorem 3.3 (identical processes)",
        statement: "The process-symmetry quotient is verdict-preserving: canonical and raw \
                    exploration agree on safety and termination facts",
        protocols: &["naive", "walk-counter"],
        severity: Severity::Critical,
        tags: &["smoke", "equivalence"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::thm_3_3_symmetry,
    },
    PropertyEntry {
        id: "lemma-3.4",
        paper: "Lemma 3.4",
        statement: "Given enough processes, an interruptible execution with r + 1 strictly \
                    nested pieces is built and validated, and a smaller pool is reported \
                    insufficient; the smallest sufficient pool among 1, 2, 4, 8, 16 is pinned \
                    for optimistic on r = 1..4 registers with unanimous inputs",
        protocols: &["optimistic"],
        severity: Severity::Critical,
        tags: &["smoke", "adversary"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::lemma_3_4,
    },
    PropertyEntry {
        id: "lemma-3.6",
        paper: "Lemma 3.6 (toward Theorem 3.7)",
        statement: "The historyless adversary breaks the flawed historyless-object protocols \
                    within the ample pool bound 2*(3r*r + r)",
        protocols: &["tasrace", "swapchain", "mixedzigzag"],
        severity: Severity::Critical,
        tags: &["smoke", "adversary"],
        budget_ms: 120_000,
        requires_witness: true,
        run: checks::lemma_3_6,
    },
    PropertyEntry {
        id: "thm-4.2",
        paper: "Theorem 4.2 (Aspnes)",
        statement: "One bounded counter solves 2-process randomized consensus — safe, \
                    termination always reachable, infinite executions present with \
                    probability 0 — using strictly fewer objects than any register \
                    implementation",
        protocols: &["walk-counter"],
        severity: Severity::Critical,
        tags: &["smoke", "separation"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::thm_4_2,
    },
    PropertyEntry {
        id: "thm-4.4",
        paper: "Theorem 4.4",
        statement: "One fetch&add register solves 2-process randomized consensus with the \
                    same separation as Theorem 4.2",
        protocols: &["walk-fetchadd"],
        severity: Severity::Critical,
        tags: &["smoke", "separation"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::thm_4_4,
    },
    PropertyEntry {
        id: "bound-2.1",
        paper: "Theorem 2.1",
        statement: "Composition: implementing X by Y costs at least ceil(g/f) instances, and \
                    the shipped counter-from-registers stack respects the corollary",
        protocols: &[],
        severity: Severity::Critical,
        tags: &["smoke", "arith"],
        budget_ms: 5_000,
        requires_witness: false,
        run: checks::bound_2_1,
    },
    PropertyEntry {
        id: "por-equiv",
        paper: "DESIGN.md section 15 (soundness of the reduction)",
        statement: "Partial-order reduction preserves the verdict and termination facts \
                    while strictly pruning interleavings",
        protocols: &["localcoin"],
        severity: Severity::Critical,
        tags: &["smoke", "equivalence"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::por_equiv,
    },
    PropertyEntry {
        id: "guided-witness",
        paper: "DESIGN.md section 15 (guided adversary search)",
        statement: "Best-first search finds an inconsistency on a flawed protocol; the \
                    witness survives shrinking, re-verification, and a trace round-trip",
        protocols: &["naive"],
        severity: Severity::Critical,
        tags: &["smoke", "adversary"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::guided_witness,
    },
    PropertyEntry {
        id: "explore-counts",
        paper: "DESIGN.md sections 9, 14 and 15 (exact search counts)",
        statement: "Raw, canonical and POR exploration of fixed registry workloads reach \
                    exactly the pinned counts; the raw n = 4 walk completes under a 4 MiB \
                    budget bit-identical to RAM; best-first search finds the pinned witness \
                    where breadth-first search exhausts its default budget",
        protocols: &["optimistic", "walk-default", "phase", "localcoin", "walk-counter"],
        severity: Severity::Critical,
        tags: &["equivalence", "explore"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::explore_counts,
    },
    PropertyEntry {
        id: "registry-counts",
        paper: "DESIGN.md sections 9, 14 and 15 (bit-identical search on every protocol)",
        statement: "Raw, canonical, POR and 64 KiB-budget valency searches of every registry \
                    protocol at its defaults reach exactly the pinned configurations, terminal \
                    configurations, 0-, 1- and bivalent counts and arena bytes",
        protocols: &[],
        severity: Severity::Critical,
        tags: &["smoke", "equivalence"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::registry_counts,
    },
    PropertyEntry {
        id: "runtime-model-equiv",
        paper: "DESIGN.md section 9 (one state machine, many interpreters)",
        statement: "Threaded-runtime executions replay bit-identically through the model \
                    interpreter and decide consistently and validly",
        protocols: &["cas", "walk-counter"],
        severity: Severity::Critical,
        tags: &["smoke", "equivalence"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::runtime_model_equiv,
    },
    PropertyEntry {
        id: "dist-equiv",
        paper: "DESIGN.md section 16 (bit-identity at any node count)",
        statement: "Exploration and valency of walk-default(3,1) through two worker shards \
                    over the frontier RPC equal the single-node search: 154,367 \
                    configurations, 85,608 zero-valent, 44,093 one-valent, 24,666 bivalent; \
                    probes send 48 hex digits per key, commits 8 per staged miss",
        protocols: &["walk-default"],
        severity: Severity::Critical,
        tags: &["smoke", "equivalence"],
        budget_ms: 60_000,
        requires_witness: false,
        run: checks::dist_equiv,
    },
    PropertyEntry {
        id: "svc-soak",
        paper: "DESIGN.md section 17 (soak thresholds)",
        statement: "A sustained mixed-job load at the backpressure boundary breaches no \
                    threshold: no leaking gauges, p99 under its ceiling, cache hit rate \
                    above its floor",
        protocols: &[],
        severity: Severity::Critical,
        tags: &["soak"],
        budget_ms: 120_000,
        requires_witness: false,
        run: checks::svc_soak,
    },
];

/// The shipped catalog.
pub fn catalog() -> &'static [PropertyEntry] {
    CATALOG
}

/// Look a catalog entry up by id.
pub fn find(id: &str) -> Option<&'static PropertyEntry> {
    CATALOG.iter().find(|e| e.id == id)
}

/// The whole catalog as schema-versioned JSON.
pub fn catalog_json() -> Json {
    Json::Obj(vec![
        ("schema_version".to_string(), Json::Int(i128::from(CATALOG_SCHEMA_VERSION))),
        ("entries".to_string(), Json::Arr(CATALOG.iter().map(PropertyEntry::to_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_findable() {
        let ids: std::collections::HashSet<_> = CATALOG.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), CATALOG.len(), "duplicate catalog ids");
        for e in CATALOG {
            assert!(std::ptr::eq(find(e.id).expect("findable"), e));
        }
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn required_theorems_are_present() {
        for id in ["thm-3.3-bound", "thm-3.3-adversary", "lemma-3.6", "thm-4.2", "thm-4.4", "bound-2.1"]
        {
            assert!(find(id).is_some(), "missing required entry {id}");
        }
    }

    #[test]
    fn catalog_protocols_resolve_in_the_registry() {
        for e in CATALOG {
            for p in e.protocols {
                assert!(
                    randsync_consensus::registry::find(p).is_some(),
                    "{}: unknown protocol binding {p:?}",
                    e.id
                );
            }
        }
    }

    #[test]
    fn bound_checks_hold_and_encode_their_verdict() {
        let b = BoundCheck {
            name: "processes_used".to_string(),
            observed: 4,
            required: 8,
            op: BoundOp::Le,
        };
        assert!(b.holds());
        let v = b.to_json();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("<="));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let broken = BoundCheck { observed: 9, ..b };
        assert!(!broken.holds());
        assert_eq!(broken.to_json().get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn catalog_json_is_schema_versioned_and_parses_back() {
        let v = catalog_json();
        let text = v.render();
        let back = randsync_obs::parse_json(&text).expect("renders valid JSON");
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(CATALOG_SCHEMA_VERSION))
        );
        assert_eq!(
            back.get("entries").and_then(Json::as_arr).map(<[Json]>::len),
            Some(CATALOG.len())
        );
    }

    #[test]
    fn filter_matching_covers_tags_and_id_substrings() {
        let e = find("thm-3.3-adversary").unwrap();
        assert!(e.matches("smoke"));
        assert!(e.matches("thm-3.3"));
        assert!(e.matches("adversary"));
        assert!(!e.matches("soak"));
    }
}
