//! # randsync-gate — the fail-closed verification gate
//!
//! This crate turns "the workspace reproduces the paper" from a claim
//! into a machine-checkable contract, in three pieces:
//!
//! - [`catalog`](mod@catalog) — one [`PropertyEntry`] per
//!   reproduced theorem/lemma (Theorem 3.3, Lemma 3.6, Theorems 4.2
//!   and 4.4, the Theorem 2.1 composition bound, plus the workspace's
//!   own equivalence properties), each binding the paper hook and the
//!   stated bound to an executable check over `consensus::registry`
//!   protocols. Serializable as schema-versioned JSON.
//! - [`corpus`] — the witness regression corpus: adversary-found
//!   inconsistencies, shrunk via `minimize_report`, stored as
//!   FNV-1a-checksummed flight traces with provenance back to their
//!   catalog entry, and replayed through model *and* bridged-atomic
//!   interpreters on every run.
//! - [`runner`] — `randsync gate`: executes catalog plus corpus under
//!   per-entry deadlines and emits a machine-readable
//!   [`GateReport`]. Fail-closed: any failure,
//!   lost witness, or skip exits nonzero; there is no soft mode.
//!
//! See DESIGN.md §18 for the schema and semantics.

pub mod catalog;
mod checks;
pub mod corpus;
pub mod runner;

pub use catalog::{
    catalog, catalog_json, find, BoundCheck, BoundOp, CheckContext, CheckOutcome, CheckStatus,
    PropertyEntry, Severity, CATALOG_SCHEMA_VERSION,
};
pub use corpus::{
    add_witness, seed_corpus, Manifest, WitnessRecord, MANIFEST_FILE, MANIFEST_SCHEMA_VERSION,
};
pub use runner::{
    run_entry, run_gate, EntryReport, GateConfig, GateReport, WitnessReport,
    CORPUS_ENTRY_ID, REPORT_SCHEMA_VERSION,
};
