//! The witness regression corpus: adversary-found inconsistencies,
//! shrunk and filed as checksummed flight traces, replayed on every
//! gate run.
//!
//! A corpus directory holds one `MANIFEST.json` plus one `.jsonl`
//! flight trace per witness. The manifest row records which catalog
//! property the witness substantiates, the protocol instance to
//! rebuild, and an FNV-1a 64 checksum of the trace file's exact bytes.
//! On replay, *everything* is load-bearing: a missing file is a lost
//! witness, a checksum mismatch is tampering, a bad or short JSONL
//! stream is truncation (the trace footer carries the step count), a
//! trace file present on disk but absent from the manifest is an
//! unfiled witness — each is a gate FAILURE, never a skip.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use randsync_consensus::registry::{self, AttackFamily, ProtocolEntry};
use randsync_core::witness::InconsistencyWitness;
use randsync_model::{Execution, Protocol};
use randsync_obs::{fnv1a64, ExecutionTrace, Json};

use crate::checks::{adversary_witness, verify_on_bridged};

/// Manifest format version, bumped on incompatible change.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// The manifest's filename inside a corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// The checksum as the manifest stores it: [`fnv1a64`], the checksum
/// the checkpoint format uses too, as 16 lowercase hex digits.
pub fn checksum_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// One filed witness: where it lives, what it proves, how to rebuild
/// the protocol instance, and the bytes it must still hash to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WitnessRecord {
    /// Trace filename, relative to the corpus directory.
    pub file: String,
    /// Catalog property id this witness substantiates.
    pub property: String,
    /// Registry protocol name.
    pub protocol: String,
    /// Processes the instance was built with.
    pub n: usize,
    /// Range parameter the instance was built with.
    pub r: usize,
    /// Steps in the (minimized) execution.
    pub steps: usize,
    /// Distinct processes the execution schedules.
    pub processes_used: usize,
    /// FNV-1a 64 of the trace file's exact bytes, as 16 hex digits.
    pub checksum: String,
}

impl WitnessRecord {
    /// JSON encoding for the manifest.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("file".to_string(), Json::Str(self.file.clone())),
            ("property".to_string(), Json::Str(self.property.clone())),
            ("protocol".to_string(), Json::Str(self.protocol.clone())),
            ("n".to_string(), Json::Int(self.n as i128)),
            ("r".to_string(), Json::Int(self.r as i128)),
            ("steps".to_string(), Json::Int(self.steps as i128)),
            ("processes_used".to_string(), Json::Int(self.processes_used as i128)),
            ("checksum".to_string(), Json::Str(self.checksum.clone())),
        ])
    }

    /// Parse a manifest row.
    pub fn from_json(v: &Json) -> Result<WitnessRecord, String> {
        let s = |field: &str| -> Result<String, String> {
            v.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest row missing string {field:?}"))
        };
        let u = |field: &str| -> Result<usize, String> {
            v.get(field)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("manifest row missing integer {field:?}"))
        };
        Ok(WitnessRecord {
            file: s("file")?,
            property: s("property")?,
            protocol: s("protocol")?,
            n: u("n")?,
            r: u("r")?,
            steps: u("steps")?,
            processes_used: u("processes_used")?,
            checksum: s("checksum")?,
        })
    }
}

/// The corpus manifest: schema version plus one row per witness.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Manifest {
    /// Rows, in filing order.
    pub witnesses: Vec<WitnessRecord>,
}

impl Manifest {
    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".to_string(), Json::Int(i128::from(MANIFEST_SCHEMA_VERSION))),
            (
                "witnesses".to_string(),
                Json::Arr(self.witnesses.iter().map(WitnessRecord::to_json).collect()),
            ),
        ])
    }

    /// Parse the encoding [`Manifest::to_json`] writes.
    pub fn from_json(v: &Json) -> Result<Manifest, String> {
        match v.get("schema_version").and_then(Json::as_u64) {
            Some(found) if found == u64::from(MANIFEST_SCHEMA_VERSION) => {}
            Some(found) => {
                return Err(format!(
                    "manifest schema version {found}, this build reads {MANIFEST_SCHEMA_VERSION}"
                ))
            }
            None => return Err("manifest has no schema_version".to_string()),
        }
        let rows = v
            .get("witnesses")
            .and_then(Json::as_arr)
            .ok_or("manifest has no \"witnesses\" array")?;
        let witnesses =
            rows.iter().map(WitnessRecord::from_json).collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest { witnesses })
    }

    /// Load `dir/MANIFEST.json`. A corpus directory without a readable,
    /// parseable manifest is an error — the caller decides whether
    /// that means "no corpus configured" or "corpus lost".
    pub fn load(dir: &Path) -> Result<Manifest, String> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = randsync_obs::parse_json(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Manifest::from_json(&json)
    }

    /// Write `dir/MANIFEST.json` (creating `dir` if needed).
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(MANIFEST_FILE);
        let mut text = self.to_json().render();
        text.push('\n');
        fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Rows attributed to a catalog property.
    pub fn for_property<'a>(&'a self, property: &'a str) -> impl Iterator<Item = &'a WitnessRecord> {
        self.witnesses.iter().filter(move |w| w.property == property)
    }
}

/// Trace files in `dir` that no manifest row claims. An unfiled
/// witness fails the gate: either it was never validated, or a
/// manifest row was deleted to hide a regression.
pub fn stray_files(dir: &Path, manifest: &Manifest) -> Result<Vec<String>, String> {
    let mut strays = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".jsonl") && !manifest.witnesses.iter().any(|w| w.file == name) {
            strays.push(name);
        }
    }
    strays.sort();
    Ok(strays)
}

/// Replay one filed witness, fail-closed: bytes must hash to the
/// manifest checksum, parse as a complete flight trace matching the
/// row's metadata, rebuild into an execution on the recorded registry
/// protocol, and still decide both values under the model interpreter
/// *and* over bridged real atomics.
pub fn replay_record(dir: &Path, record: &WitnessRecord) -> Result<(), String> {
    let path = dir.join(&record.file);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) => return Err(format!("lost witness: cannot read {}: {e}", path.display())),
    };
    let found = checksum_hex(&bytes);
    if found != record.checksum {
        return Err(format!(
            "checksum mismatch (tampered or corrupted): manifest says {}, file hashes to {found}",
            record.checksum
        ));
    }
    let text = String::from_utf8(bytes).map_err(|_| "trace is not UTF-8".to_string())?;
    // from_jsonl cross-checks the footer's step count, so a truncated
    // file fails here even if each surviving line parses.
    let trace = ExecutionTrace::from_jsonl(&text).map_err(|e| format!("trace invalid: {e}"))?;
    if trace.protocol != record.protocol
        || trace.n != record.n
        || trace.r != record.r
        || trace.steps.len() != record.steps
    {
        return Err(format!(
            "trace header ({} n={} r={} steps={}) disagrees with its manifest row \
             ({} n={} r={} steps={})",
            trace.protocol,
            trace.n,
            trace.r,
            trace.steps.len(),
            record.protocol,
            record.n,
            record.r,
            record.steps
        ));
    }
    let entry = registry::find(&record.protocol)
        .ok_or_else(|| format!("registry no longer has protocol {:?}", record.protocol))?;
    let protocol = (entry.build)(record.n, record.r);
    let witness = rebuild_witness(&protocol, &trace)
        .ok_or("trace no longer witnesses an inconsistency under model replay")?;
    if witness.processes_used != record.processes_used {
        return Err(format!(
            "witness schedules {} distinct processes, manifest says {}",
            witness.processes_used, record.processes_used
        ));
    }
    verify_on_bridged(&protocol, &witness)
}

/// Rebuild an [`InconsistencyWitness`] from a flight trace: convert
/// the `(pid, coin)` schedule back to model steps and let the replay
/// find the two deciders (which also model-verifies the trace).
fn rebuild_witness<P: Protocol>(protocol: &P, trace: &ExecutionTrace) -> Option<InconsistencyWitness> {
    InconsistencyWitness::from_execution(protocol, &trace.inputs, Execution::from_trace(trace))
}

/// The catalog property a protocol's witnesses substantiate, by the
/// adversary family that found them.
fn property_for(entry: &ProtocolEntry) -> &'static str {
    match entry.attack {
        AttackFamily::RegisterIdentical => "thm-3.3-adversary",
        AttackFamily::Historyless => "lemma-3.6",
        AttackFamily::NotApplicable => "guided-witness",
    }
}

/// Shrink `witness` and file it under `dir`, updating the manifest.
/// Returns the new record, or `None` if a byte-identical trace (same
/// checksum) is already filed.
fn file_witness(
    dir: &Path,
    manifest: &mut Manifest,
    entry: &ProtocolEntry,
    witness: &InconsistencyWitness,
) -> Result<Option<WitnessRecord>, String> {
    let protocol = entry.build_default();
    if let Err(e) = witness.verify(&protocol) {
        return Err(format!("{}: witness failed model replay: {e}", entry.name));
    }
    let (minimal, _) = witness
        .minimize_report(&protocol)
        .map_err(|e| format!("{}: minimized witness failed model replay: {e}", entry.name))?;
    let trace = minimal.flight_trace(entry.name, entry.default_n, entry.default_r);
    let bytes = trace.to_jsonl();
    let checksum = checksum_hex(bytes.as_bytes());
    if manifest.witnesses.iter().any(|w| w.checksum == checksum) {
        return Ok(None);
    }
    let mut file = String::new();
    let _ = write!(
        file,
        "{}-n{}-r{}-{}steps-{}.jsonl",
        entry.name,
        entry.default_n,
        entry.default_r,
        minimal.execution.len(),
        &checksum[..8]
    );
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    fs::write(dir.join(&file), &bytes)
        .map_err(|e| format!("cannot write {}: {e}", dir.join(&file).display()))?;
    let record = WitnessRecord {
        file,
        property: property_for(entry).to_string(),
        protocol: entry.name.to_string(),
        n: entry.default_n,
        r: entry.default_r,
        steps: minimal.execution.len(),
        processes_used: minimal.processes_used,
        checksum,
    };
    manifest.witnesses.push(record.clone());
    manifest.save(dir)?;
    Ok(Some(record))
}

/// Validate, shrink, checksum, and file an externally produced trace
/// (`randsync gate --add-witness`). The trace must parse, name a
/// registry protocol, and replay to an inconsistency; it is then
/// re-minimized and filed with provenance to the catalog property its
/// protocol's adversary family substantiates.
pub fn add_witness(dir: &Path, trace_path: &Path) -> Result<Option<WitnessRecord>, String> {
    let trace = ExecutionTrace::read_from(trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
    let entry = registry::find(&trace.protocol)
        .ok_or_else(|| format!("registry has no protocol {:?}", trace.protocol))?;
    let protocol = (entry.build)(trace.n, trace.r);
    let witness = rebuild_witness(&protocol, &trace).ok_or_else(|| {
        format!(
            "{} does not witness an inconsistency (the replay never decides both values)",
            trace_path.display()
        )
    })?;
    // File against the registry default instance: witnesses the gate
    // replays forever should pin the canonical (n, r), and every
    // adversary target's default is the flawed instance.
    if (trace.n, trace.r) != (entry.default_n, entry.default_r) {
        return Err(format!(
            "trace was recorded on {} with n={} r={}, but the corpus pins the registry default \
             n={} r={}",
            entry.name, trace.n, trace.r, entry.default_n, entry.default_r
        ));
    }
    let mut manifest = match Manifest::load(dir) {
        Ok(m) => m,
        Err(_) if !dir.join(MANIFEST_FILE).exists() => Manifest::default(),
        Err(e) => return Err(e),
    };
    file_witness(dir, &mut manifest, entry, &witness)
}

/// Build the corpus from scratch: run each registry adversary target's
/// family adversary, shrink the witness, and file it. Idempotent —
/// already-filed (byte-identical) witnesses are skipped.
pub fn seed_corpus(dir: &Path) -> Result<Vec<WitnessRecord>, String> {
    let mut manifest = match Manifest::load(dir) {
        Ok(m) => m,
        Err(_) if !dir.join(MANIFEST_FILE).exists() => Manifest::default(),
        Err(e) => return Err(e),
    };
    let mut added = Vec::new();
    for entry in registry::adversary_targets() {
        let (witness, _) = adversary_witness(entry, &entry.build_default())
            .map_err(|e| format!("{}: {e}", entry.name))?;
        if let Some(record) = file_witness(dir, &mut manifest, entry, &witness)? {
            added.push(record);
        }
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_hex_renders_fnv1a64_as_sixteen_hex_digits() {
        assert_eq!(checksum_hex(b"foobar"), "85944171f73967e8");
        assert_eq!(checksum_hex(b""), "cbf29ce484222325");
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            witnesses: vec![WitnessRecord {
                file: "naive-n3-r1-6steps-deadbeef.jsonl".to_string(),
                property: "thm-3.3-adversary".to_string(),
                protocol: "naive".to_string(),
                n: 3,
                r: 1,
                steps: 6,
                processes_used: 2,
                checksum: "deadbeefdeadbeef".to_string(),
            }],
        };
        let text = m.to_json().render();
        let back =
            Manifest::from_json(&randsync_obs::parse_json(&text).expect("valid JSON")).expect("parses");
        assert_eq!(back, m);
        assert_eq!(back.for_property("thm-3.3-adversary").count(), 1);
        assert_eq!(back.for_property("lemma-3.6").count(), 0);
    }

    #[test]
    fn manifest_rejects_wrong_schema_version() {
        let v = randsync_obs::parse_json("{\"schema_version\":99,\"witnesses\":[]}").unwrap();
        assert!(Manifest::from_json(&v).is_err());
    }
}
