//! Versioned, checksummed exploration checkpoints.
//!
//! A checkpoint captures a truncated search at a **BFS level
//! boundary** so it can be resumed later — by
//! [`Explorer::resume`](super::Explorer::resume) in-process, by
//! `randsync resume` from the CLI, or by the svc `resume` job — and
//! finish as if it had never been interrupted.
//!
//! # What is stored (and what is replayed)
//!
//! Protocol states are arbitrary `S: Clone + Eq + Hash + Ord` values
//! with no serialization contract, so the checkpoint does **not** store
//! the packed arena, the interning codec, or the seen-set. It stores
//! the *parent forest*: for every interned node, the parent index and
//! the [`Step`] (`pid`, `coin`) that first reached it, plus the
//! successor edges when they were recorded. That is sufficient because
//! the BFS order is topological (every parent index is smaller than its
//! child), so resume rebuilds the arena in one linear pass: decode the
//! parent row, apply the step via [`Configuration::step`]
//! (canonicalizing in canonical mode), and re-intern. `encode_intern`
//! assigns codec ids in first-use order — as do the word deltas the
//! live search interns, whose changed state and value are the only
//! entries a full encode of the same successor could add — and the
//! replay visits nodes in the original interning order, so the rebuilt
//! arena — every word, every id — is identical to the one that was
//! checkpointed, in RAM *or* spill mode, regardless of which mode
//! produced the file.
//!
//! The frontier is not stored either: it is exactly the set of nodes at
//! depth [`Checkpoint::level_depth`], in index order.
//!
//! # Soundness of resume
//!
//! Checkpoints are only written when a search stopped *cleanly at a
//! level boundary* (deadline or depth budget) without ever dropping a
//! successor (`config_capped` forfeits checkpointing: a cap drops
//! candidates mid-level, so the stored graph is not a faithful BFS
//! prefix). At a level boundary the engine state is fully determined by
//! the interned prefix: arena, codec, seen-set, and frontier are all
//! functions of it, and the sequential merge is deterministic. Hence
//! `resume(checkpoint)` continues with bit-identical state and produces
//! the same final outcome as one uninterrupted run — the property the
//! `prop_spill_resume` suite asserts.
//!
//! # On-disk format (version 1)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic   8 B   "RSYNCKPT"
//! version u32   CHECKPOINT_SCHEMA_VERSION
//! len     u64   payload byte length
//! sum     u64   FNV-1a 64 of the payload
//! payload       protocol name, (n, r, inputs), canonical/record_edges
//!               flags, (n_procs, n_values), level_depth, node count,
//!               parent+step per node, successor adjacency
//! ```

use std::fmt;
use std::fs;
use std::path::Path;

use randsync_obs::fnv1a64;

use super::graph::Csr;
use crate::execution::Step;
use crate::process::ProcessId;
use crate::protocol::Decision;

/// Format version written into every checkpoint header.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"RSYNCKPT";

/// Why a checkpoint could not be loaded.
#[derive(Debug, Clone)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not a checkpoint, is a different version, fails its
    /// checksum, or is internally inconsistent.
    Corrupt(String),
    /// The checkpoint is valid but cannot resume against the protocol
    /// it was offered (shape or symmetry mismatch).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A truncated exploration frozen at a BFS level boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Registry name of the protocol that was being explored.
    pub protocol: String,
    /// Process-count parameter the protocol was built with.
    pub n: u32,
    /// Secondary protocol parameter (rounds / seed / variant).
    pub r: u64,
    /// The input vector (also the validity reference set).
    pub inputs: Vec<Decision>,
    /// Whether the search ran on the symmetry quotient.
    pub canonical: bool,
    /// Whether successor edges were recorded (and are stored).
    pub record_edges: bool,
    /// Process slots per configuration (shape validation on resume).
    pub n_procs: u32,
    /// Object slots per configuration.
    pub n_values: u32,
    /// Depth of the frontier at the stop boundary: every level below it
    /// is fully merged, and the frontier is the nodes at this depth.
    pub level_depth: u64,
    /// `parent[i]` = the node and step that first interned node `i`
    /// (`None` only for node 0).
    pub parent: Vec<Option<(u32, Step)>>,
    /// Successor adjacency, the engine's own edge table: one row per
    /// node iff [`Checkpoint::record_edges`], otherwise empty.
    pub(super) succ: Csr,
}

impl Checkpoint {
    /// Serialize to `path` (atomically: written to a sibling temp file,
    /// then renamed).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let payload = self.encode();
        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CHECKPOINT_SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        let tmp = path.with_extension("ckpt.tmp");
        fs::write(&tmp, &out).map_err(|e| CheckpointError::Io(e.to_string()))?;
        fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Load and validate a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        if bytes.len() < 28 || &bytes[..8] != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "version {version}, expected {CHECKPOINT_SCHEMA_VERSION}"
            )));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = bytes.get(28..28 + len).ok_or_else(|| {
            CheckpointError::Corrupt("payload shorter than header claims".into())
        })?;
        if fnv1a64(payload) != sum {
            return Err(CheckpointError::Corrupt("checksum mismatch".into()));
        }
        Self::decode(payload)
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_bytes(&mut b, self.protocol.as_bytes());
        b.extend_from_slice(&self.n.to_le_bytes());
        b.extend_from_slice(&self.r.to_le_bytes());
        put_bytes(&mut b, &self.inputs);
        b.push(self.canonical as u8);
        b.push(self.record_edges as u8);
        b.extend_from_slice(&self.n_procs.to_le_bytes());
        b.extend_from_slice(&self.n_values.to_le_bytes());
        b.extend_from_slice(&self.level_depth.to_le_bytes());
        b.extend_from_slice(&(self.parent.len() as u64).to_le_bytes());
        for p in self.parent.iter().skip(1) {
            let (idx, step) = p.expect("only node 0 may lack a parent");
            b.extend_from_slice(&idx.to_le_bytes());
            b.extend_from_slice(&(step.pid.0 as u32).to_le_bytes());
            b.extend_from_slice(&step.coin.to_le_bytes());
        }
        if self.record_edges {
            for i in 0..self.succ.len() {
                let outs = self.succ.row(i);
                b.extend_from_slice(&(outs.len() as u32).to_le_bytes());
                for &j in outs {
                    b.extend_from_slice(&j.to_le_bytes());
                }
            }
        }
        b
    }

    fn decode(payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Cursor { b: payload, at: 0 };
        let protocol = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|_| CheckpointError::Corrupt("protocol name not UTF-8".into()))?;
        let n = r.u32()?;
        let rr = r.u64()?;
        let inputs = r.bytes()?.to_vec();
        let canonical = r.u8()? != 0;
        let record_edges = r.u8()? != 0;
        let n_procs = r.u32()?;
        let n_values = r.u32()?;
        let level_depth = r.u64()?;
        let nodes = r.u64()? as usize;
        let mut parent: Vec<Option<(u32, Step)>> = Vec::with_capacity(nodes);
        if nodes > 0 {
            parent.push(None);
        }
        for i in 1..nodes {
            let idx = r.u32()?;
            let pid = r.u32()? as usize;
            let coin = r.u32()?;
            if idx as usize >= i {
                return Err(CheckpointError::Corrupt(format!(
                    "node {i} has non-topological parent {idx}"
                )));
            }
            parent.push(Some((idx, Step::with_coin(ProcessId(pid), coin))));
        }
        let mut succ = Csr::default();
        if record_edges {
            for i in 0..nodes {
                let deg = r.u32()?;
                succ.start(i as u32);
                for _ in 0..deg {
                    let j = r.u32()?;
                    if j as usize >= nodes {
                        return Err(CheckpointError::Corrupt(
                            "successor index out of range".into(),
                        ));
                    }
                    succ.push(j);
                }
            }
        }
        if r.at != payload.len() {
            return Err(CheckpointError::Corrupt("trailing bytes".into()));
        }
        Ok(Checkpoint {
            protocol,
            n,
            r: rr,
            inputs,
            canonical,
            record_edges,
            n_procs,
            n_values,
            level_depth,
            parent,
            succ,
        })
    }

    /// Number of interned nodes in the frozen prefix.
    pub fn nodes(&self) -> usize {
        self.parent.len()
    }
}

fn put_bytes(b: &mut Vec<u8>, bytes: &[u8]) {
    b.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    b.extend_from_slice(bytes);
}

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let s = self
            .b
            .get(self.at..self.at + n)
            .ok_or_else(|| CheckpointError::Corrupt("payload truncated".into()))?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            protocol: "walk-counter".into(),
            n: 3,
            r: 4,
            inputs: vec![0, 1, 0],
            canonical: true,
            record_edges: true,
            n_procs: 3,
            n_values: 2,
            level_depth: 5,
            parent: vec![
                None,
                Some((0, Step::with_coin(ProcessId(1), 0))),
                Some((0, Step::with_coin(ProcessId(2), 7))),
                Some((1, Step::with_coin(ProcessId(0), 1))),
            ],
            succ: edges(&[&[1, 2], &[3], &[], &[0]]),
        }
    }

    fn edges(lists: &[&[u32]]) -> Csr {
        let mut csr = Csr::default();
        for (i, outs) in lists.iter().enumerate() {
            csr.start(i as u32);
            outs.iter().for_each(|&j| csr.push(j));
        }
        csr
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("randsync-ckpt-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trips_through_disk() {
        let ck = sample();
        let path = tmp("roundtrip");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.protocol, ck.protocol);
        assert_eq!(back.n, ck.n);
        assert_eq!(back.r, ck.r);
        assert_eq!(back.inputs, ck.inputs);
        assert_eq!(back.canonical, ck.canonical);
        assert_eq!(back.level_depth, ck.level_depth);
        assert_eq!(back.parent, ck.parent);
        assert_eq!(back.succ, ck.succ);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let ck = sample();
        let path = tmp("corrupt");
        ck.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match Checkpoint::load(&path) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"not a checkpoint at all......").unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Corrupt(_))));
        let ck = sample();
        ck.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }
}
