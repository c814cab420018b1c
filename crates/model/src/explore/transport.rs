//! The **frontier-exchange seam**: a pluggable seen-set the engine's
//! level merge probes and extends in sorted batches.
//!
//! The engine's level merge ([`engine`](super::engine)) talks to its
//! dedup structure through exactly two bulk operations per BFS level:
//! sorted *probe* batches (which of these distinct candidate keys are
//! already interned, and at which arena index?) and one sorted *insert*
//! batch (these keys were just interned at these indices).
//! [`FrontierTransport`] names that contract as a trait, which is all
//! it takes to stretch the fingerprint-sharded seen-set across
//! machines: a coordinator keeps the arena and performs the in-order
//! merge — so interning order, and therefore every verdict, count, and
//! witness, is **bit-identical to a single-node run** — while worker
//! nodes own disjoint fingerprint ranges of the seen-set and answer
//! probe/insert batches for their range.
//!
//! Implementations in this workspace:
//!
//! * [`LocalFrontier`] — the in-process reference implementation (a
//!   plain hash map), used by the equivalence property suites and as
//!   the semantic model every remote implementation must match.
//! * `ExternalDedup` (the local seen-set, resident or spilling)
//!   implements the same trait, so the engine's one level merge is
//!   written against the seam for every tier.
//! * `randsync-svc`'s `DistributedFrontier` speaks the same contract
//!   over the JSONL wire protocol to N worker processes.
//!
//! # Contract
//!
//! * `open(stride)` begins a search; `stride` is the packed row width
//!   in `u32` words. Implementations must start empty.
//! * `probe_sorted(hashes, words)` receives **distinct** keys sorted
//!   by `(hash, words)`; `words.len() == hashes.len() * stride`. It
//!   returns, per key in order, the arena index the key was inserted
//!   under, or `None` if never inserted. Keys with equal 64-bit hashes
//!   but different words are different keys (the engine compares full
//!   words; the hash only routes and orders).
//! * `insert_sorted(hashes, indices, words)` records keys (sorted the
//!   same way, disjoint from everything previously inserted) under the
//!   caller-assigned arena indices.
//! * `close()` ends the search and releases any session state.
//!
//! Errors are surfaced, not panicked: the engine stops the search at
//! the level boundary and reports a truncated outcome with
//! [`TruncationReason::Transport`](super::TruncationReason::Transport).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A frontier-exchange failure (connection loss, protocol error, a
/// worker shard gone away). Carries a human-readable description.
#[derive(Clone, Debug)]
pub struct TransportError(pub String);

impl TransportError {
    /// Build an error from anything displayable.
    pub fn new(msg: impl std::fmt::Display) -> Self {
        TransportError(msg.to_string())
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TransportError {}

/// The pluggable seen-set behind the engine's level merge — see the
/// module docs for the full contract.
pub trait FrontierTransport: Send {
    /// Begin a search whose packed rows are `stride` `u32` words wide.
    fn open(&mut self, stride: usize) -> Result<(), TransportError>;

    /// Resolve distinct sorted keys against everything inserted so
    /// far: `Some(index)` for known keys, `None` for novel ones.
    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError>;

    /// Record newly interned sorted keys under their arena indices.
    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError>;

    /// End the search and release session state.
    fn close(&mut self) -> Result<(), TransportError>;
}

/// A cloneable, lockable handle to a [`FrontierTransport`], suitable
/// for [`ExploreConfig::transport`](super::ExploreConfig::transport)
/// (which must stay `Clone`). The engine serializes all access through
/// the lock — the merge is sequential by design, so the lock is never
/// contended during a search.
#[derive(Clone)]
pub struct SharedFrontier(Arc<Mutex<dyn FrontierTransport>>);

impl SharedFrontier {
    /// Wrap a transport implementation for use in an `ExploreConfig`.
    pub fn new(transport: impl FrontierTransport + 'static) -> Self {
        SharedFrontier(Arc::new(Mutex::new(transport)))
    }

    /// Lock the underlying transport (poisoning is ignored: the
    /// transports hold plain data and remote handles, which a panic
    /// cannot leave incoherent).
    pub fn lock(&self) -> MutexGuard<'_, dyn FrontierTransport + 'static> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for SharedFrontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedFrontier(..)")
    }
}

/// The (index, packed words) entries stored under one fingerprint:
/// every config whose rows hashed to that value, kept for exact
/// (non-hash) membership comparison.
type Bucket = Vec<(u32, Box<[u32]>)>;

/// The in-process reference implementation of the seam: a hash map
/// from fingerprint to the (words, index) pairs inserted under it.
/// Semantically identical to the engine's local seen-set; exists so
/// the seam itself can be property-tested for bit-identity without any
/// networking, and as the executable model for remote shards.
#[derive(Debug, Default)]
pub struct LocalFrontier {
    stride: usize,
    map: HashMap<u64, Bucket>,
}

impl LocalFrontier {
    /// An empty frontier store.
    pub fn new() -> Self {
        LocalFrontier::default()
    }

    /// Number of keys inserted so far.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Whether no keys have been inserted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl FrontierTransport for LocalFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        if stride == 0 {
            return Err(TransportError::new("frontier stride must be nonzero"));
        }
        self.stride = stride;
        self.map.clear();
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        let stride = self.stride;
        if stride == 0 || words.len() != hashes.len() * stride {
            return Err(TransportError::new("malformed probe batch"));
        }
        Ok(hashes
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let row = &words[i * stride..(i + 1) * stride];
                self.map.get(h).and_then(|entries| {
                    entries.iter().find(|(_, w)| &**w == row).map(|&(j, _)| j)
                })
            })
            .collect())
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        let stride = self.stride;
        if stride == 0
            || indices.len() != hashes.len()
            || words.len() != hashes.len() * stride
        {
            return Err(TransportError::new("malformed insert batch"));
        }
        for (i, (&h, &j)) in hashes.iter().zip(indices).enumerate() {
            let row = &words[i * stride..(i + 1) * stride];
            self.map.entry(h).or_default().push((j, row.into()));
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.map.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_frontier_probe_insert_roundtrip() {
        let mut f = LocalFrontier::new();
        f.open(2).unwrap();
        // Nothing known yet.
        assert_eq!(f.probe_sorted(&[1, 2], &[0, 0, 0, 1]).unwrap(), vec![None, None]);
        f.insert_sorted(&[1, 2], &[10, 11], &[0, 0, 0, 1]).unwrap();
        assert_eq!(
            f.probe_sorted(&[1, 2, 3], &[0, 0, 0, 1, 9, 9]).unwrap(),
            vec![Some(10), Some(11), None]
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn local_frontier_distinguishes_hash_collisions_by_words() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        f.insert_sorted(&[7], &[0], &[100]).unwrap();
        // Same 64-bit hash, different words: a different key.
        assert_eq!(f.probe_sorted(&[7], &[200]).unwrap(), vec![None]);
        f.insert_sorted(&[7], &[1], &[200]).unwrap();
        assert_eq!(f.probe_sorted(&[7, 7], &[100, 200]).unwrap(), vec![Some(0), Some(1)]);
    }

    #[test]
    fn local_frontier_rejects_malformed_batches() {
        let mut f = LocalFrontier::new();
        assert!(f.open(0).is_err());
        f.open(2).unwrap();
        assert!(f.probe_sorted(&[1], &[0]).is_err());
        assert!(f.insert_sorted(&[1], &[0, 1], &[0, 0]).is_err());
    }

    #[test]
    fn open_resets_prior_state() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        f.insert_sorted(&[5], &[0], &[42]).unwrap();
        f.open(1).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.probe_sorted(&[5], &[42]).unwrap(), vec![None]);
    }
}
