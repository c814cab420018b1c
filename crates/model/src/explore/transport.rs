//! The **frontier-exchange seam**: a pluggable seen-set the engine's
//! level merge probes and extends in sorted batches.
//!
//! The engine's level merge ([`engine`](super::engine)) talks to its
//! dedup structure through exactly two bulk operations per BFS level:
//! sorted *probe* batches (which of these distinct candidate keys are
//! already interned, and at which arena index?) and one sorted *insert*
//! batch (these of the probed misses were just interned at these
//! indices). [`FrontierTransport`] names that contract as a trait,
//! which is all it takes to stretch the fingerprint-sharded seen-set
//! across machines: a coordinator keeps the arena and performs the
//! in-order merge — so interning order, and therefore every verdict,
//! count, and witness, is **bit-identical to a single-node run** —
//! while worker nodes own disjoint fingerprint ranges of the seen-set
//! and answer probe/insert batches for their range.
//!
//! The engine's own local seen-set, `ExternalDedup`, does not sit
//! behind the trait: it reads key words from the arena it dedups (see
//! [`super::spill`]), and the level merge calls it with the arena
//! directly. The tier changes where the seen-set lives, never the
//! order of the batches it sees.
//!
//! Implementations in this workspace:
//!
//! * [`LocalFrontier`] — the same store (`ExternalDedup`, resident)
//!   over a log of the rows it stores, behind a guard for untrusted
//!   callers: it checks every batch's shape and order before the store
//!   sees it, and stores a commit at the buffer positions its probes
//!   found, the way the engine's local tier does. Worker shards host
//!   one per session, and the equivalence property suites run the
//!   engine through it. The hash-map model it replaced is kept as a
//!   test oracle below.
//! * `randsync-svc`'s `DistributedFrontier` speaks the same contract
//!   over the JSONL wire protocol to N worker processes: a probe frame
//!   carries keys, a commit frame only indices.
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
//!   words; the hash only routes and orders). The keys it reports
//!   absent are **staged** for the next insert; staging accumulates
//!   over every probe since the previous insert.
//! * `insert_sorted(hashes, indices, words)` records keys (sorted the
//!   same way) under the caller-assigned arena indices. Its keys must
//!   be a subset of the staged misses — any subset, so a capped search
//!   may leave misses unstored — and the insert ends the staging. An
//!   insert of a key that was not staged is refused.
//! * `close()` ends the search and releases any session state.
//!
//! # Staging
//!
//! Inserts travel **by reference**, and [`StagedMisses`] keeps the
//! books on both ends of a wire. It holds the misses in staging order:
//! probe by probe, each probe's misses as one run in key order. An
//! insert batch becomes a **commit**: one index per staged miss, in
//! staging order, the batch's index for the first miss equal to one of
//! its keys and `u32::MAX` for a miss left unstored.
//! [`StagedMisses::name`] is the one walk that builds it, and it
//! refuses a key no probe staged and a `u32::MAX` index. A commit may
//! arrive in several parts that fill the staging in order; the part
//! that gives the last miss its index stores every miss that has one
//! and ends the staging. A commit that would store one key twice (two
//! probes staged it) is refused. So a key crosses a wire once, in its
//! probe, and a commit carries one `u32` per staged miss.
//!
//! Errors are surfaced, not panicked: the engine stops the search at
//! the level boundary and reports a truncated outcome with
//! [`TruncationReason::Transport`](super::TruncationReason::Transport).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::spill::{ExternalDedup, RowLog};

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
    /// far: `Some(index)` for known keys, `None` for novel ones, which
    /// are staged for the next insert.
    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError>;

    /// Record newly interned sorted keys, a subset of the staged
    /// misses, under their arena indices; this ends the staging.
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

/// The misses a seen-set's probes reported since its last insert, in
/// staging order: their hashes and words, and where each probe's run
/// of them ends. A run ascends by `(hash, words)`, as its probe batch
/// does. [`name`](Self::name) is the one walk that turns an insert
/// batch into the commit of the module docs' contract; `LocalFrontier`
/// and each `randsync-svc` `DistributedFrontier` shard hold one.
#[derive(Debug, Default)]
pub struct StagedMisses {
    stride: usize,
    hashes: Vec<u64>,
    words: Vec<u32>,
    /// The end of each probe's run of misses.
    runs: Vec<usize>,
}

impl StagedMisses {
    /// An empty staging of `stride`-word keys.
    pub fn new(stride: usize) -> Self {
        StagedMisses { stride, ..StagedMisses::default() }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The key of miss `s`.
    fn key(&self, s: usize) -> (u64, &[u32]) {
        (self.hashes[s], &self.words[s * self.stride..(s + 1) * self.stride])
    }

    /// Stage the misses (`found[k]` is `None`) of one sorted probe
    /// batch as one run. The buffers keep their capacity across
    /// inserts and grow exactly, so staging costs the widest level's
    /// misses once, not a doubling per level.
    pub fn stage(&mut self, hashes: &[u64], words: &[u32], found: &[Option<u32>]) {
        let misses = found.iter().filter(|f| f.is_none()).count();
        if misses == 0 {
            return;
        }
        self.hashes.reserve_exact(misses);
        self.words.reserve_exact(misses * self.stride);
        for k in (0..hashes.len()).filter(|&k| found[k].is_none()) {
            self.hashes.push(hashes[k]);
            self.words.extend_from_slice(&words[k * self.stride..(k + 1) * self.stride]);
        }
        self.runs.push(self.len());
    }

    /// End the staging.
    pub fn clear(&mut self) {
        self.hashes.clear();
        self.words.clear();
        self.runs.clear();
    }

    /// The commit that stores the key-sorted insert batch: one index
    /// per staged miss, in staging order, `indices[k]` for the first
    /// miss equal to key `k` and `u32::MAX` for a miss left unstored.
    ///
    /// # Errors
    ///
    /// Refuses a batch whose `indices` or `words` do not fit its
    /// `hashes`, one with a `u32::MAX` index, and one with a key no
    /// probe staged.
    pub fn name(
        &self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<Vec<u32>, TransportError> {
        let stride = self.stride;
        if indices.len() != hashes.len() || words.len() != hashes.len() * stride {
            return Err(TransportError::new("malformed insert batch"));
        }
        if let Some(k) = indices.iter().position(|&i| i == u32::MAX) {
            return Err(TransportError::new(format!(
                "insert batch key {k} has index u32::MAX, the reserved unstored marker"
            )));
        }
        let key = |k: usize| (hashes[k], &words[k * stride..(k + 1) * stride]);
        let mut given = vec![u32::MAX; self.len()];
        let mut named = vec![false; hashes.len()];
        let mut start = 0;
        for &end in &self.runs {
            // The run and the batch both ascend: one walk pairs them,
            // from the batch's first key at the run's first hash.
            let mut k = hashes.partition_point(|&h| h < self.hashes[start]);
            for (s, slot) in (start..end).zip(&mut given[start..end]) {
                while k < hashes.len() && key(k) < self.key(s) {
                    k += 1;
                }
                if k < hashes.len() && key(k) == self.key(s) && !named[k] {
                    named[k] = true;
                    *slot = indices[k];
                }
            }
            start = end;
        }
        match named.iter().position(|&n| !n) {
            Some(k) => Err(TransportError::new(format!(
                "insert batch key {k} is not a staged probe miss"
            ))),
            None => Ok(given),
        }
    }
}

/// The engine's resident seen-set behind the seam, for callers the
/// engine does not control: a worker shard answering wire frames, or a
/// test driving the seam by hand.
///
/// The engine's seen-set reads key words from its arena; this store
/// has no arena, so it keeps the rows it stores in an append-only
/// `RowLog` (words plus the caller's index per row) and its
/// `ExternalDedup` buffer holds `(hash, log slot)` pairs: 16 + 4 ×
/// stride bytes per key in all.
///
/// Beside its [`StagedMisses`], it keeps the buffer position each
/// probe found for each miss. [`commit`](Self::commit) stores the
/// staged misses by reference at those positions, which stay valid
/// because the buffer changes only at a commit. No key is sent,
/// decoded or located twice.
///
/// The seen-set trusts its batches to be sorted, distinct and disjoint
/// from what it holds. This wrapper checks that first and answers a
/// batch that is not with a [`TransportError`], leaving the store
/// untouched: every batch must be strictly ascending by
/// `(hash, words)`, an insert may carry only staged misses, and a
/// commit may not store one key twice.
#[derive(Default)]
pub struct LocalFrontier {
    /// `None` until [`open`](FrontierTransport::open) and after
    /// [`close`](FrontierTransport::close).
    store: Option<Store>,
}

/// An open [`LocalFrontier`]: the seen-set, the rows it reads, and the
/// misses staged for the next commit with the buffer position its
/// probe found for each and the indices the commits so far gave the
/// first of them.
struct Store {
    seen: ExternalDedup,
    rows: RowLog,
    staged: StagedMisses,
    at: Vec<usize>,
    indices: Vec<u32>,
}

impl LocalFrontier {
    /// An empty frontier store.
    pub fn new() -> Self {
        LocalFrontier::default()
    }

    /// Number of keys inserted so far.
    pub fn len(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.seen.len())
    }

    /// Whether no keys have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The open store, or the refusal of a `what` on a closed one.
    fn open_store(&mut self, what: &str) -> Result<&mut Store, TransportError> {
        self.store
            .as_mut()
            .ok_or_else(|| TransportError::new(format!("{what} on a frontier that is not open")))
    }

    /// The open store, after checking that `hashes`/`words` is a
    /// well-formed batch for it: whole rows, strictly ascending by
    /// `(hash, words)`.
    fn checked(
        &mut self,
        what: &str,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<&mut Store, TransportError> {
        let store = self.open_store(&format!("{what} batch"))?;
        let stride = store.seen.stride();
        if words.len() != hashes.len() * stride {
            return Err(TransportError::new(format!("malformed {what} batch")));
        }
        let key = |k: usize| (hashes[k], &words[k * stride..(k + 1) * stride]);
        if let Some(k) = (1..hashes.len()).find(|&k| key(k - 1) >= key(k)) {
            return Err(TransportError::new(format!(
                "{what} batch is not strictly ascending by (hash, words) at key {k}"
            )));
        }
        Ok(store)
    }

    /// Give the next staged misses their arena indices, in staging
    /// order; `u32::MAX` leaves a miss unstored (a capped search). The
    /// call that gives the last staged miss its index stores every
    /// staged miss that has one, at the position its probe found, and
    /// ends the staging.
    ///
    /// # Errors
    ///
    /// Refuses, with the store untouched, a commit when nothing is
    /// staged, one whose `indices` outnumber the misses still without
    /// one, and one that would store two misses of one key.
    pub fn commit(&mut self, indices: &[u32]) -> Result<(), TransportError> {
        let store = self.open_store("commit")?;
        let waiting = store.staged.len() - store.indices.len();
        if waiting == 0 {
            return Err(TransportError::new("commit with no probed misses staged"));
        }
        if indices.len() > waiting {
            return Err(TransportError::new(format!(
                "commit of {} indices for {waiting} staged misses",
                indices.len()
            )));
        }
        if indices.len() < waiting {
            store.indices.extend_from_slice(indices);
            return Ok(());
        }
        let Store { seen, rows, staged, at, indices: partial } = &mut *store;
        let given = [&partial[..], indices].concat();
        // Position then key is key order, as every position comes from
        // one unchanged buffer; each probe's run already ascends, so
        // the stable sort only merges runs.
        let mut stored: Vec<usize> = (0..staged.len()).filter(|&s| given[s] != u32::MAX).collect();
        stored.sort_by(|&a, &b| (at[a], staged.key(a)).cmp(&(at[b], staged.key(b))));
        if let Some(w) = stored.windows(2).find(|w| staged.key(w[0]) == staged.key(w[1])) {
            return Err(TransportError::new(format!(
                "commit stores one key for staged misses {} and {}",
                w[0], w[1]
            )));
        }
        let first = rows.len();
        let slots = u32::try_from(first + stored.len())
            .map(|end| first as u32..end)
            .map_err(|_| TransportError::new("commit overflows the frontier's u32 slots"))?;
        let mut words = Vec::with_capacity(stored.len() * seen.stride());
        stored.iter().for_each(|&s| words.extend_from_slice(staged.key(s).1));
        rows.append(&stored.iter().map(|&s| given[s]).collect::<Vec<u32>>(), &words);
        let (positions, hashes): (Vec<usize>, Vec<u64>) =
            stored.iter().map(|&s| (at[s], staged.key(s).0)).unzip();
        seen.insert_at(rows, &positions, &hashes, &slots.collect::<Vec<u32>>());
        staged.clear();
        at.clear();
        partial.clear();
        Ok(())
    }
}

impl std::fmt::Debug for LocalFrontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalFrontier")
            .field("stride", &self.store.as_ref().map(|s| s.seen.stride()))
            .field("len", &self.len())
            .finish()
    }
}

impl FrontierTransport for LocalFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        if stride == 0 {
            return Err(TransportError::new("frontier stride must be nonzero"));
        }
        self.store = Some(Store {
            seen: ExternalDedup::in_ram(stride),
            rows: RowLog::new(stride),
            staged: StagedMisses::new(stride),
            at: Vec::new(),
            indices: Vec::new(),
        });
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        let Store { seen, rows, staged, at, .. } = self.checked("probe", hashes, words)?;
        let (found, positions) = seen.probe_sorted(rows, hashes, words);
        let before = staged.len();
        staged.stage(hashes, words, &found);
        at.reserve_exact(staged.len() - before);
        at.extend(positions.iter().zip(&found).filter(|(_, f)| f.is_none()).map(|(&p, _)| p));
        Ok(found)
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        let store = self.checked("insert", hashes, words)?;
        if !store.indices.is_empty() {
            return Err(TransportError::new("insert batch during a partial commit"));
        }
        let given = store.staged.name(hashes, indices, words)?;
        if given.is_empty() {
            return Ok(());
        }
        self.commit(&given)
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.store = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::super::pack::{PackedArena, WordStore};
    use super::super::spill::{BudgetPlan, SpillDir, SpillStore};
    use super::*;

    /// The `(index, words)` entries inserted under one fingerprint.
    type Bucket = Vec<(u32, Box<[u32]>)>;

    /// The hash-map seen-set `LocalFrontier` used to be, kept as an
    /// independent model of the seam: fingerprint → its bucket,
    /// compared on full words.
    #[derive(Default)]
    struct HashFrontier {
        stride: usize,
        map: HashMap<u64, Bucket>,
    }

    impl HashFrontier {
        fn probe(&self, hashes: &[u64], words: &[u32]) -> Vec<Option<u32>> {
            let stride = self.stride;
            hashes
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let row = &words[i * stride..(i + 1) * stride];
                    self.map.get(h).and_then(|entries| {
                        entries.iter().find(|(_, w)| &**w == row).map(|&(j, _)| j)
                    })
                })
                .collect()
        }

        fn insert(&mut self, hashes: &[u64], indices: &[u32], words: &[u32]) {
            let stride = self.stride;
            for (i, (&h, &j)) in hashes.iter().zip(indices).enumerate() {
                let row = &words[i * stride..(i + 1) * stride];
                self.map.entry(h).or_default().push((j, row.into()));
            }
        }
    }

    /// Key `v` of a 48-key universe: runs of three keys share a hash,
    /// so equal-hash keys must be told apart by their words.
    fn key(v: u32) -> (u64, [u32; 2]) {
        (u64::from(v / 3).wrapping_mul(0x9E37_79B9_7F4A_7C15), [v % 5, v])
    }

    /// The keys picked by the low 48 bits of `mask`, sorted by
    /// `(hash, words)`, as a batch.
    fn batch(mask: u64, keep: impl Fn(u32) -> bool) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
        let mut keys: Vec<(u64, [u32; 2], u32)> = (0..48u32)
            .filter(|&v| mask >> v & 1 == 1 && keep(v))
            .map(|v| {
                let (h, w) = key(v);
                (h, w, v)
            })
            .collect();
        keys.sort_unstable();
        (
            keys.iter().map(|k| k.0).collect(),
            keys.iter().map(|k| k.2 * 7 + 1).collect(),
            keys.iter().flat_map(|k| k.1).collect(),
        )
    }

    /// An arena whose row `v` is key `v`'s words (slot = index = `v`):
    /// file-backed under `plan` when given one, resident otherwise.
    fn key_arena(plan: Option<&BudgetPlan>) -> PackedArena<u8> {
        let mut arena = match plan {
            Some(plan) => {
                let store = SpillStore::new(2, plan, SpillDir::create(None));
                PackedArena::with_store(1, 1, WordStore::Spill(store))
            }
            None => PackedArena::new(1, 1),
        };
        for v in 0..48u32 {
            arena.push(&key(v).1);
        }
        arena
    }

    proptest::proptest! {
        /// Random schedules of sorted probe and insert batches give the
        /// same answers from the seen-set over the engine's arena and
        /// over a row log, each resident and spilling, from the guarded
        /// `LocalFrontier`, and from the hash-map model. The guarded
        /// store inserts any subset of the misses its probes since the
        /// last insert staged — one probe or several, overlapping or
        /// not — and refuses an insert of a key none of them staged,
        /// storing nothing.
        #[test]
        fn sorted_store_matches_the_hash_map_model(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..32),
        ) {
            let tiny = BudgetPlan { segment_bytes: 48, window_segments: 2, dedup_ram_bytes: 64 };
            let spilling = || ExternalDedup::new(2, &tiny, SpillDir::create(None));
            // Arena rows answer their slot, key `v`; the batch index of
            // key `v` is `7v + 1`.
            let mut on_arena = [
                (ExternalDedup::in_ram(2), key_arena(None)),
                (spilling(), key_arena(Some(&tiny))),
            ];
            let mut on_log =
                [(ExternalDedup::in_ram(2), RowLog::new(2)), (spilling(), RowLog::new(2))];
            let mut guarded = LocalFrontier::new();
            guarded.open(2).unwrap();
            let mut model = HashFrontier { stride: 2, ..HashFrontier::default() };
            let mut inserted = [false; 48];
            // The misses the guarded store's probes staged since its
            // last insert.
            let mut staged = [false; 48];
            for op in ops {
                let mask = op >> 16;
                let key_of = |i: &u32| (i - 1) / 7;
                if op & 3 == 1 || op & 3 == 2 {
                    // Inserts are disjoint from what is stored: a subset
                    // of the staged misses, or (2) keys picked whether or
                    // not a probe staged them.
                    let unprobed = op & 3 == 2;
                    let (h, idx, w) =
                        batch(mask, |v| !inserted[v as usize] && (unprobed || staged[v as usize]));
                    let keys: Vec<u32> = idx.iter().map(key_of).collect();
                    if keys.iter().any(|&v| !staged[v as usize]) {
                        let len = guarded.len();
                        proptest::prop_assert!(guarded.insert_sorted(&h, &idx, &w).is_err());
                        proptest::prop_assert_eq!(guarded.len(), len);
                        continue;
                    }
                    for &v in &keys {
                        inserted[v as usize] = true;
                    }
                    // Each store is probed first and takes the batch at
                    // the positions its probe found, as the level merge
                    // does.
                    for (seen, arena) in &mut on_arena {
                        let (found, at) = seen.probe_sorted(arena, &h, &w);
                        proptest::prop_assert!(found.iter().all(Option::is_none));
                        seen.insert_at(arena, &at, &h, &keys);
                    }
                    for (seen, log) in &mut on_log {
                        let (found, at) = seen.probe_sorted(log, &h, &w);
                        proptest::prop_assert!(found.iter().all(Option::is_none));
                        let first = log.len() as u32;
                        log.append(&idx, &w);
                        seen.insert_at(log, &at, &h, &(first..log.len() as u32).collect::<Vec<_>>());
                    }
                    guarded.insert_sorted(&h, &idx, &w).unwrap();
                    staged = [false; 48];
                    model.insert(&h, &idx, &w);
                } else {
                    let (h, idx, w) = batch(mask, |_| true);
                    let want = model.probe(&h, &w);
                    for (seen, arena) in &mut on_arena {
                        let (got, _) = seen.probe_sorted(arena, &h, &w);
                        let got: Vec<Option<u32>> =
                            got.into_iter().map(|v| v.map(|v| 7 * v + 1)).collect();
                        proptest::prop_assert_eq!(got, want.clone());
                    }
                    for (seen, log) in &mut on_log {
                        proptest::prop_assert_eq!(seen.probe_sorted(log, &h, &w).0, want.clone());
                    }
                    proptest::prop_assert_eq!(guarded.probe_sorted(&h, &w).unwrap(), want.clone());
                    for (i, found) in idx.iter().zip(&want) {
                        staged[key_of(i) as usize] |= found.is_none();
                    }
                }
            }
            let stored = inserted.iter().filter(|&&b| b).count();
            for len in on_arena.iter().map(|s| s.0.len()).chain(on_log.iter().map(|s| s.0.len())) {
                proptest::prop_assert_eq!(len, stored);
            }
            proptest::prop_assert_eq!(guarded.len(), stored);
        }
    }

    #[test]
    fn unsorted_duplicated_and_repeated_batches_are_refused_untouched() {
        let mut f = LocalFrontier::new();
        assert!(f.probe_sorted(&[], &[]).is_err(), "not open yet");
        f.open(1).unwrap();
        // Descending hashes, equal hashes with descending words, and a
        // key given twice.
        for (h, w) in [(vec![2, 1], vec![0, 0]), (vec![5, 5], vec![9, 3]), (vec![4, 4], vec![6, 6])] {
            assert!(f.probe_sorted(&h, &w).is_err(), "probe {h:?} {w:?}");
            assert!(f.insert_sorted(&h, &[0, 1], &w).is_err(), "insert {h:?} {w:?}");
        }
        assert!(f.is_empty(), "a refused batch stores nothing");
        // An insert of keys no probe staged is refused.
        assert!(f.insert_sorted(&[1, 2], &[0, 1], &[7, 7]).is_err(), "unprobed");
        assert!(f.is_empty(), "a refused insert stores nothing");
        assert_eq!(f.probe_sorted(&[1, 2], &[7, 7]).unwrap(), vec![None, None]);
        f.insert_sorted(&[1, 2], &[0, 1], &[7, 7]).unwrap();
        // Re-inserting a stored key (a replayed frame) is refused too.
        assert_eq!(f.probe_sorted(&[2, 3], &[7, 7]).unwrap(), vec![Some(1), None]);
        assert!(f.insert_sorted(&[2, 3], &[5, 6], &[7, 7]).is_err());
        assert_eq!(f.len(), 2);
        assert_eq!(f.probe_sorted(&[1, 2, 3], &[7, 7, 7]).unwrap(), vec![Some(0), Some(1), None]);
        f.close().unwrap();
        assert!(f.probe_sorted(&[1], &[7]).is_err(), "closed");
    }

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
        assert_eq!(f.probe_sorted(&[7], &[100]).unwrap(), vec![None]);
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
        assert_eq!(f.probe_sorted(&[1], &[0, 0]).unwrap(), vec![None]);
        assert!(f.insert_sorted(&[1], &[0, 1], &[0, 0]).is_err());
        assert!(f.insert_sorted(&[1], &[u32::MAX], &[0, 0]).is_err(), "the unstored marker");
    }

    #[test]
    fn open_resets_prior_state() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        assert_eq!(f.probe_sorted(&[5], &[42]).unwrap(), vec![None]);
        f.insert_sorted(&[5], &[0], &[42]).unwrap();
        f.open(1).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.probe_sorted(&[5], &[42]).unwrap(), vec![None]);
    }

    #[test]
    fn a_commit_stores_two_probe_rounds_at_their_positions() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        assert_eq!(f.probe_sorted(&[2, 4, 6], &[0, 0, 0]).unwrap(), vec![None; 3]);
        f.commit(&[20, 40, 60]).unwrap();
        // Two rounds whose misses interleave, each ascending: the
        // commit names them in staging order and stores them in key
        // order, one unstored.
        assert_eq!(f.probe_sorted(&[3, 4, 7], &[0, 0, 0]).unwrap(), vec![None, Some(40), None]);
        assert_eq!(f.probe_sorted(&[1, 5], &[0, 0]).unwrap(), vec![None, None]);
        assert!(f.commit(&[30, 70, 10, 50, 0]).is_err(), "one index too many");
        f.commit(&[30, u32::MAX]).unwrap();
        f.commit(&[10, 50]).unwrap();
        let all: Vec<u64> = (1..=7).collect();
        let want = [Some(10), Some(20), Some(30), Some(40), Some(50), Some(60), None];
        assert_eq!(f.probe_sorted(&all, &[0; 7]).unwrap(), want);
        assert_eq!(f.len(), 6);
    }
}
