//! Storage for the exploration engine: file-backed arena segments and
//! the sorted-batch seen-set every search dedups against.
//!
//! When [`ExploreConfig::mem_budget_bytes`](super::ExploreConfig::mem_budget_bytes)
//! is nonzero both structures in this module spill to disk:
//!
//! * [`SpillStore`] backs the packed arena's word buffer. Words are
//!   appended to a RAM *tail segment*; when the tail fills, it is
//!   sealed to a segment file and a fresh tail starts. Reads go through
//!   a small resident window of recently-loaded segments, so resident
//!   arena memory is bounded by `(window + 1) × segment_bytes` no
//!   matter how many configurations are interned. Segment size is a
//!   multiple of the row stride, so a packed row never straddles two
//!   segments.
//! * [`ExternalDedup`] is the local seen-set on every tier: the
//!   engine's, and a [`LocalFrontier`](super::LocalFrontier)'s. Its
//!   sorted RAM buffer holds one `(hash, slot)` pair per key, 12 bytes;
//!   the key's words stay in a [`RowSource`] — the engine's packed
//!   arena (slot = arena index) or a [`RowLog`] — and are read only
//!   when two hashes tie, so dedup decisions still compare full
//!   configurations (a fingerprint-only store could merge two
//!   hash-colliding configurations and silently diverge), and the
//!   engine holds one copy of each row. Without a budget the buffer is
//!   unbounded and nothing touches disk; under a budget, when the
//!   buffer's keys would fill its share as a run, it is flushed as a
//!   sorted *run* file of `(hash, index, words)` entries, the words
//!   read from the row source (the buffered keys are exactly those
//!   interned since the last flush, so their rows are the arena's most
//!   recent). Each BFS level probes one sorted batch of candidate keys
//!   against the buffer and every run with two-pointer merges —
//!   strictly sequential run I/O — and runs are compacted by k-way
//!   merge when they accumulate.
//!
//! All files live in one [`SpillDir`] per search, deleted on drop.
//!
//! I/O failures (disk full, permission) panic with context: a search
//! that has lost its backing store cannot produce a sound verdict, and
//! the engine has no error channel mid-level. The checkpoint writer, by
//! contrast, reports errors — see [`super::checkpoint`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lower bound on the spill segment size (bytes of packed words).
/// Small enough that even toy budgets genuinely spill (tests rely on
/// this); real budgets land in the hundreds-of-KiB range via the
/// budget/16 rule below.
const MIN_SEGMENT_BYTES: usize = 1024;
/// Upper bound on the spill segment size.
const MAX_SEGMENT_BYTES: usize = 1024 * 1024;
/// Compact dedup runs by k-way merge once this many accumulate.
const MAX_DEDUP_RUNS: usize = 8;
/// Read buffer of one sorted-run reader.
const RUN_READ_BUF: usize = 64 * 1024;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory owned by one search; removed on drop.
///
/// Created under the user-supplied parent (or [`std::env::temp_dir`])
/// with a `pid`-and-sequence unique name, so concurrent searches never
/// collide and a crash leaves at most an orphaned temp directory.
pub(super) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    pub(super) fn create(parent: Option<PathBuf>) -> Arc<SpillDir> {
        let parent = parent.unwrap_or_else(std::env::temp_dir);
        let seq = DIR_SEQ.fetch_add(1, AtomicOrdering::Relaxed);
        let path = parent.join(format!(
            "randsync-spill-{}-{seq}",
            std::process::id()
        ));
        fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create spill dir {}: {e}", path.display()));
        Arc::new(SpillDir { path })
    }

    fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// How a memory budget is split between the spill structures.
///
/// The budget bounds the *steady-state resident* set: the arena's
/// resident window plus the dedup RAM buffer. The per-level working set
/// (phase-1 candidate deltas and the level merge buffers) is additional
/// and proportional to the widest BFS level, as it always was for the
/// in-RAM engine.
#[derive(Clone, Copy, Debug)]
pub(super) struct BudgetPlan {
    /// Bytes per arena segment (rounded to a stride multiple).
    pub(super) segment_bytes: usize,
    /// Sealed segments kept resident for reads.
    pub(super) window_segments: usize,
    /// Cap on the dedup RAM buffer, in bytes.
    pub(super) dedup_ram_bytes: usize,
}

impl BudgetPlan {
    pub(super) fn for_budget(budget: usize, stride: usize) -> BudgetPlan {
        let row = stride.max(1) * 4;
        let seg = (budget / 16).clamp(MIN_SEGMENT_BYTES, MAX_SEGMENT_BYTES);
        // Round up to a whole number of rows so rows never straddle.
        let segment_bytes = seg.div_ceil(row) * row;
        let window_segments = ((budget / 2) / segment_bytes).max(2);
        let dedup_ram_bytes = (budget / 4).max(MIN_SEGMENT_BYTES);
        debug_assert!(dedup_ram_bytes >= entry_bytes(stride));
        BudgetPlan { segment_bytes, window_segments, dedup_ram_bytes }
    }
}

/// FIFO window of resident sealed segments.
struct SegWindow {
    resident: HashMap<u64, Arc<Vec<u32>>>,
    order: std::collections::VecDeque<u64>,
}

/// Segmented, file-backed append-only `u32` buffer.
pub(super) struct SpillStore {
    dir: Arc<SpillDir>,
    /// Words per segment (a multiple of the row stride).
    segment_words: usize,
    /// Resident window capacity, in sealed segments.
    window_cap: usize,
    /// The unsealed tail segment, always resident.
    tail: Vec<u32>,
    /// Number of sealed (on-disk) segments.
    sealed: u64,
    /// Total words ever appended.
    total_words: usize,
    /// Bytes written to segment files.
    spilled_bytes: u64,
    window: Mutex<SegWindow>,
}

impl SpillStore {
    pub(super) fn new(stride: usize, plan: &BudgetPlan, dir: Arc<SpillDir>) -> SpillStore {
        let segment_words = (plan.segment_bytes / 4).max(stride.max(1));
        SpillStore {
            dir,
            segment_words,
            window_cap: plan.window_segments,
            tail: Vec::with_capacity(segment_words),
            sealed: 0,
            total_words: 0,
            spilled_bytes: 0,
            window: Mutex::new(SegWindow {
                resident: HashMap::new(),
                order: std::collections::VecDeque::new(),
            }),
        }
    }

    pub(super) fn len_words(&self) -> usize {
        self.total_words
    }

    pub(super) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Resident bytes right now: the tail plus the loaded window.
    pub(super) fn resident_bytes(&self) -> usize {
        let win = self.lock_window();
        (self.tail.capacity() + win.resident.len() * self.segment_words) * 4
    }

    fn lock_window(&self) -> MutexGuard<'_, SegWindow> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn seg_path(&self, seg: u64) -> PathBuf {
        self.dir.file(&format!("arena-{seg}.seg"))
    }

    /// Append `words` (one packed row; the caller guarantees the row
    /// length divides the segment size).
    pub(super) fn push_words(&mut self, words: &[u32]) {
        debug_assert!(self.segment_words.is_multiple_of(words.len().max(1)));
        self.tail.extend_from_slice(words);
        self.total_words += words.len();
        if self.tail.len() >= self.segment_words {
            self.seal_tail();
        }
    }

    fn seal_tail(&mut self) {
        let path = self.seg_path(self.sealed);
        let file = File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create spill segment {}: {e}", path.display()));
        let mut w = BufWriter::new(file);
        for &word in &self.tail {
            w.write_all(&word.to_le_bytes())
                .unwrap_or_else(|e| panic!("spill segment write failed: {e}"));
        }
        w.flush().unwrap_or_else(|e| panic!("spill segment flush failed: {e}"));
        self.spilled_bytes += (self.tail.len() * 4) as u64;
        // Freshly sealed segments are the likeliest to be re-read (the
        // next level decodes the frontier just interned): seed the
        // window with the sealed words instead of forcing a reload.
        let words = std::mem::replace(&mut self.tail, Vec::with_capacity(self.segment_words));
        let seg = self.sealed;
        self.sealed += 1;
        let mut win = self.lock_window();
        Self::admit(&mut win, self.window_cap, seg, Arc::new(words));
    }

    fn admit(win: &mut SegWindow, cap: usize, seg: u64, words: Arc<Vec<u32>>) {
        if win.resident.insert(seg, words).is_none() {
            win.order.push_back(seg);
            while win.order.len() > cap {
                if let Some(old) = win.order.pop_front() {
                    win.resident.remove(&old);
                }
            }
        }
    }

    fn load(&self, seg: u64) -> Arc<Vec<u32>> {
        if let Some(words) = self.lock_window().resident.get(&seg) {
            return Arc::clone(words);
        }
        let path = self.seg_path(seg);
        let mut file = File::open(&path)
            .unwrap_or_else(|e| panic!("cannot reopen spill segment {}: {e}", path.display()));
        let mut bytes = vec![0u8; self.segment_words * 4];
        file.read_exact(&mut bytes).unwrap_or_else(|e| panic!("spill segment read failed: {e}"));
        let words = Arc::new(bytes.chunks_exact(4).map(le_word).collect::<Vec<u32>>());
        let mut win = self.lock_window();
        Self::admit(&mut win, self.window_cap, seg, Arc::clone(&words));
        words
    }

    /// Append the `len` words at word offset `at` to `out`, one segment
    /// at a time.
    pub(super) fn copy_words(&self, mut at: usize, len: usize, out: &mut Vec<u32>) {
        let end = at + len;
        while at < end {
            let run = (self.segment_words - at % self.segment_words).min(end - at);
            self.with_words(at, run, |w| out.extend_from_slice(w));
            at += run;
        }
    }

    /// Run `f` over the `len` words at word offset `at`. The range never
    /// straddles segments (rows are stride-aligned within segments).
    pub(super) fn with_words<R>(&self, at: usize, len: usize, f: impl FnOnce(&[u32]) -> R) -> R {
        let seg = (at / self.segment_words) as u64;
        let off = at % self.segment_words;
        if seg == self.sealed {
            return f(&self.tail[off..off + len]);
        }
        let words = self.load(seg);
        f(&words[off..off + len])
    }
}

/// Where a seen-set's keys keep their words.
///
/// The seen-set stores one `(hash, slot)` pair per key and reads the
/// words of slot `slot` from its row source only when two hashes tie.
/// The engine's [`PackedArena`](super::pack::PackedArena) is the row
/// source of the local tiers (slot = arena index); a [`RowLog`] is the
/// row source of a [`LocalFrontier`](super::LocalFrontier).
pub(super) trait RowSource {
    /// Run `f` over the words of row `slot`.
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&[u32]) -> R) -> R;

    /// Append the words of rows `slots`, in order, to `out`.
    fn copy_rows(&self, slots: Range<u32>, out: &mut Vec<u32>);

    /// The index a probe answers for the key in row `slot`.
    fn index_of(&self, slot: u32) -> u32;
}

/// An append-only log of rows, each with the caller's index for it:
/// the row source of a seen-set whose keys are not rows of an arena.
pub(super) struct RowLog {
    stride: usize,
    words: Vec<u32>,
    indices: Vec<u32>,
}

impl RowLog {
    pub(super) fn new(stride: usize) -> RowLog {
        RowLog { stride, words: Vec::new(), indices: Vec::new() }
    }

    /// Number of rows logged.
    pub(super) fn len(&self) -> usize {
        self.indices.len()
    }

    /// Append one row per index (`words.len() == indices.len() ×
    /// stride`).
    pub(super) fn append(&mut self, indices: &[u32], words: &[u32]) {
        debug_assert_eq!(words.len(), indices.len() * self.stride);
        self.indices.extend_from_slice(indices);
        self.words.extend_from_slice(words);
    }
}

impl RowSource for RowLog {
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&[u32]) -> R) -> R {
        let at = slot as usize * self.stride;
        f(&self.words[at..at + self.stride])
    }

    fn copy_rows(&self, slots: Range<u32>, out: &mut Vec<u32>) {
        let (lo, hi) = (slots.start as usize, slots.end as usize);
        out.extend_from_slice(&self.words[lo * self.stride..hi * self.stride]);
    }

    fn index_of(&self, slot: u32) -> u32 {
        self.indices[slot as usize]
    }
}

/// One sealed sorted run of dedup entries on disk.
struct DedupRun {
    path: PathBuf,
    entries: usize,
}

/// Exact seen-set over a [`RowSource`]: a sorted RAM buffer of
/// `(hash, slot)` pairs, plus sorted run files when it has a spill
/// directory.
///
/// Keys order lexicographically on `(hash, words)`. The buffer holds
/// 12 bytes per key; a key's words stay in its row source and are read
/// only to settle a hash tie. Every key is inserted exactly once (only
/// newly-interned configurations are inserted), so an entry lives in
/// exactly one place — the RAM buffer or one run. A run entry is
/// `(hash, index, words)`, so run probes and compaction never touch the
/// row source.
pub(super) struct ExternalDedup {
    stride: usize,
    /// Where runs go; `None` keeps every entry in the RAM buffer.
    dir: Option<Arc<SpillDir>>,
    ram_cap_bytes: usize,
    /// Sorted parallel arrays: entry `k` is the key with hash
    /// `hashes[k]` whose words are row `slots[k]` of the row source.
    hashes: Vec<u64>,
    slots: Vec<u32>,
    runs: Vec<DedupRun>,
    run_seq: u64,
    spilled_bytes: u64,
    merge_passes: u64,
}

/// Bytes one entry costs in a run. The buffer is flushed when its
/// entries would fill the budget share as a run, so the flush cadence
/// (and every run file) does not depend on how the buffer stores them.
fn entry_bytes(stride: usize) -> usize {
    8 + 4 + stride * 4
}

fn key_cmp(ha: u64, wa: &[u32], hb: u64, wb: &[u32]) -> Ordering {
    ha.cmp(&hb).then_with(|| wa.cmp(wb))
}

/// The little-endian `u32` in a 4-byte chunk.
fn le_word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

impl ExternalDedup {
    /// A seen-set that flushes its buffer to runs in `dir` once it
    /// outgrows the plan's dedup share.
    pub(super) fn new(stride: usize, plan: &BudgetPlan, dir: Arc<SpillDir>) -> ExternalDedup {
        ExternalDedup { dir: Some(dir), ram_cap_bytes: plan.dedup_ram_bytes, ..Self::in_ram(stride) }
    }

    /// A seen-set that never spills: one unbounded sorted RAM buffer.
    pub(super) fn in_ram(stride: usize) -> ExternalDedup {
        ExternalDedup {
            stride,
            dir: None,
            ram_cap_bytes: usize::MAX,
            hashes: Vec::new(),
            slots: Vec::new(),
            runs: Vec::new(),
            run_seq: 0,
            spilled_bytes: 0,
            merge_passes: 0,
        }
    }

    /// Row width of every key, in `u32` words.
    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    /// Number of keys stored, in RAM and in runs.
    pub(super) fn len(&self) -> usize {
        self.hashes.len() + self.runs.iter().map(|r| r.entries).sum::<usize>()
    }

    /// Whether this seen-set can flush runs to disk.
    pub(super) fn spills(&self) -> bool {
        self.dir.is_some()
    }

    pub(super) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Sequential scans performed over on-disk sorted runs (probe scans
    /// plus compaction reads) — the "how much merging did the level
    /// barrier do" number reported as `dedup_merge_passes`.
    pub(super) fn merge_passes(&self) -> u64 {
        self.merge_passes
    }

    /// Bytes of the keys the RAM buffer holds: 12 per key (hash and
    /// slot), by length.
    pub(super) fn resident_bytes(&self) -> usize {
        self.hashes.len() * 8 + self.slots.len() * 4
    }

    /// How buffered entry `k` orders against the key with hash `h`,
    /// given the comparison of a stored row with the key's words.
    fn entry_cmp<R: RowSource>(
        &self,
        rows: &R,
        k: usize,
        h: u64,
        row_vs_key: &impl Fn(&[u32]) -> Ordering,
    ) -> Ordering {
        self.hashes[k].cmp(&h).then_with(|| rows.with_row(self.slots[k], row_vs_key))
    }

    /// The first buffered entry in `lo..hi` that does not sort before
    /// the key (or `hi`), by binary search.
    fn lower_bound<R: RowSource>(
        &self,
        rows: &R,
        (mut lo, mut hi): (usize, usize),
        h: u64,
        row_vs_key: &impl Fn(&[u32]) -> Ordering,
    ) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entry_cmp(rows, mid, h, row_vs_key) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// [`lower_bound`](Self::lower_bound) over `from..`, galloping: the
    /// bracket doubles from `from` until it passes the key, so a sparse
    /// batch skips long stretches of the buffer in logarithmic time.
    fn gallop<R: RowSource>(
        &self,
        rows: &R,
        from: usize,
        h: u64,
        row_vs_key: &impl Fn(&[u32]) -> Ordering,
    ) -> usize {
        let len = self.hashes.len();
        let (mut lo, mut step) = (from, 1);
        loop {
            let probe = lo + step - 1;
            if probe >= len {
                return self.lower_bound(rows, (lo, len), h, row_vs_key);
            }
            if self.entry_cmp(rows, probe, h, row_vs_key) != Ordering::Less {
                return self.lower_bound(rows, (lo, probe), h, row_vs_key);
            }
            lo = probe + 1;
            step *= 2;
        }
    }

    /// Find every key of a sorted batch in the RAM buffer with one
    /// galloping pass: each key's search starts where the last one
    /// ended. `row_vs_key(k, row)` compares a stored row with key `k`'s
    /// words. `visit(k, at)` receives `Ok(position)` when key `k` is
    /// buffered there, or `Err(position)` where it would be inserted.
    fn locate<R: RowSource>(
        &self,
        rows: &R,
        hashes: &[u64],
        row_vs_key: impl Fn(usize, &[u32]) -> Ordering,
        mut visit: impl FnMut(usize, Result<usize, usize>),
    ) {
        let mut at = 0usize;
        for (k, &h) in hashes.iter().enumerate() {
            let cmp = |row: &[u32]| row_vs_key(k, row);
            at = self.gallop(rows, at, h, &cmp);
            let hit = at < self.hashes.len() && self.entry_cmp(rows, at, h, &cmp).is_eq();
            visit(k, if hit { Ok(at) } else { Err(at) });
        }
    }

    /// Resolve a sorted batch of candidate keys against the seen-set.
    ///
    /// `keys_h[k]` / `keys_w[k*stride..]` hold key `k`; keys are unique
    /// and ascending by `(hash, words)`. Returns, per key, the index
    /// the row source gives the matching stored key, if one exists. One
    /// galloping pass over the RAM buffer plus one sequential scan per
    /// run — no random I/O.
    pub(super) fn probe_sorted<R: RowSource>(
        &mut self,
        rows: &R,
        keys_h: &[u64],
        keys_w: &[u32],
    ) -> Vec<Option<u32>> {
        let stride = self.stride;
        let key = |k: usize| &keys_w[k * stride..(k + 1) * stride];
        let mut out = vec![None; keys_h.len()];
        self.locate(rows, keys_h, |k, row| row.cmp(key(k)), |k, at| {
            if let Ok(p) = at {
                out[k] = Some(rows.index_of(self.slots[p]));
            }
        });
        self.probe_runs(keys_h, keys_w, &mut out);
        out
    }

    /// Resolve a sorted batch against every run with one sequential
    /// scan per run, filling in the index of each key a run holds.
    fn probe_runs(&mut self, keys_h: &[u64], keys_w: &[u32], out: &mut [Option<u32>]) {
        let stride = self.stride;
        let n = keys_h.len();
        let key = |k: usize| &keys_w[k * stride..(k + 1) * stride];
        self.merge_passes += self.runs.len() as u64;
        for r in 0..self.runs.len() {
            let (path, entries) = (self.runs[r].path.clone(), self.runs[r].entries);
            let mut reader = RunReader::open(&path, entries, stride);
            let mut ki = 0usize;
            while let Some((h, idx)) = reader.next() {
                let w = reader.words();
                while ki < n && key_cmp(keys_h[ki], key(ki), h, w) == Ordering::Less {
                    ki += 1;
                }
                if ki == n {
                    break;
                }
                if key_cmp(keys_h[ki], key(ki), h, w) == Ordering::Equal {
                    out[ki] = Some(idx);
                    ki += 1;
                }
            }
        }
    }

    /// Where each key of a sorted batch would go in the RAM buffer,
    /// found in one pass; `Err(k)` if key `k` is buffered already.
    pub(super) fn positions<R: RowSource>(
        &self,
        rows: &R,
        keys_h: &[u64],
        keys_w: &[u32],
    ) -> Result<Vec<usize>, usize> {
        let stride = self.stride;
        let mut at = Vec::with_capacity(keys_h.len());
        let mut stored = None;
        self.locate(
            rows,
            keys_h,
            |k, row| row.cmp(&keys_w[k * stride..(k + 1) * stride]),
            |k, found| match found {
                Ok(_) => {
                    stored.get_or_insert(k);
                }
                Err(p) => at.push(p),
            },
        );
        stored.map_or(Ok(at), Err)
    }

    /// Insert a sorted batch of new keys (ascending, unique, and not
    /// present anywhere in the seen-set) whose words are rows
    /// `new_slots` of `rows`.
    pub(super) fn insert_sorted<R: RowSource>(
        &mut self,
        rows: &R,
        new_h: &[u64],
        new_slots: &[u32],
    ) {
        let mut at = Vec::with_capacity(new_h.len());
        self.locate(
            rows,
            new_h,
            |k, row| rows.with_row(new_slots[k], |key| row.cmp(key)),
            |_, found| {
                debug_assert!(found.is_err(), "an inserted key is new");
                let (Ok(p) | Err(p)) = found;
                at.push(p);
            },
        );
        self.insert_at(rows, &at, new_h, new_slots);
    }

    /// Insert a sorted batch of new keys at the buffer positions
    /// [`positions`](Self::positions) found for them. The buffer grows
    /// in place and the batch is merged in from the back, so no second
    /// copy of the buffer is ever allocated: the old entries above each
    /// new key move up as one block. With a spill directory, flushes
    /// the buffer as a run when it exceeds its budget share, and
    /// compacts runs when they accumulate.
    pub(super) fn insert_at<R: RowSource>(
        &mut self,
        rows: &R,
        at: &[usize],
        new_h: &[u64],
        new_slots: &[u32],
    ) {
        let (len, b) = (self.hashes.len(), new_h.len());
        if self.dir.is_some() {
            // A budgeted buffer grows exactly, so amortized doubling
            // never overshoots the share of the budget it accounts for.
            self.hashes.reserve_exact(b);
            self.slots.reserve_exact(b);
        }
        self.hashes.resize(len + b, 0);
        self.slots.resize(len + b, 0);
        // Largest new key first: the old entries from its position up
        // to the next new key's shift up by the keys still to place
        // (itself included), and the key lands just below them. Once
        // the batch is placed the remaining old entries are in place.
        let mut hi = len;
        for k in (0..b).rev() {
            let p = at[k];
            self.hashes.copy_within(p..hi, p + k + 1);
            self.slots.copy_within(p..hi, p + k + 1);
            self.hashes[p + k] = new_h[k];
            self.slots[p + k] = new_slots[k];
            hi = p;
        }
        if self.hashes.len() * entry_bytes(self.stride) > self.ram_cap_bytes {
            self.flush_ram(rows);
            if self.runs.len() >= MAX_DEDUP_RUNS {
                self.compact_runs();
            }
        }
    }

    /// Write the buffer as one sorted run, with each entry's words read
    /// from its row source. The words of the slots from the smallest
    /// buffered one to the largest are read in slot order first, then
    /// the entries are written in key order: on the engine's tiers the
    /// buffered keys are the rows interned since the last flush, so
    /// that range is exactly theirs and is read a segment at a time.
    fn flush_ram<R: RowSource>(&mut self, rows: &R) {
        let Some(dir) = &self.dir else { return };
        let (Some(&lo), Some(&hi)) = (self.slots.iter().min(), self.slots.iter().max()) else {
            return;
        };
        let mut words = Vec::with_capacity((hi - lo + 1) as usize * self.stride);
        rows.copy_rows(lo..hi + 1, &mut words);
        let path = dir.file(&format!("dedup-run-{}.bin", self.run_seq));
        self.run_seq += 1;
        let mut w = RunWriter::create(&path);
        for (&hash, &slot) in self.hashes.iter().zip(&self.slots) {
            let at = (slot - lo) as usize * self.stride;
            w.write(hash, rows.index_of(slot), &words[at..at + self.stride]);
        }
        let bytes = w.finish();
        self.spilled_bytes += bytes;
        self.runs.push(DedupRun { path, entries: self.hashes.len() });
        self.hashes = Vec::new();
        self.slots = Vec::new();
    }

    /// K-way merge every run into one. Entry keys are globally unique,
    /// so the merge is a pure interleave.
    fn compact_runs(&mut self) {
        let Some(dir) = &self.dir else { return };
        let path = dir.file(&format!("dedup-run-{}.bin", self.run_seq));
        let old = std::mem::take(&mut self.runs);
        let total: usize = old.iter().map(|r| r.entries).sum();
        self.run_seq += 1;
        let mut readers: Vec<RunReader> =
            old.iter().map(|r| RunReader::open(&r.path, r.entries, self.stride)).collect();
        let mut heads: Vec<Option<(u64, u32)>> = readers.iter_mut().map(RunReader::next).collect();
        self.merge_passes += old.len() as u64;
        let mut w = RunWriter::create(&path);
        loop {
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                let Some((h, _)) = head else { continue };
                match best {
                    None => best = Some(i),
                    Some(j) => {
                        let (bh, _) = heads[j].unwrap();
                        if key_cmp(*h, readers[i].words(), bh, readers[j].words())
                            == Ordering::Less
                        {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(i) = best else { break };
            let (h, idx) = heads[i].unwrap();
            w.write(h, idx, readers[i].words());
            heads[i] = readers[i].next();
        }
        let bytes = w.finish();
        self.spilled_bytes += bytes;
        for r in &old {
            let _ = fs::remove_file(&r.path);
        }
        self.runs.push(DedupRun { path, entries: total });
    }
}

/// Sequential writer of one sorted run file.
struct RunWriter {
    w: BufWriter<File>,
    bytes: u64,
}

impl RunWriter {
    fn create(path: &std::path::Path) -> RunWriter {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create dedup run {}: {e}", path.display()));
        RunWriter { w: BufWriter::new(file), bytes: 0 }
    }

    fn write(&mut self, hash: u64, index: u32, words: &[u32]) {
        let mut put = |bytes: &[u8]| {
            self.w.write_all(bytes).unwrap_or_else(|e| panic!("dedup run write failed: {e}"));
            self.bytes += bytes.len() as u64;
        };
        put(&hash.to_le_bytes());
        put(&index.to_le_bytes());
        for &word in words {
            put(&word.to_le_bytes());
        }
    }

    fn finish(mut self) -> u64 {
        self.w.flush().unwrap_or_else(|e| panic!("dedup run flush failed: {e}"));
        self.bytes
    }
}

/// Sequential reader of one sorted run file; `words()` exposes the
/// words of the entry most recently returned by [`RunReader::next`].
struct RunReader {
    r: BufReader<File>,
    remaining: usize,
    /// One encoded entry: hash, index, then the words (all LE).
    entry: Vec<u8>,
    words: Vec<u32>,
}

impl RunReader {
    fn open(path: &std::path::Path, entries: usize, stride: usize) -> RunReader {
        let file = File::open(path)
            .unwrap_or_else(|e| panic!("cannot reopen dedup run {}: {e}", path.display()));
        RunReader {
            r: BufReader::with_capacity(RUN_READ_BUF, file),
            remaining: entries,
            entry: vec![0; 12 + 4 * stride],
            words: vec![0; stride],
        }
    }

    /// Read the next entry with one `read_exact`.
    fn next(&mut self) -> Option<(u64, u32)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.r.read_exact(&mut self.entry).unwrap_or_else(|e| panic!("dedup run read failed: {e}"));
        let mut lanes = self.entry.chunks_exact(4).map(le_word);
        let mut lane = || lanes.next().unwrap_or(0);
        let hash = u64::from(lane()) | u64::from(lane()) << 32;
        let index = lane();
        for slot in self.words.iter_mut() {
            *slot = lane();
        }
        Some((hash, index))
    }

    fn words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::super::pack::{PackedArena, WordStore};
    use super::*;

    fn plan() -> BudgetPlan {
        // Tiny budget so tests exercise sealing and run flushing.
        BudgetPlan { segment_bytes: 48, window_segments: 2, dedup_ram_bytes: 64 }
    }

    #[test]
    fn spill_store_round_trips_across_segments() {
        let dir = SpillDir::create(None);
        let stride = 3usize;
        let mut store = SpillStore::new(stride, &plan(), dir);
        let rows: Vec<Vec<u32>> = (0..50u32).map(|i| vec![i, i + 1, i * 7]).collect();
        for row in &rows {
            store.push_words(row);
        }
        assert_eq!(store.len_words(), 150);
        assert!(store.spilled_bytes() > 0, "tiny segments must have sealed");
        for (i, row) in rows.iter().enumerate() {
            store.with_words(i * stride, stride, |w| assert_eq!(w, row.as_slice()));
        }
        // Random-order re-reads through the bounded window still agree.
        for &i in &[49usize, 0, 25, 3, 48, 1] {
            store.with_words(i * stride, stride, |w| assert_eq!(w, rows[i].as_slice()));
        }
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create(None);
        let path = dir.path.clone();
        let mut store = SpillStore::new(2, &plan(), Arc::clone(&dir));
        for i in 0..100u32 {
            store.push_words(&[i, i]);
        }
        assert!(path.exists());
        drop(store);
        drop(dir);
        assert!(!path.exists(), "spill dir must be cleaned up");
    }

    /// Key `v` of a 64-key universe. Keys come in pairs that share a
    /// hash, so equal-hash keys must be told apart by their words.
    fn key(v: u32) -> (u64, [u32; 2]) {
        (u64::from(v / 2) * 11, [v, v * 3])
    }

    /// An arena whose row `v` is key `v`'s words, so slot = index = `v`:
    /// file-backed with a tiny window when `spill`, resident otherwise.
    fn key_arena(spill: bool) -> PackedArena<u8> {
        let mut arena = if spill {
            let store = SpillStore::new(2, &plan(), SpillDir::create(None));
            PackedArena::with_store(1, 1, WordStore::Spill(store))
        } else {
            PackedArena::new(1, 1)
        };
        for v in 0..64u32 {
            arena.push(&key(v).1);
        }
        arena
    }

    /// Insert `batches` of keys into a seen-set over `rows` —
    /// `add_rows(rows, indices, words)` stores a batch's rows and
    /// returns their slots — then probe every key, misses between
    /// them, and a sparse subset.
    fn probe_matches_inserts<R: RowSource>(
        label: &str,
        batches: &[Vec<u32>],
        spill: bool,
        rows: &mut R,
        add_rows: impl Fn(&mut R, &[u32], &[u32]) -> Vec<u32>,
    ) {
        // With a spill directory the tiny RAM cap forces several run
        // flushes and at least one compaction; without one every entry
        // stays in the RAM buffer.
        let mut dd = if spill {
            ExternalDedup::new(2, &plan(), SpillDir::create(None))
        } else {
            ExternalDedup::in_ram(2)
        };
        for batch in batches {
            let mut keys: Vec<(u64, [u32; 2], u32)> = batch
                .iter()
                .map(|&v| {
                    let (h, w) = key(v);
                    (h, w, v)
                })
                .collect();
            keys.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let h: Vec<u64> = keys.iter().map(|e| e.0).collect();
            let idx: Vec<u32> = keys.iter().map(|e| e.2).collect();
            let w: Vec<u32> = keys.iter().flat_map(|e| e.1).collect();
            let slots = add_rows(rows, &idx, &w);
            dd.insert_sorted(rows, &h, &slots);
        }
        assert_eq!(dd.spilled_bytes() > 0, spill, "{label}: runs flush only with a dir");
        assert_eq!(dd.len(), 64, "{label}");
        // Probe every inserted key plus misses interleaved, sorted.
        let mut probes: Vec<(u64, [u32; 2], Option<u32>)> = Vec::new();
        for v in 0..64u32 {
            let (h, w) = key(v);
            probes.push((h, w, Some(v)));
            probes.push((h + 1, [v, v], None));
            // Same hash, different words: must not match (exact dedup).
            probes.push((h, [v, v * 3 + 1], None));
        }
        probes.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let h: Vec<u64> = probes.iter().map(|e| e.0).collect();
        let w: Vec<u32> = probes.iter().flat_map(|e| e.1).collect();
        let got = dd.probe_sorted(rows, &h, &w);
        for (k, p) in probes.iter().enumerate() {
            assert_eq!(got[k], p.2, "{label}: probe {k} diverged");
        }
        // A sparse batch (every 17th probe plus the first and the last)
        // gallops over long stretches of the buffer.
        let last = probes.len() - 1;
        let sparse: Vec<_> =
            probes.iter().enumerate().filter(|&(k, _)| k % 17 == 0 || k == last).collect();
        let h: Vec<u64> = sparse.iter().map(|(_, e)| e.0).collect();
        let w: Vec<u32> = sparse.iter().flat_map(|(_, e)| e.1).collect();
        let got = dd.probe_sorted(rows, &h, &w);
        for (s, (k, p)) in sparse.iter().enumerate() {
            assert_eq!(got[s], p.2, "{label}: sparse probe {k} diverged");
        }
        assert_eq!(dd.merge_passes() > 0, spill, "{label}");
    }

    #[test]
    fn external_dedup_probe_matches_inserts_across_flushes() {
        // Batches covering the same 64 entries. Ascending batches only
        // ever append; strided ones land before, between and after the
        // keys already stored; descending ones land before all of them;
        // "ends" puts small batches at both ends of a large buffer.
        let ends: Vec<Vec<u32>> =
            vec![(4..60).collect(), vec![0, 63], vec![1, 2, 61, 62], vec![3, 60]];
        let schedules: [(&str, Vec<Vec<u32>>); 4] = [
            ("ascending", (0..16).map(|c| (4 * c..4 * c + 4).collect()).collect()),
            ("strided", (0..16).map(|c| (0..64).filter(|v| v % 16 == c).collect()).collect()),
            ("descending", (0..16).rev().map(|c| (4 * c..4 * c + 4).collect()).collect()),
            ("ends", ends),
        ];
        for (name, batches) in &schedules {
            for spill in [true, false] {
                // Over the engine's arena, whose slot is the index...
                let label = format!("{name} (spill={spill}, arena)");
                probe_matches_inserts(&label, batches, spill, &mut key_arena(spill), |_, idx, _| {
                    idx.to_vec()
                });
                // ...and over a row log, whose slots are its own.
                let label = format!("{name} (spill={spill}, row log)");
                let mut log = RowLog::new(2);
                probe_matches_inserts(&label, batches, spill, &mut log, |log, idx, w| {
                    let first = log.len() as u32;
                    log.append(idx, w);
                    (first..log.len() as u32).collect()
                });
            }
        }
    }
}
