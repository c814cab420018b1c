//! Storage for the exploration engine: file-backed arena segments and
//! the sorted-batch seen-set every search dedups against.
//!
//! When [`ExploreConfig::mem_budget_bytes`](super::ExploreConfig::mem_budget_bytes)
//! is nonzero both structures in this module spill to disk:
//!
//! * [`SpillStore`] backs the packed arena's word buffer. Words are
//!   appended to a RAM *tail segment*; when the tail fills, it is
//!   sealed to a segment file and a fresh tail starts. Reads go through
//!   a small FIFO window of recently-loaded segments, a handful of
//!   entries scanned linearly, so resident arena memory is bounded by
//!   `(window + 1) × segment_bytes`, plus one segment per live
//!   [`RowCursor`], no matter how many configurations are interned. A
//!   sequential pass reads rows through a cursor, which looks each
//!   segment up once and serves its rows from the pinned words. Segment
//!   size is a multiple of the row stride, so a packed row never
//!   straddles two segments.
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
//!   sorted *run* file of fixed-width `(hash, index, words)` entries,
//!   the words read from the row source (the buffered keys are exactly
//!   those interned since the last flush, so their rows are the arena's
//!   most recent). Each BFS level probes one sorted batch of candidate
//!   keys against the buffer and against every run by galloping. A run
//!   is read strictly sequentially, in chunks of whole entries of at
//!   most `RUN_READ_BUF` (64 KiB) bytes, one `read_exact` each, and the batch
//!   gallops through each chunk on the entries' bytes: hashes are
//!   compared first and words decoded only when two hashes tie. Runs
//!   are compacted by a k-way merge over the same chunked reader when
//!   they accumulate.
//!
//! All files live in one [`SpillDir`] per search, deleted on drop.
//! Run probes, run flushes, compactions and segment loads from disk
//! are timed into the `explore.phase.{run_probe,run_flush,run_compact,
//! segment_load}_us` histograms when metrics are on.
//!
//! I/O failures (disk full, permission) panic with context: a search
//! that has lost its backing store cannot produce a sound verdict, and
//! the engine has no error channel mid-level. The checkpoint writer, by
//! contrast, reports errors — see [`super::checkpoint`].

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Lower bound on the spill segment size (bytes of packed words).
/// Small enough that even toy budgets genuinely spill (tests rely on
/// this); real budgets land in the hundreds-of-KiB range via the
/// budget/16 rule below.
const MIN_SEGMENT_BYTES: usize = 1024;
/// Upper bound on the spill segment size.
const MAX_SEGMENT_BYTES: usize = 1024 * 1024;
/// Compact dedup runs by k-way merge once this many accumulate.
const MAX_DEDUP_RUNS: usize = 8;
/// Largest chunk of spill I/O, in bytes: a sorted-run reader reads and
/// a run writer writes whole entries at most this many bytes at a time,
/// and segments are encoded and loaded in pieces of this size.
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
/// The budget bounds the *steady-state resident* set: the arena's tail
/// segment (a sixteenth), its resident window (half), the segment a
/// [`RowCursor`] pins after the window has evicted it (a sixteenth per
/// live cursor: the merge and the analysis each read through one,
/// expansion through one per worker), and the dedup RAM buffer (a
/// quarter). From a 16 KiB budget up, where the segment size's lower
/// clamp no longer binds, the tail, the window, one pinned segment and
/// the buffer fit in the budget. The per-level working set (phase-1
/// candidate deltas and the level merge buffers) is additional and
/// proportional to the widest BFS level, as it always was for the
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

/// FIFO window of resident sealed segments, oldest first: `(segment,
/// words)` pairs, at most the window capacity of them. It holds a
/// handful of segments, so a lookup is a linear scan from the newest.
type SegWindow = VecDeque<(u64, Arc<Vec<u32>>)>;

/// Start timing one phase: the start instant when metrics are on.
pub(super) fn phase_start() -> Option<Instant> {
    randsync_obs::metrics_enabled().then(Instant::now)
}

/// Record the phase that began at `started` in histogram `name`.
pub(super) fn phase_end(started: Option<Instant>, name: &str) {
    if let Some(started) = started {
        let us = started.elapsed().as_micros() as u64;
        randsync_obs::global_metrics().histogram(name).observe(us);
    }
}

/// A sequential reader's hold on one sealed segment of a
/// [`SpillStore`]: the segment it last looked up, kept pinned so that
/// every further row in it is served without another lookup. A scan
/// over a row range through one cursor costs one window lookup per
/// segment it crosses instead of one per row, takes no lock in between,
/// and reads tail rows directly.
///
/// A cursor pins at most one segment: it releases the old one before it
/// looks up the next. The pinned words stay valid if the window evicts
/// the segment meanwhile, since the cursor shares them; such a segment
/// is the one extra resident segment per cursor that [`BudgetPlan`]
/// counts. A cursor is not tied to one store's borrow, so a caller may
/// interleave reads through it with writes to the codec; it must only
/// ever be used with one store.
#[derive(Default)]
pub(super) struct RowCursor {
    pinned: Option<(u64, Arc<Vec<u32>>)>,
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
    /// Sealed-segment lookups (window hits and disk loads alike).
    segment_reads: AtomicU64,
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
            segment_reads: AtomicU64::new(0),
            window: Mutex::new(VecDeque::new()),
        }
    }

    pub(super) fn len_words(&self) -> usize {
        self.total_words
    }

    pub(super) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Sealed-segment lookups so far: every row read outside the tail
    /// that was not served by a cursor's pinned segment — reported as
    /// `segment_reads`.
    pub(super) fn segment_reads(&self) -> u64 {
        self.segment_reads.load(AtomicOrdering::Relaxed)
    }

    /// Resident bytes right now: the tail plus the loaded window.
    pub(super) fn resident_bytes(&self) -> usize {
        let win = self.lock_window();
        (self.tail.capacity() + win.len() * self.segment_words) * 4
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

    /// Write the tail to its segment file, encoded `RUN_READ_BUF` bytes
    /// at a time with one `write_all` each, and start a fresh tail.
    fn seal_tail(&mut self) {
        let path = self.seg_path(self.sealed);
        let mut file = File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create spill segment {}: {e}", path.display()));
        let mut bytes = Vec::with_capacity(RUN_READ_BUF.min(self.tail.len() * 4));
        for piece in self.tail.chunks(RUN_READ_BUF / 4) {
            bytes.clear();
            bytes.extend(piece.iter().flat_map(|w| w.to_le_bytes()));
            file.write_all(&bytes).unwrap_or_else(|e| panic!("spill segment write failed: {e}"));
        }
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

    /// Make `seg` resident, evicting the oldest segments past `cap`.
    fn admit(win: &mut SegWindow, cap: usize, seg: u64, words: Arc<Vec<u32>>) {
        if win.iter().all(|&(s, _)| s != seg) {
            win.push_back((seg, words));
            while win.len() > cap {
                win.pop_front();
            }
        }
    }

    /// The words of sealed segment `seg`: from the window, or read from
    /// its file (`RUN_READ_BUF` bytes per `read_exact`) and admitted.
    /// The window lock is released before this returns, so a caller may
    /// read a second row while it holds the first one's words.
    fn load(&self, seg: u64) -> Arc<Vec<u32>> {
        self.segment_reads.fetch_add(1, AtomicOrdering::Relaxed);
        if let Some((_, words)) = self.lock_window().iter().rev().find(|&&(s, _)| s == seg) {
            return Arc::clone(words);
        }
        let started = phase_start();
        let path = self.seg_path(seg);
        let mut file = File::open(&path)
            .unwrap_or_else(|e| panic!("cannot reopen spill segment {}: {e}", path.display()));
        let mut words = Vec::with_capacity(self.segment_words);
        let mut bytes = vec![0u8; RUN_READ_BUF.min(self.segment_words * 4)];
        while words.len() < self.segment_words {
            let piece = &mut bytes[..((self.segment_words - words.len()) * 4).min(RUN_READ_BUF)];
            file.read_exact(piece).unwrap_or_else(|e| panic!("spill segment read failed: {e}"));
            words.extend(piece.chunks_exact(4).map(le_word));
        }
        let words = Arc::new(words);
        let mut win = self.lock_window();
        Self::admit(&mut win, self.window_cap, seg, Arc::clone(&words));
        drop(win);
        phase_end(started, "explore.phase.segment_load_us");
        words
    }

    /// Append the `len` words at word offset `at` to `out`, one segment
    /// at a time.
    pub(super) fn copy_words(&self, mut at: usize, len: usize, out: &mut Vec<u32>) {
        let end = at + len;
        let mut cursor = RowCursor::default();
        while at < end {
            let run = (self.segment_words - at % self.segment_words).min(end - at);
            out.extend_from_slice(self.cursor_words(&mut cursor, at, run));
            at += run;
        }
    }

    /// The `len` words at word offset `at`, read through `cursor`: from
    /// the tail, from the cursor's pinned segment, or from the segment
    /// looked up and pinned in its place. The range never straddles
    /// segments (rows are stride-aligned within segments). The window
    /// lock is released before this returns, so a caller may read a
    /// second row through another cursor while it holds this one.
    #[inline]
    pub(super) fn cursor_words<'a>(
        &'a self,
        cursor: &'a mut RowCursor,
        at: usize,
        len: usize,
    ) -> &'a [u32] {
        let seg = (at / self.segment_words) as u64;
        let off = at % self.segment_words;
        if seg == self.sealed {
            return &self.tail[off..off + len];
        }
        if cursor.pinned.as_ref().is_none_or(|(s, _)| *s != seg) {
            // Release the old pin first, so a cursor never holds two.
            cursor.pinned = None;
        }
        let (_, words) = cursor.pinned.get_or_insert_with(|| (seg, self.load(seg)));
        &words[off..off + len]
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
    run_bytes_read: u64,
}

/// Bytes one entry costs in a run. The buffer is flushed when its
/// entries would fill the budget share as a run, so the flush cadence
/// (and every run file) does not depend on how the buffer stores them.
fn entry_bytes(stride: usize) -> usize {
    8 + 4 + stride * 4
}

/// The little-endian `u32` in a 4-byte chunk.
fn le_word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// The hash of an encoded run entry.
fn entry_hash(e: &[u8]) -> u64 {
    u64::from(le_word(&e[..4])) | u64::from(le_word(&e[4..8])) << 32
}

/// The index of an encoded run entry.
fn entry_index(e: &[u8]) -> u32 {
    le_word(&e[8..12])
}

/// The words of an encoded run entry, decoded as they are consumed.
fn entry_words(e: &[u8]) -> impl Iterator<Item = u32> + '_ {
    e[12..].chunks_exact(4).map(le_word)
}

/// How an encoded run entry orders against the key `(h, w)`: by hash,
/// then — only on a tie — by words.
fn entry_vs_key(e: &[u8], h: u64, w: &[u32]) -> Ordering {
    entry_hash(e).cmp(&h).then_with(|| entry_words(e).cmp(w.iter().copied()))
}

/// How two encoded run entries order: by hash, then by words.
fn entry_cmp(a: &[u8], b: &[u8]) -> Ordering {
    entry_hash(a).cmp(&entry_hash(b)).then_with(|| entry_words(a).cmp(entry_words(b)))
}

/// The first position in `from..len` whose entry does not sort before
/// the key (or `len`), given `before(i)`: "entry `i` sorts before the
/// key", which must be monotone over the range. Gallops: the bracket
/// doubles from `from` until it passes the key, then a binary search
/// closes it, so a sparse batch skips long stretches in logarithmic
/// time.
fn gallop(from: usize, len: usize, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    let mut hi = loop {
        let probe = lo + step - 1;
        if probe >= len {
            break len;
        }
        if !before(probe) {
            break probe;
        }
        lo = probe + 1;
        step *= 2;
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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
            run_bytes_read: 0,
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

    /// Bytes read from on-disk sorted runs by probes and compactions —
    /// reported as `dedup_run_bytes`.
    pub(super) fn run_bytes_read(&self) -> u64 {
        self.run_bytes_read
    }

    /// Bytes of the keys the RAM buffer holds: 12 per key (hash and
    /// slot), by length.
    pub(super) fn resident_bytes(&self) -> usize {
        self.hashes.len() * 8 + self.slots.len() * 4
    }

    /// How buffered entry `k` orders against the key with hash `h`,
    /// given the comparison of a stored row with the key's words.
    fn buffered_cmp<R: RowSource>(
        &self,
        rows: &R,
        k: usize,
        h: u64,
        row_vs_key: &impl Fn(&[u32]) -> Ordering,
    ) -> Ordering {
        self.hashes[k].cmp(&h).then_with(|| rows.with_row(self.slots[k], row_vs_key))
    }

    /// Resolve a sorted batch of candidate keys against the seen-set.
    ///
    /// `keys_h[k]` / `keys_w[k*stride..]` hold key `k`; keys are unique
    /// and ascending by `(hash, words)`. Returns, per key, the index
    /// the row source gives the matching stored key, if one exists, and
    /// the key's position in the RAM buffer: where it is buffered, or
    /// where [`insert_at`](Self::insert_at) places it while the buffer
    /// does not change. One galloping pass over the RAM buffer, each
    /// key's search starting where the last one ended, plus one
    /// sequential scan per run — no random I/O.
    pub(super) fn probe_sorted<R: RowSource>(
        &mut self,
        rows: &R,
        keys_h: &[u64],
        keys_w: &[u32],
    ) -> (Vec<Option<u32>>, Vec<usize>) {
        let (stride, len) = (self.stride, self.hashes.len());
        let mut out = vec![None; keys_h.len()];
        let mut at = Vec::with_capacity(keys_h.len());
        let mut p = 0usize;
        for (k, &h) in keys_h.iter().enumerate() {
            let cmp = |row: &[u32]| row.cmp(&keys_w[k * stride..(k + 1) * stride]);
            p = gallop(p, len, |i| self.buffered_cmp(rows, i, h, &cmp).is_lt());
            if p < len && self.buffered_cmp(rows, p, h, &cmp).is_eq() {
                out[k] = Some(rows.index_of(self.slots[p]));
            }
            at.push(p);
        }
        self.probe_runs(keys_h, keys_w, &mut out);
        (out, at)
    }

    /// Resolve a sorted batch against every run, filling in the index
    /// of each key a run holds.
    ///
    /// Each run is read front to back a chunk at a time (see
    /// [`RunReader`]) into one buffer reused across runs, and only as
    /// far as the batch reaches. Every key up to the chunk's last entry
    /// gallops through the chunk from where the previous key stopped,
    /// on the entries' bytes; a key that sorts after the last entry
    /// moves on to the next chunk. The entries past one chunk all sort
    /// after its last entry, so a key is in the run exactly when it is
    /// in the first chunk whose last entry does not sort before it —
    /// an equal-hash group straddling two chunks included.
    fn probe_runs(&mut self, keys_h: &[u64], keys_w: &[u32], out: &mut [Option<u32>]) {
        self.merge_passes += self.runs.len() as u64;
        if self.runs.is_empty() || keys_h.is_empty() {
            return;
        }
        let started = phase_start();
        let (stride, width) = (self.stride, entry_bytes(self.stride));
        let key = |k: usize| &keys_w[k * stride..(k + 1) * stride];
        let mut chunk = Vec::new();
        for run in &self.runs {
            let mut reader = RunReader::open(run, width);
            let mut ki = 0usize;
            while ki < keys_h.len() && reader.read_chunk(&mut chunk) {
                let entries = chunk.len() / width;
                let entry = |i: usize| &chunk[i * width..(i + 1) * width];
                let last = entry(entries - 1);
                let mut at = 0usize;
                while ki < keys_h.len() && entry_vs_key(last, keys_h[ki], key(ki)).is_ge() {
                    let (h, w) = (keys_h[ki], key(ki));
                    at = gallop(at, entries, |i| entry_vs_key(entry(i), h, w).is_lt());
                    if entry_vs_key(entry(at), h, w).is_eq() {
                        out[ki] = Some(entry_index(entry(at)));
                    }
                    ki += 1;
                }
            }
            self.run_bytes_read += reader.bytes_read;
        }
        phase_end(started, "explore.phase.run_probe_us");
    }

    /// Insert a sorted batch of new keys (ascending, unique, and not
    /// present anywhere in the seen-set), whose words are rows
    /// `new_slots` of `rows`, at the buffer positions
    /// [`probe_sorted`](Self::probe_sorted) found for them; debug
    /// builds check each is still its key's sorted slot. The buffer grows
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
        if cfg!(debug_assertions) {
            assert!(at.len() == b && at.windows(2).all(|w| w[0] <= w[1]), "positions ascend");
            for (k, &p) in at.iter().enumerate() {
                let vs = |i: usize| {
                    rows.with_row(new_slots[k], |key| self.buffered_cmp(rows, i, new_h[k], &|row| row.cmp(key)))
                };
                assert!((p == 0 || vs(p - 1).is_lt()) && (p == len || vs(p).is_gt()), "key {k} is new at {p}");
            }
        }
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
        let started = phase_start();
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
        phase_end(started, "explore.phase.run_flush_us");
    }

    /// K-way merge every run into one. Entry keys are globally unique,
    /// so the merge is a pure interleave: each run is read a chunk at a
    /// time by its own [`RunReader`], and the least head entry is copied
    /// to the merged run as encoded bytes.
    fn compact_runs(&mut self) {
        let Some(dir) = &self.dir else { return };
        let started = phase_start();
        let width = entry_bytes(self.stride);
        let path = dir.file(&format!("dedup-run-{}.bin", self.run_seq));
        let old = std::mem::take(&mut self.runs);
        let total: usize = old.iter().map(|r| r.entries).sum();
        self.run_seq += 1;
        // One source per run: its reader, its current chunk, and the
        // offset of its head entry in that chunk.
        let mut sources: Vec<(RunReader, Vec<u8>, usize)> = old
            .iter()
            .map(|r| {
                let (mut reader, mut chunk) = (RunReader::open(r, width), Vec::new());
                reader.read_chunk(&mut chunk);
                (reader, chunk, 0)
            })
            .collect();
        self.merge_passes += old.len() as u64;
        let mut w = RunWriter::create(&path);
        loop {
            let mut best: Option<(usize, &[u8])> = None;
            for (i, (_, chunk, at)) in sources.iter().enumerate() {
                let Some(head) = chunk.get(*at..*at + width) else { continue };
                if best.is_none_or(|(_, b)| entry_cmp(head, b).is_lt()) {
                    best = Some((i, head));
                }
            }
            let Some((i, head)) = best else { break };
            w.write_entry(head);
            let (reader, chunk, at) = &mut sources[i];
            *at += width;
            if *at == chunk.len() && reader.read_chunk(chunk) {
                *at = 0;
            }
        }
        let bytes = w.finish();
        self.spilled_bytes += bytes;
        self.run_bytes_read += sources.iter().map(|(reader, ..)| reader.bytes_read).sum::<u64>();
        for r in &old {
            let _ = fs::remove_file(&r.path);
        }
        self.runs.push(DedupRun { path, entries: total });
        phase_end(started, "explore.phase.run_compact_us");
    }
}

/// Sequential writer of one sorted run file: entries are encoded into a
/// buffer of at most `RUN_READ_BUF` bytes of whole entries, written
/// with one `write_all` whenever the next entry would not fit.
struct RunWriter {
    file: File,
    buf: Vec<u8>,
    bytes: u64,
}

impl RunWriter {
    fn create(path: &std::path::Path) -> RunWriter {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create dedup run {}: {e}", path.display()));
        RunWriter { file, buf: Vec::with_capacity(RUN_READ_BUF), bytes: 0 }
    }

    /// Make room for an entry of `width` bytes.
    fn reserve(&mut self, width: usize) {
        if self.buf.len() + width > RUN_READ_BUF {
            self.drain();
        }
    }

    fn drain(&mut self) {
        self.file.write_all(&self.buf).unwrap_or_else(|e| panic!("dedup run write failed: {e}"));
        self.bytes += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Encode one entry: hash, index, then the words, all LE.
    fn write(&mut self, hash: u64, index: u32, words: &[u32]) {
        self.reserve(12 + 4 * words.len());
        self.buf.extend_from_slice(&hash.to_le_bytes());
        self.buf.extend_from_slice(&index.to_le_bytes());
        self.buf.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    }

    /// Append one already-encoded entry.
    fn write_entry(&mut self, entry: &[u8]) {
        self.reserve(entry.len());
        self.buf.extend_from_slice(entry);
    }

    /// Write what is buffered; the run's size in bytes.
    fn finish(mut self) -> u64 {
        self.drain();
        self.bytes
    }
}

/// Sequential reader of one sorted run file, a chunk at a time: each
/// chunk is the next whole entries, at most `RUN_READ_BUF` bytes (and
/// at least one entry), read with one `read_exact` into the caller's
/// buffer.
struct RunReader {
    file: File,
    /// Entries not yet read.
    remaining: usize,
    /// Bytes per encoded entry.
    width: usize,
    /// Bytes read from the file so far.
    bytes_read: u64,
}

impl RunReader {
    fn open(run: &DedupRun, width: usize) -> RunReader {
        let file = File::open(&run.path)
            .unwrap_or_else(|e| panic!("cannot reopen dedup run {}: {e}", run.path.display()));
        RunReader { file, remaining: run.entries, width, bytes_read: 0 }
    }

    /// Replace `chunk` with the run's next chunk; `false`, leaving
    /// `chunk` untouched, once the run is exhausted.
    fn read_chunk(&mut self, chunk: &mut Vec<u8>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let entries = self.remaining.min((RUN_READ_BUF / self.width).max(1));
        self.remaining -= entries;
        chunk.resize(entries * self.width, 0);
        self.file.read_exact(chunk).unwrap_or_else(|e| panic!("dedup run read failed: {e}"));
        self.bytes_read += chunk.len() as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
        let mut cursor = RowCursor::default();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(store.cursor_words(&mut cursor, i * stride, stride), row.as_slice());
        }
        // Random-order re-reads through the bounded window still agree.
        for &i in &[49usize, 0, 25, 3, 48, 1] {
            let mut fresh = RowCursor::default();
            assert_eq!(store.cursor_words(&mut fresh, i * stride, stride), rows[i].as_slice());
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

    /// Insert `batches` of keys into a seen-set over `rows` as the level
    /// merge does — probe each batch, store its rows with
    /// `add_rows(rows, indices, words)`, which returns their slots, and
    /// insert the keys at the positions the probe found — then probe
    /// every key, misses between them, and a sparse subset.
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
            let (found, at) = dd.probe_sorted(rows, &h, &w);
            assert!(found.iter().all(Option::is_none), "{label}: a batch key is new");
            let slots = add_rows(rows, &idx, &w);
            dd.insert_at(rows, &at, &h, &slots);
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
        let (got, _) = dd.probe_sorted(rows, &h, &w);
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
        let (got, _) = dd.probe_sorted(rows, &h, &w);
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

    #[test]
    fn a_row_read_inside_another_rows_closure_returns() {
        // The seen-set's tie comparison reads a second row inside the
        // first row's closure. On a file-backed arena with a two-segment
        // window, each pair below reads rows of distinct sealed
        // segments (or the tail), and the innermost read of the triple
        // evicts the outermost row's segment while that row is held.
        let (done, finished) = std::sync::mpsc::channel();
        let reads = std::thread::spawn(move || {
            let arena = key_arena(true);
            let row = |v: u32| key(v).1.to_vec();
            for (a, b) in [(0u32, 59u32), (59, 0), (0, 1), (10, 40), (40, 10), (5, 63)] {
                arena.with_row(a, |ra| {
                    arena.with_row(b, |rb| {
                        assert_eq!((ra.to_vec(), rb.to_vec()), (row(a), row(b)));
                    });
                });
            }
            arena.with_row(0, |r0| {
                arena.with_row(30, |r30| {
                    arena.with_row(50, |r50| {
                        assert_eq!([r0, r30, r50].map(<[u32]>::to_vec), [row(0), row(30), row(50)]);
                    });
                });
            });
            let _ = done.send(());
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert_ne!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout), "nested reads deadlocked");
        reads.join().expect("nested row reads return the right rows");
    }

    #[test]
    fn a_budget_plan_holds_the_tail_window_a_pinned_segment_and_the_buffer() {
        for budget in [16 << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20, 256 << 20] {
            for stride in [2, 5, 9] {
                let p = BudgetPlan::for_budget(budget, stride);
                let resident = (1 + p.window_segments + 1) * p.segment_bytes + p.dedup_ram_bytes;
                assert!(resident <= budget, "budget {budget}, stride {stride}: {p:?}");
            }
        }
    }

    #[test]
    fn a_cursor_scan_looks_each_segment_up_once() {
        // Six 2-word rows per 48-byte segment: rows 0..60 fill ten
        // sealed segments and rows 60..64 sit in the tail.
        let arena = key_arena(true);
        let row = |v: u32| key(v).1;
        let mut rows = RowCursor::default();
        let before = arena.segment_reads();
        for v in 0..64u32 {
            assert_eq!(arena.row(&mut rows, v), row(v), "scan, row {v}");
        }
        assert_eq!(arena.segment_reads() - before, 10, "one lookup per sealed segment");
        // Both sides of every segment boundary, and of the tail's.
        for b in (6..64u32).step_by(6) {
            let mut rows = RowCursor::default();
            for v in [b - 1, b, b - 1, b] {
                assert_eq!(arena.row(&mut rows, v), row(v), "boundary {b}, row {v}");
            }
        }

        // The pinned segment is evicted mid-scan: the cursor pins
        // segment 0, two other reads fill the two-segment window, and
        // the rest of segment 0 still reads right without a lookup.
        let stride = 2usize;
        let mut store = SpillStore::new(stride, &plan(), SpillDir::create(None));
        for v in 0..64u32 {
            store.push_words(&row(v));
        }
        let mut cursor = RowCursor::default();
        assert_eq!(store.cursor_words(&mut cursor, 0, stride), row(0));
        for v in [30, 48] {
            let mut fresh = RowCursor::default();
            assert_eq!(store.cursor_words(&mut fresh, v as usize * stride, stride), row(v));
        }
        assert!(store.lock_window().iter().all(|&(seg, _)| seg != 0), "segment 0 was evicted");
        let lookups = store.segment_reads();
        for v in 1..6u32 {
            assert_eq!(store.cursor_words(&mut cursor, v as usize * stride, stride), row(v));
        }
        assert_eq!(store.segment_reads(), lookups, "the evicted pin still serves its rows");
        // Moving on releases it: the next segment is looked up afresh.
        assert_eq!(store.cursor_words(&mut cursor, 6 * stride, stride), row(6));
        assert_eq!(store.segment_reads(), lookups + 1);
    }

    /// Key `v` of the chunked-run tests: sixteen consecutive values
    /// share a hash and order by `v` within it, so key order is `v`
    /// order, and a run of every other key holds equal-hash groups of
    /// eight entries, some of which straddle chunk boundaries.
    fn wide_key(v: u32) -> (u64, [u32; 2]) {
        (u64::from(v / 16) * 7, [v, !v])
    }

    /// A plan whose dedup buffer flushes once it holds more than
    /// `dedup_ram_bytes` of run entries.
    fn run_plan(dedup_ram_bytes: usize) -> BudgetPlan {
        BudgetPlan { dedup_ram_bytes, ..plan() }
    }

    /// Insert the keys `vs` as one batch whose rows go to `log`, key
    /// `v` with index `v`, at the buffer positions a probe finds. The
    /// runs are set aside for the probe, so the tests count only the
    /// run reads of their own probes and of compaction.
    fn insert_wide(dd: &mut ExternalDedup, log: &mut RowLog, vs: &[u32]) {
        let mut vs = vs.to_vec();
        vs.sort_unstable();
        let h: Vec<u64> = vs.iter().map(|&v| wide_key(v).0).collect();
        let w: Vec<u32> = vs.iter().flat_map(|&v| wide_key(v).1).collect();
        let runs = std::mem::take(&mut dd.runs);
        let (found, at) = dd.probe_sorted(log, &h, &w);
        dd.runs = runs;
        assert!(found.iter().all(Option::is_none), "the keys are new");
        let first = log.len() as u32;
        log.append(&vs, &w);
        dd.insert_at(log, &at, &h, &(first..log.len() as u32).collect::<Vec<_>>());
    }

    /// Probe `keys` as one sorted batch and check every answer against
    /// `model`; returns the run bytes the probe read.
    fn probe_against(
        dd: &mut ExternalDedup,
        log: &RowLog,
        model: &BTreeMap<(u64, [u32; 2]), u32>,
        mut keys: Vec<(u64, [u32; 2])>,
        label: &str,
    ) -> u64 {
        keys.sort_unstable();
        keys.dedup();
        let h: Vec<u64> = keys.iter().map(|k| k.0).collect();
        let w: Vec<u32> = keys.iter().flat_map(|k| k.1).collect();
        let before = dd.run_bytes_read();
        let (got, _) = dd.probe_sorted(log, &h, &w);
        for (k, got) in keys.iter().zip(got) {
            assert_eq!(got, model.get(k).copied(), "{label}: key {k:?}");
        }
        dd.run_bytes_read() - before
    }

    #[test]
    fn chunked_run_probe_is_exact_at_chunk_boundaries() {
        let width = entry_bytes(2);
        let per_chunk = RUN_READ_BUF / width;
        // One run of every other key from `base`, over three chunks
        // long, so the run ends in a partial fourth chunk.
        let (base, n) = (1000u32, 4 * per_chunk - 100);
        let stored: Vec<u32> = (0..n as u32).map(|i| base + 2 * i).collect();
        let mut dd = ExternalDedup::new(2, &run_plan(n * width - 1), SpillDir::create(None));
        let mut log = RowLog::new(2);
        insert_wide(&mut dd, &mut log, &stored);
        assert_eq!((dd.runs.len(), dd.runs[0].entries, dd.hashes.len()), (1, n, 0));
        let model = stored.iter().map(|&v| (wide_key(v), v)).collect();
        let whole_run = (n * width) as u64;
        let keys = |vs: &mut dyn Iterator<Item = u32>| vs.map(wide_key).collect::<Vec<_>>();

        // Every stored key, every key between two stored ones, and a
        // same-hash key whose second word differs from a stored one's.
        let mut dense = keys(&mut (base - 3..base + 2 * n as u32 + 3));
        dense.extend(stored.iter().map(|&v| (wide_key(v).0, [v, v])));
        assert_eq!(probe_against(&mut dd, &log, &model, dense, "dense"), whole_run);

        // At each chunk boundary: the chunk's last entry, the key just
        // above it (below the next chunk's first entry, with the same
        // hash when a group straddles the boundary), and the next
        // chunk's first entry.
        let boundaries: Vec<usize> = (1..4).map(|c| c * per_chunk).collect();
        assert!(
            boundaries.iter().any(|&b| wide_key(stored[b - 1]).0 == wide_key(stored[b]).0),
            "an equal-hash group straddles a chunk boundary"
        );
        for &b in &boundaries {
            let edge = keys(&mut [stored[b - 1], stored[b - 1] + 1, stored[b]].into_iter());
            let read = probe_against(&mut dd, &log, &model, edge, &format!("boundary {b}"));
            // The batch ends in the chunk after the boundary.
            assert_eq!(read, ((b + per_chunk).min(n) * width) as u64, "boundary {b}");
        }

        // Batches that miss the run: empty, wholly below it (answered
        // from the first chunk) and wholly above it (read to the end).
        assert_eq!(probe_against(&mut dd, &log, &model, Vec::new(), "empty"), 0);
        let below = keys(&mut (0..base).step_by(3));
        let first_chunk = (per_chunk * width) as u64;
        assert_eq!(probe_against(&mut dd, &log, &model, below, "below"), first_chunk);
        let above = keys(&mut (base + 2 * n as u32..base + 2 * n as u32 + 40));
        assert_eq!(probe_against(&mut dd, &log, &model, above, "above"), whole_run);
        // A sparse batch: the first and the last stored keys.
        let ends = keys(&mut [stored[0], stored[n - 1]].into_iter());
        assert_eq!(probe_against(&mut dd, &log, &model, ends, "ends"), whole_run);
    }

    #[test]
    fn compaction_of_multi_chunk_runs_matches_a_btree_map() {
        let width = entry_bytes(2);
        // Eight runs of three chunks each; run `j` holds the keys
        // `v ≡ j (mod 8)`, so the merge interleaves every run into
        // every equal-hash group.
        let run_len = 2 * (RUN_READ_BUF / width) + 7;
        let mut dd = ExternalDedup::new(2, &run_plan(run_len * width - 1), SpillDir::create(None));
        let mut log = RowLog::new(2);
        let total = (MAX_DEDUP_RUNS * run_len) as u32;
        for j in 0..MAX_DEDUP_RUNS as u32 {
            insert_wide(&mut dd, &mut log, &(j..total).step_by(MAX_DEDUP_RUNS).collect::<Vec<_>>());
        }
        let model: BTreeMap<_, _> = (0..total).map(|v| (wide_key(v), v)).collect();
        let all_bytes = (total as usize * width) as u64;
        // Compaction read each run once and wrote one merged run.
        assert_eq!((dd.runs.len(), dd.runs[0].entries), (1, total as usize));
        assert_eq!(dd.run_bytes_read(), all_bytes);
        assert_eq!(dd.spilled_bytes(), 2 * all_bytes);
        assert_eq!(dd.merge_passes(), MAX_DEDUP_RUNS as u64);

        // The merged run holds the model's entries, in the model's order.
        let mut reader = RunReader::open(&dd.runs[0], width);
        let (mut chunk, mut merged) = (Vec::new(), Vec::new());
        while reader.read_chunk(&mut chunk) {
            for e in chunk.chunks_exact(width) {
                let words: Vec<u32> = entry_words(e).collect();
                merged.push(((entry_hash(e), [words[0], words[1]]), entry_index(e)));
            }
        }
        assert_eq!(merged, model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());

        // And every probe of it agrees with the model.
        let mut probes: Vec<_> = (0..total + 20).map(wide_key).collect();
        probes.extend((0..total).map(|v| (wide_key(v).0, [v, v])));
        assert_eq!(probe_against(&mut dd, &log, &model, probes, "merged"), all_bytes);
    }
}
