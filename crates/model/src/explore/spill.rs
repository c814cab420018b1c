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
//! * [`ExternalDedup`] is the engine's local seen-set on every tier.
//!   It stores **exact** entries — the 64-bit word hash *plus the full
//!   packed words* — so dedup decisions compare full configurations (a
//!   fingerprint-only store could merge two hash-colliding
//!   configurations and silently diverge). Entries live in a sorted RAM
//!   buffer. Without a budget the buffer is unbounded and nothing
//!   touches disk; under a budget, when the buffer exceeds its share it
//!   is flushed as a sorted *run* file. Each BFS level probes one sorted
//!   batch of candidate keys against the buffer and every run with
//!   two-pointer merges — strictly sequential I/O — and runs are
//!   compacted by k-way merge when they accumulate.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::transport::{FrontierTransport, TransportError};

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

/// One sealed sorted run of dedup entries on disk.
struct DedupRun {
    path: PathBuf,
    entries: usize,
}

/// Exact seen-set: a sorted RAM buffer, plus sorted run files when it
/// has a spill directory.
///
/// An entry is `(hash, packed words, arena index)`; ordering is
/// lexicographic on `(hash, words)`. Every key is inserted exactly once
/// (only newly-interned configurations are inserted), so an entry lives
/// in exactly one place — the RAM buffer or one run.
pub(super) struct ExternalDedup {
    stride: usize,
    /// Where runs go; `None` keeps every entry in the RAM buffer.
    dir: Option<Arc<SpillDir>>,
    ram_cap_bytes: usize,
    /// Sorted parallel arrays: entry `k` is `hashes[k]`, `indices[k]`,
    /// `words[k*stride..][..stride]`.
    hashes: Vec<u64>,
    indices: Vec<u32>,
    words: Vec<u32>,
    runs: Vec<DedupRun>,
    run_seq: u64,
    spilled_bytes: u64,
    merge_passes: u64,
}

/// Bytes one entry costs in the RAM buffer.
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
            indices: Vec::new(),
            words: Vec::new(),
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

    /// Bytes the RAM buffer holds allocated (capacity, not length).
    pub(super) fn resident_bytes(&self) -> usize {
        self.hashes.capacity() * 8 + self.indices.capacity() * 4 + self.words.capacity() * 4
    }

    /// The words of buffered entry `k`.
    fn row(&self, k: usize) -> &[u32] {
        &self.words[k * self.stride..(k + 1) * self.stride]
    }

    /// Whether buffered entry `k` sorts before key `(h, w)`.
    fn below(&self, k: usize, h: u64, w: &[u32]) -> bool {
        key_cmp(self.hashes[k], self.row(k), h, w) == Ordering::Less
    }

    /// The first buffered entry in `lo..hi` that does not sort before
    /// `(h, w)` (or `hi`), by binary search.
    fn lower_bound(&self, mut lo: usize, mut hi: usize, h: u64, w: &[u32]) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.below(mid, h, w) {
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
    fn gallop(&self, from: usize, h: u64, w: &[u32]) -> usize {
        let len = self.hashes.len();
        let (mut lo, mut step) = (from, 1);
        loop {
            let probe = lo + step - 1;
            if probe >= len {
                return self.lower_bound(lo, len, h, w);
            }
            if !self.below(probe, h, w) {
                return self.lower_bound(lo, probe, h, w);
            }
            lo = probe + 1;
            step *= 2;
        }
    }

    /// Resolve a sorted batch of candidate keys against the seen-set.
    ///
    /// `keys_h[k]` / `keys_w[k*stride..]` hold key `k`; keys are unique
    /// and ascending by `(hash, words)`. Returns, per key, the arena
    /// index of the matching interned configuration if one exists. One
    /// galloping pass over the RAM buffer plus one sequential scan per
    /// run — no random I/O.
    pub(super) fn probe_sorted(&mut self, keys_h: &[u64], keys_w: &[u32]) -> Vec<Option<u32>> {
        let stride = self.stride;
        let n = keys_h.len();
        let mut out = vec![None; n];
        // RAM buffer: each key's search starts where the last one ended.
        let mut ri = 0usize;
        for (ki, slot) in out.iter_mut().enumerate() {
            if ri == self.hashes.len() {
                break;
            }
            let (h, w) = (keys_h[ki], &keys_w[ki * stride..(ki + 1) * stride]);
            ri = self.gallop(ri, h, w);
            if ri < self.hashes.len() && self.hashes[ri] == h && self.row(ri) == w {
                *slot = Some(self.indices[ri]);
                ri += 1;
            }
        }
        // Run merges.
        self.merge_passes += self.runs.len() as u64;
        for r in 0..self.runs.len() {
            let (path, entries) = (self.runs[r].path.clone(), self.runs[r].entries);
            let mut reader = RunReader::open(&path, entries, stride);
            let mut ki = 0usize;
            while let Some((h, idx)) = reader.next() {
                let w = reader.words();
                while ki < n
                    && key_cmp(keys_h[ki], &keys_w[ki * stride..(ki + 1) * stride], h, w)
                        == Ordering::Less
                {
                    ki += 1;
                }
                if ki == n {
                    break;
                }
                if key_cmp(keys_h[ki], &keys_w[ki * stride..(ki + 1) * stride], h, w)
                    == Ordering::Equal
                {
                    out[ki] = Some(idx);
                    ki += 1;
                }
            }
        }
        out
    }

    /// Insert a sorted batch of new entries (keys ascending, unique, and
    /// not present anywhere in the seen-set). The buffer grows in place
    /// and the batch is merged in from the back, so no second copy of
    /// the buffer is ever allocated: each new key's slot is found by
    /// binary search, and the old entries above it move up as one block.
    /// With a spill directory, flushes the buffer as a run when it
    /// exceeds its budget share, and compacts runs when they accumulate.
    pub(super) fn insert_sorted(&mut self, new_h: &[u64], new_idx: &[u32], new_w: &[u32]) {
        let stride = self.stride;
        let (mut a, mut b) = (self.hashes.len(), new_h.len());
        if self.dir.is_some() {
            // A budgeted buffer grows exactly, so amortized doubling
            // never overshoots the share of the budget it accounts for.
            self.hashes.reserve_exact(b);
            self.indices.reserve_exact(b);
            self.words.reserve_exact(b * stride);
        }
        self.hashes.resize(a + b, 0);
        self.indices.resize(a + b, 0);
        self.words.resize((a + b) * stride, 0);
        // Largest new key first: the old entries above its slot `p`
        // shift up by the `b` keys still to place, and the key lands
        // just below them. Once the batch is exhausted the remaining old
        // entries are already in place.
        while b > 0 {
            let key_w = &new_w[(b - 1) * stride..b * stride];
            let p = self.lower_bound(0, a, new_h[b - 1], key_w);
            self.hashes.copy_within(p..a, p + b);
            self.indices.copy_within(p..a, p + b);
            self.words.copy_within(p * stride..a * stride, (p + b) * stride);
            let out = p + b - 1;
            self.hashes[out] = new_h[b - 1];
            self.indices[out] = new_idx[b - 1];
            self.words[out * stride..(out + 1) * stride].copy_from_slice(key_w);
            (a, b) = (p, b - 1);
        }
        if self.hashes.len() * entry_bytes(stride) > self.ram_cap_bytes {
            self.flush_ram();
            if self.runs.len() >= MAX_DEDUP_RUNS {
                self.compact_runs();
            }
        }
    }

    fn flush_ram(&mut self) {
        let Some(dir) = &self.dir else { return };
        if self.hashes.is_empty() {
            return;
        }
        let path = dir.file(&format!("dedup-run-{}.bin", self.run_seq));
        self.run_seq += 1;
        let mut w = RunWriter::create(&path);
        for k in 0..self.hashes.len() {
            w.write(self.hashes[k], self.indices[k], &self.words[k * self.stride..(k + 1) * self.stride]);
        }
        let bytes = w.finish();
        self.spilled_bytes += bytes;
        self.runs.push(DedupRun { path, entries: self.hashes.len() });
        self.hashes.clear();
        self.indices.clear();
        self.words.clear();
        self.hashes.shrink_to_fit();
        self.indices.shrink_to_fit();
        self.words.shrink_to_fit();
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

/// The local seen-set speaks the frontier-exchange seam natively: its
/// two batch operations *are* the trait, and it never fails (I/O
/// trouble panics with a diagnostic, as everywhere else in this module
/// — a half-written spill file has no sound recovery). `open`/`close`
/// are no-ops: the store's lifetime is the search's.
impl FrontierTransport for ExternalDedup {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        debug_assert_eq!(stride, self.stride);
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        Ok(ExternalDedup::probe_sorted(self, hashes, words))
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        ExternalDedup::insert_sorted(self, hashes, indices, words);
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        Ok(())
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

    #[test]
    fn external_dedup_probe_matches_inserts_across_flushes() {
        let stride = 2usize;
        // Entries come in pairs that share a hash, so equal-hash keys
        // must be told apart by their words.
        let key = |v: u32| (u64::from(v / 2) * 11, [v, v * 3]);
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
            // With a spill directory the tiny RAM cap forces several run
            // flushes and at least one compaction; without one every
            // entry stays in the RAM buffer.
            for spill in [true, false] {
                let mut dd = if spill {
                    ExternalDedup::new(stride, &plan(), SpillDir::create(None))
                } else {
                    ExternalDedup::in_ram(stride)
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
                    dd.insert_sorted(&h, &idx, &w);
                }
                assert_eq!(dd.spilled_bytes() > 0, spill, "{name}: runs flush only with a dir");
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
                let got = dd.probe_sorted(&h, &w);
                for (k, p) in probes.iter().enumerate() {
                    assert_eq!(got[k], p.2, "{name} (spill={spill}): probe {k} diverged");
                }
                // A sparse batch (every 17th probe plus the first and the
                // last) gallops over long stretches of the buffer.
                let last = probes.len() - 1;
                let sparse: Vec<_> =
                    probes.iter().enumerate().filter(|&(k, _)| k % 17 == 0 || k == last).collect();
                let h: Vec<u64> = sparse.iter().map(|(_, e)| e.0).collect();
                let w: Vec<u32> = sparse.iter().flat_map(|(_, e)| e.1).collect();
                let got = dd.probe_sorted(&h, &w);
                for (s, (k, p)) in sparse.iter().enumerate() {
                    assert_eq!(got[s], p.2, "{name} (spill={spill}): sparse probe {k} diverged");
                }
                assert_eq!(dd.merge_passes() > 0, spill, "{name}");
            }
        }
    }
}
