//! The packed configuration arena: interned states, flat `u32` words.
//!
//! A [`Configuration`] is two heap vectors — `Vec<ProcState<S>>` and
//! `Vec<Value>` — per node, hashed by recursive derive. At exploration
//! scale (10⁵–10⁶ nodes) that dominates memory and hash time. The
//! packed arena stores each interned configuration as a fixed-stride
//! run of `u32` **words** in one contiguous buffer:
//!
//! * one word per process slot, encoding the [`ProcState`]:
//!   `0` = crashed, `1` = retired, `2 + d` = decided `d` (a
//!   [`Decision`] is a `u8`, so `2..=257`), and `258 + id` = active in
//!   the state with interned id `id`;
//! * one word per object slot: the interned id of its [`Value`].
//!
//! Distinct `S` states and `Value`s are interned once in side tables
//! (the per-protocol **state codec** — the number of distinct local
//! states is tiny compared to the number of configurations). Equality
//! is a word-slice compare, hashing is one [`WordHasher`] pass over
//! flat words, and a node costs `4·(procs + objects)` bytes instead of
//! two allocations.
//!
//! The codec also keeps a **step table** ([`PackedArena::step`]): the
//! successors, as word deltas ([`Cand`]), of each step — an active
//! process word against the word of the value of the object its action
//! accesses, which determine the step (the
//! [`Protocol`](crate::protocol::Protocol) determinism contract). The
//! engine expands a node from its row alone and runs the protocol only
//! for a step the table does not hold yet; a successor's row is the
//! parent's with the stepping slot and the accessed object replaced,
//! re-sorted with [`PackedArena::sort_procs`] on the symmetry quotient.
//!
//! The word buffer itself is a [`WordStore`]: either one resident
//! `Vec<u32>` (the default) or a [`SpillStore`] of file-backed segments
//! with a bounded resident window, selected by
//! [`ExploreConfig::mem_budget_bytes`](super::ExploreConfig::mem_budget_bytes).
//! Every row access goes through [`PackedArena::row`], which a scan in
//! index order drives with one [`RowCursor`] and
//! [`PackedArena::with_words`] with a fresh one per read, so the two
//! backings are indistinguishable to the engine — same words, same
//! hashes, same ids. The codec tables always stay in RAM (they are
//! bounded by distinct states, not configurations).
//!
//! Ids are assigned only by [`PackedArena::encode_intern`] and the two
//! delta interners, and steps recorded only by
//! [`PackedArena::record_step`]; the engine calls them solely from its
//! sequential merge, and its parallel expansion reads the table frozen.
//! So id assignment and the table, and with them every word in the
//! arena, are deterministic for every `threads` setting and storage
//! tier. A delta assigns the same ids a full `encode_intern` of the
//! successor would: every unchanged slot was interned with the parent,
//! so the changed state and value are the only ones that can be new.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::size_of;
use std::ops::Range;

use crate::config::{Configuration, ProcState};
use crate::protocol::Decision;
use crate::value::Value;

use super::spill::{RowCursor, RowSource, SpillStore};

/// Process-slot word for a crashed process.
const WORD_CRASHED: u32 = 0;
/// Process-slot word for a retired process.
const WORD_RETIRED: u32 = 1;
/// Base of the decided band: `DECIDED_BASE + d` encodes `Decided(d)`.
const DECIDED_BASE: u32 = 2;
/// Base of the active band: `ACTIVE_BASE + id` encodes `Active(states[id])`.
const ACTIVE_BASE: u32 = DECIDED_BASE + 256;

/// The step table's "no word": a delta's value word when the step left
/// the accessed object as it was, and a decision's object and key.
pub(super) const NONE: u32 = u32::MAX;

/// One candidate successor, as a word delta against its parent's
/// packed row: the step (`pid`, `coin`), the stepping process's new
/// word, and the accessed object `obj`'s new value word ([`NONE`] if
/// the step left it). Every other slot is the parent's. The step table
/// memoizes a step's candidates whatever their `pid`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct Cand {
    pub(super) pid: u32,
    pub(super) coin: u32,
    pub(super) proc: u32,
    pub(super) obj: u32,
    pub(super) value: u32,
}

/// Node flag: some process decided 0. Bit 0 of the valency mask.
pub(super) const DECIDED_0: u8 = 1;
/// Node flag: some process decided a value ≥ 1. Bit 1 of the valency
/// mask (the analysis folds every nonzero decision into "1").
pub(super) const DECIDED_1: u8 = 2;
/// Node flag: no process is active (a terminal configuration). Bit 2
/// of the reachability mask, "a terminal node is reachable".
pub(super) const TERMINAL: u8 = 4;
/// Node flag: two processes decided different values.
pub(super) const INCONSISTENT: u8 = 8;
/// Node flag: some process decided a value that is no process's input.
pub(super) const INVALID: u8 = 16;

/// The flag byte of a row whose process words are `procs`: which of
/// [`DECIDED_0`], [`DECIDED_1`], [`TERMINAL`], [`INCONSISTENT`] and
/// [`INVALID`] hold, with `input[d]` saying whether `d` is an input.
fn proc_flags(procs: &[u32], input: &[bool; 256]) -> u8 {
    let mut flags = TERMINAL;
    let mut first: Option<u32> = None;
    for &w in procs {
        if w >= ACTIVE_BASE {
            flags &= !TERMINAL;
        } else if w >= DECIDED_BASE {
            let d = w - DECIDED_BASE;
            flags |= if d == 0 { DECIDED_0 } else { DECIDED_1 };
            if first.is_some_and(|f| f != d) {
                flags |= INCONSISTENT;
            }
            first.get_or_insert(d);
            if !input[d as usize] {
                flags |= INVALID;
            }
        }
    }
    flags
}

/// Odd multiplier of the [`WordHasher`] fold (2⁶⁴ / φ).
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The arena's one hasher: a multiply-rotate fold over 64-bit lanes
/// finished by MurmurHash3's `fmix64` avalanche.
///
/// It keys the codec maps (through [`WordBuild`]) and hashes packed
/// rows ([`hash_words`]). It is deterministic — no per-process keys —
/// and not collision-resistant against an adversary, which is fine
/// here: every key is a state, value or row the protocol itself
/// produced, a row hash only orders candidates and routes them to
/// dedup shards, and every dedup decision compares the full words. The
/// finalizer makes every output bit depend on every input bit: the
/// shard split (`((h · n) >> 64)`) reads the top bits and the codec
/// maps index by the low bits, and a bare fold leaves a difference in
/// the high half of the last lane out of the low bits entirely.
#[derive(Default)]
struct WordHasher(u64);

/// `BuildHasher` for the codec maps.
type WordBuild = BuildHasherDefault<WordHasher>;

impl WordHasher {
    #[inline]
    fn fold(&mut self, lane: u64) {
        self.0 = (self.0.rotate_left(26) ^ lane).wrapping_mul(FOLD_K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut lane = [0u8; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(lane));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Deterministic 64-bit hash of a packed configuration's words: the
/// [`WordHasher`] fold over the words two at a time.
pub(super) fn hash_words(words: &[u32]) -> u64 {
    let mut h = WordHasher::default();
    let mut pairs = words.chunks_exact(2);
    for pair in &mut pairs {
        h.fold(u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    if let [last] = pairs.remainder() {
        h.fold(u64::from(*last));
    }
    h.finish()
}

/// The backing buffer for packed rows: resident or spillable.
pub(super) enum WordStore {
    /// Everything in one resident vector (the default tier).
    Ram(Vec<u32>),
    /// File-backed segments with a bounded resident window.
    Spill(SpillStore),
}

/// Append-only arena of packed configurations plus the interning codec.
pub(super) struct PackedArena<S> {
    /// Words of every interned configuration, concatenated.
    store: WordStore,
    /// Process slots per configuration.
    n_procs: usize,
    /// Words per configuration (`n_procs + n_values`).
    stride: usize,
    /// Interned states: id → state.
    states: Vec<S>,
    /// Interned states: state → id.
    state_ids: HashMap<S, u32, WordBuild>,
    /// Interned object values: id → value.
    values: Vec<Value>,
    /// Interned object values: value → id.
    value_ids: HashMap<Value, u32, WordBuild>,
    /// The step table: the object slot the action of the state with id
    /// `i` accesses ([`NONE`] if it decides), `None` until a process in
    /// that state first steps.
    access: Vec<Option<u32>>,
    /// The step table: `(process word << 32 | key)` → the range of its
    /// candidates in `succ`, where the key is the accessed value's word
    /// ([`NONE`] for a decision); empty when the operation fails to
    /// apply.
    steps: HashMap<u64, (u32, u32), WordBuild>,
    /// Every recorded step's candidates, concatenated.
    succ: Vec<Cand>,
}

impl<S: Clone + Eq + Hash> PackedArena<S> {
    /// An empty resident arena for configurations of `n_procs`
    /// processes and `n_values` objects.
    pub(super) fn new(n_procs: usize, n_values: usize) -> Self {
        Self::with_store(n_procs, n_values, WordStore::Ram(Vec::new()))
    }

    /// An empty arena over an explicit word store (the engine passes a
    /// [`SpillStore`] when a memory budget is set).
    pub(super) fn with_store(n_procs: usize, n_values: usize, store: WordStore) -> Self {
        PackedArena {
            store,
            n_procs,
            stride: n_procs + n_values,
            states: Vec::new(),
            state_ids: HashMap::default(),
            values: Vec::new(),
            value_ids: HashMap::default(),
            access: Vec::new(),
            steps: HashMap::default(),
            succ: Vec::new(),
        }
    }

    /// Words per packed row.
    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    /// Process slots per row.
    pub(super) fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Number of interned configurations.
    pub(super) fn len(&self) -> usize {
        let words = match &self.store {
            WordStore::Ram(v) => v.len(),
            WordStore::Spill(s) => s.len_words(),
        };
        words.checked_div(self.stride).unwrap_or(0)
    }

    /// Run `f` over the packed words of configuration `i`, read through
    /// a fresh [`RowCursor`]: one row read out of order. In spill mode
    /// this may fault the row's segment into the resident window; `f`
    /// runs without the window lock held, so it may read other rows.
    pub(super) fn with_words<R>(&self, i: u32, f: impl FnOnce(&[u32]) -> R) -> R {
        f(self.row(&mut RowCursor::default(), i))
    }

    /// The packed words of configuration `i`, read through `cursor`:
    /// a plain slice in RAM mode; in spill mode a row of the segment
    /// the cursor pins, so a scan in index order looks each segment up
    /// once (see [`RowCursor`]).
    #[inline]
    pub(super) fn row<'a>(&'a self, cursor: &'a mut RowCursor, i: u32) -> &'a [u32] {
        let at = i as usize * self.stride;
        match &self.store {
            WordStore::Ram(v) => &v[at..at + self.stride],
            WordStore::Spill(s) => s.cursor_words(cursor, at, self.stride),
        }
    }

    /// Copy the packed words of configuration `i` into `out`.
    #[cfg(test)]
    pub(super) fn read_words(&self, i: u32, out: &mut Vec<u32>) {
        out.clear();
        self.with_words(i, |w| out.extend_from_slice(w));
    }

    /// Encode `config` into `out`, interning any new states and values.
    /// Only the engine's sequential merge may call this — id assignment
    /// order is part of the determinism guarantee.
    pub(super) fn encode_intern(&mut self, config: &Configuration<S>, out: &mut Vec<u32>) {
        debug_assert_eq!(config.procs.len(), self.n_procs);
        out.clear();
        for p in &config.procs {
            out.push(self.intern_proc(p));
        }
        for v in &config.values {
            out.push(self.intern_value(v));
        }
    }

    /// The process-slot word of `p`, interning its state if it is new.
    /// Sequential merge only, like [`encode_intern`](Self::encode_intern).
    pub(super) fn intern_proc(&mut self, p: &ProcState<S>) -> u32 {
        match p {
            ProcState::Crashed => WORD_CRASHED,
            ProcState::Retired => WORD_RETIRED,
            ProcState::Decided(d) => DECIDED_BASE + u32::from(*d),
            ProcState::Active(s) => {
                let id = match self.state_ids.get(s) {
                    Some(&id) => id,
                    None => {
                        let id = u32::try_from(self.states.len())
                            .expect("distinct-state count exceeds u32");
                        self.states.push(s.clone());
                        self.state_ids.insert(s.clone(), id);
                        id
                    }
                };
                ACTIVE_BASE + id
            }
        }
    }

    /// The object-slot word of `v`, interning it if it is new.
    /// Sequential merge only, like [`encode_intern`](Self::encode_intern).
    pub(super) fn intern_value(&mut self, v: &Value) -> u32 {
        if let Some(&id) = self.value_ids.get(v) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("distinct-value count exceeds u32");
        self.values.push(*v);
        self.value_ids.insert(*v, id);
        id
    }

    /// The state of an active process-slot word; `None` for a crashed,
    /// retired or decided slot.
    pub(super) fn state_of(&self, word: u32) -> Option<&S> {
        word.checked_sub(ACTIVE_BASE).map(|id| &self.states[id as usize])
    }

    /// The value an object-slot word encodes.
    pub(super) fn value_of(&self, word: u32) -> &Value {
        &self.values[word as usize]
    }

    /// The memoized candidates, in coin order, of a process in active
    /// word `proc` stepping in a configuration whose object words are
    /// `values`, if that step was recorded: looked up by the word of
    /// the value its action accesses ([`NONE`] for a decision).
    pub(super) fn step(&self, proc: u32, values: &[u32]) -> Option<&[Cand]> {
        let obj = self.access.get((proc - ACTIVE_BASE) as usize).copied().flatten()?;
        let key = values.get(obj as usize).copied().unwrap_or(NONE);
        let &(start, end) = self.steps.get(&(u64::from(proc) << 32 | u64::from(key)))?;
        Some(&self.succ[start as usize..end as usize])
    }

    /// Record that the action of the state in active word `proc`
    /// accesses object slot `obj` ([`NONE`] if it decides) and, against
    /// key `key`, has the candidates `succ`, unless that step is
    /// recorded already. Sequential merge only, like
    /// [`encode_intern`](Self::encode_intern).
    pub(super) fn record_step(&mut self, proc: u32, obj: u32, key: u32, succ: &[Cand]) {
        let id = (proc - ACTIVE_BASE) as usize;
        if self.access.len() <= id {
            self.access.resize(id + 1, None);
        }
        self.access[id] = Some(obj);
        if let Entry::Vacant(slot) = self.steps.entry(u64::from(proc) << 32 | u64::from(key)) {
            let start = self.succ.len() as u32;
            self.succ.extend_from_slice(succ);
            let end = u32::try_from(self.succ.len()).expect("step-table size exceeds u32");
            slot.insert((start, end));
        }
    }

    /// Forget every recorded step, keeping the codec.
    pub(super) fn forget_steps(&mut self) {
        self.steps.clear();
        self.succ.clear();
    }

    /// Distinct steps the table holds.
    pub(super) fn step_entries(&self) -> usize {
        self.steps.len()
    }

    /// Append an encoded configuration; returns its index.
    pub(super) fn push(&mut self, words: &[u32]) -> u32 {
        debug_assert_eq!(words.len(), self.stride);
        let i = self.len();
        debug_assert!(i < u32::MAX as usize);
        match &mut self.store {
            WordStore::Ram(v) => v.extend_from_slice(words),
            WordStore::Spill(s) => s.push_words(words),
        }
        i as u32
    }

    /// Sort a row's process words into the derived [`ProcState`] order
    /// — the order [`Configuration::canonicalize`] sorts the heap form
    /// into — comparing active states through the codec. Interning is
    /// injective, so equal words are equal states and the result is
    /// the canonical row whatever the sort's stability.
    pub(super) fn sort_procs(&self, procs: &mut [u32])
    where
        S: Ord,
    {
        // Derived variant order: Active < Decided < Crashed < Retired.
        let rank = |w: u32| match w {
            WORD_CRASHED => 2,
            WORD_RETIRED => 3,
            w if w < ACTIVE_BASE => 1,
            _ => 0,
        };
        procs.sort_unstable_by(|&a, &b| match (self.state_of(a), self.state_of(b)) {
            (Some(sa), Some(sb)) => sa.cmp(sb),
            _ => rank(a).cmp(&rank(b)).then(a.cmp(&b)),
        });
    }

    /// Decode configuration `i` back into its heap form.
    pub(super) fn decode(&self, i: u32) -> Configuration<S> {
        self.with_words(i, |words| {
            let procs = words[..self.n_procs]
                .iter()
                .map(|&w| match w {
                    WORD_CRASHED => ProcState::Crashed,
                    WORD_RETIRED => ProcState::Retired,
                    w if w < ACTIVE_BASE => ProcState::Decided((w - DECIDED_BASE) as Decision),
                    w => ProcState::Active(self.states[(w - ACTIVE_BASE) as usize].clone()),
                })
                .collect();
            let values =
                words[self.n_procs..].iter().map(|&w| self.values[w as usize]).collect();
            Configuration { procs, values }
        })
    }

    /// Whether the configuration whose packed words are `row` has at
    /// least one active process.
    pub(super) fn has_active(&self, row: &[u32]) -> bool {
        row[..self.n_procs].iter().any(|&w| w >= ACTIVE_BASE)
    }

    /// One flag byte per configuration, in index order, from one cursor
    /// pass over the arena: [`TERMINAL`], [`DECIDED_0`], [`DECIDED_1`],
    /// [`INCONSISTENT`] and [`INVALID`] (a decision outside `inputs`).
    /// Everything the analysis asks of a row, so it reads each row once.
    pub(super) fn node_flags(&self, inputs: &[Decision]) -> Vec<u8> {
        let mut input = [false; 256];
        for &d in inputs {
            input[usize::from(d)] = true;
        }
        let mut cursor = RowCursor::default();
        (0..self.len() as u32)
            .map(|i| proc_flags(&self.row(&mut cursor, i)[..self.n_procs], &input))
            .collect()
    }

    /// Sealed-segment lookups made so far (0 in RAM mode).
    pub(super) fn segment_reads(&self) -> u64 {
        match &self.store {
            WordStore::Ram(_) => 0,
            WordStore::Spill(s) => s.segment_reads(),
        }
    }

    /// Estimated **total** bytes of the arena's contents: every packed
    /// word (resident or spilled to segment files) plus the codec
    /// tables (each interned state/value sits in a dense vec and a
    /// hash-map entry; `MAP_ENTRY_BYTES` approximates the map-side
    /// bucket cost). In spill mode this keeps reporting the full
    /// logical footprint, not the resident window — `arena_bytes` and
    /// `bytes_per_config` stay comparable across tiers.
    pub(super) fn bytes(&self) -> usize {
        const MAP_ENTRY_BYTES: usize = 16;
        let words = match &self.store {
            WordStore::Ram(v) => v.len(),
            WordStore::Spill(s) => s.len_words(),
        };
        words * size_of::<u32>()
            + self.states.len() * (2 * size_of::<S>() + size_of::<u32>() + MAP_ENTRY_BYTES)
            + self.values.len() * (2 * size_of::<Value>() + size_of::<u32>() + MAP_ENTRY_BYTES)
    }

    /// Bytes actually resident in RAM right now: the full buffer in RAM
    /// mode, or the tail plus the loaded window in spill mode (codec
    /// excluded; it is shared and tiny).
    pub(super) fn resident_word_bytes(&self) -> usize {
        match &self.store {
            WordStore::Ram(v) => v.len() * size_of::<u32>(),
            WordStore::Spill(s) => s.resident_bytes(),
        }
    }

    /// Bytes written to spill segment files (0 in RAM mode).
    pub(super) fn spilled_bytes(&self) -> u64 {
        match &self.store {
            WordStore::Ram(_) => 0,
            WordStore::Spill(s) => s.spilled_bytes(),
        }
    }
}

/// The engine's seen-set reads key words from the arena itself: a
/// key's slot is its arena index, and a probe answers that index.
impl<S: Clone + Eq + Hash> RowSource for PackedArena<S> {
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&[u32]) -> R) -> R {
        self.with_words(slot, f)
    }

    fn copy_rows(&self, slots: Range<u32>, out: &mut Vec<u32>) {
        let (at, len) = (slots.start as usize * self.stride, slots.len() * self.stride);
        match &self.store {
            WordStore::Ram(v) => out.extend_from_slice(&v[at..at + len]),
            WordStore::Spill(s) => s.copy_words(at, len, out),
        }
    }

    fn index_of(&self, slot: u32) -> u32 {
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Configuration<u16> {
        Configuration {
            procs: vec![
                ProcState::Active(40_000),
                ProcState::Decided(255),
                ProcState::Crashed,
                ProcState::Retired,
                ProcState::Active(7),
            ],
            values: vec![Value::Bottom, Value::Int(-3), Value::Pair(1, 2)],
        }
    }

    #[test]
    fn round_trips_through_words() {
        let mut arena: PackedArena<u16> = PackedArena::new(5, 3);
        let c = sample();
        let mut words = Vec::new();
        arena.encode_intern(&c, &mut words);
        let i = arena.push(&words);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.decode(i), c);
        // Now everything is interned: re-encoding agrees word for word.
        let mut again = Vec::new();
        arena.encode_intern(&c, &mut again);
        assert_eq!(again, words);
        let mut copied = Vec::new();
        arena.read_words(i, &mut copied);
        assert_eq!(copied, words);
    }

    /// The flag byte a row's heap form implies, read off the
    /// [`Configuration`] predicates the engine's encoding must match.
    fn expected_flags(c: &Configuration<u16>, inputs: &[Decision]) -> u8 {
        let decided = c.decided_values();
        let mut flags = 0;
        if c.active_processes().is_empty() {
            flags |= TERMINAL;
        }
        if decided.contains(&0) {
            flags |= DECIDED_0;
        }
        if decided.iter().any(|&d| d >= 1) {
            flags |= DECIDED_1;
        }
        if c.is_inconsistent() {
            flags |= INCONSISTENT;
        }
        if decided.iter().any(|d| !inputs.contains(d)) {
            flags |= INVALID;
        }
        flags
    }

    #[test]
    fn node_flags_match_decoded_predicates() {
        let mut arena: PackedArena<u16> = PackedArena::new(5, 3);
        let c = sample();
        let mut words = Vec::new();
        arena.encode_intern(&c, &mut words);
        let i = arena.push(&words);
        assert!(arena.has_active(&words));
        let mut done = c.clone();
        done.procs = vec![
            ProcState::Decided(0),
            ProcState::Decided(1),
            ProcState::Crashed,
            ProcState::Retired,
            ProcState::Decided(0),
        ];
        arena.encode_intern(&done, &mut words);
        let j = arena.push(&words);
        assert!(!arena.has_active(&words));
        let flags = arena.node_flags(&[0, 1]);
        assert_eq!(flags[i as usize], DECIDED_1 | INVALID, "255 is no input");
        assert_eq!(flags[j as usize], TERMINAL | DECIDED_0 | DECIDED_1 | INCONSISTENT);
        assert_eq!(arena.node_flags(&[0, 1, 255])[i as usize], DECIDED_1);
    }

    proptest::proptest! {
        /// On random rows mixing crashed, retired, active and decided
        /// slots (0, 1 and values ≥ 2), each flag of the one-pass byte
        /// is the predicate the decoded configuration answers, and the
        /// validity flag is checked against the inputs given.
        #[test]
        fn node_flags_agree_with_configuration_predicates(
            slots in proptest::collection::vec(0u8..7, 48),
            inputs in proptest::collection::vec(0u8..4, 0..3),
        ) {
            let mut arena: PackedArena<u16> = PackedArena::new(4, 1);
            let mut words = Vec::new();
            let configs: Vec<Configuration<u16>> = slots
                .chunks_exact(4)
                .map(|row| Configuration {
                    procs: row
                        .iter()
                        .map(|&k| match k {
                            0 => ProcState::Crashed,
                            1 => ProcState::Retired,
                            2 => ProcState::Active(u16::from(k) * 100),
                            3 => ProcState::Decided(0),
                            4 => ProcState::Decided(1),
                            5 => ProcState::Decided(2),
                            _ => ProcState::Decided(200),
                        })
                        .collect(),
                    values: vec![Value::Int(0)],
                })
                .collect();
            for c in &configs {
                arena.encode_intern(c, &mut words);
                arena.push(&words);
            }
            let flags = arena.node_flags(&inputs);
            proptest::prop_assert_eq!(flags.len(), configs.len());
            for (c, &f) in configs.iter().zip(&flags) {
                proptest::prop_assert_eq!(f, expected_flags(c, &inputs), "{:?}", c.procs);
            }
        }
    }

    #[test]
    fn distinct_configurations_pack_to_distinct_words() {
        let mut arena: PackedArena<u16> = PackedArena::new(2, 1);
        let a = Configuration {
            procs: vec![ProcState::Active(1), ProcState::Active(2)],
            values: vec![Value::Int(0)],
        };
        let b = Configuration {
            procs: vec![ProcState::Active(2), ProcState::Active(1)],
            values: vec![Value::Int(0)],
        };
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        arena.encode_intern(&a, &mut wa);
        arena.encode_intern(&b, &mut wb);
        assert_ne!(wa, wb, "packing is injective on raw configurations");
        assert_ne!(hash_words(&wa), hash_words(&wb));
    }

    #[test]
    fn sort_procs_matches_canonicalize() {
        // A small LCG drives mixed vectors of every slot kind; states
        // are interned in arrival order, so id order is not state order.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % m
        };
        let mut arena: PackedArena<u16> = PackedArena::new(7, 1);
        let mut words = Vec::new();
        for _ in 0..500 {
            let procs = (0..7)
                .map(|_| match next(5) {
                    0 => ProcState::Crashed,
                    1 => ProcState::Retired,
                    2 => ProcState::Decided(next(3) as Decision),
                    _ => ProcState::Active(1000 - next(12) as u16 * 37),
                })
                .collect();
            let mut c = Configuration { procs, values: vec![Value::Int(0)] };
            arena.encode_intern(&c, &mut words);
            arena.sort_procs(&mut words[..7]);
            c.canonicalize();
            let mut expected = Vec::new();
            arena.encode_intern(&c, &mut expected);
            assert_eq!(words, expected, "{:?}", c.procs);
        }
    }

    #[test]
    fn row_hashes_split_evenly_in_top_and_low_bits() {
        // Low-entropy rows as the engine produces them: small state and
        // value ids in every slot, or rows that differ only in their
        // last word (which a bare multiply leaves out of the low bits).
        // Shards split on the top bits; the codec maps index by the low.
        const ROWS: u64 = 100_000;
        let row = |family: &str, i: u64| -> Vec<u32> {
            match family {
                "mixed" => vec![
                    ACTIVE_BASE + (i % 7) as u32,
                    ACTIVE_BASE + (i / 7 % 11) as u32,
                    DECIDED_BASE + (i / 77 % 3) as u32,
                    (i / 231 % 20) as u32,
                    (i / 4620) as u32,
                ],
                _ => vec![ACTIVE_BASE, ACTIVE_BASE + 1, 0, i as u32],
            }
        };
        let check = |name: &str, buckets: &[u64], tolerance: f64| {
            let fair = ROWS as f64 / buckets.len() as f64;
            for (k, &count) in buckets.iter().enumerate() {
                let skew = (count as f64 - fair).abs() / fair;
                assert!(skew <= tolerance, "{name}: bucket {k} of {} holds {count}", buckets.len());
            }
        };
        for family in ["mixed", "last word"] {
            let hashes: Vec<u64> = (0..ROWS).map(|i| hash_words(&row(family, i))).collect();
            for n in [2u64, 3] {
                let mut shards = vec![0u64; n as usize];
                for &h in &hashes {
                    shards[((u128::from(h) * u128::from(n)) >> 64) as usize] += 1;
                }
                check(&format!("{family}, {n} shards"), &shards, 0.02);
            }
            let mut low = [0u64; 16];
            for &h in &hashes {
                low[(h & 15) as usize] += 1;
            }
            check(&format!("{family}, low bits"), &low, 0.05);
        }
    }

    #[test]
    fn footprint_counts_words_and_codec() {
        let mut arena: PackedArena<u16> = PackedArena::new(5, 3);
        let mut words = Vec::new();
        arena.encode_intern(&sample(), &mut words);
        arena.push(&words);
        let per_config = (5 + 3) * size_of::<u32>();
        assert!(arena.bytes() >= per_config);
        // Codec is bounded by distinct states/values, not configs.
        let one = arena.bytes();
        arena.push(&words.clone());
        assert_eq!(arena.bytes(), one + per_config);
        assert_eq!(arena.spilled_bytes(), 0, "RAM arena never spills");
        assert!(arena.resident_word_bytes() >= 2 * per_config);
    }

    #[test]
    fn spill_backed_arena_is_word_identical_to_ram() {
        use super::super::spill::{BudgetPlan, SpillDir, SpillStore};
        let mut ram: PackedArena<u16> = PackedArena::new(5, 3);
        let plan = BudgetPlan { segment_bytes: 64, window_segments: 2, dedup_ram_bytes: 64 };
        let dir = SpillDir::create(None);
        let store = SpillStore::new(8, &plan, dir);
        let mut spill: PackedArena<u16> =
            PackedArena::with_store(5, 3, WordStore::Spill(store));
        let mut words = Vec::new();
        // Enough rows to seal several segments.
        for k in 0..100u16 {
            let mut c = sample();
            c.procs[4] = ProcState::Active(k);
            ram.encode_intern(&c, &mut words);
            let i = ram.push(&words);
            spill.encode_intern(&c, &mut words);
            let j = spill.push(&words);
            assert_eq!(i, j);
        }
        assert!(spill.spilled_bytes() > 0, "tiny segments must spill");
        assert_eq!(ram.bytes(), spill.bytes(), "totals are backing-independent");
        for i in 0..100u32 {
            assert_eq!(ram.decode(i), spill.decode(i));
            let (mut w, mut sw) = (Vec::new(), Vec::new());
            ram.read_words(i, &mut w);
            spill.read_words(i, &mut sw);
            assert_eq!(w, sw);
        }
        assert_eq!(ram.node_flags(&[0]), spill.node_flags(&[0]));
        assert!(spill.resident_word_bytes() < spill.bytes());
    }
}
