//! The shared breadth-first exploration engine.
//!
//! Every exhaustive search in this crate — consensus checking
//! ([`Explorer::explore_from`](super::Explorer::explore_from)), valency
//! analysis ([`Explorer::valency`](super::Explorer::valency)), both at
//! once from one graph
//! ([`Explorer::explore_with_valency`](super::Explorer::explore_with_valency)),
//! and safety-property search
//! ([`Explorer::find_violation`](super::Explorer::find_violation)) — is
//! a thin wrapper over one [`bfs`] call. The engine owns five
//! responsibilities:
//!
//! 1. **Packing.** Each distinct configuration is stored exactly once,
//!    as a fixed-stride run of `u32` words in an append-only
//!    [`PackedArena`] (interned states and values; see [`super::pack`]).
//!    All bookkeeping refers to configurations by their `u32` arena
//!    index, and none of it allocates per configuration: parent links
//!    are one 12-byte [`Link`] per node, successor edges one append-only
//!    [`Csr`] (see [`super::graph`]), and the frontier an index range.
//!    The graph costs `12·n + 4·(n+1) + 4·e` bytes beside the arena,
//!    and hashing/equality run over flat words.
//! 2. **Canonicalization.** When the caller opts in and the protocol
//!    declares itself [`Symmetric`](crate::protocol::Symmetry), every
//!    candidate successor is mapped to its permutation-class
//!    representative (sorted process vector) before dedup, so the
//!    search runs on the symmetry quotient (see [`super::canonical`]).
//! 3. **Dedup.** One level merge, [`merge_level`], decides how every
//!    search's candidates are deduplicated and ordered. Per level it
//!    groups the candidates' packed keys (64-bit word hash, then the
//!    full words) through a table local to the level, sorts only the
//!    distinct keys and resolves them against the seen-set in one
//!    sorted probe batch, and inserts the newly interned keys in one
//!    sorted batch at the positions the probe found. The seen-set is
//!    either the local [`ExternalDedup`](super::spill::ExternalDedup)
//!    — an unbounded sorted RAM buffer by default, spilling sorted runs
//!    to disk under [`ExploreConfig::mem_budget_bytes`] — or a
//!    caller-supplied [`FrontierTransport`](super::FrontierTransport)
//!    (the distributed tier). The local store keeps only a
//!    `(hash, arena index)` pair per key and reads a key's words from
//!    its arena row when two hashes tie, so the arena is the one copy
//!    of every row; a transport is sent the words. Keys compare on full
//!    words, so every tier makes the same dedup decisions, and every
//!    result is identical across tiers. The POR cycle proviso is
//!    decided on the same probe result (see [`merge_level`]).
//! 4. **Deterministic parallelism.** Each BFS level is processed in two
//!    phases. Phase 1 expands the frontier — in parallel chunks under
//!    [`std::thread::scope`] when the frontier is large enough — with
//!    *read-only* access to the arena and its step table: each node is
//!    expanded straight from its packed row into one flat buffer of
//!    word deltas per chunk, a step the table holds with no protocol
//!    call (see [`expand_node`]); no configuration is decoded or
//!    cloned. Phase 2 merges the candidates sequentially at the level
//!    barrier: it interns the states and values of the steps the table
//!    missed, in frontier order, and records those steps, builds each
//!    candidate's row from its parent's, resolves duplicates (including
//!    those discovered concurrently within the level), assigns arena
//!    indices by first occurrence in frontier order, and records edges.
//!    Because of that order — and because the canonical order is the
//!    protocol-level `Ord` on states, not an interning artifact — the
//!    arena order (and hence every witness, count, and flag derived
//!    from it) is **identical to a sequential BFS regardless of thread
//!    count or storage tier**.
//! 5. **Checkpointing.** When a search stops cleanly at a level
//!    boundary (deadline or depth budget, never a mid-level config cap)
//!    and [`ExploreConfig::checkpoint`] is set, the parent forest is
//!    serialized so [`bfs_resume`] can rebuild the exact engine state
//!    and continue — see [`super::checkpoint`] for the soundness
//!    argument.

use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::config::{Configuration, ProcState};
use crate::process::ProcessId;
use crate::protocol::{Action, Decision, ObjectSpec, Protocol};
use crate::value::Value;

use super::canonical::{permutations_of_sorted, Canonicalizer};
use super::checkpoint::{Checkpoint, CheckpointError};
use super::graph::{Csr, Link};
use super::pack::{hash_words, Cand, PackedArena, WordStore, NONE};
use super::por::{Ample, PorContext};
use super::spill::{BudgetPlan, ExternalDedup, RowCursor, SpillDir, SpillStore};
use super::transport::{SharedFrontier, TransportError};
use super::ExploreConfig;

/// A caller-supplied early-stop predicate over configurations.
pub(super) type StopFn<'a, S> = dyn Fn(&Configuration<S>) -> bool + Sync + 'a;

/// Frontiers smaller than this are expanded inline: at this scale the
/// per-level thread spawn costs more than the expansion work it buys.
const PARALLEL_FRONTIER_MIN: usize = 64;

/// The seen-set behind the level merge: the local sorted-batch store
/// over the arena's rows (resident, or spilling sorted runs under a
/// memory budget) or a pluggable
/// [`FrontierTransport`](super::FrontierTransport) (typically a remote,
/// sharded seen-set — see [`super::transport`]). [`LevelKeys`] sends
/// both the same sorted batches, so the tier never changes interning
/// order or any result.
pub(super) enum Dedup {
    Local(ExternalDedup),
    Shared(SharedFrontier),
}

impl Dedup {
    /// Begin the search; the local store starts empty as built.
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        match self {
            Dedup::Local(_) => Ok(()),
            Dedup::Shared(t) => t.lock().open(stride),
        }
    }

    /// End the search and release any session state.
    fn close(&mut self) -> Result<(), TransportError> {
        match self {
            Dedup::Local(_) => Ok(()),
            Dedup::Shared(t) => t.lock().close(),
        }
    }
}

/// Pre-resolved global-registry handles for the engine's per-level
/// metrics flush. Tallies are kept in plain locals during the merge and
/// written here once per level barrier, so the per-candidate path never
/// touches an atomic; the struct only exists when metrics were enabled
/// when the search started.
struct EngineMetrics {
    levels: randsync_obs::Counter,
    candidates: randsync_obs::Counter,
    level_keys: randsync_obs::Counter,
    dedup_hits: randsync_obs::Counter,
    interned: randsync_obs::Counter,
    frontier: randsync_obs::Histogram,
    arena_bytes: randsync_obs::Gauge,
    spilled_bytes: randsync_obs::Gauge,
    max_depth: randsync_obs::Gauge,
    raw_represented: randsync_obs::Gauge,
    /// `explore.phase.<name>_us` for each of [`PHASES`].
    phases: [randsync_obs::Histogram; 6],
}

/// A level's phases, timed once per level when metrics are on:
/// frontier expansion, then the passes of [`merge_level`].
const PHASES: [&str; 6] = ["expand", "encode", "group", "probe", "intern", "insert"];

/// A level's phase clock: when the current phase began, and the
/// histograms to time phases into; `None` when metrics are off.
type Clock<'a> = Option<(Instant, &'a [randsync_obs::Histogram; 6])>;

/// Time the phase that began at `clock` as [`PHASES`]`[phase]` and
/// start the next one.
fn lap(clock: &mut Clock<'_>, phase: usize) {
    if let Some((started, phases)) = clock {
        let now = Instant::now();
        phases[phase].observe(now.duration_since(*started).as_micros() as u64);
        *started = now;
    }
}

impl EngineMetrics {
    fn resolve() -> Option<Self> {
        if !randsync_obs::metrics_enabled() {
            return None;
        }
        let m = randsync_obs::global_metrics();
        Some(EngineMetrics {
            levels: m.counter("explore.levels"),
            candidates: m.counter("explore.candidates"),
            level_keys: m.counter("explore.level_keys"),
            dedup_hits: m.counter("explore.dedup_hits"),
            interned: m.counter("explore.interned"),
            frontier: m.histogram("explore.frontier"),
            arena_bytes: m.gauge("explore.arena_bytes"),
            spilled_bytes: m.gauge("explore.spilled_bytes"),
            max_depth: m.gauge("explore.max_depth"),
            raw_represented: m.gauge("explore.raw_represented"),
            phases: PHASES.map(|p| m.histogram(&format!("explore.phase.{p}_us"))),
        })
    }
}

/// The interned BFS forest produced by [`bfs`].
pub(super) struct BfsGraph<S> {
    /// The packed configuration arena, in BFS (insertion) order; index
    /// 0 is the start configuration (canonicalized in canonical mode).
    pub(super) arena: PackedArena<S>,
    /// `parent[i]` is the node and step that first reached node `i`
    /// ([`Link::ROOT`] only for the start node), one flat 12-byte link
    /// per node; follows shortest paths. In canonical mode the step
    /// applies to the canonical parent and the result re-canonicalizes
    /// to node `i`.
    pub(super) parent: Vec<Link>,
    /// Successor edges as one CSR over all nodes, each node's edges in
    /// `(pid, coin)` enumeration order, including edges to
    /// already-interned nodes. Appended as nodes are expanded in index
    /// order and closed at every node when the search ends. Empty
    /// unless edges were requested.
    pub(super) succ: Csr,
    /// Whether the search ran on the symmetry quotient.
    pub(super) canonical: bool,
    /// Total raw configurations represented: the sum over interned
    /// nodes of their permutation-class sizes. Equals the node count in
    /// raw mode. Saturates at `usize::MAX`; see
    /// [`raw_overflow`](BfsGraph::raw_overflow).
    pub(super) raw_represented: usize,
    /// The multinomial accumulation above saturated — the reported
    /// `raw_configs` is a floor, not the true count.
    pub(super) raw_overflow: bool,
    /// A successor was dropped because the arena reached `max_configs`.
    pub(super) config_capped: bool,
    /// The search stopped at a level boundary because
    /// [`ExploreConfig::deadline`] had passed.
    pub(super) deadline_hit: bool,
    /// The depth budget cut off at least one node that still had active
    /// processes (i.e. exploration genuinely stopped early).
    pub(super) depth_capped_active: bool,
    /// The depth budget cut off at least one node of any kind (the
    /// stricter flag used by safety search, which makes no claims about
    /// nodes beyond the horizon).
    pub(super) depth_capped_any: bool,
    /// The first node (in BFS order) satisfying the stop predicate, if
    /// one was given and matched.
    pub(super) hit: Option<u32>,
    /// Whether the search ran on the spillable (out-of-core) tier.
    pub(super) spill_mode: bool,
    /// Total bytes written to spill files (arena segments + dedup runs).
    pub(super) spilled_bytes: u64,
    /// Sequential merge scans performed over on-disk dedup runs.
    pub(super) dedup_merge_passes: u64,
    /// Bytes read from on-disk dedup runs by probes and compactions.
    pub(super) dedup_run_bytes: u64,
    /// Resident bytes at the end of the search: the arena's resident
    /// words plus [`seen_bytes`](BfsGraph::seen_bytes).
    pub(super) resident_bytes: usize,
    /// Bytes of the local seen-set's resident buffer at the end of the
    /// search; 0 when the seen-set lives behind a transport.
    pub(super) seen_bytes: usize,
    /// Path a checkpoint was written to, if one was requested and the
    /// search stopped checkpointably.
    pub(super) checkpoint_written: Option<std::path::PathBuf>,
    /// Why a requested checkpoint could not be written, if it failed.
    pub(super) checkpoint_error: Option<String>,
    /// The frontier transport failed mid-search; the graph is a valid
    /// BFS prefix but the search could not continue.
    pub(super) transport_error: Option<String>,
    /// Whether the search ran with partial-order reduction.
    pub(super) por_enabled: bool,
    /// Steps run through the protocol (see [`resolve_misses`]).
    pub(super) step_misses: u64,
    /// Enabled process moves skipped by ample-set reduction (each a
    /// whole process's turn at a node, however many coin outcomes it
    /// would have fanned into).
    pub(super) por_pruned: usize,
    /// Reduced nodes re-expanded in full by the cycle proviso (an edge
    /// back to the same or an earlier BFS level).
    pub(super) por_fallbacks: usize,
}

impl<S: Clone + Eq + Hash> BfsGraph<S> {
    /// An empty graph over `arena` for `search`, on the tier `dedup`
    /// selected.
    fn new<P: Protocol<State = S>>(arena: PackedArena<S>, search: &Search<'_, P>, dedup: &Dedup) -> Self {
        BfsGraph {
            arena,
            parent: Vec::new(),
            succ: Csr::default(),
            canonical: search.canon.enabled(),
            raw_represented: 0,
            raw_overflow: false,
            config_capped: false,
            deadline_hit: false,
            depth_capped_active: false,
            depth_capped_any: false,
            hit: None,
            spill_mode: matches!(dedup, Dedup::Local(d) if d.spills()),
            spilled_bytes: 0,
            dedup_merge_passes: 0,
            dedup_run_bytes: 0,
            resident_bytes: 0,
            seen_bytes: 0,
            checkpoint_written: None,
            checkpoint_error: None,
            transport_error: None,
            por_enabled: search.por.is_some(),
            step_misses: 0,
            por_pruned: 0,
            por_fallbacks: 0,
        }
    }

    /// Heap bytes of the graph bookkeeping, from lengths: one
    /// [`Link`] per node plus the edge CSR.
    pub(super) fn graph_bytes(&self) -> usize {
        std::mem::size_of::<Link>() * self.parent.len() + self.succ.heap_bytes()
    }

    /// Accumulate one interned node's permutation-class size into the
    /// raw-represented total with explicit overflow tracking (the
    /// multinomials at n ≥ 4 scales can exceed `usize`).
    fn add_class(&mut self, class: usize) {
        if class == usize::MAX {
            self.raw_overflow = true;
        }
        match self.raw_represented.checked_add(class) {
            Some(v) => self.raw_represented = v,
            None => {
                self.raw_represented = usize::MAX;
                self.raw_overflow = true;
            }
        }
    }
}

/// What one search holds fixed across all of its levels.
struct Search<'a, P: Protocol> {
    protocol: &'a P,
    /// `Protocol::objects` allocates a fresh Vec per call; hoisted out
    /// of the hot loop once for the whole search.
    specs: Vec<ObjectSpec>,
    canon: Canonicalizer,
    /// The reduction context, built once per search; `ample` is then a
    /// pure function of each configuration.
    por: Option<PorContext<P::State>>,
    stop: Option<&'a StopFn<'a, P::State>>,
    record_edges: bool,
    max_configs: usize,
}

/// A step the step table missed, run through the protocol: its answer
/// in heap form, which [`resolve_misses`] interns into the candidates
/// from `at` on and records as [`PackedArena::record_step`] takes it.
struct Miss<S> {
    at: usize,
    proc: u32,
    obj: u32,
    key: u32,
    /// The accessed object's new value, if the step changed it.
    value: Option<Value>,
    /// The stepping process's successor slot of each coin outcome.
    next: Vec<ProcState<S>>,
}

/// The expansion of a run of consecutive frontier nodes: their
/// candidates in one flat buffer, the steps the table missed, and per
/// node its end offset in `cands` and the enabled moves the ample-set
/// reduction skipped there (0 if it was not reduced).
struct Expansion<S> {
    cands: Vec<Cand>,
    misses: Vec<Miss<S>>,
    ends: Vec<(usize, u32)>,
}

impl<S> Default for Expansion<S> {
    fn default() -> Self {
        Expansion { cands: Vec::new(), misses: Vec::new(), ends: Vec::new() }
    }
}

/// Append all one-step successors of the node whose packed words are
/// `row` to `out`, in `(pid, coin)` order — the same order as
/// [`super::successors`] — as deltas against `row`.
///
/// The node is never decoded. A step the arena's step table holds
/// emits its memoized candidates with no protocol call; only a step
/// the table misses runs the protocol, on states and values borrowed
/// from the codec, and leaves a [`Miss`] for [`resolve_misses`].
///
/// With a [`PorContext`], the node may be reduced to a singleton ample
/// set: only that process's steps are expanded (and the skipped moves
/// recorded). The ample choice is a pure function of the configuration,
/// so parallel workers and sequential re-expansion agree. If the ample
/// process turns out to contribute no successors (a degenerate apply
/// failure), the node falls back to full expansion — a reduced node
/// must never look terminal when it is not.
fn expand_node<P: Protocol>(
    search: &Search<'_, P>,
    arena: &PackedArena<P::State>,
    row: &[u32],
    por: Option<&PorContext<P::State>>,
    out: &mut Expansion<P::State>,
) {
    let protocol = search.protocol;
    let (procs, values) = row.split_at(arena.n_procs());
    let restrict: Option<ProcessId> = por.and_then(|ctx| {
        match ctx.ample(protocol, procs.iter().map(|&w| arena.state_of(w))) {
            Ample::Singleton(p) => Some(p),
            Ample::Full => None,
        }
    });
    let (first, misses) = (out.cands.len(), out.misses.len());
    let mut pruned = 0u32;
    for (slot, &word) in procs.iter().enumerate() {
        let Some(state) = arena.state_of(word) else { continue };
        if restrict.is_some_and(|p| p != ProcessId(slot)) {
            pruned += 1;
            continue;
        }
        // `make_store` checked that every slot index fits in `u32`.
        let pid = slot as u32;
        if let Some(succ) = arena.step(word, values) {
            out.cands.extend(succ.iter().map(|&c| Cand { pid, ..c }));
            continue;
        }
        let at = out.cands.len();
        let miss = match protocol.action(state) {
            Action::Decide(d) => {
                Miss { at, proc: word, obj: NONE, key: NONE, value: None, next: vec![ProcState::Decided(d)] }
            }
            Action::Invoke { object, op } => {
                // An object the protocol does not declare has no step.
                let (Some(spec), Some(&key)) = (search.specs.get(object.0), values.get(object.0)) else {
                    continue;
                };
                let value = arena.value_of(key);
                let (value, next) = match spec.kind.apply(value, &op) {
                    Ok((new_value, resp)) => {
                        let domain = protocol.coin_domain(state, &resp).max(1);
                        let next = (0..domain).map(|c| ProcState::Active(protocol.transition(state, &resp, c)));
                        ((new_value != *value).then_some(new_value), next.collect())
                    }
                    Err(_) => (None, Vec::new()),
                };
                Miss { at, proc: word, obj: object.0 as u32, key, value, next }
            }
        };
        let coins = 0..miss.next.len() as u32;
        out.cands.extend(coins.map(|coin| Cand { pid, coin, proc: 0, obj: miss.obj, value: NONE }));
        out.misses.push(miss);
    }
    if restrict.is_some() && out.cands.len() == first && pruned > 0 {
        // The ample process contributed nothing; expand in full.
        out.misses.truncate(misses);
        return expand_node(search, arena, row, None, out);
    }
    out.ends.push((out.cands.len(), pruned));
}

/// Intern the answers of the steps `exp` missed, in candidate order,
/// into its candidates' words and record the steps; only a missed step
/// can bring a new state or value, so the codec assigns the ids
/// interning every candidate in order would. Returns the miss count.
fn resolve_misses<S: Clone + Eq + Hash>(arena: &mut PackedArena<S>, exp: &mut Expansion<S>) -> u64 {
    let missed = exp.misses.len() as u64;
    for miss in exp.misses.drain(..) {
        let value = miss.value.map_or(NONE, |v| arena.intern_value(&v));
        let cands = &mut exp.cands[miss.at..miss.at + miss.next.len()];
        for (cand, next) in cands.iter_mut().zip(&miss.next) {
            (cand.proc, cand.value) = (arena.intern_proc(next), value);
        }
        arena.record_step(miss.proc, miss.obj, miss.key, cands);
    }
    missed
}

/// Per-level merge tallies, flushed to metrics at the level barrier.
struct LevelStats {
    candidates: u64,
    keys: u64,
    dedup: u64,
    interned: u64,
}

/// Pick the storage tier from the configuration. A transport takes
/// precedence: the arena (and with it interning order) stays local
/// while the seen-set lives behind the seam. Otherwise the seen-set is
/// a local [`ExternalDedup`]: an unbounded RAM buffer over a resident
/// arena, or — under a memory budget — a spilling one over a
/// segment-backed arena.
fn make_store<S: Clone + Eq + Hash>(
    config: &ExploreConfig,
    n_procs: usize,
    n_values: usize,
) -> (PackedArena<S>, Dedup) {
    let stride = n_procs + n_values;
    // Parent links and candidates carry the pid as `u32`.
    assert!(u32::try_from(n_procs).is_ok(), "{n_procs} processes overflow a u32 pid");
    if let Some(transport) = &config.transport {
        return (PackedArena::new(n_procs, n_values), Dedup::Shared(transport.clone()));
    }
    if config.mem_budget_bytes == 0 {
        return (PackedArena::new(n_procs, n_values), Dedup::Local(ExternalDedup::in_ram(stride)));
    }
    let plan = BudgetPlan::for_budget(config.mem_budget_bytes, stride);
    let dir = SpillDir::create(config.spill_dir.clone());
    let store = SpillStore::new(stride, &plan, Arc::clone(&dir));
    (
        PackedArena::with_store(n_procs, n_values, WordStore::Spill(store)),
        Dedup::Local(ExternalDedup::new(stride, &plan, dir)),
    )
}

/// Depth-synchronous breadth-first exploration from `start`.
///
/// When `stop` is given, the search halts at the end of the level in
/// which the first (in BFS order) matching node is interned, recording
/// it in [`BfsGraph::hit`]; the predicate is evaluated on every node
/// exactly once, as it is interned (on the canonical representative in
/// canonical mode). When `record_edges` is set, the full successor
/// multigraph is recorded in [`BfsGraph::succ`].
///
/// The result is bit-identical for every `threads` setting — and for
/// every storage tier: parallel workers only *propose* successors, and
/// the sequential merge at each level barrier interns them — and
/// assigns codec ids — in frontier order.
pub(super) fn bfs<P>(
    protocol: &P,
    start: Configuration<P::State>,
    config: &ExploreConfig,
    record_edges: bool,
    stop: Option<&StopFn<'_, P::State>>,
) -> BfsGraph<P::State>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let canon = Canonicalizer::for_protocol(protocol, config.canonical);
    let mut start = start;
    canon.canonicalize(&mut start);
    let search = Search {
        protocol,
        specs: protocol.objects(),
        por: config.por.then(|| PorContext::build(protocol, &start)),
        canon,
        stop,
        record_edges,
        max_configs: config.limits.max_configs,
    };

    let (arena, mut dedup) = make_store(config, start.procs.len(), start.values.len());
    let mut g = BfsGraph::new(arena, &search, &dedup);
    let mut words: Vec<u32> = Vec::new();
    g.arena.encode_intern(&start, &mut words);
    g.arena.push(&words);
    g.parent.push(Link::ROOT);
    g.add_class(search.canon.class_size(&start.procs));
    // The start configuration goes to the seen-set as a batch of one.
    let mut lev = LevelKeys::new(g.arena.stride());
    lev.push_row(&words, Link::ROOT);
    let opened = dedup.open(g.arena.stride()).and_then(|()| match lev.admit(&mut dedup, &g.arena, 0)? {
        None => Ok(()),
        Some(_) => Err(TransportError::new("the seen-set already holds the start configuration")),
    });
    let final_depth = match opened {
        Err(e) => {
            g.transport_error = Some(e.to_string());
            0
        }
        Ok(()) if stop.is_some_and(|pred| pred(&start)) => {
            g.hit = Some(0);
            0
        }
        Ok(()) => run_levels(&search, config, &mut g, &mut dedup, lev, 0..1, 0),
    };
    finalize(&mut g, &dedup, config, record_edges, final_depth);
    // Close failures are unreportable: the search already finished.
    let _ = dedup.close();
    g
}

/// Rebuild a checkpointed search and continue it to completion (or the
/// next budget) under `config`.
///
/// The checkpoint stores only the parent forest; the arena, codec,
/// seen-set, and frontier are reconstructed by replaying one protocol
/// step per node in the original BFS order, which reproduces every
/// interned word and codec id exactly (see [`super::checkpoint`]). The
/// resumed search may run on a different storage tier than the one
/// that wrote the checkpoint.
pub(super) fn bfs_resume<P>(
    protocol: &P,
    ckpt: &Checkpoint,
    config: &ExploreConfig,
) -> Result<BfsGraph<P::State>, CheckpointError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let canon = Canonicalizer::for_protocol(protocol, ckpt.canonical);
    if canon.enabled() != ckpt.canonical {
        return Err(CheckpointError::Mismatch(
            "checkpoint ran on the symmetry quotient but this protocol does not grant it".into(),
        ));
    }
    let inputs: Vec<Decision> = ckpt.inputs.clone();
    if inputs.len() != protocol.num_processes() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} inputs, protocol has {} processes",
            inputs.len(),
            protocol.num_processes()
        )));
    }
    let mut start = Configuration::initial(protocol, &inputs);
    canon.canonicalize(&mut start);
    let (n_procs, n_values) = (start.procs.len(), start.values.len());
    if n_procs != ckpt.n_procs as usize || n_values != ckpt.n_values as usize {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint shape {}×{} does not match protocol shape {}×{}",
            ckpt.n_procs, ckpt.n_values, n_procs, n_values
        )));
    }
    let record_edges = ckpt.record_edges;
    let stride = n_procs + n_values;
    // A resumed search always continues unreduced: the checkpointed
    // prefix records no ample decisions, and correctness of the cycle
    // proviso depends on the whole graph being built under one regime.
    let search = Search {
        protocol,
        specs: protocol.objects(),
        canon,
        por: None,
        stop: None,
        record_edges,
        max_configs: config.limits.max_configs,
    };

    // Depths only locate the levels and the frontier; the live search
    // keeps none.
    let mut depth: Vec<u32> = Vec::with_capacity(ckpt.nodes());
    for (i, entry) in ckpt.parent.iter().enumerate() {
        depth.push(match *entry {
            None if i == 0 => 0,
            None => return Err(CheckpointError::Corrupt(format!("node {i} lacks a parent"))),
            Some((p, _)) => depth.get(p as usize).map(|d| d + 1).ok_or_else(|| {
                CheckpointError::Corrupt(format!("node {i} has non-topological parent {p}"))
            })?,
        });
    }
    // The frontier is exactly the nodes at the stop depth: the last BFS
    // level, so an index range at the end. Nothing in it was expanded.
    let level_depth = ckpt.level_depth as usize;
    let first = depth.iter().position(|&d| d as usize == level_depth).unwrap_or(depth.len());
    if depth[..first].iter().any(|&d| d as usize > level_depth)
        || depth[first..].iter().any(|&d| d as usize != level_depth)
    {
        return Err(CheckpointError::Corrupt(format!(
            "the nodes at depth {level_depth} are not the last BFS level"
        )));
    }
    if record_edges
        && (ckpt.succ.len() != ckpt.nodes()
            || (first..ckpt.nodes()).any(|i| !ckpt.succ.row(i).is_empty()))
    {
        return Err(CheckpointError::Corrupt(
            "successor lists do not match the unexpanded frontier".into(),
        ));
    }

    let (arena, mut dedup) = make_store(config, n_procs, n_values);
    let mut g = BfsGraph::new(arena, &search, &dedup);
    g.parent.reserve(ckpt.nodes());
    dedup.open(stride).map_err(|e| {
        CheckpointError::Mismatch(format!("frontier transport failed to open: {e}"))
    })?;

    // Replay: one decode + step + intern per node, in interning order,
    // and one seen-set batch per BFS level, as the search that wrote
    // the checkpoint made. The level's keys are grouped, so a
    // configuration it holds twice is refused, and probed, so one an
    // earlier level holds is refused too.
    let mut lev = LevelKeys::new(stride);
    let mut words: Vec<u32> = Vec::new();
    for level in depth.chunk_by(|a, b| a == b) {
        let nodes = g.arena.len()..g.arena.len() + level.len();
        lev.clear(level.len());
        for i in nodes.clone() {
            let cfg = match ckpt.parent[i] {
                None => start.clone(),
                Some((p, step)) => {
                    let mut c = g.arena.decode(p);
                    c.step(protocol, step.pid, step.coin).map_err(|e| {
                        CheckpointError::Mismatch(format!(
                            "replaying step {step:?} at node {i} failed: {e:?} — \
                             checkpoint does not match this protocol"
                        ))
                    })?;
                    search.canon.canonicalize(&mut c);
                    c
                }
            };
            g.arena.encode_intern(&cfg, &mut words);
            let link = Link::from_entry(ckpt.parent[i]);
            let j = g.arena.push(&words);
            debug_assert_eq!(j as usize, i);
            g.parent.push(link);
            g.add_class(search.canon.class_size(&cfg.procs));
            lev.push_row(&words, link);
        }
        let admitted = lev.admit(&mut dedup, &g.arena, nodes.start as u32).map_err(|e| {
            CheckpointError::Mismatch(format!("frontier transport failed during rebuild: {e}"))
        })?;
        if let Some(node) = admitted {
            return Err(CheckpointError::Corrupt(format!(
                "node {node} repeats an earlier configuration"
            )));
        }
    }
    if record_edges {
        for i in 0..first {
            g.succ.start(i as u32);
            ckpt.succ.row(i).iter().for_each(|&j| g.succ.push(j));
        }
    }
    let frontier = first as u32..ckpt.nodes() as u32;

    let final_depth = run_levels(&search, config, &mut g, &mut dedup, lev, frontier, level_depth);
    finalize(&mut g, &dedup, config, record_edges, final_depth);
    let _ = dedup.close();
    Ok(g)
}

/// The level loop shared by [`bfs`] and [`bfs_resume`]: expand, merge,
/// repeat until the frontier empties or a budget stops the search at a
/// level boundary. Returns the depth of the frontier when the loop
/// stopped (the resume point).
///
/// A frontier is always an index range: the nodes the previous merge
/// interned, which are appended to the arena in order. So nodes are
/// expanded in index order, which is what lets the edge CSR grow by
/// appending.
fn run_levels<P>(
    search: &Search<'_, P>,
    config: &ExploreConfig,
    g: &mut BfsGraph<P::State>,
    dedup: &mut Dedup,
    mut lev: LevelKeys,
    mut frontier: Range<u32>,
    mut level_depth: usize,
) -> usize
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let threads = config.effective_threads();
    let max_depth = config.limits.max_depth;
    let metrics = EngineMetrics::resolve();
    // One span over the whole level loop, so the per-level
    // `explore.level` events (and any frontier RPC spans under a
    // distributed dedup) hang off a single node in the trace tree.
    let _search_span = if randsync_obs::tracing_active() {
        Some(randsync_obs::span("explore.search", &[]))
    } else {
        None
    };

    // Phase 1's candidate buffers and the merge's key buffers (`lev`,
    // from the batch before the loop) are kept from level to level:
    // fresh ones would fault their pages in anew.
    let mut spare: Vec<Expansion<P::State>> = Vec::new();
    while !frontier.is_empty() && g.hit.is_none() {
        if level_depth >= max_depth {
            g.depth_capped_any = true;
            let mut rows = RowCursor::default();
            if frontier.clone().any(|i| g.arena.has_active(g.arena.row(&mut rows, i))) {
                g.depth_capped_active = true;
            }
            break;
        }
        // Cooperative cancellation, checked once per level: expansion
        // stops cleanly at a level boundary, so everything interned so
        // far is a valid (truncated) BFS prefix — and, if a checkpoint
        // was requested, a resumable one.
        if config.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            g.deadline_hit = true;
            break;
        }

        // Phase 1: expand every frontier node against a frozen view of
        // the arena and codec. Nothing is interned yet, so workers may
        // race freely; duplicates are resolved by the merge below.
        // Frontier nodes are expanded straight from their packed rows,
        // read in index order through one row cursor per chunk.
        let mut clock: Clock = metrics.as_ref().map(|m| (Instant::now(), &m.phases));
        let expansions: Vec<Expansion<P::State>> = {
            let arena = &g.arena;
            let por = search.por.as_ref();
            let expand = |ids: Range<u32>, mut out: Expansion<P::State>| {
                let mut rows = RowCursor::default();
                out.cands.clear();
                out.ends.clear();
                ids.for_each(|i| expand_node(search, arena, arena.row(&mut rows, i), por, &mut out));
                out
            };
            let width = frontier.len();
            if threads > 1 && width >= PARALLEL_FRONTIER_MIN {
                let chunk = width.div_ceil(threads.min(width)) as u32;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = frontier
                        .clone()
                        .step_by(chunk as usize)
                        .map(|lo| {
                            let ids = lo..(lo + chunk).min(frontier.end);
                            let out = spare.pop().unwrap_or_default();
                            scope.spawn(move || expand(ids, out))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("exploration worker panicked"))
                        .collect()
                })
            } else {
                vec![expand(frontier.clone(), spare.pop().unwrap_or_default())]
            }
        };
        lap(&mut clock, 0);

        // Phase 2: sequential merge at the level barrier. This is the
        // only place the arena, the codec, its step table and the
        // seen-set grow.
        spare = expansions;
        let merged = merge_level(search, g, dedup, frontier.clone(), &mut spare, &mut lev, &mut clock);
        let (next_frontier, stats) = match merged {
            Ok(level) => level,
            Err(e) => {
                // The transport died; everything interned so far is a
                // valid BFS prefix, so stop here and report truncation.
                g.transport_error = Some(e.to_string());
                break;
            }
        };
        if let Some(m) = &metrics {
            m.levels.inc();
            m.candidates.add(stats.candidates);
            m.level_keys.add(stats.keys);
            m.dedup_hits.add(stats.dedup);
            m.interned.add(stats.interned);
            m.frontier.observe(frontier.len() as u64);
            m.arena_bytes.record_max(g.arena.bytes() as i64);
            let spilled = g.arena.spilled_bytes()
                + if let Dedup::Local(d) = &*dedup { d.spilled_bytes() } else { 0 };
            m.spilled_bytes.record_max(spilled as i64);
            m.max_depth.record_max(level_depth as i64 + 1);
            m.raw_represented.record_max(g.raw_represented as i64);
        }
        if randsync_obs::tracing_active() {
            randsync_obs::emit(
                "explore.level",
                &[
                    ("depth", randsync_obs::Field::U64(level_depth as u64)),
                    ("frontier", randsync_obs::Field::U64(frontier.len() as u64)),
                    ("candidates", randsync_obs::Field::U64(stats.candidates)),
                    ("dedup_hits", randsync_obs::Field::U64(stats.dedup)),
                    ("interned", randsync_obs::Field::U64(stats.interned)),
                    ("configs", randsync_obs::Field::U64(g.arena.len() as u64)),
                    ("arena_bytes", randsync_obs::Field::U64(g.arena.bytes() as u64)),
                ],
            );
        }
        frontier = next_frontier;
        level_depth += 1;
    }
    level_depth
}

/// Resolution state of one distinct candidate key within a level.
#[derive(Clone, Copy)]
enum GroupState {
    /// Interned in a previous level at this index.
    Existing(u32),
    /// Not yet resolved.
    Unassigned,
    /// Interned this level at this index (first occurrence wins).
    Assigned(u32),
    /// First occurrence hit the config cap; every occurrence drops.
    Capped,
}

/// An empty slot of the [`LevelKeys`] group table.
const EMPTY: u32 = u32::MAX;

/// One level's candidates, packed in the order they were encoded, and
/// their groups. Candidate `ord` has key `(hash[ord], row(ord))`, would
/// be reached by `link[ord]`, and joins group `group_of[ord]`. Groups
/// are numbered by first occurrence; `reps[gid]` is group `gid`'s
/// earliest candidate.
#[derive(Default)]
struct LevelKeys {
    stride: usize,
    link: Vec<Link>,
    hash: Vec<u64>,
    words: Vec<u32>,
    group_of: Vec<u32>,
    reps: Vec<u32>,
    /// Open addressing on the hash, linear probing, at most half full:
    /// each slot holds a group's representative or [`EMPTY`].
    table: Vec<u32>,
    /// The probe batches: group ids, one key-sorted run per
    /// [`sort`](Self::sort).
    batch: Vec<u32>,
    /// Whether `batch` holds a second nonempty run.
    two_runs: bool,
}

impl LevelKeys {
    fn new(stride: usize) -> Self {
        LevelKeys { stride, ..LevelKeys::default() }
    }

    /// Empty the buffers for a level of `cands` candidates, or drop
    /// them if they hold over four times that: the arena and the graph
    /// peak at the end of a search, where levels are small.
    fn clear(&mut self, cands: usize) {
        if self.hash.capacity() > 4 * cands {
            *self = LevelKeys::new(self.stride);
        }
        self.link.clear();
        self.hash.clear();
        self.words.clear();
        self.group_of.clear();
        self.reps.clear();
        self.table.clear();
        self.batch.clear();
        self.two_runs = false;
    }

    fn len(&self) -> usize {
        self.hash.len()
    }

    fn row(&self, ord: usize) -> &[u32] {
        &self.words[ord * self.stride..(ord + 1) * self.stride]
    }

    /// Append a candidate whose row is already built, reached by `link`.
    fn push_row(&mut self, row: &[u32], link: Link) {
        self.words.extend_from_slice(row);
        self.hash.push(hash_words(row));
        self.link.push(link);
    }

    /// Encode the candidates of frontier node `parent`, whose row is
    /// read through `rows`: each candidate's row is the parent's with
    /// the stepping slot and the accessed object replaced by the
    /// candidate's words, its process words re-sorted on the symmetry
    /// quotient.
    fn push_node<S: Clone + Eq + Ord + Hash>(
        &mut self,
        arena: &PackedArena<S>,
        rows: &mut RowCursor,
        canonical: bool,
        parent: u32,
        cands: &[Cand],
    ) {
        if cands.is_empty() {
            return;
        }
        let base = arena.row(rows, parent);
        let n_procs = arena.n_procs();
        for cand in cands {
            let at = self.words.len();
            self.words.extend_from_slice(base);
            let row = &mut self.words[at..];
            row[cand.pid as usize] = cand.proc;
            if cand.value != NONE {
                row[n_procs + cand.obj as usize] = cand.value;
            }
            if canonical {
                arena.sort_procs(&mut row[..n_procs]);
            }
            self.hash.push(hash_words(row));
            self.link.push(Link { parent, pid: cand.pid, coin: cand.coin });
        }
    }

    /// The table slot of candidate `ord`'s key: the slot of the earlier
    /// candidate whose words it matches, or the empty slot it would take.
    fn slot(&self, ord: usize) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = self.hash[ord] as usize & mask;
        while self.table[slot] != EMPTY && self.row(self.table[slot] as usize) != self.row(ord) {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Group the candidates not yet grouped, in candidate order: each
    /// joins the group of the earlier candidate whose words it matches
    /// (the hash only places it in the table), or opens a new group.
    /// The new groups are appended to the probe batches as one run in
    /// key order; returns where the run starts.
    fn group(&mut self) -> usize {
        assert!(self.len() < EMPTY as usize, "a level's candidates overflow u32 ordinals");
        let first = self.reps.len() as u32;
        if self.table.is_empty() {
            self.rehash((2 * self.len()).next_power_of_two().max(2));
        }
        for ord in self.group_of.len()..self.len() {
            let slot = self.slot(ord);
            let gid = match self.table[slot] {
                EMPTY => {
                    self.table[slot] = ord as u32;
                    self.reps.push(ord as u32);
                    if 2 * self.reps.len() > self.table.len() {
                        self.rehash(2 * self.table.len());
                    }
                    self.reps.len() as u32 - 1
                }
                rep => self.group_of[rep as usize],
            };
            self.group_of.push(gid);
        }
        let run = self.batch.len();
        self.sort(first..self.reps.len() as u32);
        self.two_runs |= run > 0 && run < self.batch.len();
        run
    }

    /// Place every group in an empty table of `cap` slots.
    fn rehash(&mut self, cap: usize) {
        self.table.clear();
        self.table.resize(cap, EMPTY);
        for gid in 0..self.reps.len() {
            let rep = self.reps[gid];
            let slot = self.slot(rep as usize);
            self.table[slot] = rep;
        }
    }

    /// Append the groups `gids` to the probe batches in key order: flat
    /// `(hash >> 32 << 32) | gid` keys are sorted, and only runs that tie
    /// on the top half of the hash are re-sorted on the whole key.
    fn sort(&mut self, gids: Range<u32>) {
        let mut keys: Vec<u64> = gids.map(|gid| self.key(gid).0 >> 32 << 32 | u64::from(gid)).collect();
        keys.sort_unstable();
        let mut batch = std::mem::take(&mut self.batch);
        let mut at = batch.len();
        batch.extend(keys.iter().map(|&key| key as u32));
        for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            batch[at..at + run.len()].sort_unstable_by(|&a, &b| self.key(a).cmp(&self.key(b)));
            at += run.len();
        }
        self.batch = batch;
    }

    /// The key of group `gid`: its representative's hash and words.
    fn key(&self, gid: u32) -> (u64, &[u32]) {
        let rep = self.reps[gid as usize] as usize;
        (self.hash[rep], self.row(rep))
    }

    /// The hashes of the keys of groups `gids`, as one batch.
    fn hashes(&self, gids: &[u32]) -> Vec<u64> {
        gids.iter().map(|&gid| self.key(gid).0).collect()
    }

    /// The words of the keys of groups `gids`, concatenated as one batch.
    fn words(&self, gids: &[u32]) -> Vec<u32> {
        let mut words = Vec::with_capacity(gids.len() * self.stride);
        gids.iter().for_each(|&gid| words.extend_from_slice(self.key(gid).1));
        words
    }

    /// Resolve the probe batch run `batch[from..]` against the seen-set:
    /// record the state of each of its groups in `gstate` (indexed by
    /// group id), and append each key's buffer position to `at`.
    fn probe<S: Clone + Eq + Hash>(
        &self,
        dedup: &mut Dedup,
        arena: &PackedArena<S>,
        from: usize,
        gstate: &mut Vec<GroupState>,
        at: &mut Vec<usize>,
    ) -> Result<(), TransportError> {
        let gids = &self.batch[from..];
        let (hashes, words) = (self.hashes(gids), self.words(gids));
        // A transport stages the novel keys with the positions it found
        // for them itself.
        let (found, positions) = match dedup {
            Dedup::Local(d) => d.probe_sorted(arena, &hashes, &words),
            Dedup::Shared(t) => (t.lock().probe_sorted(&hashes, &words)?, Vec::new()),
        };
        if found.len() != gids.len() {
            return Err(TransportError::new(format!(
                "probe batch of {} keys got {} answers",
                gids.len(),
                found.len()
            )));
        }
        gstate.resize(self.reps.len(), GroupState::Unassigned);
        for (&gid, found) in gids.iter().zip(found) {
            gstate[gid as usize] = found.map_or(GroupState::Unassigned, GroupState::Existing);
        }
        at.extend(positions);
        Ok(())
    }

    /// Send the groups interned since the probes (`Assigned` in
    /// `gstate`) to the seen-set as one sorted batch: the probe
    /// batches' keys in order, a second run merged in. The local store
    /// reads their words from the arena and places each at the
    /// position `at` its probe found; only a transport is handed the
    /// words, to name each key among its staged misses.
    fn insert<S: Clone + Eq + Hash>(
        &self,
        dedup: &mut Dedup,
        arena: &PackedArena<S>,
        gstate: &[GroupState],
        at: &[usize],
    ) -> Result<(), TransportError> {
        let mut new: Vec<(usize, u32)> = (self.batch.iter().enumerate())
            .filter_map(|(i, &gid)| match gstate[gid as usize] {
                GroupState::Assigned(j) => Some((i, j)),
                _ => None,
            })
            .collect();
        if self.two_runs {
            new.sort_by(|a, b| self.key(self.batch[a.0]).cmp(&self.key(self.batch[b.0])));
        }
        if new.is_empty() {
            return Ok(());
        }
        let (gids, idx): (Vec<u32>, Vec<u32>) = new.iter().map(|&(i, j)| (self.batch[i], j)).unzip();
        let hashes = self.hashes(&gids);
        match dedup {
            Dedup::Local(d) => {
                let at: Vec<usize> = new.iter().map(|&(i, _)| at[i]).collect();
                d.insert_at(arena, &at, &hashes, &idx);
                Ok(())
            }
            Dedup::Shared(t) => t.lock().insert_sorted(&hashes, &idx, &self.words(&gids)),
        }
    }

    /// Send a batch the engine gives its seen-set outside a level — the
    /// start configuration, or one level of a resume rebuild — whose
    /// candidates the arena already holds, in order, from index
    /// `first`: group, probe and insert it as the level merge does.
    /// Returns the first node that repeats an earlier configuration,
    /// one of the batch (its group has an earlier candidate) or one
    /// the seen-set holds, and then inserts nothing.
    fn admit<S: Clone + Eq + Hash>(
        &mut self,
        dedup: &mut Dedup,
        arena: &PackedArena<S>,
        first: u32,
    ) -> Result<Option<u32>, TransportError> {
        self.group();
        let (mut gstate, mut at) = (Vec::new(), Vec::new());
        self.probe(dedup, arena, 0, &mut gstate, &mut at)?;
        let repeat = (0..self.len()).find(|&ord| {
            let gid = self.group_of[ord] as usize;
            self.reps[gid] as usize != ord || matches!(gstate[gid], GroupState::Existing(_))
        });
        if let Some(ord) = repeat {
            return Ok(Some(first + ord as u32));
        }
        for (state, &rep) in gstate.iter_mut().zip(&self.reps) {
            *state = GroupState::Assigned(first + rep);
        }
        self.insert(dedup, arena, &gstate, &at)?;
        Ok(None)
    }
}

/// The level merge: the one place a level's candidates are
/// deduplicated, ordered, and interned, for every storage tier and
/// every search mode.
///
/// Every candidate is encoded and grouped in frontier order (codec ids
/// and group ids grow here); only the distinct keys are sorted, into
/// one probe batch against the seen-set. Arena indices are then
/// assigned by first occurrence in frontier order, and the newly
/// interned keys go back as one sorted insert batch, at the positions
/// the probe found.
///
/// This is also where the reduction's **cycle proviso** (C3) lives. A
/// reduced node falls back to full expansion iff one of its retained
/// candidates resolves to a key interned *before* this level: such an
/// edge leads to depth ≤ the current level, the kind of edge every
/// cycle must contain, while everything interned during the level has
/// depth one greater. The fallback's candidates join the same groups,
/// and the keys only they produced go in a second sorted probe batch;
/// they are placed, reduced-then-full, at the node's frontier position,
/// and its edges come from the full expansion alone. Arena order,
/// parents, depths, edges, and the reduction counts are therefore those
/// of a sequential candidate-by-candidate merge, at every thread count
/// and on every tier.
///
/// Returns the next frontier: the index range this level interned.
fn merge_level<P: Protocol>(
    search: &Search<'_, P>,
    g: &mut BfsGraph<P::State>,
    dedup: &mut Dedup,
    frontier: Range<u32>,
    expansions: &mut [Expansion<P::State>],
    lev: &mut LevelKeys,
    clock: &mut Clock<'_>,
) -> Result<(Range<u32>, LevelStats), TransportError> {
    let node = |pos: usize| frontier.start + pos as u32;
    let n_procs = g.arena.n_procs();
    let canonical = search.canon.enabled();
    lev.clear(expansions.iter().map(|exp| exp.cands.len()).sum());

    // Pass A: intern and record the steps the expansion missed, then
    // encode every candidate in frontier order, remembering each node's
    // span and any reduction it received. Parent rows are read in index
    // order through one cursor, which the fallbacks below reuse (they
    // revisit a subset of the frontier, in order).
    let mut rows = RowCursor::default();
    let mut spans: Vec<Range<usize>> = Vec::with_capacity(frontier.len());
    let mut reduced: Vec<(usize, u32)> = Vec::new();
    for exp in expansions.iter_mut() {
        g.step_misses += resolve_misses(&mut g.arena, exp);
        let mut from = 0;
        for &(end, pruned) in &exp.ends {
            let (pos, start) = (spans.len(), lev.len());
            lev.push_node(&g.arena, &mut rows, canonical, node(pos), &exp.cands[from..end]);
            spans.push(start..lev.len());
            if pruned > 0 {
                reduced.push((pos, pruned));
            }
            from = end;
        }
    }
    lap(clock, 1);

    // Pass B: group candidates by key, then sort the distinct keys. Two
    // candidates are the same configuration iff their full words match.
    lev.group();
    lap(clock, 2);

    // Pass C: one sorted probe batch against the seen-set.
    let (mut gstate, mut at) = (Vec::new(), Vec::new());
    lev.probe(dedup, &g.arena, 0, &mut gstate, &mut at)?;

    // The cycle proviso, decided on the probe result.
    let mut fallback: Vec<Option<Range<usize>>> = vec![None; frontier.len()];
    for (pos, pruned) in reduced {
        let existing = |ord: usize| matches!(gstate[lev.group_of[ord] as usize], GroupState::Existing(_));
        if spans[pos].clone().any(existing) {
            g.por_fallbacks += 1;
            let mut full = Expansion::default();
            expand_node(search, &g.arena, g.arena.row(&mut rows, node(pos)), None, &mut full);
            g.step_misses += resolve_misses(&mut g.arena, &mut full);
            let start = lev.len();
            lev.push_node(&g.arena, &mut rows, canonical, node(pos), &full.cands);
            fallback[pos] = Some(start..lev.len());
        } else {
            g.por_pruned += pruned as usize;
        }
    }
    // Pass D seals segments as it appends rows, and the window evicts
    // the oldest; release the pin first so it never outlives that.
    drop(rows);
    // The fallback candidates join the same groups; the keys only they
    // produced form a second probe batch.
    let second = lev.group();
    if second < lev.batch.len() {
        lev.probe(dedup, &g.arena, second, &mut gstate, &mut at)?;
    }
    lap(clock, 3);

    // Pass D: walk candidates in frontier order (a fallen-back node's
    // reduced candidates, then its full ones), intern first occurrences,
    // and append each node's edges to the CSR.
    let first_new = g.arena.len() as u32;
    let (candidates, keys) = (lev.len() as u64, lev.reps.len() as u64);
    let mut stats = LevelStats { candidates, keys, dedup: 0, interned: 0 };
    let mut resolve = |g: &mut BfsGraph<P::State>, ord: usize, edge: bool| {
        let gid = lev.group_of[ord] as usize;
        let resolved = match gstate[gid] {
            GroupState::Existing(j) | GroupState::Assigned(j) => {
                stats.dedup += 1;
                Some(j)
            }
            GroupState::Capped => {
                g.config_capped = true;
                None
            }
            GroupState::Unassigned if g.arena.len() >= search.max_configs => {
                g.config_capped = true;
                gstate[gid] = GroupState::Capped;
                None
            }
            GroupState::Unassigned => {
                let row = lev.row(ord);
                let class = if canonical { permutations_of_sorted(&row[..n_procs]) } else { 1 };
                let j = g.arena.push(row);
                g.parent.push(lev.link[ord]);
                g.add_class(class);
                if g.hit.is_none() && search.stop.is_some_and(|pred| pred(&g.arena.decode(j))) {
                    g.hit = Some(j);
                }
                stats.interned += 1;
                gstate[gid] = GroupState::Assigned(j);
                Some(j)
            }
        };
        if let (true, true, Some(j)) = (edge, search.record_edges, resolved) {
            g.succ.push(j);
        }
    };
    for (pos, (span, full)) in spans.into_iter().zip(&fallback).enumerate() {
        if search.record_edges {
            g.succ.start(node(pos));
        }
        for ord in span {
            resolve(g, ord, full.is_none());
        }
        for ord in full.clone().into_iter().flatten() {
            resolve(g, ord, true);
        }
    }

    lap(clock, 4);

    // Pass E: the newly interned keys go to the seen-set.
    lev.insert(dedup, &g.arena, &gstate, &at)?;
    lap(clock, 5);
    Ok((first_new..g.arena.len() as u32, stats))
}

/// Check the step table on `protocol`'s raw graph from `inputs`: every
/// node expands to the same words against the finished search's table
/// as against an empty one, which runs each step through the protocol.
/// Returns the number of nodes, or the first disagreement — what a
/// protocol breaking the [`Protocol`] determinism contract produces.
#[doc(hidden)]
pub fn audit_step_table<P>(protocol: &P, inputs: &[Decision]) -> Result<usize, String>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let config = ExploreConfig { limits: super::ExploreLimits::EXHAUSTIVE, ..ExploreConfig::default() };
    let mut g = bfs(protocol, Configuration::initial(protocol, inputs), &config, false, None);
    let canon = Canonicalizer::for_protocol(protocol, false);
    let specs = protocol.objects();
    let search = Search { protocol, specs, canon, por: None, stop: None, record_edges: false, max_configs: 0 };
    let expand = |arena: &PackedArena<P::State>, i: u32| {
        let mut out = Expansion::default();
        arena.with_words(i, |row| expand_node(&search, arena, row, None, &mut out));
        out
    };
    let warm: Vec<_> = (0..g.arena.len() as u32).map(|i| expand(&g.arena, i)).collect();
    for (i, warm) in warm.into_iter().enumerate() {
        g.arena.forget_steps();
        let mut cold = expand(&g.arena, i as u32);
        resolve_misses(&mut g.arena, &mut cold);
        if !warm.misses.is_empty() || warm.cands != cold.cands {
            let misses = warm.misses.len();
            return Err(format!("node {i}: {:?} ({misses} misses) vs {:?}", warm.cands, cold.cands));
        }
    }
    Ok(g.arena.len())
}

/// End-of-search bookkeeping: fold the spill statistics into the graph
/// and write the requested checkpoint if the search stopped resumably
/// (a clean level boundary — deadline or depth budget — with no
/// mid-level config-cap drops).
fn finalize<S: Clone + Eq + Hash>(
    g: &mut BfsGraph<S>,
    dedup: &Dedup,
    config: &ExploreConfig,
    record_edges: bool,
    level_depth: usize,
) {
    if record_edges {
        g.succ.finish(g.arena.len());
    }
    g.spilled_bytes = g.arena.spilled_bytes();
    // Behind a transport the seen-set lives elsewhere (typically on
    // other nodes): locally only the arena is resident.
    if let Dedup::Local(d) = dedup {
        g.spilled_bytes += d.spilled_bytes();
        g.dedup_merge_passes = d.merge_passes();
        g.dedup_run_bytes = d.run_bytes_read();
        g.seen_bytes = d.resident_bytes();
    }
    g.resident_bytes = g.arena.resident_word_bytes() + g.seen_bytes;
    if randsync_obs::metrics_enabled() {
        let m = randsync_obs::global_metrics();
        m.gauge("explore.graph_bytes").record_max(g.graph_bytes() as i64);
        m.gauge("explore.seen_bytes").record_max(g.seen_bytes as i64);
        m.counter("explore.step_misses").add(g.step_misses);
        m.counter("explore.step_entries").add(g.arena.step_entries() as u64);
        if g.spill_mode {
            m.counter("explore.dedup_run_bytes").add(g.dedup_run_bytes);
        }
    }
    let Some(req) = &config.checkpoint else { return };
    // A transport failure can cut a level mid-merge, so a graph that
    // carries one is not a checkpointable level-boundary prefix.
    let resumable = (g.deadline_hit || g.depth_capped_any)
        && !g.config_capped
        && g.transport_error.is_none();
    if !resumable {
        return;
    }
    let ck = Checkpoint {
        protocol: req.protocol.clone(),
        n: req.n,
        r: req.r,
        inputs: req.inputs.clone(),
        canonical: g.canonical,
        record_edges,
        n_procs: g.arena.n_procs() as u32,
        n_values: (g.arena.stride() - g.arena.n_procs()) as u32,
        level_depth: level_depth as u64,
        parent: g.parent.iter().map(|link| link.get()).collect(),
        succ: if record_edges { g.succ.clone() } else { Csr::default() },
    };
    match ck.save(&req.path) {
        Ok(()) => g.checkpoint_written = Some(req.path.clone()),
        Err(e) => g.checkpoint_error = Some(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashSet};

    use super::*;
    use crate::execution::Step;
    use crate::kind::ObjectKind;
    use crate::op::{Operation, Response};
    use crate::process::ObjectId;
    use crate::protocol::{ObjectSpec, Symmetry};

    /// Coin-driven climbers on a bounded counter that settle a
    /// preference by swapping it into a shared register, then decide.
    #[derive(Debug)]
    struct Climb;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum St {
        Flip { left: u8 },
        Swap { pref: Decision },
        Done(Decision),
    }

    impl Protocol for Climb {
        type State = St;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![
                ObjectSpec::new(ObjectKind::BoundedCounter { lo: 0, hi: 3 }, "c"),
                ObjectSpec::new(ObjectKind::SwapRegister, "r"),
            ]
        }

        fn num_processes(&self) -> usize {
            3
        }

        fn initial_state(&self, _pid: ProcessId, _input: Decision) -> St {
            St::Flip { left: 2 }
        }

        fn action(&self, s: &St) -> Action {
            match s {
                St::Flip { .. } => Action::Invoke {
                    object: ObjectId(0),
                    op: Operation::Inc,
                },
                St::Swap { pref } => Action::Invoke {
                    object: ObjectId(1),
                    op: Operation::Swap(Value::Int(i64::from(*pref))),
                },
                St::Done(d) => Action::Decide(*d),
            }
        }

        fn coin_domain(&self, s: &St, _resp: &Response) -> u32 {
            if matches!(s, St::Flip { .. }) {
                2
            } else {
                1
            }
        }

        fn transition(&self, s: &St, resp: &Response, coin: u32) -> St {
            match s {
                St::Flip { left } if coin == 0 && *left > 0 => St::Flip { left: left - 1 },
                St::Flip { .. } => St::Swap {
                    pref: coin as Decision,
                },
                St::Swap { pref } => St::Done(resp.as_int().map_or(*pref, |v| v as Decision)),
                St::Done(d) => St::Done(*d),
            }
        }

        fn symmetry(&self) -> Symmetry {
            Symmetry::Symmetric
        }
    }

    /// Exhaust `Climb` from a start with crashed, retired and decided
    /// slots, building every candidate three ways: as word deltas
    /// expanded against a warm step table (kept across nodes), as word
    /// deltas expanded against a cold one (emptied before every node,
    /// so every step runs through the protocol), and by
    /// `encode_intern` of the heap successor (canonicalized on the
    /// quotient) in a third arena. The rows, their hashes and the codec
    /// growth must agree candidate by candidate.
    fn deltas_match_full_encoding(canonical: bool) {
        let p = Climb;
        let canon = Canonicalizer::for_protocol(&p, canonical);
        assert_eq!(canon.enabled(), canonical);
        let search = Search {
            protocol: &p,
            specs: p.objects(),
            canon,
            por: None,
            stop: None,
            record_edges: false,
            max_configs: usize::MAX,
        };
        let mut start = Configuration {
            procs: vec![
                ProcState::Active(St::Flip { left: 2 }),
                ProcState::Crashed,
                ProcState::Active(St::Swap { pref: 1 }),
                ProcState::Retired,
                ProcState::Decided(1),
                ProcState::Active(St::Flip { left: 1 }),
            ],
            values: vec![Value::Int(0), Value::Bottom],
        };
        canon.canonicalize(&mut start);
        let mut full = PackedArena::new(6, 2);
        let (mut warm, mut cold) = (PackedArena::new(6, 2), PackedArena::new(6, 2));
        let mut row = Vec::new();
        for arena in [&mut full, &mut warm, &mut cold] {
            arena.encode_intern(&start, &mut row);
            arena.push(&row);
        }
        let mut seen: HashSet<Vec<u32>> = HashSet::from([row.clone()]);
        let (mut node, mut candidates, mut warm_misses) = (0u32, 0usize, 0u64);
        while (node as usize) < warm.len() {
            let parent = full.decode(node);
            let expected: Vec<(Step, Configuration<St>)> = parent
                .active_processes()
                .into_iter()
                .flat_map(|pid| super::super::successors(&p, &parent, pid))
                .collect();
            cold.forget_steps();
            let mut levels = Vec::new();
            for (arena, misses) in [(&mut warm, &mut warm_misses), (&mut cold, &mut 0)] {
                let mut exp = Expansion::default();
                arena.with_words(node, |r| expand_node(&search, arena, r, None, &mut exp));
                *misses += resolve_misses(arena, &mut exp);
                let steps: Vec<Step> = exp
                    .cands
                    .iter()
                    .map(|c| Step::with_coin(ProcessId(c.pid as usize), c.coin))
                    .collect();
                assert_eq!(steps, expected.iter().map(|(s, _)| *s).collect::<Vec<_>>());
                let mut lev = LevelKeys::new(arena.stride());
                lev.push_node(arena, &mut RowCursor::default(), canonical, node, &exp.cands);
                levels.push(lev);
            }
            for (ord, (_, mut succ)) in expected.into_iter().enumerate() {
                canon.canonicalize(&mut succ);
                full.encode_intern(&succ, &mut row);
                for lev in &levels {
                    assert_eq!(lev.row(ord), row.as_slice(), "node {node}, candidate {ord}");
                    assert_eq!(lev.hash[ord], hash_words(&row));
                }
                if seen.insert(row.clone()) {
                    let j = full.push(&row);
                    assert_eq!((warm.push(&row), cold.push(&row)), (j, j));
                }
                candidates += 1;
            }
            // Same ids in the same order: the three codecs are the same size.
            assert_eq!((warm.bytes(), cold.bytes()), (full.bytes(), full.bytes()), "node {node}");
            node += 1;
        }
        for i in 0..warm.len() as u32 {
            assert_eq!(warm.decode(i), full.decode(i));
        }
        assert!(
            candidates > 100,
            "the space is big enough to mean something: {candidates}"
        );
        assert!(
            warm_misses < candidates as u64 / 4,
            "the warm table serves most steps: {warm_misses} misses for {candidates} candidates"
        );
    }

    /// Group `rows` (each a hash and the words it hashes) in two rounds,
    /// as a level's candidates and then a fallback's are, and check the
    /// groups and the probe batches against a `BTreeMap` model: a
    /// candidate shares a group exactly with the candidates whose words
    /// it matches, group ids follow first occurrence, each group's
    /// representative is its earliest candidate, and each round's new
    /// groups form one run in key order.
    fn grouping_matches_the_model(rows: &[(u64, Vec<u32>)], split: usize) {
        let mut model: BTreeMap<(u64, &[u32]), u32> = BTreeMap::new();
        let (mut group_of, mut reps) = (Vec::new(), Vec::new());
        for (ord, (hash, words)) in rows.iter().enumerate() {
            let next = model.len() as u32;
            let gid = *model.entry((*hash, words.as_slice())).or_insert(next);
            if gid == next {
                reps.push(ord as u32);
            }
            group_of.push(gid);
        }
        let mut lev = LevelKeys::new(2);
        let mut rounds = Vec::new();
        for part in [&rows[..split], &rows[split..]] {
            for (hash, words) in part {
                lev.hash.push(*hash);
                lev.words.extend_from_slice(words);
                lev.link.push(Link::ROOT);
            }
            let (groups, run) = (lev.reps.len() as u32, lev.group());
            assert_eq!(run, groups as usize, "one batch key per group");
            rounds.push(groups..lev.reps.len() as u32);
        }
        let label = format!("{rows:?} split at {split}");
        assert_eq!(lev.group_of, group_of, "{label}");
        assert_eq!(lev.reps, reps, "{label}");
        let run = |gids: Range<u32>| model.values().copied().filter(move |g| gids.contains(g));
        let batch: Vec<u32> = rounds.into_iter().flat_map(run).collect();
        assert_eq!(lev.batch, batch, "{label}");
    }

    #[test]
    fn grouping_is_exact_under_hash_ties() {
        // Three keys share a whole hash, two share only its top half,
        // and one stands alone; the fallback rounds bring back old keys
        // and open new ones.
        let keys: [(u64, [u32; 2]); 6] = [
            (7 << 40, [1, 2]),
            (7 << 40, [1, 3]),
            (7 << 40, [0, 9]),
            (9 << 32 | 5, [4, 4]),
            (9 << 32 | 1, [4, 5]),
            (3, [8, 8]),
        ];
        let order = [2, 0, 5, 1, 2, 3, 0, 4, 2, 1, 5, 3];
        let rows: Vec<(u64, Vec<u32>)> = order.iter().map(|&i| (keys[i].0, keys[i].1.to_vec())).collect();
        for split in [rows.len(), 7, 3, 0] {
            grouping_matches_the_model(&rows, split);
        }
    }

    proptest::proptest! {
        /// Random rows of a 24-row universe, their hashes cut to two or
        /// three bits so that most distinct rows tie, group as the model
        /// does, with a fallback round at a random point.
        #[test]
        fn grouping_matches_a_btree_map_under_truncated_hashes(
            picks in proptest::collection::vec(0u32..24, 0..80),
            bits in 2u32..4,
            split in 0usize..80,
        ) {
            let rows: Vec<(u64, Vec<u32>)> = picks
                .iter()
                .map(|&v| {
                    let words = vec![v % 5, v];
                    (hash_words(&words) & ((1 << bits) - 1), words)
                })
                .collect();
            grouping_matches_the_model(&rows, split.min(rows.len()));
        }
    }

    /// The graph's heap bytes are exactly one 12-byte link per node,
    /// `n + 1` CSR offsets and one word per edge, and the CSR holds every
    /// successor of every node.
    #[test]
    fn graph_bytes_are_links_offsets_and_edges() {
        let p = Climb;
        let start = Configuration::initial(&p, &[0, 1, 0]);
        let g = bfs(&p, start, &ExploreConfig::default(), true, None);
        let (n, e) = (g.arena.len(), g.succ.edges());
        assert_eq!((g.parent.len(), g.succ.len()), (n, n));
        assert_eq!(g.graph_bytes(), 12 * n + 4 * (n + 1) + 4 * e);
        let mut expected = 0;
        for i in 0..n {
            let c = g.arena.decode(i as u32);
            let succs: Vec<_> = c
                .active_processes()
                .into_iter()
                .flat_map(|pid| super::super::successors(&p, &c, pid))
                .collect();
            assert_eq!(g.succ.row(i).len(), succs.len(), "node {i}");
            expected += succs.len();
        }
        assert_eq!(e, expected);
        assert!(n > 100 && e > n, "{n} nodes, {e} edges");
    }

    #[test]
    fn word_deltas_equal_full_encoding_raw() {
        deltas_match_full_encoding(false);
    }

    #[test]
    fn word_deltas_equal_full_encoding_canonical() {
        deltas_match_full_encoding(true);
    }
}
