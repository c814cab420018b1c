//! The executable checks behind the catalog entries.
//!
//! Every check follows the same discipline: build protocols through
//! `consensus::registry` (never ad hoc), bound wall-clock work with the
//! entry's [`CheckContext::deadline`], and report observed values next
//! to the paper's required ones as [`BoundCheck`]s so the gate report
//! shows margins, not just verdicts. Any truncated exploration, failed
//! replay, or missing registry binding is a *failure* — the gate never
//! downgrades an unprovable property to a skip on its own.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use randsync_consensus::registry::{self, AnyProtocol, ProtocolEntry};
use randsync_core::attack::{attack_target, AttackOutcome, AttackStats};
use randsync_core::bounds::{
    composition_lower_bound, max_identical_processes, min_historyless_objects,
    min_registers_identical,
};
use randsync_core::interruptible::{construct_interruptible, ExcessCapacity, IeError};
use randsync_core::witness::{InconsistencyWitness, MinimizeStats};
use randsync_model::runtime::{replay_execution, DynObject, ModelObject, Runtime};
use randsync_model::{
    Configuration, ExploreConfig, ExploreLimits, ExploreOutcome, Explorer, FrontierTransport,
    LocalFrontier, ProcessId, Protocol, SharedFrontier, TransportError,
};
use randsync_objects::bridge;
use randsync_objects::SnapshotCounter;
use randsync_obs::Json;
use randsync_svc::soak::{run_soak, SoakConfig, ThresholdCatalog};
use randsync_svc::{Client, DistributedFrontier, Server, ServerConfig};

use crate::catalog::{BoundOp, CheckContext, CheckOutcome};

/// An explorer whose budgets are generous but whose wall clock is the
/// entry's deadline, so a runaway search truncates instead of hanging
/// the gate (and the truncation fails the check).
fn explorer(ctx: &CheckContext) -> Explorer {
    explorer_with(ctx, |_| {})
}

/// [`explorer`] with extra configuration applied on top.
fn explorer_with(ctx: &CheckContext, tweak: impl FnOnce(&mut ExploreConfig)) -> Explorer {
    let mut config = ExploreConfig {
        limits: ExploreLimits { max_configs: 2_000_000, max_depth: 200_000 },
        deadline: Some(ctx.deadline),
        ..ExploreConfig::default()
    };
    tweak(&mut config);
    Explorer::with_config(config)
}

/// Resolve a registry binding or fail the check — a catalog entry whose
/// protocol vanished from the registry is a regression, not a skip.
fn binding(name: &str) -> Result<&'static ProtocolEntry, CheckOutcome> {
    registry::find(name)
        .ok_or_else(|| CheckOutcome::fail(format!("registry no longer has protocol {name:?}")))
}

/// Verify a witness through the threaded-runtime interpreter over
/// bridged real atomics (the strongest replay this workspace has).
pub(crate) fn verify_on_bridged<P: Protocol>(
    protocol: &P,
    witness: &InconsistencyWitness,
) -> Result<(), String> {
    let objects = bridge::instantiate_all(protocol)
        .map_err(|e| format!("objects do not bridge to atomics: {e}"))?;
    let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
    witness
        .verify_on(protocol, &refs)
        .map_err(|e| format!("witness failed replay on bridged atomics: {e}"))
}

/// Theorem 3.3, the closed forms: `r² − r + 1` identical processes is
/// the most r registers support, the inversion round-trips, and both
/// directions are monotone.
pub(crate) fn thm_3_3_bound(_ctx: &CheckContext) -> CheckOutcome {
    for r in 1..=64u64 {
        let cap = max_identical_processes(r);
        if cap != r * r - r + 1 {
            return CheckOutcome::fail(format!(
                "max_identical_processes({r}) = {cap}, want r*r-r+1 = {}",
                r * r - r + 1
            ));
        }
        if min_registers_identical(cap) != r {
            return CheckOutcome::fail(format!(
                "min_registers_identical({cap}) = {}, want {r} (inversion broken)",
                min_registers_identical(cap)
            ));
        }
        if min_registers_identical(cap + 1) != r + 1 {
            return CheckOutcome::fail(format!(
                "min_registers_identical({}) should step to {} registers",
                cap + 1,
                r + 1
            ));
        }
    }
    let mut prev = 0;
    for n in 1..=4096u64 {
        let v = min_registers_identical(n);
        if v < prev {
            return CheckOutcome::fail(format!("min_registers_identical not monotone at n={n}"));
        }
        prev = v;
    }
    CheckOutcome::pass()
        .bound("max_identical_processes(2)", i128::from(max_identical_processes(2)), BoundOp::Eq, 3)
        .bound(
            "min_registers_identical(7)",
            i128::from(min_registers_identical(7)),
            BoundOp::Eq,
            3,
        )
}

/// Theorem 3.3 via the Lemma 3.2 adversary: construct, verify (model
/// interpreter *and* bridged atomics), and shrink an inconsistency on
/// each flawed register protocol, within the paper's process bound.
/// The minimized witnesses at the registered defaults are bounded
/// first. Naive is then attacked at n = 4, 8, 16: Figure 1's splice is
/// two solos and one block write at every n, so its size must equal the
/// n = 2 splice. Then zigzag and optimistic are swept over r = 1..=12,
/// where the bound is on the unminimized construction, the quantity
/// Lemma 3.1 counts (minimizing shrinks every sweep witness to 2
/// processes, so a bound on it could not catch a blow-up). The sweep
/// also bounds which proof cases fired: zigzag's two sides write their
/// registers in opposite orders, so Figure 4 resolves an incomparable
/// pair for every r >= 2; optimistic's solo crosses each new register
/// once, so Figure 3 splits it r - 1 times and spawns (r - 1)r/2
/// clones, and Figure 4 fires r - 2 times from r = 3 on.
pub(crate) fn thm_3_3_adversary(_ctx: &CheckContext) -> CheckOutcome {
    let mut out = CheckOutcome::pass();
    for name in ["naive", "optimistic"] {
        let entry = match binding(name) {
            Ok(e) => e,
            Err(fail) => return fail,
        };
        let protocol = entry.build_default();
        let (_, _, minimal, stats) = match shrunk_witness(name, entry, &protocol) {
            Ok(found) => found,
            Err(fail) => return fail,
        };
        out = out
            .bound(
                format!("{name}.processes_used"),
                minimal.processes_used as i128,
                BoundOp::Le,
                lemma_3_1_cap(&protocol),
            )
            .note(format!("{name}.witness_steps"), Json::Int(minimal.execution.len() as i128))
            .note(format!("{name}.shrunk_steps"), Json::Int(stats.deleted as i128));
    }
    let naive = match binding("naive") {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    let mut splice = None;
    for n in [2, 4, 8, 16] {
        let label = format!("naive(n={n})");
        let witness = match adversary_witness(naive, &(naive.build)(n, naive.default_r)) {
            Ok((witness, _)) => witness,
            Err(e) => return CheckOutcome::fail(format!("{label}: {e}")),
        };
        let size = (witness.execution.len() as i128, witness.processes_used as i128);
        let Some((steps, processes)) = splice else {
            splice = Some(size);
            continue;
        };
        out = out
            .bound(format!("{label}.witness_steps"), size.0, BoundOp::Eq, steps)
            .bound(format!("{label}.processes_used"), size.1, BoundOp::Eq, processes);
    }
    for name in ["zigzag", "optimistic"] {
        let entry = match binding(name) {
            Ok(e) => e,
            Err(fail) => return fail,
        };
        for r in 1..=12 {
            let protocol = (entry.build)(entry.default_n, r);
            let label = format!("{name}(r={r})");
            let (witness, cases, _, _) = match shrunk_witness(&label, entry, &protocol) {
                Ok(found) => found,
                Err(fail) => return fail,
            };
            let AttackStats::Register(cases) = cases else {
                return CheckOutcome::fail(format!("{label}: not a Lemma 3.2 construction"));
            };
            out = out.bound(
                format!("{label}.processes_used"),
                witness.processes_used as i128,
                BoundOp::Le,
                lemma_3_1_cap(&protocol),
            );
            let r = r as i128;
            out = match name {
                "zigzag" if r >= 2 => out.bound(
                    format!("{label}.incomparable_resolutions"),
                    cases.incomparable_resolutions as i128,
                    BoundOp::Ge,
                    1,
                ),
                "optimistic" => out
                    .bound(
                        format!("{label}.subset_splits"),
                        cases.subset_splits as i128,
                        BoundOp::Eq,
                        r - 1,
                    )
                    .bound(
                        format!("{label}.clones_spawned"),
                        cases.clones_spawned as i128,
                        BoundOp::Eq,
                        (r - 1) * r / 2,
                    )
                    .bound(
                        format!("{label}.incomparable_resolutions"),
                        cases.incomparable_resolutions as i128,
                        BoundOp::Eq,
                        (r - 2).max(0),
                    ),
                _ => out,
            };
        }
    }
    out
}

/// Lemma 3.1 bounds the construction against a protocol on r registers
/// by r² − r + 2 processes.
fn lemma_3_1_cap<P: Protocol>(protocol: &P) -> i128 {
    i128::from(max_identical_processes(protocol.objects().len() as u64) + 1)
}

/// The witness the adversary that the registry assigns to `entry`
/// constructs against `protocol` (an instance of `entry`), with the
/// proof cases it went through, or why there is none.
pub(crate) fn adversary_witness<P: Protocol>(
    entry: &ProtocolEntry,
    protocol: &P,
) -> Result<(InconsistencyWitness, AttackStats), String> {
    match attack_target(entry.attack, protocol) {
        Ok(AttackOutcome::Inconsistent { witness, stats }) => Ok((witness, stats)),
        Ok(violation) => Err(format!("expected an inconsistency, got a {violation}")),
        Err(e) => Err(format!("adversary failed: {e}")),
    }
}

/// Run `entry`'s adversary on `protocol` and return its witness and
/// proof cases, the minimized witness and the shrink statistics. Each
/// witness is replayed once on the model interpreter — the witness
/// inside the adversary, the minimized one inside `minimize_report` —
/// and the minimized one also on bridged atomics.
fn shrunk_witness<P: Protocol>(
    label: &str,
    entry: &ProtocolEntry,
    protocol: &P,
) -> Result<(InconsistencyWitness, AttackStats, InconsistencyWitness, MinimizeStats), CheckOutcome>
{
    let (witness, cases) = adversary_witness(entry, protocol)
        .map_err(|e| CheckOutcome::fail(format!("{label}: {e}")))?;
    let (minimal, stats) = witness.minimize_report(protocol).map_err(|e| {
        CheckOutcome::fail(format!("{label}: minimized witness failed model replay: {e}"))
    })?;
    verify_on_bridged(protocol, &minimal)
        .map_err(|e| CheckOutcome::fail(format!("{label}: {e}")))?;
    Ok((witness, cases, minimal, stats))
}

/// The identical-process lens on exploration: the symmetry quotient
/// (which models "identical processes" computationally) must preserve
/// every verdict raw exploration reaches.
pub(crate) fn thm_3_3_symmetry(ctx: &CheckContext) -> CheckOutcome {
    let mut out = CheckOutcome::pass();
    for name in ["naive", "walk-counter"] {
        let entry = match binding(name) {
            Ok(e) => e,
            Err(fail) => return fail,
        };
        let protocol = entry.build_default();
        let raw = explorer(ctx).explore(&protocol, entry.default_inputs);
        let canon =
            explorer_with(ctx, |c| c.canonical = true).explore(&protocol, entry.default_inputs);
        if raw.truncated || canon.truncated {
            return CheckOutcome::fail(format!("{name}: exploration truncated; quotient equivalence unproven"));
        }
        if raw.verdict_label() != canon.verdict_label() {
            return CheckOutcome::fail(format!(
                "{name}: raw verdict {} but canonical verdict {}",
                raw.verdict_label(),
                canon.verdict_label()
            ));
        }
        if raw.can_always_reach_termination != canon.can_always_reach_termination
            || raw.infinite_execution_possible != canon.infinite_execution_possible
        {
            return CheckOutcome::fail(format!("{name}: termination facts differ across the quotient"));
        }
        out = out
            .bound(
                format!("{name}.canonical_configs"),
                canon.configs_visited as i128,
                BoundOp::Le,
                raw.configs_visited as i128,
            )
            .note(format!("{name}.verdict"), Json::Str(raw.verdict_label().to_string()));
    }
    out
}

/// Lemma 3.4: from a configuration with enough poised processes the
/// construction builds an interruptible execution whose r + 1 pieces
/// validate, and a smaller pool is reported insufficient. For the
/// write-all protocol on r = 1..=4 registers with unanimous inputs,
/// the smallest sufficient pool among 1, 2, 4, 8, 16 is pinned, with
/// the piece count there.
pub(crate) fn lemma_3_4(_ctx: &CheckContext) -> CheckOutcome {
    let entry = match binding("optimistic") {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    let mut out = CheckOutcome::pass();
    for (r, want_pool) in [(1, 2), (2, 4), (3, 8), (4, 16)] {
        let label = format!("optimistic(r={r})");
        let mut built = None;
        for pool in [1, 2, 4, 8, 16] {
            match interruptible_pieces(entry, r, pool) {
                Ok(None) => {}
                Ok(Some(pieces)) => {
                    built = Some((pool, pieces));
                    break;
                }
                Err(e) => return CheckOutcome::fail(format!("{label}, pool {pool}: {e}")),
            }
        }
        let Some((pool, pieces)) = built else {
            return CheckOutcome::fail(format!("{label}: no pool up to 16 is sufficient"));
        };
        out = out
            .bound(format!("{label}.min_pool"), pool as i128, BoundOp::Eq, want_pool)
            .bound(format!("{label}.pieces"), pieces as i128, BoundOp::Eq, r as i128 + 1);
    }
    out
}

/// The piece count of the validated interruptible execution Lemma 3.4
/// builds from `pool` processes, all with input 0, of `entry` on `r`
/// registers; `None` when the construction reports the pool
/// insufficient.
fn interruptible_pieces(
    entry: &ProtocolEntry,
    r: usize,
    pool: usize,
) -> Result<Option<usize>, String> {
    let protocol = (entry.build)(pool.max(2), r);
    let base = Configuration::initial_with_pool(&protocol, &vec![0; pool], pool);
    let procs = (0..pool).map(ProcessId).collect();
    let (excess, limits) = (ExcessCapacity::default(), ExploreLimits::default());
    match construct_interruptible(&protocol, &base, BTreeSet::new(), procs, &excess, &limits) {
        Ok((ie, _)) => ie.validate(&protocol, &base).map(|()| Some(ie.pieces.len())),
        Err(IeError::InsufficientProcesses(_)) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// Lemma 3.6: the historyless adversary breaks each flawed
/// historyless-object protocol with an ample pool, and the witness
/// survives model and bridged replay plus shrinking. The pool is the
/// witness's input count: the adversary gives every pool process an
/// input.
pub(crate) fn lemma_3_6(_ctx: &CheckContext) -> CheckOutcome {
    let mut out = CheckOutcome::pass();
    for name in ["tasrace", "swapchain", "mixedzigzag"] {
        let entry = match binding(name) {
            Ok(e) => e,
            Err(fail) => return fail,
        };
        let protocol = entry.build_default();
        let (witness, _, minimal, _) = match shrunk_witness(name, entry, &protocol) {
            Ok(found) => found,
            Err(fail) => return fail,
        };
        out = out
            .bound(
                format!("{name}.processes_used"),
                minimal.processes_used as i128,
                BoundOp::Le,
                witness.inputs.len() as i128,
            )
            .note(format!("{name}.witness_steps"), Json::Int(minimal.execution.len() as i128));
    }
    out
}

/// The Theorem 4.2 / 4.4 separation, shared shape: the tight-margin
/// walk on one object is safe, always able to terminate, and has the
/// Section 2 infinite executions — with strictly fewer objects than
/// any register implementation for the same process count.
fn walk_separation(ctx: &CheckContext, name: &str) -> CheckOutcome {
    let entry = match binding(name) {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    let protocol = entry.build_default();
    let n = entry.default_n as u64;
    let (out, val) = explorer(ctx).explore_with_valency(&protocol, entry.default_inputs);
    let Some(val) = val else {
        return CheckOutcome::fail(format!("{name}: exploration truncated; facts unproven"));
    };
    if !out.is_safe() {
        return CheckOutcome::fail(format!("{name}: {}", out.verdict_label()));
    }
    if out.can_always_reach_termination != Some(true) {
        return CheckOutcome::fail(format!(
            "{name}: termination not always reachable ({:?})",
            out.can_always_reach_termination
        ));
    }
    if out.infinite_execution_possible != Some(true) {
        return CheckOutcome::fail(format!(
            "{name}: the paper's Section 2 non-terminating executions are missing ({:?})",
            out.infinite_execution_possible
        ));
    }
    if !val.envelope_consistent() {
        return CheckOutcome::fail(format!(
            "{name}: valency envelope inconsistent ({} classified of {} configs)",
            val.classified(),
            val.configs
        ));
    }
    if !val.bivalent_cycle {
        return CheckOutcome::fail(format!(
            "{name}: no bivalent cycle — the adversary's forever-undecided loop must exist"
        ));
    }
    if val.stuck != 0 {
        return CheckOutcome::fail(format!("{name}: {} deadlocked configurations", val.stuck));
    }
    CheckOutcome::pass()
        .bound(
            format!("{name}.object_instances"),
            protocol.objects().len() as i128,
            BoundOp::Lt,
            i128::from(min_registers_identical(n)),
        )
        .note(format!("{name}.configs"), Json::Int(out.configs_visited as i128))
        .note(format!("{name}.critical_configs"), Json::Int(val.critical_configs as i128))
}

/// Theorem 4.2: consensus from one bounded counter.
pub(crate) fn thm_4_2(ctx: &CheckContext) -> CheckOutcome {
    walk_separation(ctx, "walk-counter")
}

/// Theorem 4.4: consensus from one fetch&add register.
pub(crate) fn thm_4_4(ctx: &CheckContext) -> CheckOutcome {
    walk_separation(ctx, "walk-fetchadd")
}

/// Theorem 2.1: the composition arithmetic and the shipped
/// counter-from-registers stack that must respect it.
pub(crate) fn bound_2_1(_ctx: &CheckContext) -> CheckOutcome {
    for (g, f, want) in [(7u64, 2u64, 4u64), (6, 3, 2), (1, 1, 1), (10, 4, 3), (9, 3, 3)] {
        let got = composition_lower_bound(g, f);
        if got != want {
            return CheckOutcome::fail(format!(
                "composition_lower_bound({g}, {f}) = {got}, want ceil(g/f) = {want}"
            ));
        }
    }
    let mut out = CheckOutcome::pass();
    for n in [4u64, 16, 64] {
        // f = 1 counter solves consensus (Thm 4.2); g = Ω(√n) historyless
        // objects are required (Thm 3.7); so counter-from-registers
        // needs at least ceil(g/1) registers — and ours uses n.
        let required = composition_lower_bound(min_historyless_objects(n), 1);
        let ours = SnapshotCounter::new(n as usize).num_slots() as u64;
        if ours < required {
            return CheckOutcome::fail(format!(
                "SnapshotCounter({n}) uses {ours} slots, below the Theorem 2.1 bound {required}"
            ));
        }
        if n == 64 {
            out = out.bound(
                "snapshot_counter_slots(n=64)",
                i128::from(ours),
                BoundOp::Ge,
                i128::from(required),
            );
        }
    }
    out
}

/// A [`LocalFrontier`] that counts the probe batches it answers, so a
/// check can tell the seen-set really lived behind the transport.
struct CountingFrontier {
    inner: LocalFrontier,
    probes: Arc<AtomicU64>,
}

impl FrontierTransport for CountingFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        self.inner.open(stride)
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.probe_sorted(hashes, words)
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        self.inner.insert_sorted(hashes, indices, words)
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.inner.close()
    }
}

/// Soundness of partial-order reduction: same verdict and termination
/// facts, strictly fewer interleavings explored — and the same counts
/// on every storage tier, since the cycle proviso is decided on the
/// level merge's probe result, not on any one tier's data structure.
pub(crate) fn por_equiv(ctx: &CheckContext) -> CheckOutcome {
    let entry = match binding("localcoin") {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    let protocol = entry.build_default();
    let raw = explorer(ctx).explore(&protocol, entry.default_inputs);
    let por = explorer_with(ctx, |c| c.por = true).explore(&protocol, entry.default_inputs);
    if raw.truncated || por.truncated {
        return CheckOutcome::fail("localcoin: exploration truncated; POR equivalence unproven");
    }
    if raw.verdict_label() != por.verdict_label()
        || raw.can_always_reach_termination != por.can_always_reach_termination
        || raw.infinite_execution_possible != por.infinite_execution_possible
    {
        return CheckOutcome::fail(format!(
            "localcoin: POR changed the verdict ({} vs {})",
            raw.verdict_label(),
            por.verdict_label()
        ));
    }
    let probes = Arc::new(AtomicU64::new(0));
    let counting = CountingFrontier { inner: LocalFrontier::new(), probes: Arc::clone(&probes) };
    let transport = SharedFrontier::new(counting);
    let budgeted = explorer_with(ctx, |c| {
        c.por = true;
        c.mem_budget_bytes = 4096;
    })
    .explore(&protocol, entry.default_inputs);
    let remote = explorer_with(ctx, |c| {
        c.por = true;
        c.transport = Some(transport);
    })
    .explore(&protocol, entry.default_inputs);
    let counts = |o: &ExploreOutcome| {
        (o.verdict_label(), o.truncated, o.configs_visited, o.por_pruned, o.por_fallbacks)
    };
    for (tier, out) in [("mem_budget 4096", &budgeted), ("a LocalFrontier transport", &remote)] {
        if counts(out) != counts(&por) {
            return CheckOutcome::fail(format!(
                "localcoin: POR under {tier} reported {:?}, in RAM {:?}",
                counts(out),
                counts(&por)
            ));
        }
    }
    if !budgeted.spill_mode {
        return CheckOutcome::fail("localcoin: POR dropped the memory budget (spill_mode unset)");
    }
    if probes.load(Ordering::Relaxed) == 0 {
        return CheckOutcome::fail("localcoin: POR bypassed the frontier transport");
    }
    CheckOutcome::pass()
        .bound("localcoin.por_configs", por.configs_visited as i128, BoundOp::Le, raw.configs_visited as i128)
        .bound("localcoin.por_pruned", por.por_pruned as i128, BoundOp::Ge, 1)
        .note("localcoin.raw_configs", Json::Int(raw.configs_visited as i128))
}

/// The guided adversary search: best-first finds an inconsistency on a
/// flawed protocol; the witness shrinks to a fixpoint, re-verifies on
/// bridged atomics, and survives a flight-trace round-trip.
pub(crate) fn guided_witness(ctx: &CheckContext) -> CheckOutcome {
    let entry = match binding("naive") {
        Ok(e) => e,
        Err(fail) => return fail,
    };
    let protocol = entry.build_default();
    let (found, truncated) =
        explorer(ctx).guided_violation(&protocol, entry.default_inputs, |c| c.is_inconsistent());
    let Some(execution) = found else {
        return CheckOutcome::fail(if truncated {
            "naive: guided search exhausted its budget without a witness"
        } else {
            "naive: guided search found no inconsistency on a flawed protocol"
        });
    };
    let Some(witness) =
        InconsistencyWitness::from_execution(&protocol, entry.default_inputs, execution)
    else {
        return CheckOutcome::fail("naive: violating execution did not replay to an inconsistency");
    };
    if let Err(e) = witness.verify(&protocol) {
        return CheckOutcome::fail(format!("naive: witness failed model replay: {e}"));
    }
    let shrunk = witness.minimize_report(&protocol).and_then(|(minimal, _)| {
        let (again, stats) = minimal.minimize_report(&protocol)?;
        Ok((minimal, again, stats))
    });
    let (minimal, again, stats) = match shrunk {
        Ok(shrunk) => shrunk,
        Err(e) => {
            return CheckOutcome::fail(format!("naive: minimized witness failed model replay: {e}"))
        }
    };
    if again.execution.len() != minimal.execution.len() || stats.deleted != 0 {
        return CheckOutcome::fail(format!(
            "naive: minimization is not a fixpoint ({} -> {} steps)",
            minimal.execution.len(),
            again.execution.len()
        ));
    }
    if let Err(e) = verify_on_bridged(&protocol, &minimal) {
        return CheckOutcome::fail(format!("naive: {e}"));
    }
    let trace = minimal.flight_trace(entry.name, entry.default_n, entry.default_r);
    match randsync_obs::ExecutionTrace::from_jsonl(&trace.to_jsonl()) {
        Ok(back) if back == trace => {}
        Ok(_) => return CheckOutcome::fail("naive: flight trace round-trip is not the identity"),
        Err(e) => return CheckOutcome::fail(format!("naive: flight trace does not parse back: {e}")),
    }
    // The minimal naive violation is write, write, read, read, decide,
    // decide — six steps.
    CheckOutcome::pass().bound(
        "naive.minimized_steps",
        minimal.execution.len() as i128,
        BoundOp::Le,
        6,
    )
}

/// A registry protocol's name, its `n` and `r`, an input vector, and
/// the exact counts its searches reach, in [`COUNT_FIELDS`] order.
type CountRow = (&'static str, usize, usize, &'static [u8], [i128; 6]);

/// The workloads `explore-counts` pins: raw, canonical and POR
/// configuration counts, the raw configurations the canonical set
/// represents, the moves POR pruned and the nodes its cycle proviso
/// re-expanded.
const COUNT_ROWS: &[CountRow] = &[
    ("optimistic", 3, 3, &[0, 1, 0], [8467, 4244, 23497, 3189, 2874, 0]),
    ("walk-default", 3, 1, &[0, 1, 0], [154367, 78371, 462216, 135256, 58095, 22991]),
    ("phase", 3, 3, &[0, 1, 0], [604505, 152655, 877242, 267205, 403557, 18190]),
    ("localcoin", 2, 4, &[0, 1], [689, 689, 689, 209, 97, 0]),
    ("localcoin", 3, 2, &[0, 1, 1], [953, 953, 953, 221, 138, 0]),
];

/// The bound names of a [`COUNT_ROWS`] row's counts.
const COUNT_FIELDS: [&str; 6] = [
    "raw_configs",
    "canonical_configs",
    "represented_configs",
    "por_configs",
    "por_pruned",
    "por_fallbacks",
];

/// Build a registry protocol at an explicit size.
fn built(name: &str, n: usize, r: usize) -> Result<AnyProtocol, CheckOutcome> {
    Ok((binding(name)?.build)(n, r))
}

/// The outcome, or a failure if any budget cut the search short.
fn complete(label: &str, out: ExploreOutcome) -> Result<ExploreOutcome, CheckOutcome> {
    if out.truncated {
        return Err(CheckOutcome::fail(format!(
            "{label}: exploration truncated ({:?})",
            out.truncation_reason
        )));
    }
    Ok(out)
}

/// Exact exploration counts. Every count a bounded exhaustive search
/// reports is a fact about its protocol, so a change to any of them is
/// a change to what the engine explores: the symmetry quotient, the
/// ample sets or the cycle proviso. The n = 4 walk's raw space also
/// completes under a 4 MiB memory budget, bit-identical to RAM, with
/// pinned spilled bytes and run scans, and best-first search finds a
/// pinned witness where breadth-first search spends the explorer's
/// default budget.
pub(crate) fn explore_counts(ctx: &CheckContext) -> CheckOutcome {
    let mut out = CheckOutcome::pass();
    for &(name, n, r, inputs, want) in COUNT_ROWS {
        match count_row(ctx, name, n, r, inputs) {
            Ok(got) => {
                for ((field, got), want) in COUNT_FIELDS.into_iter().zip(got).zip(want) {
                    out = out.bound(format!("{name}({n},{r}).{field}"), got, BoundOp::Eq, want);
                }
            }
            Err(fail) => return fail,
        }
    }
    walk_counter_n4(ctx, out)
        .and_then(|out| guided_optimistic(ctx, out))
        .unwrap_or_else(|fail| fail)
}

/// One [`COUNT_ROWS`] row's observed counts.
fn count_row(
    ctx: &CheckContext,
    name: &str,
    n: usize,
    r: usize,
    inputs: &[u8],
) -> Result<[i128; 6], CheckOutcome> {
    let protocol = built(name, n, r)?;
    let label = format!("{name}({n},{r})");
    let run = |tweak: fn(&mut ExploreConfig)| {
        complete(&label, explorer_with(ctx, tweak).explore(&protocol, inputs))
    };
    let raw = run(|_| {})?;
    let canon = run(|c| c.canonical = true)?;
    let por = run(|c| c.por = true)?;
    Ok([
        raw.configs_visited,
        canon.configs_visited,
        canon.raw_configs,
        por.configs_visited,
        por.por_pruned,
        por.por_fallbacks,
    ]
    .map(|count| count as i128))
}

/// What a search reports about its protocol, without the diagnostics
/// that describe where its seen-set lived.
fn observable(o: &ExploreOutcome) -> String {
    format!(
        "{:?}",
        (
            (&o.consistency_violation, &o.validity_violation),
            (o.configs_visited, o.terminal_configs, o.raw_configs, o.arena_bytes),
            (o.can_always_reach_termination, o.infinite_execution_possible),
        )
    )
}

/// walk-counter at n = 4 with uniform inputs: the symmetry quotient
/// completes and counts the raw space it stands for, and that raw
/// space completes under a 4 MiB resident budget with an outcome
/// identical to the same search in RAM. The budgeted search's spilled
/// bytes, run scans, run bytes read and sealed-segment lookups are
/// exact, so a change to the run format or the flush cadence, a probe
/// that reads runs twice, or a pass that reads arena rows one lookup
/// at a time, shows. The budgeted search runs on a fixed two threads,
/// so the parallel expansion over spilled rows is the path compared
/// with RAM: expansion takes one row cursor per worker chunk and the
/// chunk bounds follow the thread count, so the lookup count depends
/// on it (no result does). The step table's misses and entries depend
/// on neither threads nor tier, so both searches pin the same figures.
fn walk_counter_n4(ctx: &CheckContext, out: CheckOutcome) -> Result<CheckOutcome, CheckOutcome> {
    const BUDGET: usize = 4 << 20;
    let label = "walk-counter(4,1)";
    let protocol = built("walk-counter", 4, 1)?;
    let inputs = [0; 4];
    let canon =
        complete(label, explorer_with(ctx, |c| c.canonical = true).explore(&protocol, &inputs))?;
    let ram = complete(label, explorer(ctx).explore(&protocol, &inputs))?;
    let spill = complete(
        label,
        explorer_with(ctx, |c| {
            c.mem_budget_bytes = BUDGET;
            c.threads = 2;
        })
        .explore(&protocol, &inputs),
    )?;
    if observable(&ram) != observable(&spill) {
        return Err(CheckOutcome::fail(format!(
            "{label}: the spilled search diverged from RAM: {} vs {}",
            observable(&spill),
            observable(&ram)
        )));
    }
    let bounds = [
        ("canonical_configs", canon.configs_visited, BoundOp::Eq, 25191),
        ("represented_configs", canon.raw_configs, BoundOp::Eq, 518260),
        ("spill.raw_configs", spill.configs_visited, BoundOp::Eq, 518260),
        // The run format and the flush cadence are pinned: the bytes
        // written to segments and runs, the scans over the runs, and
        // the bytes those scans read.
        ("spill.merge_passes", spill.dedup_merge_passes as usize, BoundOp::Eq, 48),
        ("spill.spilled_bytes", spill.spilled_bytes as usize, BoundOp::Eq, 43_146_736),
        ("spill.run_bytes_read", spill.dedup_run_bytes as usize, BoundOp::Eq, 158_854_912),
        // One lookup per segment a sequential pass crosses, not per row.
        ("spill.segment_reads", spill.segment_reads as usize, BoundOp::Eq, 165),
        // Each distinct step runs through the protocol at the nodes of
        // the level it first shows up in, on either tier.
        ("step_misses", ram.step_misses as usize, BoundOp::Eq, 42_836),
        ("step_entries", ram.step_entries as usize, BoundOp::Eq, 118),
        ("spill.step_misses", spill.step_misses as usize, BoundOp::Eq, 42_836),
        ("spill.step_entries", spill.step_entries as usize, BoundOp::Eq, 118),
        ("spill.resident_bytes", spill.resident_arena_bytes, BoundOp::Le, BUDGET),
    ];
    Ok(bounds.into_iter().fold(out, |out, (field, got, op, want)| {
        out.bound(format!("{label}.{field}"), got as i128, op, want as i128)
    }))
}

/// optimistic at n = 5, r = 4: breadth-first search at the explorer's
/// default limits runs out of budget without a witness, while
/// best-first search finds one that verifies and is already minimal.
/// (A cut by the entry's deadline would also read as a truncated
/// search, but the runner fails an entry that overruns its budget.)
fn guided_optimistic(ctx: &CheckContext, out: CheckOutcome) -> Result<CheckOutcome, CheckOutcome> {
    let label = "optimistic(5,4)";
    let protocol = built("optimistic", 5, 4)?;
    let inputs = [0, 1, 0, 1, 0];
    let explorer = explorer_with(ctx, |c| c.limits = ExploreLimits::default());
    let bad = |c: &Configuration<_>| c.is_inconsistent();
    let fail = |why: String| CheckOutcome::fail(format!("{label}: {why}"));
    let (bfs_hit, bfs_truncated) = explorer.find_violation(&protocol, &inputs, bad);
    if bfs_hit.is_some() || !bfs_truncated {
        return Err(fail(format!(
            "breadth-first search was to exhaust the default budget without a witness \
             (witness found: {}, truncated: {bfs_truncated})",
            bfs_hit.is_some()
        )));
    }
    let Some(execution) = explorer.guided_violation(&protocol, &inputs, bad).0 else {
        return Err(fail("best-first search found no witness".to_string()));
    };
    let steps = execution.len() as i128;
    let witness = InconsistencyWitness::from_execution(&protocol, &inputs, execution)
        .ok_or_else(|| fail("the witness does not replay to an inconsistency".to_string()))?;
    witness.verify(&protocol).map_err(|e| fail(format!("witness failed model replay: {e}")))?;
    let (minimal, _) = witness
        .minimize_report(&protocol)
        .map_err(|e| fail(format!("minimized witness failed model replay: {e}")))?;
    let minimized = minimal.execution.len() as i128;
    Ok(out
        .bound(format!("{label}.witness_steps"), steps, BoundOp::Eq, 18)
        .bound(format!("{label}.minimized_steps"), minimized, BoundOp::Eq, 18))
}

/// A change to the explorer's configuration.
type Tweak = fn(&mut ExploreConfig);

/// The searches `registry-counts` runs on each registry protocol: the
/// raw space, the symmetry quotient (raw again where the protocol
/// grants no symmetry), partial-order reduction, and the raw space
/// under a 64 KiB memory budget.
const REGISTRY_MODES: [(&str, Tweak); 4] = [
    ("raw", |_| {}),
    ("canonical", |c| c.canonical = true),
    ("por", |c| c.por = true),
    ("spill", |c| c.mem_budget_bytes = 64 << 10),
];

/// The figures `registry-counts` pins per search, in [`REGISTRY_COUNTS`]
/// column order.
const REGISTRY_FIELDS: [&str; 6] =
    ["configs", "terminal_configs", "zero_valent", "one_valent", "bivalent", "arena_bytes"];

/// Every registry protocol at its registry defaults, one row of
/// [`REGISTRY_FIELDS`] per [`REGISTRY_MODES`] search.
#[rustfmt::skip]
const REGISTRY_COUNTS: &[(&str, [[usize; 6]; 4])] = &[
    ("cas", [[43, 2, 24, 18, 1, 1356], [22, 2, 12, 9, 1, 1020], [25, 2, 15, 9, 1, 1068], [43, 2, 24, 18, 1, 1356]]),
    ("swap2", [[13, 2, 6, 6, 1, 824], [11, 2, 5, 5, 1, 800], [9, 2, 4, 4, 1, 776], [13, 2, 6, 6, 1, 824]]),
    ("tas2", [[24, 2, 10, 10, 4, 1748], [24, 2, 10, 10, 4, 1748], [18, 2, 7, 7, 4, 1628], [24, 2, 10, 10, 4, 1748]]),
    ("fetchinc2", [[24, 2, 10, 10, 4, 1680], [24, 2, 10, 10, 4, 1680], [18, 2, 7, 7, 4, 1560], [24, 2, 10, 10, 4, 1680]]),
    ("walk-counter", [[262, 4, 109, 109, 44, 7100], [262, 4, 109, 109, 44, 7100], [240, 4, 98, 98, 44, 6836], [262, 4, 109, 109, 44, 7100]]),
    ("walk-fetchadd", [[262, 4, 109, 109, 44, 7100], [262, 4, 109, 109, 44, 7100], [240, 4, 98, 98, 44, 6836], [262, 4, 109, 109, 44, 7100]]),
    ("walk-default", [[154367, 6, 85608, 44093, 24666, 2488196], [78371, 6, 43271, 22474, 12626, 1272260], [135256, 6, 71568, 39022, 24666, 2182420], [154367, 6, 85608, 44093, 24666, 2488196]]),
    ("walk-deterministic", [[227, 4, 97, 97, 33, 6680], [227, 4, 97, 97, 33, 6680], [209, 4, 88, 88, 33, 6464], [227, 4, 97, 97, 33, 6680]]),
    ("naive", [[37, 4, 9, 9, 19, 1228], [31, 4, 6, 6, 19, 1156], [23, 4, 5, 5, 13, 1060], [37, 4, 9, 9, 19, 1228]]),
    ("optimistic", [[135, 8, 36, 36, 63, 3756], [131, 8, 34, 34, 63, 3692], [72, 8, 16, 13, 43, 2748], [135, 8, 36, 36, 63, 3756]]),
    ("zigzag", [[115, 6, 44, 24, 47, 3436], [112, 6, 42, 23, 47, 3388], [67, 6, 24, 11, 32, 2668], [115, 6, 44, 24, 47, 3436]]),
    ("swapchain", [[67, 5, 0, 12, 55, 1740], [30, 3, 0, 7, 23, 1148], [28, 5, 0, 5, 23, 1116], [67, 5, 0, 12, 55, 1740]]),
    ("tasrace", [[9, 1, 0, 0, 9, 708], [9, 1, 0, 0, 9, 708], [8, 1, 0, 0, 8, 696], [9, 1, 0, 0, 9, 708]]),
    ("mixedzigzag", [[73, 6, 8, 18, 47, 2844], [70, 6, 7, 16, 47, 2784], [49, 6, 5, 10, 34, 2364], [73, 6, 8, 18, 47, 2844]]),
    ("localcoin", [[689, 32, 200, 200, 289, 16276], [689, 32, 200, 200, 289, 16276], [209, 32, 64, 64, 81, 6676], [689, 32, 200, 200, 289, 16276]]),
    ("phase", [[1644, 4, 556, 561, 110, 84732], [1326, 4, 450, 452, 109, 69468], [590, 4, 147, 176, 62, 34140], [1644, 4, 556, 561, 110, 84732]]),
];

/// Exact valency searches over the whole registry: every protocol at
/// its defaults, in each of [`REGISTRY_MODES`], reaches exactly the
/// pinned configurations, terminal configurations, valency classes and
/// arena bytes. The arena bytes count the codec, so a change to which
/// states and values are interned shows as well as one to the graph.
pub(crate) fn registry_counts(ctx: &CheckContext) -> CheckOutcome {
    let pinned: Vec<&str> = REGISTRY_COUNTS.iter().map(|&(name, _)| name).collect();
    let listed: Vec<&str> = registry::registry().iter().map(|e| e.name).collect();
    if pinned != listed {
        return CheckOutcome::fail(format!("pinned {pinned:?} but the registry lists {listed:?}"));
    }
    let mut out = CheckOutcome::pass();
    for &(name, pins) in REGISTRY_COUNTS {
        let entry = match binding(name) {
            Ok(e) => e,
            Err(fail) => return fail,
        };
        let protocol = entry.build_default();
        for ((mode, tweak), want) in REGISTRY_MODES.into_iter().zip(pins) {
            let (o, analysis) =
                explorer_with(ctx, tweak).explore_with_valency(&protocol, entry.default_inputs);
            let Some(a) = analysis else {
                return CheckOutcome::fail(format!("{name} {mode}: exploration truncated"));
            };
            let got =
                [o.configs_visited, o.terminal_configs, a.zero_valent, a.one_valent, a.bivalent, o.arena_bytes];
            for ((field, got), want) in REGISTRY_FIELDS.into_iter().zip(got).zip(want) {
                out = out.bound(format!("{name}.{mode}.{field}"), got as i128, BoundOp::Eq, want as i128);
            }
        }
    }
    out
}

/// One state machine, many interpreters: seeded threaded-runtime
/// executions must replay bit-identically through the model
/// interpreter, deciding one valid value.
pub(crate) fn runtime_model_equiv(_ctx: &CheckContext) -> CheckOutcome {
    let mut out = CheckOutcome::pass();
    let mut executions = 0i128;
    for name in ["cas", "walk-counter"] {
        let entry = match binding(name) {
            Ok(e) => e,
            Err(fail) => return fail,
        };
        for seed in [1u64, 7, 23] {
            let protocol = entry.build_default();
            let inputs = entry.default_inputs.to_vec();
            let objects = match bridge::instantiate_all(&protocol) {
                Ok(o) => o,
                Err(e) => {
                    return CheckOutcome::fail(format!("{name}: objects do not bridge: {e}"))
                }
            };
            let (report, execution) = Runtime::new(seed).run_traced(&protocol, &inputs, &objects);
            let decided: Vec<u8> = report.decisions.iter().filter_map(|d| *d).collect();
            if decided.len() != inputs.len() {
                return CheckOutcome::fail(format!(
                    "{name} seed {seed}: only {} of {} processes decided",
                    decided.len(),
                    inputs.len()
                ));
            }
            if decided.windows(2).any(|w| w[0] != w[1]) {
                return CheckOutcome::fail(format!("{name} seed {seed}: inconsistent decisions"));
            }
            if !inputs.contains(&decided[0]) {
                return CheckOutcome::fail(format!(
                    "{name} seed {seed}: decided {} which nobody proposed",
                    decided[0]
                ));
            }
            let model_objects = ModelObject::instantiate_all(&protocol);
            let refs: Vec<&dyn DynObject> = model_objects.iter().map(AsRef::as_ref).collect();
            match replay_execution(&protocol, &refs, &inputs, &execution) {
                Ok(replayed) if replayed == report.decisions => {}
                Ok(replayed) => {
                    return CheckOutcome::fail(format!(
                        "{name} seed {seed}: model replay decided {replayed:?}, runtime decided {:?}",
                        report.decisions
                    ));
                }
                Err(e) => {
                    return CheckOutcome::fail(format!(
                        "{name} seed {seed}: runtime schedule does not replay: {e}"
                    ));
                }
            }
            executions += 1;
        }
    }
    out = out.bound("replayed_executions", executions, BoundOp::Eq, 6);
    out
}

/// A job server on a thread of this process, on an ephemeral loopback
/// port.
struct LoopbackServer {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl LoopbackServer {
    fn start() -> Result<LoopbackServer, CheckOutcome> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| CheckOutcome::fail(format!("cannot bind loopback server: {e}")))?;
        let addr =
            server.local_addr().map_err(|e| CheckOutcome::fail(format!("no local addr: {e}")))?;
        let thread = std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(LoopbackServer { addr, thread })
    }

    /// Drain the server and join its thread.
    fn stop(self) -> Result<(), String> {
        let shutdown = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        let _ = self.thread.join();
        shutdown.map(drop).map_err(|e| format!("server did not shut down cleanly: {e}"))
    }
}

/// The distributed frontier answers what a single node answers:
/// walk-default(3,1) explored with its valency through two worker
/// shards over loopback equals the same search on one node, count for
/// count. A transport failure truncates the search, which fails the
/// entry. The packed hex digits the coordinator sends are pinned too:
/// a probe sends each key, a commit only an index per staged miss.
pub(crate) fn dist_equiv(ctx: &CheckContext) -> CheckOutcome {
    let label = "walk-default(3,1)";
    let protocol = match built("walk-default", 3, 1) {
        Ok(p) => p,
        Err(fail) => return fail,
    };
    let inputs = [0, 1, 0];
    let sent_digits = || {
        ["probe", "commit"].map(|kind| {
            randsync_obs::global_metrics().counter(&format!("svc.dist.sent_digits.{kind}")).get()
        })
    };
    let before = sent_digits();
    // Start both shards and search through them; then stop every shard
    // that started, whatever happened.
    let mut shards = Vec::new();
    let distributed = loop {
        if shards.len() == 2 {
            let addrs: Vec<SocketAddr> = shards.iter().map(|s: &LoopbackServer| s.addr).collect();
            break DistributedFrontier::connect(&addrs)
                .map_err(|e| {
                    CheckOutcome::fail(format!("cannot connect to the worker shards: {e}"))
                })
                .map(|transport| {
                    explorer_with(ctx, |c| c.transport = Some(SharedFrontier::new(transport)))
                        .explore_with_valency(&protocol, &inputs)
                });
        }
        match LoopbackServer::start() {
            Ok(shard) => shards.push(shard),
            Err(fail) => break Err(fail),
        }
    };
    let stopped: Result<Vec<()>, String> = shards.into_iter().map(LoopbackServer::stop).collect();
    let [probe_digits, commit_digits] = sent_digits();
    let (dist, dist_val) = match distributed {
        Ok(searched) => searched,
        Err(fail) => return fail,
    };
    if let Err(e) = stopped {
        return CheckOutcome::fail(format!("worker shard: {e}"));
    }
    let (Some(dist_val), false) = (dist_val, dist.truncated) else {
        return CheckOutcome::fail(format!(
            "{label}: the distributed search was cut short ({:?}): {}",
            dist.truncation_reason,
            dist.transport_error.as_deref().unwrap_or("no transport error")
        ));
    };
    let (local, local_val) = explorer(ctx).explore_with_valency(&protocol, &inputs);
    let Some(local_val) = local_val else {
        return CheckOutcome::fail(format!("{label}: the single-node search was truncated"));
    };
    if observable(&dist) != observable(&local) {
        return CheckOutcome::fail(format!(
            "{label}: the distributed search diverged from one node: {} vs {}",
            observable(&dist),
            observable(&local)
        ));
    }
    if format!("{dist_val:?}") != format!("{local_val:?}") {
        return CheckOutcome::fail(format!(
            "{label}: the distributed valency diverged from one node: {dist_val:?} vs \
             {local_val:?}"
        ));
    }
    let bounds = [
        ("configs", dist.configs_visited, 154_367),
        ("zero_valent", dist_val.zero_valent, 85_608),
        ("one_valent", dist_val.one_valent, 44_093),
        ("bivalent", dist_val.bivalent, 24_666),
        // 16 + 8·4 digits per probed key at stride 4: the start key
        // and the levels' 196,836 distinct keys.
        ("sent_digits.probe", (probe_digits - before[0]) as usize, 48 * 196_837),
        // 8 digits per staged miss: each configuration is one.
        ("sent_digits.commit", (commit_digits - before[1]) as usize, 8 * 154_367),
    ];
    bounds.into_iter().fold(CheckOutcome::pass(), |out, (field, got, want)| {
        out.bound(format!("{label}.{field}"), got as i128, BoundOp::Eq, want)
    })
}

/// The soak gate: an in-process server under the PR 9 threshold
/// catalog — sustained mixed load at the backpressure boundary with no
/// leaking gauges, p99 under its ceiling, cache hit rate above its
/// floor.
pub(crate) fn svc_soak(_ctx: &CheckContext) -> CheckOutcome {
    let server = match LoopbackServer::start() {
        Ok(s) => s,
        Err(fail) => return fail,
    };
    let config = SoakConfig {
        duration: Duration::from_secs(2),
        inflight: 8,
        sample_interval: Duration::from_millis(125),
    };
    let catalog = ThresholdCatalog::baked();
    let result = run_soak(&server.addr.to_string(), &config, &catalog);
    let stopped = server.stop();
    let report = match result {
        Ok(r) => r,
        Err(e) => return CheckOutcome::fail(format!("soak run failed: {e}")),
    };
    if let Err(e) = stopped {
        return CheckOutcome::fail(e);
    }
    if report.jobs_ok == 0 {
        return CheckOutcome::fail("soak completed zero jobs — the load loop never ran");
    }
    let mut out = if report.passed() {
        CheckOutcome::pass()
    } else {
        let details: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("[{}] {}: {}", v.kind, v.metric, v.detail))
            .collect();
        CheckOutcome::fail(details.join("; "))
    };
    out = out
        .bound("threshold_violations", report.violations.len() as i128, BoundOp::Eq, 0)
        .note("jobs_ok", Json::Int(i128::from(report.jobs_ok)))
        .note("rejected", Json::Int(i128::from(report.rejected)));
    if let Some(rate) = report.cache_hit_rate {
        out = out.note("cache_hit_rate", Json::Float(rate));
    }
    out
}
