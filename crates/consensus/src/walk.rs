//! Random-walk consensus over a counter-like object.
//!
//! This module implements the randomized binary consensus protocol that
//! powers three of the paper's upper bounds at once:
//!
//! * over one **bounded counter** — Theorem 4.2 (Aspnes): "there is a
//!   randomized consensus implementation using one bounded counter"
//!   (the paper notes the cursor "assumes values between -3n and 3n",
//!   which is exactly this protocol's operating range);
//! * over one **fetch&add register** — Theorem 4.4, because a fetch&add
//!   register trivially implements the counter operations;
//! * over the **n-register snapshot counter** of
//!   `randsync_objects::snapshot` — the O(n) read–write-register upper
//!   bound quoted in Section 1 and used in Corollary 4.3. (Its READ is
//!   an atomic double-collect scan, so the agreement argument below
//!   applies verbatim; the scan satisfies nondeterministic solo
//!   termination rather than wait-freedom, which is precisely the
//!   termination property the paper's lower bound is stated against.)
//!
//! The protocol's state machine lives in
//! [`WalkModel`] — the same machine
//! the explorer model checks exhaustively. This type **instantiates**
//! that machine on real shared memory: each [`CounterAccess`] backing is
//! exposed to [`randsync_model::runtime`] as the model's single shared
//! object, and `decide` drives the caller's process through the
//! interpreter. There is no second copy of the step logic here.
//!
//! # The protocol
//!
//! The shared object is a counter `c`, initially 0. Fix a *drift margin*
//! `W` and a *decision margin* `D` with `D − W` larger than the maximum
//! combined staleness (see below). Each process loops:
//!
//! 1. `v ← read(c)`
//! 2. if `v ≥ D` **decide 1**; if `v ≤ −D` **decide 0**;
//! 3. otherwise update the *conflict evidence* (below), then move:
//!    * a process that still has **no evidence of conflict** moves one
//!      step toward its own input (inc for 1, dec for 0);
//!    * a process with evidence in the **drift zone** `|v| ≥ W` moves
//!      one step outward (toward the nearer barrier);
//!    * a process with evidence in the middle band flips a fair local
//!      coin and moves accordingly.
//!
//! **Conflict evidence.** A process with input 1 acquires evidence the
//! first time a read returns less than its own number of increments so
//! far, or less than a previous read (symmetrically for input 0). If
//! every process has input 1, the counter is a nondecreasing sum of
//! increments that always dominates each process's own contribution, so
//! no process ever acquires evidence, every move is an increment, and
//! everyone decides 1 — this is exactly **validity**. (With mixed
//! inputs any decision is valid, so the evidence rule only needs to be
//! *sound*, never complete.)
//!
//! **Agreement.** Reads and moves are separate steps, so at any instant
//! each other process holds at most one pending move based on a stale
//! read: at most `n − 1` stale ±1 moves. Suppose a process decides 1
//! after (atomically) reading `v ≥ D`. From that point the counter
//! never drops below `D − (n−1)`; any read taken afterwards returns at
//! least `D − (n−1) ≥ W + 1` (our defaults make this hold), which lies
//! in the upward drift zone, so every subsequent move is an increment —
//! by induction the counter can only rise, every process eventually
//! reads `≥ D`, and all decide 1. This argument requires reads to be
//! linearizable, which every [`CounterAccess`] backing provides (the
//! register-based one reads via an atomic snapshot scan; a bare
//! collect-sum would smear unboundedly and break the induction).
//!
//! **Termination.** In the middle band all evidence-bearing processes
//! perform independent fair ±1 flips, so the counter performs a random
//! walk between absorbing drift zones; the expected number of total
//! moves to absorption is O(n²) regardless of scheduling (drift moves
//! only push outward, and evidence-free processes push constantly in
//! one direction). The *maximum* counter excursion is bounded by
//! `D + n`: moves only happen after reads `< D`, and at most `n` stale
//! increments can land on top, which is why a bounded counter with
//! range `±(D + n)` never wraps.

use core::fmt;

use randsync_model::runtime::DynObject;
use randsync_model::{ModelError, ObjectKind, Operation, Protocol, Response, Value};
use randsync_objects::traits::{Counter, FetchAdd};
use randsync_objects::{AtomicCounter, BoundedAtomicCounter, FetchAddRegister, SnapshotCounter};

use crate::model_protocols::{WalkBacking, WalkModel};
use crate::spec::Consensus;

/// Per-process access to a counter-like shared object.
///
/// Atomic counters ignore the `process` argument; the n-register collect
/// counter uses it to select the process's single-writer slot.
pub trait CounterAccess: Send + Sync {
    /// Read the counter (trivial operation).
    fn read(&self, process: usize) -> i64;
    /// Increment by one.
    fn inc(&self, process: usize);
    /// Decrement by one.
    fn dec(&self, process: usize);
    /// Atomically move by `delta` (±1) and return the **previous**
    /// value, for backings that support it natively. The default
    /// (`None`) makes the runtime fall back to
    /// [`inc`](CounterAccess::inc)/[`dec`](CounterAccess::dec) with an
    /// uninformative response — sound, because the walk never consults
    /// its move responses.
    fn fetch_move(&self, process: usize, delta: i64) -> Option<i64> {
        let _ = (process, delta);
        None
    }
    /// How many shared-object instances back this counter.
    fn object_count(&self) -> usize;
    /// A short name for reporting.
    fn access_name(&self) -> &'static str;
}

/// Protocol margins; see the module docs for the roles of `drift` and
/// `decide`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkParams {
    /// Outward-drift threshold `W` (reads with `|v| ≥ W` drift outward).
    pub drift: i64,
    /// Decision threshold `D` (reads with `|v| ≥ D` decide).
    pub decide: i64,
}

impl WalkParams {
    /// Margins for an **atomic** counter shared by `n` processes:
    /// `W = n`, `D = 2n` — the counter then stays within `±3n`, matching
    /// the paper's description of Aspnes's protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn atomic(n: usize) -> Self {
        assert!(n > 0, "consensus needs at least one process");
        WalkParams { drift: n as i64, decide: 2 * n as i64 }
    }

    /// Conservative margins with extra slack beyond the `n − 1` stale
    /// moves the agreement argument consumes: `W = n`, `D = 3n`. Useful
    /// when experimenting with weaker counter backings.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn wide(n: usize) -> Self {
        assert!(n > 0, "consensus needs at least one process");
        WalkParams { drift: n as i64, decide: 3 * n as i64 }
    }

    /// The counter range the protocol can touch: `±(decide + n)`.
    pub fn required_range(&self, n: usize) -> i64 {
        self.decide + n as i64
    }
}

/// Randomized binary consensus by random walk over a counter-like
/// object. See the module documentation for the protocol and its
/// correctness argument.
#[derive(Debug)]
pub struct WalkConsensus<A> {
    access: A,
    model: WalkModel,
    n: usize,
    params: WalkParams,
    seed: u64,
    name: &'static str,
}

impl<A: CounterAccess> WalkConsensus<A> {
    /// A walk consensus for `n` processes over `access` with explicit
    /// margins. `seed` derives each process's local coin stream.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, the margins are non-positive or inverted, or
    /// the margins are too tight for agreement (the model requires
    /// `decide − (n−1) ≥ drift`).
    pub fn new(access: A, n: usize, params: WalkParams, seed: u64) -> Self {
        assert!(n > 0, "consensus needs at least one process");
        assert!(params.drift > 0 && params.decide > params.drift, "bad walk margins");
        let model = WalkModel::new(n, WalkBacking::Counter, params.drift, params.decide);
        WalkConsensus { access, model, n, params, seed, name: "walk-consensus" }
    }

    /// The margins in force.
    pub fn params(&self) -> &WalkParams {
        &self.params
    }

    /// Re-express the model over `backing`: the margins are unchanged;
    /// only the declared object kind and the shape of the move
    /// operations differ.
    fn with_backing(mut self, backing: WalkBacking) -> Self {
        self.model = WalkModel::new(self.n, backing, self.params.drift, self.params.decide);
        self
    }
}

impl<A: CounterAccess> Consensus for WalkConsensus<A> {
    fn decide(&self, process: usize, input: u8) -> u8 {
        assert!(process < self.n, "process index out of range");
        assert!(input <= 1, "binary consensus inputs are 0 or 1");
        let obj = AccessObject { access: &self.access, kind: self.model.objects()[0].kind };
        crate::driver::decide_on(&self.model, &[&obj], process, input, self.seed)
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn object_count(&self) -> usize {
        self.access.object_count()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

// ----- the runtime's view of a backing ------------------------------

/// A [`CounterAccess`] backing exposed to the threaded runtime as the
/// walk model's single shared object ("cursor").
struct AccessObject<'a, A> {
    access: &'a A,
    kind: ObjectKind,
}

impl<A: CounterAccess> fmt::Debug for AccessObject<'_, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessObject")
            .field("kind", &self.kind)
            .field("access", &self.access.access_name())
            .finish()
    }
}

impl<A: CounterAccess> DynObject for AccessObject<'_, A> {
    fn kind(&self) -> ObjectKind {
        self.kind
    }

    fn apply(&self, process: usize, op: &Operation) -> Result<Response, ModelError> {
        match *op {
            Operation::Read => Ok(Response::Value(Value::Int(self.access.read(process)))),
            Operation::Inc => {
                self.access.inc(process);
                Ok(Response::Ack)
            }
            Operation::Dec => {
                self.access.dec(process);
                Ok(Response::Ack)
            }
            Operation::FetchAdd(delta @ (1 | -1)) => {
                Ok(match self.access.fetch_move(process, delta) {
                    Some(old) => Response::Value(Value::Int(old)),
                    None => {
                        if delta == 1 {
                            self.access.inc(process);
                        } else {
                            self.access.dec(process);
                        }
                        Response::Ack
                    }
                })
            }
            _ => Err(ModelError::UnsupportedOperation { kind: self.kind, op: *op }),
        }
    }
}

// ----- counter-access adapters --------------------------------------

impl CounterAccess for AtomicCounter {
    fn read(&self, _process: usize) -> i64 {
        Counter::read(self)
    }

    fn inc(&self, _process: usize) {
        Counter::inc(self);
    }

    fn dec(&self, _process: usize) {
        Counter::dec(self);
    }

    fn object_count(&self) -> usize {
        1
    }

    fn access_name(&self) -> &'static str {
        "atomic counter"
    }
}

impl CounterAccess for BoundedAtomicCounter {
    fn read(&self, _process: usize) -> i64 {
        Counter::read(self)
    }

    fn inc(&self, _process: usize) {
        Counter::inc(self);
    }

    fn dec(&self, _process: usize) {
        Counter::dec(self);
    }

    fn object_count(&self) -> usize {
        1
    }

    fn access_name(&self) -> &'static str {
        "bounded counter"
    }
}

impl CounterAccess for FetchAddRegister {
    fn read(&self, _process: usize) -> i64 {
        self.load()
    }

    fn inc(&self, _process: usize) {
        self.fetch_add(1);
    }

    fn dec(&self, _process: usize) {
        self.fetch_add(-1);
    }

    fn fetch_move(&self, _process: usize, delta: i64) -> Option<i64> {
        Some(self.fetch_add(delta))
    }

    fn object_count(&self) -> usize {
        1
    }

    fn access_name(&self) -> &'static str {
        "fetch&add register"
    }
}

impl CounterAccess for SnapshotCounter {
    fn read(&self, _process: usize) -> i64 {
        SnapshotCounter::read(self)
    }

    fn inc(&self, process: usize) {
        SnapshotCounter::inc(self, process);
    }

    fn dec(&self, process: usize) {
        SnapshotCounter::dec(self, process);
    }

    fn object_count(&self) -> usize {
        self.num_slots()
    }

    fn access_name(&self) -> &'static str {
        "n-register snapshot counter"
    }
}

// ----- named constructors for the paper's three instantiations -------

impl WalkConsensus<BoundedAtomicCounter> {
    /// **Theorem 4.2**: randomized consensus from one bounded counter.
    /// The counter range `±3n` is exactly what the paper describes.
    pub fn with_bounded_counter(n: usize, seed: u64) -> Self {
        let params = WalkParams::atomic(n);
        let range = params.required_range(n);
        let mut me = Self::new(BoundedAtomicCounter::new(-range, range), n, params, seed)
            .with_backing(WalkBacking::BoundedCounter);
        me.name = "one-bounded-counter walk (Thm 4.2)";
        me
    }
}

impl WalkConsensus<FetchAddRegister> {
    /// **Theorem 4.4**: randomized consensus from one fetch&add
    /// register.
    pub fn with_fetch_add(reg: FetchAddRegister, n: usize, seed: u64) -> Self {
        let mut me = Self::new(reg, n, WalkParams::atomic(n), seed)
            .with_backing(WalkBacking::FetchAdd);
        me.name = "one-fetch&add walk (Thm 4.4)";
        me
    }
}

impl WalkConsensus<SnapshotCounter> {
    /// The **O(n) read–write-register** upper bound: the same walk over
    /// the n-slot snapshot counter, whose reads are atomic scans.
    pub fn with_register_counter(n: usize, seed: u64) -> Self {
        let mut me = Self::new(SnapshotCounter::new(n), n, WalkParams::atomic(n), seed);
        me.name = "O(n)-register walk";
        me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{decide_concurrently, run_trials};

    #[test]
    fn params_and_ranges() {
        let p = WalkParams::atomic(5);
        assert_eq!(p, WalkParams { drift: 5, decide: 10 });
        assert_eq!(p.required_range(5), 15, "±3n, as the paper describes");
        let c = WalkParams::wide(4);
        assert_eq!(c, WalkParams { drift: 4, decide: 12 });
    }

    #[test]
    #[should_panic(expected = "bad walk margins")]
    fn inverted_margins_rejected() {
        let _ = WalkConsensus::new(
            AtomicCounter::new(),
            2,
            WalkParams { drift: 5, decide: 5 },
            0,
        );
    }

    #[test]
    fn unanimous_inputs_decide_that_input_deterministically() {
        for input in [0u8, 1u8] {
            for seed in 0..5 {
                let proto = WalkConsensus::with_bounded_counter(4, seed);
                let ds = decide_concurrently(&proto, &[input; 4]);
                assert!(ds.iter().all(|&d| d == input), "validity: all inputs {input}");
            }
        }
    }

    #[test]
    fn mixed_inputs_agree_over_many_seeds() {
        let stats = run_trials(
            60,
            |t| WalkConsensus::with_bounded_counter(4, t as u64 * 7 + 1),
            |t| (0..4).map(|p| ((p + t) % 2) as u8).collect(),
        );
        assert!(stats.all_correct(), "{stats}");
        // Both outcomes occur across seeds (the coin is not stuck).
        assert!(stats.decided_one > 0 && stats.decided_one < stats.trials, "{stats}");
    }

    #[test]
    fn fetch_add_instantiation_agrees() {
        let stats = run_trials(
            40,
            |t| WalkConsensus::with_fetch_add(FetchAddRegister::new(0), 6, t as u64 + 99),
            |t| (0..6).map(|p| ((p * 3 + t) % 2) as u8).collect(),
        );
        assert!(stats.all_correct(), "{stats}");
    }

    #[test]
    fn register_counter_instantiation_agrees() {
        let stats = run_trials(
            30,
            |t| WalkConsensus::with_register_counter(4, t as u64 ^ 0xABCD),
            |t| (0..4).map(|p| ((p + t) % 2) as u8).collect(),
        );
        assert!(stats.all_correct(), "{stats}");
    }

    #[test]
    fn object_counts_match_the_space_story() {
        assert_eq!(WalkConsensus::with_bounded_counter(8, 0).object_count(), 1);
        assert_eq!(
            WalkConsensus::with_fetch_add(FetchAddRegister::new(0), 8, 0).object_count(),
            1
        );
        assert_eq!(WalkConsensus::with_register_counter(8, 0).object_count(), 8);
    }

    #[test]
    fn bounded_counter_never_needs_to_wrap() {
        // Exercise many trials; the bounded counter asserts its own
        // range; wrap-around would produce inconsistency, which the
        // stats would catch.
        let stats = run_trials(
            25,
            |t| WalkConsensus::with_bounded_counter(3, t as u64),
            |_| vec![1, 0, 1],
        );
        assert!(stats.all_correct(), "{stats}");
    }

    #[test]
    #[should_panic(expected = "process index out of range")]
    fn out_of_range_process_panics() {
        let proto = WalkConsensus::with_bounded_counter(2, 0);
        let _ = proto.decide(2, 0);
    }

    #[test]
    #[should_panic(expected = "inputs are 0 or 1")]
    fn non_binary_input_panics() {
        let proto = WalkConsensus::with_bounded_counter(2, 0);
        let _ = proto.decide(0, 2);
    }

    #[test]
    fn fetch_add_moves_report_the_previous_value() {
        // The FetchAdd backing serves moves natively (fetch_move),
        // so its responses carry the pre-move value even though the
        // walk itself never reads them.
        let reg = FetchAddRegister::new(7);
        let obj = AccessObject { access: &reg, kind: ObjectKind::FetchAdd };
        let r = obj.apply(0, &Operation::FetchAdd(1)).unwrap();
        assert_eq!(r, Response::Value(Value::Int(7)));
        // Counters fall back to inc/dec and answer Ack.
        let ctr = AtomicCounter::new();
        let obj = AccessObject { access: &ctr, kind: ObjectKind::Counter };
        assert_eq!(obj.apply(0, &Operation::FetchAdd(-1)).unwrap(), Response::Ack);
        assert_eq!(CounterAccess::read(&ctr, 0), -1);
        // Operations outside the counter interface are rejected.
        assert!(obj.apply(0, &Operation::TestAndSet).is_err());
    }
}
