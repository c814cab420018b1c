//! The threaded interpreter: run any [`Protocol`] state machine against
//! *real* shared objects, one OS thread per process.
//!
//! The explorer ([`crate::explore`]) and the simulator ([`crate::sim`])
//! interpret protocols against the model's sequential object semantics
//! ([`ObjectKind::apply`]). This module closes the loop in the other
//! direction: the very same state machine is executed with each process
//! on its own thread, issuing operations against concrete linearizable
//! objects supplied through the [`DynObject`] trait. Together the three
//! interpreters give the "one state machine, many interpreters"
//! discipline — the protocol that was exhaustively model-checked is
//! bit-for-bit the protocol that runs on real atomics.
//!
//! Object implementations live elsewhere (`randsync-objects` provides a
//! bridge from [`ObjectSpec`] to its atomics-backed objects); this
//! module only fixes the interface and the driving loop. For tests and
//! for replaying witnesses without real atomics, [`ModelObject`] wraps
//! the model semantics behind a mutex.
//!
//! The driving loop mirrors [`Configuration::step_with`]
//! exactly: `action` → apply the operation → draw a coin from the
//! declared domain → `transition`. Coins come from a per-process
//! [`SplitMix64`] stream derived from a master seed, so a run is
//! reproducible given the seed *and* the interleaving (the latter is
//! the scheduler's — i.e. the OS's — choice, which is the whole point).
//!
//! [`Configuration::step_with`]: crate::config::Configuration::step_with

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::ModelError;
use crate::execution::{Execution, Step};
use crate::kind::ObjectKind;
use crate::op::{Operation, Response};
use crate::process::ProcessId;
use crate::protocol::{Action, Decision, ObjectSpec, Protocol};
use crate::rng::SplitMix64;
use crate::value::Value;

/// A shared object the threaded runtime can issue operations against.
///
/// Implementations must be linearizable: concurrent [`apply`] calls
/// must behave as if executed in some sequential order consistent with
/// real time, with each call following the object kind's operational
/// semantics ([`ObjectKind::apply`]). The `process` argument lets
/// per-process implementations (e.g. a snapshot-based counter with one
/// slot per process) route the operation; single-word atomics ignore
/// it.
///
/// [`apply`]: DynObject::apply
pub trait DynObject: Send + Sync + std::fmt::Debug {
    /// The object kind whose semantics this object implements.
    fn kind(&self) -> ObjectKind;

    /// Apply `op` on behalf of `process`, returning the response the
    /// kind's sequential semantics prescribe for the linearization
    /// point.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnsupportedOperation`] if the kind does not
    /// support `op`.
    fn apply(&self, process: usize, op: &Operation) -> Result<Response, ModelError>;
}

/// A mutex-guarded reference object: the model's sequential semantics
/// ([`ObjectKind::apply`]) made trivially linearizable.
///
/// This is the runtime's fallback bridge — useful for driving any
/// protocol without a concrete object implementation, and as the
/// known-good oracle that real bridges are tested against.
#[derive(Debug)]
pub struct ModelObject {
    kind: ObjectKind,
    value: Mutex<Value>,
}

impl ModelObject {
    /// An object implementing `spec`'s kind, starting at `spec`'s
    /// initial value.
    pub fn new(spec: &ObjectSpec) -> Self {
        ModelObject { kind: spec.kind, value: Mutex::new(spec.initial) }
    }

    /// One [`ModelObject`] per object of `protocol`, in object-id order.
    pub fn instantiate_all<P: Protocol>(protocol: &P) -> Vec<Box<dyn DynObject>> {
        protocol
            .objects()
            .iter()
            .map(|spec| Box::new(ModelObject::new(spec)) as Box<dyn DynObject>)
            .collect()
    }
}

impl DynObject for ModelObject {
    fn kind(&self) -> ObjectKind {
        self.kind
    }

    fn apply(&self, _process: usize, op: &Operation) -> Result<Response, ModelError> {
        let mut value = self.value.lock().expect("model object poisoned");
        let (next, resp) = self.kind.apply(&value, op)?;
        *value = next;
        Ok(resp)
    }
}

/// The per-process coin stream for master seed `seed`.
///
/// Processes must draw from *independent* streams (a shared stream
/// would make coin order depend on the interleaving); this mixes the
/// process index into the seed with the SplitMix64 increment so the
/// streams decorrelate.
pub fn process_rng(seed: u64, process: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (process as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Per-process execution statistics gathered by [`drive_process`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ProcessStats {
    /// Number of operations issued.
    pub steps: usize,
    /// Number of non-trivial coin flips drawn (coin domain > 1).
    pub coin_flips: u64,
    /// Operations issued per object kind, in first-use order.
    pub ops_by_kind: Vec<(ObjectKind, u64)>,
}

impl ProcessStats {
    fn record_op(&mut self, kind: ObjectKind) {
        match self.ops_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some(slot) => slot.1 += 1,
            None => self.ops_by_kind.push((kind, 1)),
        }
    }
}

/// The flight recorder: an append-only, thread-shared log of
/// [`Step`]s in **linearization order**.
///
/// Recording a concurrent run is only useful if the recorded order is
/// an order the objects actually linearized in — otherwise a
/// sequential replay diverges. [`drive_process`] guarantees this by
/// holding the log's lock across the *whole* step (object apply → coin
/// draw → record), so the log order and the linearization order are
/// the same order by construction. Untraced runs never touch the lock.
#[derive(Debug, Default)]
pub struct FlightLog {
    steps: Mutex<Vec<Step>>,
}

impl FlightLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.lock().expect("flight log poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one step (used for decide steps, which involve no shared
    /// object and therefore need no extended critical section).
    fn push(&self, step: Step) {
        self.steps.lock().expect("flight log poisoned").push(step);
    }

    /// Consume the log into its recorded schedule.
    pub fn into_execution(self) -> Execution {
        Execution::from_steps(self.steps.into_inner().expect("flight log poisoned"))
    }
}

/// Run one process of `protocol` to completion on the calling thread,
/// issuing its operations against `objects` (indexed by [`ObjectId`]).
///
/// Returns the decision (or `None` if `max_steps` ran out first) and
/// the process's [`ProcessStats`]. The loop is the threaded analogue
/// of [`Configuration::step_with`]: `action` → [`DynObject::apply`] →
/// coin from the declared domain → `transition`.
///
/// With `flight: Some(log)`, every step (including the final decide)
/// is recorded in linearization order: the log's lock is held across
/// apply + coin draw + record, serializing traced runs so that
/// [`replay_execution`] on the recorded schedule reproduces this run
/// bit-for-bit. Pass `None` for the normal lock-free path.
///
/// [`ObjectId`]: crate::process::ObjectId
/// [`Configuration::step_with`]: crate::config::Configuration::step_with
///
/// # Errors
///
/// Propagates [`ModelError`] from the objects — a protocol whose
/// operations all match its declared object kinds never errors.
pub fn drive_process<P: Protocol>(
    protocol: &P,
    objects: &[&dyn DynObject],
    pid: ProcessId,
    input: Decision,
    rng: &mut SplitMix64,
    max_steps: usize,
    flight: Option<&FlightLog>,
) -> Result<(Option<Decision>, ProcessStats), ModelError> {
    let mut state = protocol.initial_state(pid, input);
    let mut stats = ProcessStats::default();
    while stats.steps < max_steps {
        match protocol.action(&state) {
            Action::Decide(d) => {
                if let Some(log) = flight {
                    log.push(Step::of(pid));
                }
                return Ok((Some(d), stats));
            }
            Action::Invoke { object, op } => {
                let obj = objects.get(object.0).ok_or(ModelError::NoSuchObject(object))?;
                let (resp, coin, domain) = if let Some(log) = flight {
                    // Traced: linearize apply + coin + record under the
                    // log's lock so the log order is the real order.
                    let mut steps = log.steps.lock().expect("flight log poisoned");
                    let resp = obj.apply(pid.index(), &op)?;
                    let domain = protocol.coin_domain(&state, &resp).max(1);
                    let coin =
                        if domain == 1 { 0 } else { rng.next_below(domain as u64) as u32 };
                    steps.push(Step::with_coin(pid, coin));
                    (resp, coin, domain)
                } else {
                    let resp = obj.apply(pid.index(), &op)?;
                    let domain = protocol.coin_domain(&state, &resp).max(1);
                    let coin =
                        if domain == 1 { 0 } else { rng.next_below(domain as u64) as u32 };
                    (resp, coin, domain)
                };
                if domain > 1 {
                    stats.coin_flips += 1;
                }
                stats.record_op(obj.kind());
                state = protocol.transition(&state, &resp, coin);
                stats.steps += 1;
            }
        }
    }
    Ok((None, stats))
}

/// What a threaded [`Runtime::run`] observed.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-process decision (`None` if the step budget ran out).
    pub decisions: Vec<Option<Decision>>,
    /// Per-process operation counts.
    pub steps: Vec<usize>,
    /// Per-process non-trivial coin flips (coin domain > 1).
    pub coin_flips: Vec<u64>,
    /// Per-process operation counts by object kind, in first-use order.
    pub ops_by_kind: Vec<Vec<(ObjectKind, u64)>>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// The master seed the coin streams were derived from.
    pub seed: u64,
}

impl RunReport {
    /// Total coin flips across all processes.
    pub fn total_coin_flips(&self) -> u64 {
        self.coin_flips.iter().sum()
    }

    /// Operation counts by object kind summed across processes, sorted
    /// by kind slug for stable output.
    pub fn total_ops_by_kind(&self) -> Vec<(ObjectKind, u64)> {
        let mut totals: Vec<(ObjectKind, u64)> = Vec::new();
        for per_process in &self.ops_by_kind {
            for &(kind, count) in per_process {
                match totals.iter_mut().find(|(k, _)| *k == kind) {
                    Some(slot) => slot.1 += count,
                    None => totals.push((kind, count)),
                }
            }
        }
        totals.sort_by_key(|(k, _)| k.slug());
        totals
    }
    /// Whether every process decided within the step budget.
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(Option::is_some)
    }

    /// The distinct decided values, ascending.
    pub fn decided_values(&self) -> Vec<Decision> {
        let mut vs: Vec<Decision> = self.decisions.iter().flatten().copied().collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Consistency: at most one distinct decision among deciders.
    pub fn consistent(&self) -> bool {
        self.decided_values().len() <= 1
    }

    /// Validity: every decision is some process's input.
    pub fn valid(&self, inputs: &[Decision]) -> bool {
        self.decided_values().iter().all(|d| inputs.contains(d))
    }
}

/// The threaded interpreter: spawns one OS thread per process and
/// drives each through [`drive_process`].
#[derive(Clone, Debug)]
pub struct Runtime {
    seed: u64,
    max_steps: usize,
}

impl Runtime {
    /// A runtime whose coin streams derive from `seed`. The default
    /// per-process step budget is effectively unbounded (`usize::MAX`);
    /// see [`Runtime::max_steps`].
    pub fn new(seed: u64) -> Self {
        Runtime { seed, max_steps: usize::MAX }
    }

    /// Cap each process at `max_steps` operations (it then reports no
    /// decision instead of spinning forever — useful for protocols that
    /// only terminate with probability 1).
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Execute `protocol` with the given `inputs` (one per process)
    /// against `objects` (one per [`ObjectSpec`], in object-id order),
    /// each process on its own OS thread.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != protocol.num_processes()`, if
    /// `objects.len()` differs from the protocol's object list, or if
    /// an object rejects an operation (which means the objects don't
    /// implement the kinds the protocol declared).
    pub fn run<P>(&self, protocol: &P, inputs: &[Decision], objects: &[Box<dyn DynObject>]) -> RunReport
    where
        P: Protocol + Sync,
    {
        self.run_inner(protocol, inputs, objects, None)
    }

    /// Like [`Runtime::run`], but with the flight recorder on: also
    /// returns the executed schedule + coin stream, in linearization
    /// order, such that [`replay_execution`] reproduces the report's
    /// decisions bit-for-bit.
    ///
    /// Tracing serializes the run (each step holds a global log lock
    /// across its object operation), so traced runs measure *an*
    /// interleaving, not lock-free timing — see DESIGN.md §12.
    ///
    /// # Panics
    ///
    /// As [`Runtime::run`].
    pub fn run_traced<P>(
        &self,
        protocol: &P,
        inputs: &[Decision],
        objects: &[Box<dyn DynObject>],
    ) -> (RunReport, Execution)
    where
        P: Protocol + Sync,
    {
        let flight = FlightLog::new();
        let report = self.run_inner(protocol, inputs, objects, Some(&flight));
        (report, flight.into_execution())
    }

    fn run_inner<P>(
        &self,
        protocol: &P,
        inputs: &[Decision],
        objects: &[Box<dyn DynObject>],
        flight: Option<&FlightLog>,
    ) -> RunReport
    where
        P: Protocol + Sync,
    {
        let n = protocol.num_processes();
        assert_eq!(inputs.len(), n, "one input per process");
        assert_eq!(
            objects.len(),
            protocol.objects().len(),
            "one object per ObjectSpec, in object-id order"
        );
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        let start = Instant::now();
        let mut decisions = vec![None; n];
        let mut steps = vec![0usize; n];
        let mut coin_flips = vec![0u64; n];
        let mut ops_by_kind = vec![Vec::new(); n];
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (pid, &input) in inputs.iter().enumerate() {
                let refs = &refs;
                let max_steps = self.max_steps;
                let seed = self.seed;
                handles.push(scope.spawn(move || {
                    let mut rng = process_rng(seed, pid);
                    drive_process(
                        protocol,
                        refs,
                        ProcessId(pid),
                        input,
                        &mut rng,
                        max_steps,
                        flight,
                    )
                    .expect("objects implement the declared kinds")
                }));
            }
            for (pid, handle) in handles.into_iter().enumerate() {
                let (d, stats) = handle.join().expect("runtime process thread panicked");
                decisions[pid] = d;
                steps[pid] = stats.steps;
                coin_flips[pid] = stats.coin_flips;
                ops_by_kind[pid] = stats.ops_by_kind;
            }
        });
        let report = RunReport {
            decisions,
            steps,
            coin_flips,
            ops_by_kind,
            wall: start.elapsed(),
            seed: self.seed,
        };
        // Batched flush: one pass over already-aggregated stats, so the
        // per-operation hot path stays untouched.
        if randsync_obs::metrics_enabled() {
            let m = randsync_obs::global_metrics();
            m.counter("runtime.runs").inc();
            m.counter("runtime.steps").add(report.steps.iter().map(|&s| s as u64).sum());
            m.counter("runtime.coin_flips").add(report.total_coin_flips());
            m.counter("runtime.decided").add(report.decisions.iter().flatten().count() as u64);
            for (kind, count) in report.total_ops_by_kind() {
                m.counter(&format!("runtime.ops.{}", kind.slug())).add(count);
            }
        }
        if randsync_obs::tracing_active() {
            randsync_obs::emit(
                "runtime.run",
                &[
                    ("processes", randsync_obs::Field::U64(n as u64)),
                    ("steps", randsync_obs::Field::U64(report.steps.iter().map(|&s| s as u64).sum())),
                    ("all_decided", randsync_obs::Field::Bool(report.all_decided())),
                    ("traced", randsync_obs::Field::Bool(flight.is_some())),
                    ("wall_micros", randsync_obs::Field::U64(report.wall.as_micros() as u64)),
                ],
            );
        }
        report
    }
}

/// Replay a recorded [`Execution`] against real objects, sequentially.
///
/// This is the witness-replay path routed through the same interpreter:
/// the schedule's `(pid, coin)` steps are applied one at a time, each
/// operation issued against the corresponding [`DynObject`]. The
/// `inputs` slice sets the process pool — it may be longer than
/// `protocol.num_processes()` (the lower-bound adversaries clone
/// processes beyond the nominal count).
///
/// Returns the per-process decisions after the schedule runs out.
///
/// # Errors
///
/// Propagates object errors, [`ModelError::NoSuchProcess`] for a step
/// outside the pool, [`ModelError::ProcessNotActive`] for a step of a
/// decided process, and [`ModelError::CoinOutOfRange`] if a recorded
/// coin falls outside the declared domain.
pub fn replay_execution<P: Protocol>(
    protocol: &P,
    objects: &[&dyn DynObject],
    inputs: &[Decision],
    execution: &Execution,
) -> Result<Vec<Option<Decision>>, ModelError> {
    let mut states: Vec<Option<P::State>> = inputs
        .iter()
        .enumerate()
        .map(|(pid, &input)| Some(protocol.initial_state(ProcessId(pid), input)))
        .collect();
    let mut decisions: Vec<Option<Decision>> = vec![None; inputs.len()];
    for step in execution.steps() {
        let pid = step.pid;
        let slot = states.get_mut(pid.0).ok_or(ModelError::NoSuchProcess(pid))?;
        let state = slot.take().ok_or(ModelError::ProcessNotActive(pid))?;
        match protocol.action(&state) {
            Action::Decide(d) => {
                decisions[pid.0] = Some(d);
                // Leave the slot empty: the process has decided.
            }
            Action::Invoke { object, op } => {
                let obj = objects.get(object.0).ok_or(ModelError::NoSuchObject(object))?;
                let resp = obj.apply(pid.index(), &op)?;
                let domain = protocol.coin_domain(&state, &resp).max(1);
                if step.coin >= domain {
                    return Err(ModelError::CoinOutOfRange { coin: step.coin, domain });
                }
                *slot = Some(protocol.transition(&state, &resp, step.coin));
            }
        }
    }
    Ok(decisions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::process::ObjectId;
    use crate::protocol::Symmetry;

    /// One-CAS consensus (Herlihy): the canonical deterministic
    /// protocol, small enough to restate here for self-contained tests.
    #[derive(Clone, Debug)]
    struct CasProto {
        n: usize,
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum CasState {
        Try(Decision),
        Done(Decision),
    }

    impl Protocol for CasProto {
        type State = CasState;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::new(ObjectKind::CompareSwap, "d")]
        }

        fn num_processes(&self) -> usize {
            self.n
        }

        fn initial_state(&self, _pid: ProcessId, input: Decision) -> CasState {
            CasState::Try(input)
        }

        fn action(&self, s: &CasState) -> Action {
            match s {
                CasState::Try(d) => Action::Invoke {
                    object: ObjectId(0),
                    op: Operation::CompareSwap {
                        expected: Value::Bottom,
                        new: Value::Int(*d as i64),
                    },
                },
                CasState::Done(d) => Action::Decide(*d),
            }
        }

        fn transition(&self, s: &CasState, resp: &Response, _coin: u32) -> CasState {
            match s {
                CasState::Try(d) => match resp.value() {
                    Some(Value::Bottom) | None => CasState::Done(*d),
                    Some(Value::Int(v)) => CasState::Done(v.clamp(0, 1) as Decision),
                    _ => CasState::Done(*d),
                },
                done => done.clone(),
            }
        }

        fn symmetry(&self) -> Symmetry {
            Symmetry::Symmetric
        }
    }

    /// Decide by a fair coin after one read — exercises the coin path.
    #[derive(Clone, Debug)]
    struct CoinProto;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum CoinState {
        Flip,
        Done(Decision),
    }

    impl Protocol for CoinProto {
        type State = CoinState;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::new(ObjectKind::Register, "r")]
        }

        fn num_processes(&self) -> usize {
            1
        }

        fn initial_state(&self, _pid: ProcessId, _input: Decision) -> CoinState {
            CoinState::Flip
        }

        fn action(&self, s: &CoinState) -> Action {
            match s {
                CoinState::Flip => {
                    Action::Invoke { object: ObjectId(0), op: Operation::Read }
                }
                CoinState::Done(d) => Action::Decide(*d),
            }
        }

        fn coin_domain(&self, _s: &CoinState, _resp: &Response) -> u32 {
            2
        }

        fn transition(&self, s: &CoinState, _resp: &Response, coin: u32) -> CoinState {
            match s {
                CoinState::Flip => CoinState::Done(coin as Decision),
                done => done.clone(),
            }
        }
    }

    #[test]
    fn model_object_follows_kind_semantics() {
        let spec = ObjectSpec::new(ObjectKind::CompareSwap, "d");
        let obj = ModelObject::new(&spec);
        let r = obj
            .apply(
                0,
                &Operation::CompareSwap { expected: Value::Bottom, new: Value::Int(1) },
            )
            .unwrap();
        assert_eq!(r, Response::Value(Value::Bottom));
        let r = obj
            .apply(
                1,
                &Operation::CompareSwap { expected: Value::Bottom, new: Value::Int(0) },
            )
            .unwrap();
        assert_eq!(r, Response::Value(Value::Int(1)), "second CAS sees the first");
    }

    #[test]
    fn model_object_rejects_unsupported_ops() {
        let obj = ModelObject::new(&ObjectSpec::new(ObjectKind::Register, "r"));
        assert!(matches!(
            obj.apply(0, &Operation::Inc),
            Err(ModelError::UnsupportedOperation { .. })
        ));
    }

    #[test]
    fn threaded_cas_consensus_agrees_and_is_valid() {
        let p = CasProto { n: 4 };
        for seed in 0..20 {
            let objects = ModelObject::instantiate_all(&p);
            let report = Runtime::new(seed).run(&p, &[0, 1, 0, 1], &objects);
            assert!(report.all_decided());
            assert!(report.consistent(), "seed {seed}: {:?}", report.decisions);
            assert!(report.valid(&[0, 1, 0, 1]));
        }
    }

    #[test]
    fn coin_streams_are_deterministic_per_seed() {
        let p = CoinProto;
        let run = |seed| {
            let objects = ModelObject::instantiate_all(&p);
            Runtime::new(seed).run(&p, &[0], &objects).decisions[0]
        };
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..16 {
            assert_eq!(run(seed), run(seed), "same seed, same coins");
            distinct.insert(run(seed));
        }
        assert_eq!(distinct.len(), 2, "both coin outcomes occur across seeds");
    }

    #[test]
    fn step_budget_reports_no_decision() {
        let p = CasProto { n: 1 };
        let objects = ModelObject::instantiate_all(&p);
        let report = Runtime::new(0).max_steps(0).run(&p, &[1], &objects);
        assert_eq!(report.decisions, vec![None]);
        assert!(!report.all_decided());
    }

    #[test]
    fn replay_matches_configuration_replay() {
        // Drive the model-semantics simulator, then replay its recorded
        // execution through the threaded interpreter's replay path: the
        // decisions must match the configuration's.
        let p = CasProto { n: 3 };
        let inputs = [1, 0, 1];
        let mut sim = crate::sim::Simulator::new(1000, 7);
        let out = sim
            .run(&p, &inputs, &mut crate::sched::RandomScheduler::new(3))
            .unwrap();
        assert!(out.all_decided);
        let execution = out.execution();
        let objects = ModelObject::instantiate_all(&p);
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        let decisions = replay_execution(&p, &refs, &inputs, &execution).unwrap();
        let start = Configuration::initial(&p, &inputs);
        let (end, _) = execution.replay(&p, &start).unwrap();
        for (pid, d) in decisions.iter().enumerate() {
            assert_eq!(*d, end.procs[pid].decision());
        }
    }

    #[test]
    fn stats_count_coin_flips_and_ops_by_kind() {
        let p = CoinProto;
        let objects = ModelObject::instantiate_all(&p);
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        let mut rng = process_rng(3, 0);
        let (d, stats) =
            drive_process(&p, &refs, ProcessId(0), 0, &mut rng, usize::MAX, None).unwrap();
        assert!(d.is_some());
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.coin_flips, 1, "CoinProto flips on its single read");
        assert_eq!(stats.ops_by_kind, vec![(ObjectKind::Register, 1)]);

        // CAS consensus never flips a coin (domain 1 throughout).
        let p = CasProto { n: 1 };
        let objects = ModelObject::instantiate_all(&p);
        let report = Runtime::new(0).run(&p, &[1], &objects);
        assert_eq!(report.total_coin_flips(), 0);
        assert_eq!(report.total_ops_by_kind(), vec![(ObjectKind::CompareSwap, 1)]);
    }

    #[test]
    fn traced_runs_replay_bit_for_bit() {
        let p = CasProto { n: 4 };
        let inputs = [0, 1, 1, 0];
        for seed in 0..10 {
            let objects = ModelObject::instantiate_all(&p);
            let (report, execution) = Runtime::new(seed).run_traced(&p, &inputs, &objects);
            assert!(report.all_decided());
            // Replay on *fresh* objects must reproduce the decisions.
            let fresh = ModelObject::instantiate_all(&p);
            let refs: Vec<&dyn DynObject> = fresh.iter().map(AsRef::as_ref).collect();
            let replayed = replay_execution(&p, &refs, &inputs, &execution).unwrap();
            assert_eq!(replayed, report.decisions, "seed {seed}");
        }
    }

    #[test]
    fn traced_coin_protocol_replays_the_same_coins() {
        let p = CoinProto;
        for seed in 0..16 {
            let objects = ModelObject::instantiate_all(&p);
            let (report, execution) = Runtime::new(seed).run_traced(&p, &[0], &objects);
            let fresh = ModelObject::instantiate_all(&p);
            let refs: Vec<&dyn DynObject> = fresh.iter().map(AsRef::as_ref).collect();
            let replayed = replay_execution(&p, &refs, &[0], &execution).unwrap();
            assert_eq!(replayed, report.decisions, "seed {seed}: coin must be recorded");
        }
    }

    #[test]
    fn traced_budget_exhaustion_replays_as_undecided() {
        let p = CasProto { n: 2 };
        let objects = ModelObject::instantiate_all(&p);
        let (report, execution) = Runtime::new(0).max_steps(0).run_traced(&p, &[0, 1], &objects);
        assert_eq!(report.decisions, vec![None, None]);
        let fresh = ModelObject::instantiate_all(&p);
        let refs: Vec<&dyn DynObject> = fresh.iter().map(AsRef::as_ref).collect();
        let replayed = replay_execution(&p, &refs, &[0, 1], &execution).unwrap();
        assert_eq!(replayed, report.decisions);
    }

    #[test]
    fn replay_rejects_out_of_pool_steps() {
        let p = CasProto { n: 2 };
        let execution: Execution =
            vec![crate::execution::Step::of(ProcessId(5))].into_iter().collect();
        let objects = ModelObject::instantiate_all(&p);
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        assert!(matches!(
            replay_execution(&p, &refs, &[0, 1], &execution),
            Err(ModelError::NoSuchProcess(ProcessId(5)))
        ));
    }
}
