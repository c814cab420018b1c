//! Executions: replayable interleavings of process steps.
//!
//! "An execution is an interleaving of the sequence of steps performed
//! by each process." An [`Execution`] here is a *schedule with coin
//! outcomes*: the pair (process id, coin) per step fully determines the
//! run because protocols are deterministic given their coins. Every
//! witness produced by the lower-bound machinery is an `Execution`, so
//! inconsistency claims can always be re-verified by replay.

use core::fmt;
use core::hash::Hash;

use randsync_obs::ExecutionTrace;

use crate::config::Configuration;
use crate::error::ModelError;
use crate::op::{Operation, Response};
use crate::process::{ObjectId, ProcessId};
use crate::protocol::{Decision, Protocol};

/// One scheduled step: which process moves, and which coin outcome its
/// transition consumes (ignored for deterministic transitions).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Step {
    /// The process allocated this step.
    pub pid: ProcessId,
    /// The coin outcome consumed by the transition, if any.
    pub coin: u32,
}

impl Step {
    /// A step of `pid` with coin outcome 0 (the deterministic case).
    pub fn of(pid: ProcessId) -> Self {
        Step { pid, coin: 0 }
    }

    /// A step of `pid` with an explicit coin outcome.
    pub fn with_coin(pid: ProcessId, coin: u32) -> Self {
        Step { pid, coin }
    }
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coin == 0 {
            write!(f, "{:?}", self.pid)
        } else {
            write!(f, "{:?}#{}", self.pid, self.coin)
        }
    }
}

/// What actually happened when a step was applied: the operation
/// performed (with its response) or the decision taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepRecord {
    /// The process that moved.
    pub pid: ProcessId,
    /// The shared-memory operation performed, if the step was an
    /// invocation: `(object, operation, response)`.
    pub op: Option<(ObjectId, Operation, Response)>,
    /// The decision taken, if the step was a decide.
    pub decided: Option<Decision>,
    /// The coin outcome consumed.
    pub coin: u32,
}

impl StepRecord {
    /// Convert back into the schedule [`Step`] that produced this
    /// record.
    pub fn to_step(&self) -> Step {
        Step { pid: self.pid, coin: self.coin }
    }
}

/// A finite execution: a sequence of scheduled steps.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Execution {
    steps: Vec<Step>,
}

impl Execution {
    /// The empty execution.
    pub fn new() -> Self {
        Execution { steps: Vec::new() }
    }

    /// An execution from a step sequence.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        Execution { steps }
    }

    /// The schedule a flight-recorder trace recorded: one step per
    /// `(process id, coin)` pair, in linearization order.
    pub fn from_trace(trace: &ExecutionTrace) -> Self {
        Execution {
            steps: trace
                .steps
                .iter()
                .map(|&(pid, coin)| Step::with_coin(ProcessId(pid as usize), coin))
                .collect(),
        }
    }

    /// A solo execution: `k` consecutive steps of `pid` with the given
    /// coin outcomes.
    pub fn solo(pid: ProcessId, coins: &[u32]) -> Self {
        Execution { steps: coins.iter().map(|&c| Step::with_coin(pid, c)).collect() }
    }

    /// The number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the execution contains no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The underlying steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Append one step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Append all steps of `other`.
    pub fn append(&mut self, other: &Execution) {
        self.steps.extend_from_slice(&other.steps);
    }

    /// The concatenation `self · other`.
    pub fn then(&self, other: &Execution) -> Execution {
        let mut steps = self.steps.clone();
        steps.extend_from_slice(&other.steps);
        Execution { steps }
    }

    /// The set of distinct processes taking steps, in first-appearance
    /// order.
    pub fn participants(&self) -> Vec<ProcessId> {
        let mut seen = Vec::new();
        for s in &self.steps {
            if !seen.contains(&s.pid) {
                seen.push(s.pid);
            }
        }
        seen
    }

    /// Apply this execution to `config`, mutating it, and return the
    /// records of what happened.
    ///
    /// # Errors
    ///
    /// Fails (leaving `config` at the failing prefix) if any step is
    /// invalid — e.g. schedules an inactive process or supplies an
    /// out-of-domain coin.
    pub fn apply<P, S>(
        &self,
        protocol: &P,
        config: &mut Configuration<S>,
    ) -> Result<Vec<StepRecord>, ModelError>
    where
        P: Protocol<State = S>,
        S: Clone + Eq + Hash + fmt::Debug,
    {
        let mut records = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            records.push(config.step(protocol, step.pid, step.coin)?);
        }
        Ok(records)
    }

    /// Replay this execution from a starting configuration without
    /// mutating it; returns the final configuration and the records.
    ///
    /// # Errors
    ///
    /// See [`Execution::apply`].
    pub fn replay<P, S>(
        &self,
        protocol: &P,
        start: &Configuration<S>,
    ) -> Result<(Configuration<S>, Vec<StepRecord>), ModelError>
    where
        P: Protocol<State = S>,
        S: Clone + Eq + Hash + fmt::Debug,
    {
        let mut config = start.clone();
        let records = self.apply(protocol, &mut config)?;
        Ok((config, records))
    }
}

impl fmt::Debug for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s:?}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<Step> for Execution {
    fn from_iter<T: IntoIterator<Item = Step>>(iter: T) -> Self {
        Execution { steps: iter.into_iter().collect() }
    }
}

impl Extend<Step> for Execution {
    fn extend<T: IntoIterator<Item = Step>>(&mut self, iter: T) {
        self.steps.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::ObjectKind;
    use crate::protocol::{Action, ObjectSpec};
    use crate::value::Value;

    /// One fetch&add each, decide 1 if the fetched value was 0, else 0.
    #[derive(Debug)]
    struct FetchOnce;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum St {
        Start,
        Done(Decision),
    }

    impl Protocol for FetchOnce {
        type State = St;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::new(ObjectKind::FetchAdd, "fa")]
        }

        fn num_processes(&self) -> usize {
            2
        }

        fn initial_state(&self, _pid: ProcessId, _input: Decision) -> St {
            St::Start
        }

        fn action(&self, s: &St) -> Action {
            match s {
                St::Start => {
                    Action::Invoke { object: ObjectId(0), op: Operation::FetchAdd(1) }
                }
                St::Done(d) => Action::Decide(*d),
            }
        }

        fn transition(&self, _s: &St, resp: &Response, _coin: u32) -> St {
            St::Done(if resp.as_int() == Some(0) { 1 } else { 0 })
        }
    }

    #[test]
    fn step_constructors_and_debug() {
        assert_eq!(Step::of(ProcessId(1)), Step { pid: ProcessId(1), coin: 0 });
        assert_eq!(format!("{:?}", Step::of(ProcessId(1))), "P1");
        assert_eq!(format!("{:?}", Step::with_coin(ProcessId(0), 2)), "P0#2");
    }

    #[test]
    fn solo_and_concat() {
        let a = Execution::solo(ProcessId(0), &[0, 1]);
        let b = Execution::solo(ProcessId(1), &[0]);
        let c = a.then(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.participants(), vec![ProcessId(0), ProcessId(1)]);
        assert_eq!(format!("{c:?}"), "⟨P0 P0#1 P1⟩");
    }

    #[test]
    fn from_trace_keeps_the_recorded_schedule() {
        let trace = ExecutionTrace {
            schema_version: randsync_obs::TRACE_SCHEMA_VERSION,
            protocol: "fetch-once".to_string(),
            n: 2,
            r: 1,
            seed: 0,
            interpreter: "runtime".to_string(),
            inputs: vec![0, 1],
            steps: vec![(1, 0), (0, 3)],
            decisions: vec![None, None],
        };
        let e = Execution::from_trace(&trace);
        assert_eq!(e.steps(), &[Step::of(ProcessId(1)), Step::with_coin(ProcessId(0), 3)]);
    }

    #[test]
    fn replay_is_pure_and_apply_mutates() {
        let p = FetchOnce;
        let start = Configuration::initial(&p, &[0, 1]);
        let e = Execution::from_steps(vec![
            Step::of(ProcessId(0)),
            Step::of(ProcessId(1)),
            Step::of(ProcessId(0)),
            Step::of(ProcessId(1)),
        ]);
        let (end, records) = e.replay(&p, &start).unwrap();
        // `start` untouched:
        assert!(start.is_active(ProcessId(0)));
        assert_eq!(records.len(), 4);
        // P0 fetched 0 → decides 1; P1 fetched 1 → decides 0.
        assert_eq!(end.decisions(), vec![(ProcessId(0), 1), (ProcessId(1), 0)]);
        assert_eq!(end.values[0], Value::Int(2));
    }

    #[test]
    fn records_round_trip_to_steps() {
        let p = FetchOnce;
        let start = Configuration::initial(&p, &[0, 1]);
        let e = Execution::from_steps(vec![Step::of(ProcessId(1)), Step::of(ProcessId(1))]);
        let (_, records) = e.replay(&p, &start).unwrap();
        let back: Execution = records.iter().map(|r| r.to_step()).collect();
        assert_eq!(back, e);
    }

    #[test]
    fn apply_fails_on_inactive_process_and_preserves_prefix() {
        let p = FetchOnce;
        let mut c = Configuration::initial(&p, &[0, 1]);
        // P0 steps twice (fetch, decide); a third P0 step is invalid.
        let e = Execution::solo(ProcessId(0), &[0, 0, 0]);
        let err = e.apply(&p, &mut c).unwrap_err();
        assert_eq!(err, ModelError::ProcessNotActive(ProcessId(0)));
        // The valid prefix was applied.
        assert_eq!(c.decisions(), vec![(ProcessId(0), 1)]);
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut e = Execution::new();
        assert!(e.is_empty());
        e.push(Step::of(ProcessId(0)));
        e.extend([Step::of(ProcessId(1))]);
        let f: Execution = e.steps().iter().copied().collect();
        assert_eq!(f.len(), 2);
    }
}
