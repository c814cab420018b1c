//! Cloning by lockstep weaving (Section 3.1).
//!
//! The paper's cloning argument: "there is another execution which is
//! the same except that a group of *clones* have been left behind …
//! the clones are given the same initial state as P and P and its
//! clones are scheduled as a group, up to the point at which P performs
//! the write."
//!
//! The operational content is that **duplicate steps are invisible** in
//! a read–write register protocol: a clone that takes each of P's steps
//! immediately after P reads the same values (nothing intervenes) and
//! re-writes the same values (no visible change), so it tracks P's
//! state exactly while perturbing nothing. A [`Weaver`] maintains a
//! single global execution from an initial pool configuration and
//! supports exactly this transformation: retroactively weaving a
//! clone's duplicate steps into the trace, leaving the clone frozen —
//! *poised* — just before whichever of P's steps the adversary cares
//! about (typically a write whose value the clone can later
//! re-perform).
//!
//! Everything downstream (the Lemma 3.1 combiner, the Lemma 3.2
//! attack) manipulates executions only through a weaver, so the final
//! witness is always a genuine, replayable execution of the protocol
//! from an initial configuration.

use randsync_model::{
    Configuration, Decision, Execution, ModelError, ObjectId, ProcessId, Protocol, Step,
    StepRecord,
};

/// A growing execution over a growing pool of processes, supporting
/// retroactive clone insertion.
#[derive(Debug)]
pub struct Weaver<'a, P: Protocol> {
    protocol: &'a P,
    inputs: Vec<Decision>,
    trace: Vec<Step>,
    config: Configuration<P::State>,
    records: Vec<StepRecord>,
}

impl<'a, P: Protocol> Clone for Weaver<'a, P> {
    fn clone(&self) -> Self {
        Weaver {
            protocol: self.protocol,
            inputs: self.inputs.clone(),
            trace: self.trace.clone(),
            config: self.config.clone(),
            records: self.records.clone(),
        }
    }
}

impl<'a, P: Protocol> Weaver<'a, P> {
    /// A weaver over `protocol` whose pool initially holds one process
    /// per input in `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the protocol is not symmetric
    /// (cloning requires identical processes: `initial_state` must not
    /// depend on the process id).
    pub fn new(protocol: &'a P, inputs: Vec<Decision>) -> Self {
        assert!(!inputs.is_empty(), "the pool needs at least one process");
        assert!(
            protocol.is_symmetric(),
            "cloning requires a symmetric (identical-process) protocol"
        );
        let config = Configuration::initial_with_pool(protocol, &inputs, inputs.len());
        Weaver { protocol, inputs, trace: Vec::new(), config, records: Vec::new() }
    }

    /// The protocol under attack.
    pub fn protocol(&self) -> &'a P {
        self.protocol
    }

    /// The per-process inputs of the current pool.
    pub fn inputs(&self) -> &[Decision] {
        &self.inputs
    }

    /// The current configuration (always equal to replaying
    /// [`Weaver::execution`] from the initial pool configuration).
    pub fn config(&self) -> &Configuration<P::State> {
        &self.config
    }

    /// The records of every step taken so far.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// The execution so far.
    pub fn execution(&self) -> Execution {
        Execution::from_steps(self.trace.clone())
    }

    /// Number of steps so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no steps have been taken.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Append one step of `step.pid` with `step.coin`.
    ///
    /// # Errors
    ///
    /// Propagates stepping errors (inactive process, bad coin, …); the
    /// weaver is unchanged on error.
    pub fn append(&mut self, step: Step) -> Result<StepRecord, ModelError> {
        let record = self.config.step(self.protocol, step.pid, step.coin)?;
        self.trace.push(step);
        self.records.push(record);
        Ok(record)
    }

    /// Append a whole execution fragment.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step (prior steps remain applied).
    pub fn append_all(&mut self, steps: &[Step]) -> Result<(), ModelError> {
        for &s in steps {
            self.append(s)?;
        }
        Ok(())
    }

    /// How many steps `pid` has taken so far.
    pub fn steps_of(&self, pid: ProcessId) -> usize {
        self.trace.iter().filter(|s| s.pid == pid).count()
    }

    /// The trace position of the last *nontrivial* operation on
    /// `object` strictly before trace position `end` (`end` = `len()`
    /// for "so far"). Returns the position and the performing process.
    pub fn last_write_before(&self, object: ObjectId, end: usize) -> Option<(usize, ProcessId)> {
        let specs = self.protocol.objects();
        self.records[..end.min(self.records.len())]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, r)| match r.op {
                Some((obj, op, _)) if obj == object && !specs[obj.0].kind.is_trivial(&op) => {
                    Some((i, r.pid))
                }
                _ => None,
            })
    }

    /// Spawn a **clone** of process `of`, woven in lockstep through
    /// `of`'s first `upto` steps: the new process starts with `of`'s
    /// input and takes a duplicate of each of those steps immediately
    /// after the original. Because duplicate register reads return the
    /// same value and duplicate writes re-write the same value, the
    /// clone ends in exactly the state `of` had after its `upto`-th
    /// step, and no other process can distinguish the woven execution
    /// from the original. Returns the clone's process id.
    ///
    /// # Errors
    ///
    /// Fails if the woven trace does not replay (which would indicate a
    /// non-register object or an asymmetric protocol slipped through).
    ///
    /// # Panics
    ///
    /// Panics if `of` has taken fewer than `upto` steps.
    pub fn spawn_clone(&mut self, of: ProcessId, upto: usize) -> Result<ProcessId, ModelError> {
        assert!(
            self.steps_of(of) >= upto,
            "{of:?} has taken only {} steps, cannot shadow {upto}",
            self.steps_of(of)
        );
        let clone_pid = ProcessId(self.inputs.len());
        let clone_input = self.inputs[of.0];
        let mut new_inputs = self.inputs.clone();
        new_inputs.push(clone_input);

        let mut new_trace = Vec::with_capacity(self.trace.len() + upto);
        let mut shadowed = 0usize;
        for &s in &self.trace {
            new_trace.push(s);
            if s.pid == of && shadowed < upto {
                new_trace.push(Step::with_coin(clone_pid, s.coin));
                shadowed += 1;
            }
        }

        // Rebuild the configuration and records by replay.
        let pool = new_inputs.len();
        let start = Configuration::initial_with_pool(self.protocol, &new_inputs, pool);
        let execution = Execution::from_steps(new_trace.clone());
        let (config, records) = execution.replay(self.protocol, &start)?;

        self.inputs = new_inputs;
        self.trace = new_trace;
        self.config = config;
        self.records = records;
        Ok(clone_pid)
    }

    /// Spawn a clone frozen just before the step at trace position
    /// `pos` (which must belong to some process): the clone ends poised
    /// to re-perform exactly that step's operation. Returns the clone's
    /// id.
    ///
    /// # Errors
    ///
    /// See [`Weaver::spawn_clone`].
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn spawn_clone_before(&mut self, pos: usize) -> Result<ProcessId, ModelError> {
        assert!(pos < self.trace.len(), "no step at position {pos}");
        let owner = self.trace[pos].pid;
        let upto = self.trace[..pos].iter().filter(|s| s.pid == owner).count();
        self.spawn_clone(owner, upto)
    }

    /// Verify the internal consistency of the weaver: the stored trace
    /// replays from the initial pool configuration to the stored
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns the replay error, if any.
    pub fn self_check(&self) -> Result<bool, ModelError> {
        let start =
            Configuration::initial_with_pool(self.protocol, &self.inputs, self.inputs.len());
        let (config, _) = self.execution().replay(self.protocol, &start)?;
        Ok(config == self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randsync_consensus::model_protocols::{NaiveWriteRead, Optimistic};
    use randsync_model::{Action, Operation, Value};

    #[test]
    fn append_and_bookkeeping() {
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        assert!(w.is_empty());
        w.append(Step::of(ProcessId(0))).unwrap();
        w.append(Step::of(ProcessId(1))).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.steps_of(ProcessId(0)), 1);
        assert!(w.self_check().unwrap());
        assert_eq!(w.inputs(), &[0, 1]);
    }

    #[test]
    fn last_write_lookup() {
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        w.append(Step::of(ProcessId(0))).unwrap(); // write 0
        w.append(Step::of(ProcessId(1))).unwrap(); // write 1
        w.append(Step::of(ProcessId(0))).unwrap(); // read (trivial)
        assert_eq!(w.last_write_before(ObjectId(0), 3), Some((1, ProcessId(1))));
        assert_eq!(w.last_write_before(ObjectId(0), 1), Some((0, ProcessId(0))));
        assert_eq!(w.last_write_before(ObjectId(0), 0), None);
    }

    #[test]
    fn clone_ends_poised_at_the_shadowed_write() {
        let p = Optimistic::new(2, 2);
        let mut w = Weaver::new(&p, vec![1, 0]);
        // P0 writes r0 then is poised at r1.
        w.append(Step::of(ProcessId(0))).unwrap();
        // Clone of P0 frozen before its first step: poised at r0
        // with P0's original write.
        let c = w.spawn_clone(ProcessId(0), 0).unwrap();
        assert_eq!(c, ProcessId(2));
        assert_eq!(w.config().poised_at(&p, c), Some(ObjectId(0)));
        match w.config().next_action(&p, c) {
            Some(Action::Invoke { op: Operation::Write(Value::Int(1)), .. }) => {}
            other => panic!("clone poised wrongly: {other:?}"),
        }
        assert!(w.self_check().unwrap());
    }

    #[test]
    fn clone_shadowing_is_invisible_to_others() {
        let p = Optimistic::new(2, 2);
        // Run a full interleaving WITHOUT clones.
        let mut plain = Weaver::new(&p, vec![1, 0]);
        let schedule = [0usize, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        for &i in &schedule {
            let _ = plain.append(Step::of(ProcessId(i)));
        }
        let plain_p1_state = plain.config().procs[1].clone();

        // Same interleaving, but weave a clone of P0 through its first
        // 2 steps midway.
        let mut woven = Weaver::new(&p, vec![1, 0]);
        for &i in &schedule[..4] {
            let _ = woven.append(Step::of(ProcessId(i)));
        }
        let c = woven.spawn_clone(ProcessId(0), 2).unwrap();
        for &i in &schedule[4..] {
            let _ = woven.append(Step::of(ProcessId(i)));
        }
        // P1 cannot tell the difference.
        assert_eq!(woven.config().procs[1], plain_p1_state);
        // The clone is in the state P0 had after two steps: finished
        // writing both registers, about to read r0.
        assert_eq!(woven.steps_of(c), 2);
        assert!(woven.self_check().unwrap());
    }

    #[test]
    fn spawn_clone_before_uses_the_owning_process() {
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        w.append(Step::of(ProcessId(1))).unwrap(); // P1 writes 1
        w.append(Step::of(ProcessId(0))).unwrap(); // P0 writes 0
        let c = w.spawn_clone_before(0).unwrap();
        // Clone of P1 poised to re-perform the write of 1.
        match w.config().next_action(&p, c) {
            Some(Action::Invoke { op: Operation::Write(Value::Int(1)), .. }) => {}
            other => panic!("clone poised wrongly: {other:?}"),
        }
    }

    #[test]
    fn clones_can_restore_overwritten_values() {
        // The essence of the paper's use of clones: re-fix a register
        // to an old value after it was overwritten.
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        w.append(Step::of(ProcessId(0))).unwrap(); // writes 0
        let c = w.spawn_clone(ProcessId(0), 0).unwrap(); // poised: write 0
        w.append(Step::of(ProcessId(1))).unwrap(); // writes 1
        assert_eq!(w.config().values[0], Value::Int(1));
        w.append(Step::of(c)).unwrap(); // clone re-performs write 0
        assert_eq!(w.config().values[0], Value::Int(0), "value restored");
    }

    #[test]
    fn clones_of_clones_work() {
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        w.append(Step::of(ProcessId(0))).unwrap(); // write 0
        let c1 = w.spawn_clone(ProcessId(0), 1).unwrap(); // past its write
        // c1 is in P0's post-write state (about to read); advance it,
        // then clone the clone through its entire 2-step history.
        w.append(Step::of(c1)).unwrap(); // c1 reads
        let c2 = w.spawn_clone(c1, 2).unwrap();
        assert_eq!(w.steps_of(c2), 2);
        assert!(w.self_check().unwrap());
        // The second-generation clone tracks the first exactly.
        assert_eq!(w.config().procs[c1.index()], w.config().procs[c2.index()]);
    }

    #[test]
    #[should_panic(expected = "cannot shadow")]
    fn shadowing_more_steps_than_taken_panics() {
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        let _ = w.spawn_clone(ProcessId(0), 1);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_protocols_are_rejected() {
        let p = randsync_consensus::model_protocols::TasTwoModel;
        let _ = Weaver::new(&p, vec![0, 1]);
    }
}
