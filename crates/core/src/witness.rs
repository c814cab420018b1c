//! Replay-verified inconsistency witnesses.
//!
//! Every lower-bound construction in this crate ends the same way the
//! paper's proofs do: "this is an execution that decides both 0 and 1".
//! An [`InconsistencyWitness`] carries that execution together with the
//! initial inputs, and [`InconsistencyWitness::verify`] re-runs it from
//! scratch — so a witness is never taken on faith.

use core::fmt;

use randsync_model::runtime::{self, DynObject, ModelObject};
use randsync_model::{Configuration, Decision, Execution, ModelError, ProcessId, Protocol};

/// A concrete execution, from an initial configuration, in which two
/// processes decide different values — the paper's notion of a faulty
/// implementation demonstrated.
#[derive(Clone, Debug)]
pub struct InconsistencyWitness {
    /// Input per pool process (the configuration is
    /// `Configuration::initial_with_pool` over these).
    pub inputs: Vec<Decision>,
    /// The violating execution, replayable from the initial
    /// configuration.
    pub execution: Execution,
    /// A process that decides 0 in the final configuration.
    pub decides_zero: ProcessId,
    /// A process that decides 1 in the final configuration.
    pub decides_one: ProcessId,
    /// Number of pool processes that actually took steps — the quantity
    /// Lemma 3.1 bounds by `r² − r + (3v + 3w − v² − w²)/2`.
    pub processes_used: usize,
}

impl InconsistencyWitness {
    /// Package an inconsistency-reaching execution as a witness: replay
    /// it in the configuration algebra from
    /// [`Configuration::initial_with_pool`] over `inputs`, read off one
    /// 0-decider and one 1-decider, and count the participants. `None`
    /// if the execution does not replay or does not in fact end with
    /// both values decided — so a successful return is already
    /// algebra-verified (call [`InconsistencyWitness::verify`] to
    /// additionally check it against the runtime interpreter).
    pub fn from_execution<P: Protocol>(
        protocol: &P,
        inputs: &[Decision],
        execution: Execution,
    ) -> Option<InconsistencyWitness> {
        let start = Configuration::initial_with_pool(protocol, inputs, inputs.len());
        let (end, _) = execution.replay(protocol, &start).ok()?;
        let decisions = end.decisions();
        let zero = decisions.iter().find(|(_, d)| *d == 0).map(|(p, _)| *p)?;
        let one = decisions.iter().find(|(_, d)| *d == 1).map(|(p, _)| *p)?;
        let mut pids: Vec<_> = execution.steps().iter().map(|s| s.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        Some(InconsistencyWitness {
            inputs: inputs.to_vec(),
            execution,
            decides_zero: zero,
            decides_one: one,
            processes_used: pids.len(),
        })
    }

    /// Re-execute the witness and check that it really decides both
    /// values.
    ///
    /// The replay goes through the same interpreter that drives the
    /// threaded runtime ([`runtime::replay_execution`]), over
    /// [`ModelObject`] instances seeded from the protocol's
    /// [`ObjectSpec`](randsync_model::ObjectSpec)s — so a verified
    /// witness is a schedule the *runtime*, not just the configuration
    /// algebra, reproduces.
    ///
    /// # Errors
    ///
    /// Returns the defect as a [`WitnessError`]: a replay failure, or
    /// an execution that does not in fact decide both values.
    pub fn verify<P>(&self, protocol: &P) -> Result<(), WitnessError>
    where
        P: Protocol,
    {
        let objects = ModelObject::instantiate_all(protocol);
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        self.verify_on(protocol, &refs)
    }

    /// [`InconsistencyWitness::verify`] against caller-supplied shared
    /// objects — e.g. the bridged atomics-backed objects of
    /// `randsync-objects` — instead of fresh [`ModelObject`]s. The
    /// objects must be freshly initialized per the protocol's specs and
    /// in object-id order.
    ///
    /// # Errors
    ///
    /// See [`InconsistencyWitness::verify`].
    pub fn verify_on<P>(
        &self,
        protocol: &P,
        objects: &[&dyn DynObject],
    ) -> Result<(), WitnessError>
    where
        P: Protocol,
    {
        let decisions = runtime::replay_execution(protocol, objects, &self.inputs, &self.execution)
            .map_err(WitnessError::Replay)?;
        let z = decisions.get(self.decides_zero.index()).copied().flatten();
        if z != Some(0) {
            return Err(WitnessError::WrongDecision {
                pid: self.decides_zero,
                expected: 0,
                got: z,
            });
        }
        let o = decisions.get(self.decides_one.index()).copied().flatten();
        if o != Some(1) {
            return Err(WitnessError::WrongDecision {
                pid: self.decides_one,
                expected: 1,
                got: o,
            });
        }
        Ok(())
    }

    /// The initial configuration this witness replays from.
    pub fn initial_configuration<P>(&self, protocol: &P) -> Configuration<P::State>
    where
        P: Protocol,
    {
        Configuration::initial_with_pool(protocol, &self.inputs, self.inputs.len())
    }

    /// Package this witness as a flight-recorder
    /// [`ExecutionTrace`](randsync_obs::ExecutionTrace) for the protocol
    /// registered under `protocol_label`, built with parameters `n` and
    /// `r`.
    ///
    /// The trace's `inputs` are the witness's full process *pool*
    /// (which may exceed `n` — the adversaries clone processes), and
    /// its decisions record the witness's claim: `decides_zero` → 0,
    /// `decides_one` → 1, everyone else undecided. `randsync replay`
    /// re-executes the schedule and checks those decisions.
    pub fn flight_trace(
        &self,
        protocol_label: &str,
        n: usize,
        r: usize,
    ) -> randsync_obs::ExecutionTrace {
        let mut decisions = vec![None; self.inputs.len()];
        if let Some(slot) = decisions.get_mut(self.decides_zero.index()) {
            *slot = Some(0);
        }
        if let Some(slot) = decisions.get_mut(self.decides_one.index()) {
            *slot = Some(1);
        }
        randsync_obs::ExecutionTrace {
            schema_version: randsync_obs::TRACE_SCHEMA_VERSION,
            protocol: protocol_label.to_string(),
            n,
            r,
            seed: 0,
            interpreter: "witness".to_string(),
            inputs: self.inputs.clone(),
            steps: self
                .execution
                .steps()
                .iter()
                .map(|s| (s.pid.index() as u32, s.coin))
                .collect(),
            decisions,
        }
    }

    /// Dump [`InconsistencyWitness::flight_trace`] into `dir` under a
    /// content-derived file name and return the path — the harnesses'
    /// on-failure hook, so a failing check always leaves a
    /// `randsync replay`-able artifact behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`std::io::Error`].
    pub fn dump_flight_trace(
        &self,
        protocol_label: &str,
        n: usize,
        r: usize,
        dir: &std::path::Path,
    ) -> std::io::Result<std::path::PathBuf> {
        let trace = self.flight_trace(protocol_label, n, r);
        let path = dir.join(format!(
            "randsync-witness-{}-n{}-r{}-{}steps.jsonl",
            protocol_label.replace(|c: char| !c.is_ascii_alphanumeric(), "_"),
            n,
            r,
            trace.steps.len(),
        ));
        trace
            .write_to(&path)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(path)
    }

    /// Greedily minimize the witness: repeatedly drop steps whose
    /// removal leaves an execution that still replays and still decides
    /// two different values (delta-debugging style, passes from the
    /// end), then try **commuting** adjacent steps of different
    /// processes whose pending operations are independent under the
    /// paper's algebra ([`ObjectKind::independent`]) — a commutation is
    /// kept only when it unlocks at least one further deletion. The
    /// loop runs to a joint fixpoint: the result is 1-minimal with
    /// respect to single-step removal *modulo* single adjacent
    /// transpositions, and the deciders are recomputed.
    ///
    /// Minimization never weakens a witness — the returned value has
    /// been re-verified on the runtime interpreter, so a caller need
    /// not replay it again.
    ///
    /// # Errors
    ///
    /// [`WitnessError::NotInconsistent`] if the schedule (this witness's
    /// own, when nothing could be removed) does not end with both
    /// values decided, or the [`verify`](Self::verify) error of a
    /// minimized witness the runtime interpreter does not reproduce.
    ///
    /// [`ObjectKind::independent`]: randsync_model::ObjectKind::independent
    pub fn minimize<P>(&self, protocol: &P) -> Result<InconsistencyWitness, WitnessError>
    where
        P: Protocol,
    {
        self.minimize_report(protocol).map(|(minimized, _)| minimized)
    }

    /// [`InconsistencyWitness::minimize`], also reporting how many
    /// steps were deleted and how many independent adjacent pairs were
    /// commuted on the way to the fixpoint.
    ///
    /// # Errors
    ///
    /// See [`InconsistencyWitness::minimize`].
    pub fn minimize_report<P>(
        &self,
        protocol: &P,
    ) -> Result<(InconsistencyWitness, MinimizeStats), WitnessError>
    where
        P: Protocol,
    {
        let start = self.initial_configuration(protocol);
        let specs = protocol.objects();
        let mut steps = self.execution.steps().to_vec();
        let mut stats = MinimizeStats {
            deleted: delete_pass(protocol, &start, &mut steps),
            commuted: 0,
        };
        // Commute phase: a schedule can be stuck for deletion (every
        // single removal breaks the replay) yet shrinkable after
        // swapping two independent neighbors. Each successful swap
        // restarts the scan, so the phases interleave to a fixpoint.
        'swaps: loop {
            for i in 0..steps.len().saturating_sub(1) {
                if steps[i].pid == steps[i + 1].pid
                    || !independent_at(protocol, &start, &specs, &steps, i)
                {
                    continue;
                }
                let mut candidate = steps.clone();
                candidate.swap(i, i + 1);
                // Independence guarantees the swap preserves the final
                // configuration; replaying anyway keeps the ground
                // truth in charge.
                if !survives(protocol, &start, &candidate) {
                    continue;
                }
                let deleted = delete_pass(protocol, &start, &mut candidate);
                if deleted > 0 {
                    stats.deleted += deleted;
                    stats.commuted += 1;
                    steps = candidate;
                    continue 'swaps;
                }
            }
            break;
        }
        let execution = Execution::from_steps(steps);
        let minimized = InconsistencyWitness::from_execution(protocol, &self.inputs, execution)
            .ok_or(WitnessError::NotInconsistent)?;
        minimized.verify(protocol)?;
        Ok((minimized, stats))
    }
}

/// What [`InconsistencyWitness::minimize_report`] did to the schedule.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MinimizeStats {
    /// Steps removed across all deletion passes.
    pub deleted: usize,
    /// Independent adjacent transpositions kept (each unlocked at
    /// least one deletion).
    pub commuted: usize,
}

/// Whether `steps` replays from `start` and still ends inconsistent.
fn survives<P: Protocol>(
    protocol: &P,
    start: &Configuration<P::State>,
    steps: &[randsync_model::Step],
) -> bool {
    Execution::from_steps(steps.to_vec())
        .replay(protocol, start)
        .map(|(end, _)| end.is_inconsistent())
        .unwrap_or(false)
}

/// Delete single steps (scanning from the end, repeating until stable)
/// as long as the residue still [`survives`]. Returns how many were
/// removed.
fn delete_pass<P: Protocol>(
    protocol: &P,
    start: &Configuration<P::State>,
    steps: &mut Vec<randsync_model::Step>,
) -> usize {
    let mut deleted = 0;
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = steps.len();
        while i > 0 {
            i -= 1;
            let mut candidate = steps.clone();
            candidate.remove(i);
            if survives(protocol, start, &candidate) {
                *steps = candidate;
                deleted += 1;
                changed = true;
            }
        }
    }
    deleted
}

/// Whether `steps[i]` and `steps[i + 1]` are pending *independent*
/// operations at the configuration reached by the prefix — i.e. their
/// transposition is a Mazurkiewicz equivalence. A process's next action
/// depends only on its own state, so the neighbor's action can be read
/// off the same prefix configuration.
fn independent_at<P: Protocol>(
    protocol: &P,
    start: &Configuration<P::State>,
    specs: &[randsync_model::ObjectSpec],
    steps: &[randsync_model::Step],
    i: usize,
) -> bool {
    let prefix = Execution::from_steps(steps[..i].to_vec());
    let Ok((config, _)) = prefix.replay(protocol, start) else {
        return false;
    };
    let enabled = |pid: ProcessId| {
        config.next_action(protocol, pid).map(|a| match a {
            randsync_model::Action::Decide(d) => randsync_model::EnabledStep::Decide(d),
            randsync_model::Action::Invoke { object, op } => {
                randsync_model::EnabledStep::Invoke(object, op)
            }
        })
    };
    match (enabled(steps[i].pid), enabled(steps[i + 1].pid)) {
        (Some(a), Some(b)) => a.independent(&b, specs),
        _ => false,
    }
}

impl fmt::Display for InconsistencyWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inconsistency: {} steps, {} processes used; {:?} decides 0, {:?} decides 1",
            self.execution.len(),
            self.processes_used,
            self.decides_zero,
            self.decides_one
        )
    }
}

/// Why a witness failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// The execution could not be replayed.
    Replay(ModelError),
    /// The execution replays, but does not end with both values
    /// decided.
    NotInconsistent,
    /// A designated process did not decide the claimed value.
    WrongDecision {
        /// The process in question.
        pid: ProcessId,
        /// The value the witness claimed.
        expected: Decision,
        /// What the replay actually produced (`None` = undecided).
        got: Option<Decision>,
    },
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::Replay(e) => write!(f, "witness replay failed: {e}"),
            WitnessError::NotInconsistent => {
                write!(f, "witness execution does not end with both values decided")
            }
            WitnessError::WrongDecision { pid, expected, got } => {
                write!(f, "witness claims {pid:?} decides {expected}, replay produced {got:?}")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{attack_identical, AttackOutcome, AttackStats};
    use crate::combine31::{CombineLimits, CombineStats};
    use randsync_consensus::model_protocols::NaiveWriteRead;
    use randsync_model::{Explorer, Step};

    /// The Lemma 3.2 adversary's witness and its proof-case statistics;
    /// an error when it finds no register inconsistency.
    fn register_witness<P: Protocol>(
        p: &P,
    ) -> Result<(InconsistencyWitness, CombineStats), String> {
        match attack_identical(p, &CombineLimits::default()) {
            Ok(AttackOutcome::Inconsistent { witness, stats: AttackStats::Register(stats) }) => {
                Ok((witness, stats))
            }
            Ok(other) => Err(format!("no combination was needed: {other}")),
            Err(e) => Err(e.to_string()),
        }
    }

    fn naive_violation() -> (NaiveWriteRead, InconsistencyWitness) {
        let p = NaiveWriteRead::new(2);
        let out = Explorer::default().explore(&p, &[0, 1]);
        let execution = out.consistency_violation.expect("naive is flawed");
        let w = InconsistencyWitness::from_execution(&p, &[0, 1], execution)
            .expect("the violation decides both values");
        (p, w)
    }

    #[test]
    fn valid_witness_verifies() {
        let (p, w) = naive_violation();
        w.verify(&p).unwrap();
        assert!(w.to_string().contains("decides 0"));
    }

    #[test]
    fn tampered_witness_is_rejected() {
        let (p, mut w) = naive_violation();
        // Swap the claimed deciders: verification must fail.
        core::mem::swap(&mut w.decides_zero, &mut w.decides_one);
        let err = w.verify(&p).unwrap_err();
        assert!(matches!(err, WitnessError::WrongDecision { .. }));
    }

    #[test]
    fn truncated_witness_is_rejected() {
        let (p, mut w) = naive_violation();
        w.execution = Execution::from_steps(w.execution.steps()[..1].to_vec());
        let err = w.verify(&p).unwrap_err();
        assert!(matches!(err, WitnessError::WrongDecision { got: None, .. }));
        // Minimizing it is refused with a typed error, not a panic.
        assert_eq!(w.minimize_report(&p).unwrap_err(), WitnessError::NotInconsistent);
    }

    #[test]
    fn minimization_shrinks_and_reverifies() {
        let (p, w) = naive_violation();
        let m = w.minimize(&p).unwrap();
        m.verify(&p).unwrap();
        assert!(m.execution.len() <= w.execution.len());
        // The minimal naive violation: write, write, read, read,
        // decide, decide = 6 steps (already minimal from BFS) — and
        // minimization must not grow it.
        assert!(m.execution.len() <= 6);
        assert!(m.processes_used <= w.processes_used);
    }

    #[test]
    fn minimization_shrinks_adversary_witnesses() {
        use randsync_consensus::model_protocols::Optimistic;
        let p = Optimistic::new(2, 3);
        let (w, _) = register_witness(&p)
        .unwrap();
        let m = w.minimize(&p).unwrap();
        m.verify(&p).unwrap();
        assert!(m.execution.len() <= w.execution.len());
        // The constructed witness carries clone scaffolding the minimal
        // counterexample does not need.
        assert!(
            m.processes_used <= w.processes_used,
            "minimization should never need more processes"
        );
    }

    #[test]
    fn minimize_report_accounts_for_every_removed_step() {
        use randsync_consensus::model_protocols::Optimistic;
        let p = Optimistic::new(2, 3);
        let (w, _) = register_witness(&p)
        .unwrap();
        let (m, stats) = w.minimize_report(&p).unwrap();
        m.verify(&p).unwrap();
        // Every deletion removes exactly one step and commutations
        // remove none, so the ledger must balance.
        assert_eq!(stats.deleted, w.execution.len() - m.execution.len());
        assert!(
            stats.commuted <= stats.deleted,
            "a kept commutation must have unlocked a deletion: {stats:?}"
        );
        // The adversary and the shrinker are both deterministic.
        let (m2, s2) = register_witness(&p)
        .unwrap()
        .0
        .minimize_report(&p)
        .unwrap();
        m2.verify(&p).unwrap();
        assert_eq!(m2.execution.len(), m.execution.len());
        assert_eq!(s2, stats);
    }

    #[test]
    fn flight_trace_round_trips_and_replays() {
        let (p, w) = naive_violation();
        let dir = std::env::temp_dir();
        let path = w.dump_flight_trace("naive", 2, 2, &dir).expect("dump");
        let trace = randsync_obs::ExecutionTrace::read_from(&path).expect("read back");
        assert_eq!(trace.protocol, "naive");
        assert_eq!(trace.inputs, w.inputs);
        assert_eq!(trace.steps.len(), w.execution.len());
        // The recorded steps rebuild the witness's execution exactly.
        let rebuilt = Execution::from_trace(&trace);
        let objects = ModelObject::instantiate_all(&p);
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        let decisions =
            runtime::replay_execution(&p, &refs, &trace.inputs, &rebuilt).expect("replays");
        assert_eq!(decisions[w.decides_zero.index()], Some(0));
        assert_eq!(decisions[w.decides_one.index()], Some(1));
        assert_eq!(trace.decisions[w.decides_zero.index()], Some(0));
        assert_eq!(trace.decisions[w.decides_one.index()], Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_execution_fails_replay() {
        let (p, mut w) = naive_violation();
        let mut steps = w.execution.steps().to_vec();
        // Schedule a nonexistent process.
        steps.push(Step::of(ProcessId(99)));
        w.execution = Execution::from_steps(steps);
        let err = w.verify(&p).unwrap_err();
        assert!(matches!(err, WitnessError::Replay(_)), "{err}");
        assert!(!err.to_string().is_empty());
    }
}
