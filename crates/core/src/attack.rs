//! The lower-bound adversaries' one entry point, their shared outcome,
//! and the Lemma 3.2 adversary: break any identical-process register
//! "consensus".
//!
//! [`attack_target`] answers "which adversary breaks this registry
//! target, with which pool": Lemma 3.2 ([`attack_identical`]) for the
//! register family, Lemma 3.6 ([`crate::combine35::attack_historyless`])
//! over [`ample_pool_for`] processes for the historyless one. Both
//! constructions report through [`AttackOutcome`] and [`AttackError`],
//! and both package their final execution with
//! [`InconsistencyWitness::from_execution`].
//!
//! "There is no implementation of consensus satisfying nondeterministic
//! solo termination from r read-write registers using r² − r + 2 or
//! more identical processes." The proof is constructive, and this
//! module runs it:
//!
//! 1. take a process P with input 0 and a process Q with input 1;
//! 2. obtain terminating solo executions α (by P) and β (by Q) — they
//!    exist by nondeterministic solo termination and must decide 0 and
//!    1 respectively by validity;
//! 3. if either contains no write, simply run one after the other
//!    (the write-free one is invisible to the other);
//! 4. otherwise cut both at their first writes: the read-only prefixes
//!    commute into a common configuration C, each side becomes a
//!    singleton block-write cover plus its solo continuation, and the
//!    Lemma 3.1 combiner ([`crate::combine31`]) splices them into an
//!    execution deciding both values.
//!
//! The result is a replay-verified [`InconsistencyWitness`].

use core::fmt;

use randsync_consensus::registry::AttackFamily;
use randsync_model::{
    Decision, Execution, ExploreLimits, Explorer, ModelError, ObjectId, ProcessId, Protocol, Step,
};

use crate::combine31::{combine, CombineError, CombineLimits, CombineStats, Side};
use crate::combine35::{ample_pool_for, attack_historyless, GeneralStats};
use crate::interruptible::IeError;
use crate::poised::all_objects_registers;
use crate::weave::Weaver;
use crate::witness::InconsistencyWitness;

/// Which proof cases a construction went through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackStats {
    /// The Lemma 3.2 adversary's Lemma 3.1 cases.
    Register(CombineStats),
    /// The Lemma 3.6 adversary's Lemma 3.5 cases.
    Historyless(GeneralStats),
}

/// What an adversary produced.
#[derive(Clone, Debug)]
pub enum AttackOutcome {
    /// An execution deciding both 0 and 1 (the protocol violates
    /// consistency), with the proof-case statistics.
    Inconsistent {
        /// The replay-verified witness.
        witness: InconsistencyWitness,
        /// Which proof cases fired.
        stats: AttackStats,
    },
    /// A solo execution in which a process decides a value that is not
    /// its own input while running entirely alone — a validity
    /// violation, found by Lemma 3.2 before any combination was
    /// necessary.
    InvalidSolo {
        /// The solo execution.
        execution: Execution,
        /// The process running solo.
        pid: ProcessId,
        /// Its input.
        input: Decision,
        /// What it decided.
        decided: Decision,
    },
    /// An interruptible execution of processes that all hold the same
    /// input decided the other value — a validity violation, found by
    /// Lemma 3.6 before any combination was necessary.
    InvalidUnanimous {
        /// The offending execution (replayable from the pool
        /// configuration).
        execution: Execution,
        /// The unanimous input of the participating processes.
        input: Decision,
        /// The value decided.
        decided: Decision,
    },
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOutcome::Inconsistent { witness, .. } => write!(f, "{witness}"),
            AttackOutcome::InvalidSolo { pid, input, decided, .. } => {
                write!(f, "validity violation: {pid:?} (input {input}) decided {decided} solo")
            }
            AttackOutcome::InvalidUnanimous { input, decided, .. } => {
                write!(f, "validity violation: unanimous input {input} decided {decided}")
            }
        }
    }
}

/// Why an adversary failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackError {
    /// No adversary applies to the target (its registry family is
    /// [`AttackFamily::NotApplicable`]).
    NotApplicable,
    /// The protocol is not symmetric; Section 3.1's cloning technique
    /// does not apply (use the general historyless machinery instead).
    NotSymmetric,
    /// The protocol uses objects other than plain read–write registers;
    /// Section 3.1 is register-specific.
    NotRegisters,
    /// The protocol uses a non-historyless object; Theorem 3.7 does not
    /// apply (and the attack would be unsound).
    NotHistoryless,
    /// Extending the pool beyond the protocol's own process count
    /// requires a symmetric protocol.
    PoolNeedsSymmetry,
    /// No terminating solo execution was found within the exploration
    /// budget (the protocol may not satisfy nondeterministic solo
    /// termination, or the budget is too small).
    SoloSearchExhausted(ProcessId),
    /// A Lemma 3.4 interruptible-execution construction failed.
    Construction(IeError),
    /// The Lemma 3.1 or Lemma 3.5 combination failed.
    Combine(CombineError),
    /// The final witness did not verify (an internal bug — this should
    /// never escape the crate's test suite).
    Unverified(String),
}

impl From<CombineError> for AttackError {
    fn from(e: CombineError) -> Self {
        AttackError::Combine(e)
    }
}

impl From<ModelError> for AttackError {
    fn from(e: ModelError) -> Self {
        AttackError::Combine(CombineError::Model(e))
    }
}

impl From<IeError> for AttackError {
    fn from(e: IeError) -> Self {
        AttackError::Construction(e)
    }
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NotApplicable => {
                write!(f, "no adversary applies (the protocol is correct, or out of scope)")
            }
            AttackError::NotSymmetric => {
                write!(f, "protocol is not symmetric (identical processes required)")
            }
            AttackError::NotRegisters => {
                write!(f, "protocol uses non-register objects (section 3.1 is register-only)")
            }
            AttackError::NotHistoryless => {
                write!(f, "protocol uses non-historyless objects; theorem 3.7 does not apply")
            }
            AttackError::PoolNeedsSymmetry => {
                write!(f, "extending the pool requires a symmetric protocol")
            }
            AttackError::SoloSearchExhausted(p) => {
                write!(f, "no terminating solo execution found for {p:?} within budget")
            }
            AttackError::Construction(e) => write!(f, "construction failed: {e}"),
            AttackError::Combine(e) => write!(f, "combination failed: {e}"),
            AttackError::Unverified(m) => write!(f, "witness failed verification: {m}"),
        }
    }
}

impl std::error::Error for AttackError {}

/// Run the adversary that breaks a target of `family`: Lemma 3.2 with
/// [`CombineLimits::default`] for [`AttackFamily::RegisterIdentical`],
/// Lemma 3.6 with [`ExploreLimits::default`] over [`ample_pool_for`]
/// processes for [`AttackFamily::Historyless`]. The CLI, the job server
/// and the gate all attack registry targets here, so they cannot
/// disagree on the adversary or its pool.
///
/// # Errors
///
/// [`AttackError::NotApplicable`] for [`AttackFamily::NotApplicable`];
/// otherwise whatever the construction reports.
pub fn attack_target<P: Protocol>(
    family: AttackFamily,
    protocol: &P,
) -> Result<AttackOutcome, AttackError> {
    match family {
        AttackFamily::RegisterIdentical => attack_identical(protocol, &CombineLimits::default()),
        AttackFamily::Historyless => {
            attack_historyless(protocol, ample_pool_for(protocol), &ExploreLimits::default())
        }
        AttackFamily::NotApplicable => Err(AttackError::NotApplicable),
    }
}

/// Package a construction's final execution, replayable from the pool
/// configuration over `inputs`, as a runtime-verified witness.
pub(crate) fn inconsistency<P: Protocol>(
    protocol: &P,
    inputs: &[Decision],
    execution: Execution,
    stats: AttackStats,
) -> Result<AttackOutcome, AttackError> {
    let witness = InconsistencyWitness::from_execution(protocol, inputs, execution).ok_or_else(
        || AttackError::Unverified("the execution does not decide both values".into()),
    )?;
    witness.verify(protocol).map_err(|e| AttackError::Unverified(e.to_string()))?;
    Ok(AttackOutcome::Inconsistent { witness, stats })
}

/// Run the Lemma 3.2 adversary against a symmetric register protocol.
///
/// On success the returned witness has been verified by replay. The
/// pool starts with two processes (inputs 0 and 1) and grows only by
/// cloning, exactly as in the paper; the witness's `processes_used`
/// reports how many processes the construction consumed.
///
/// # Errors
///
/// See [`AttackError`].
pub fn attack_identical<P: Protocol>(
    protocol: &P,
    limits: &CombineLimits,
) -> Result<AttackOutcome, AttackError> {
    if !protocol.is_symmetric() {
        return Err(AttackError::NotSymmetric);
    }
    if !all_objects_registers(protocol) {
        return Err(AttackError::NotRegisters);
    }

    let explorer = Explorer::new(limits.explore);
    let mut weaver = Weaver::new(protocol, vec![0, 1]);
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);

    // Terminating solo executions from the initial configuration.
    let (alpha, a_decides) = explorer
        .solo_deciding(protocol, weaver.config(), p0)
        .ok_or(AttackError::SoloSearchExhausted(p0))?;
    if a_decides != 0 {
        return Ok(AttackOutcome::InvalidSolo {
            execution: alpha,
            pid: p0,
            input: 0,
            decided: a_decides,
        });
    }
    let (beta, b_decides) = explorer
        .solo_deciding(protocol, weaver.config(), p1)
        .ok_or(AttackError::SoloSearchExhausted(p1))?;
    if b_decides != 1 {
        return Ok(AttackOutcome::InvalidSolo {
            execution: beta,
            pid: p1,
            input: 1,
            decided: b_decides,
        });
    }

    // Locate each solo's first write.
    let first_write = |weaver: &Weaver<'_, P>,
                       steps: &[Step]|
     -> Result<Option<(usize, ObjectId)>, AttackError> {
        let mut scratch = weaver.clone();
        let specs = protocol.objects();
        for (idx, step) in steps.iter().enumerate() {
            let record =
                scratch.append(*step).map_err(|e| AttackError::Combine(e.into()))?;
            if let Some((obj, op, _)) = record.op {
                if !specs[obj.0].kind.is_trivial(&op) {
                    return Ok(Some((idx, obj)));
                }
            }
        }
        Ok(None)
    };

    let a_first = first_write(&weaver, alpha.steps())?;
    let b_first = first_write(&weaver, beta.steps())?;

    // If either solo never writes, it is invisible to the other: run
    // the write-free one first, the other after it.
    match (a_first, b_first) {
        (None, _) => {
            return splice_trivially(weaver, alpha.steps(), beta.steps());
        }
        (_, None) => {
            return splice_trivially(weaver, beta.steps(), alpha.steps());
        }
        _ => {}
    }
    let (ka, va) = a_first.expect("handled above");
    let (kb, vb) = b_first.expect("handled above");

    // γ: both read-only prefixes, in either order (they commute — no
    // writes).
    weaver.append_all(&alpha.steps()[..ka]).map_err(CombineError::from)?;
    weaver.append_all(&beta.steps()[..kb]).map_err(CombineError::from)?;

    let side0 = Side {
        cover: vec![(alpha.steps()[ka], va)],
        objects: [va].into(),
        solo: p0,
        cont: alpha.steps()[ka + 1..].to_vec(),
        decides: 0,
    };
    let side1 = Side {
        cover: vec![(beta.steps()[kb], vb)],
        objects: [vb].into(),
        solo: p1,
        cont: beta.steps()[kb + 1..].to_vec(),
        decides: 1,
    };

    let mut stats = CombineStats::default();
    combine(&mut weaver, side0, side1, limits, &mut stats)?;
    finish(weaver, stats)
}

/// The degenerate combination when one solo contains no writes.
fn splice_trivially<P: Protocol>(
    mut weaver: Weaver<'_, P>,
    first: &[Step],
    second: &[Step],
) -> Result<AttackOutcome, AttackError> {
    weaver.append_all(first).map_err(CombineError::from)?;
    weaver.append_all(second).map_err(CombineError::from)?;
    finish(weaver, CombineStats::default())
}

/// Package and verify the witness.
fn finish<P: Protocol>(
    weaver: Weaver<'_, P>,
    stats: CombineStats,
) -> Result<AttackOutcome, AttackError> {
    let stats = AttackStats::Register(stats);
    inconsistency(weaver.protocol(), weaver.inputs(), weaver.execution(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::max_identical_processes;
    use randsync_consensus::model_protocols::{NaiveWriteRead, Optimistic};

    #[test]
    fn naive_write_read_is_broken() {
        let p = NaiveWriteRead::new(2);
        let Ok(AttackOutcome::Inconsistent { witness, stats: AttackStats::Register(stats) }) =
            attack_identical(&p, &CombineLimits::default())
        else {
            panic!("the attack breaks the naive protocol");
        };
        witness.verify(&p).unwrap();
        assert!(stats.base_splices >= 1);
        // The naive protocol has one register; the bound says at most
        // r²−r+1 = 1 identical process — so breaking it with a handful
        // is consistent with Theorem 3.3.
        assert!(witness.processes_used as u64 > max_identical_processes(1));
    }

    #[test]
    fn attack_rejects_asymmetric_protocols() {
        let p = randsync_consensus::model_protocols::TasTwoModel;
        assert_eq!(
            attack_identical(&p, &CombineLimits::default()).unwrap_err(),
            AttackError::NotSymmetric
        );
    }

    #[test]
    fn depth_limit_is_honoured() {
        // A depth cap of zero cannot accommodate the recursion the
        // 3-register protocol needs; the combiner reports it cleanly.
        let p = Optimistic::new(2, 3);
        let limits = CombineLimits { max_depth: 0, ..CombineLimits::default() };
        match attack_identical(&p, &limits) {
            Err(AttackError::Combine(crate::combine31::CombineError::DepthExceeded)) => {}
            other => panic!("expected DepthExceeded, got {other:?}"),
        }
    }

    #[test]
    fn tiny_solo_budgets_fail_cleanly() {
        let p = Optimistic::new(2, 2);
        let limits = CombineLimits {
            explore: randsync_model::ExploreLimits { max_configs: 1, max_depth: 1 },
            ..CombineLimits::default()
        };
        assert!(matches!(
            attack_identical(&p, &limits),
            Err(AttackError::SoloSearchExhausted(_))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        for e in [
            AttackError::NotApplicable,
            AttackError::NotSymmetric,
            AttackError::NotRegisters,
            AttackError::NotHistoryless,
            AttackError::PoolNeedsSymmetry,
            AttackError::SoloSearchExhausted(ProcessId(0)),
            AttackError::Construction(IeError::InsufficientProcesses("x".into())),
            AttackError::Combine(CombineError::DepthExceeded),
            AttackError::Unverified("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
