//! The Lemma 3.2 adversary: break any identical-process register
//! "consensus".
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

use randsync_model::{
    Decision, Execution, Explorer, ObjectId, ProcessId, Protocol, Step,
};

use crate::combine31::{combine, CombineError, CombineLimits, CombineStats, Side};
use crate::poised::all_objects_registers;
use crate::weave::Weaver;
use crate::witness::InconsistencyWitness;

/// What the adversary produced.
#[derive(Clone, Debug)]
pub enum AttackOutcome {
    /// An execution deciding both 0 and 1 (the protocol violates
    /// consistency), with the proof-case statistics.
    Inconsistent {
        /// The replay-verified witness.
        witness: InconsistencyWitness,
        /// Which Lemma 3.1 cases fired.
        stats: CombineStats,
    },
    /// A solo execution in which a process decides a value that is not
    /// its own input while running entirely alone — a validity
    /// violation, found before any combination was necessary.
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
}

/// Why the adversary failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackError {
    /// The protocol is not symmetric; Section 3.1's cloning technique
    /// does not apply (use the general historyless machinery instead).
    NotSymmetric,
    /// The protocol uses objects other than plain read–write registers;
    /// Section 3.1 is register-specific.
    NotRegisters,
    /// No terminating solo execution was found within the exploration
    /// budget (the protocol may not satisfy nondeterministic solo
    /// termination, or the budget is too small).
    SoloSearchExhausted(ProcessId),
    /// The Lemma 3.1 combination failed.
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

impl core::fmt::Display for AttackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttackError::NotSymmetric => {
                write!(f, "protocol is not symmetric (identical processes required)")
            }
            AttackError::NotRegisters => {
                write!(f, "protocol uses non-register objects (section 3.1 is register-only)")
            }
            AttackError::SoloSearchExhausted(p) => {
                write!(f, "no terminating solo execution found for {p:?} within budget")
            }
            AttackError::Combine(e) => write!(f, "combination failed: {e}"),
            AttackError::Unverified(m) => write!(f, "witness failed verification: {m}"),
        }
    }
}

impl std::error::Error for AttackError {}

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
    let decisions = weaver.config().decisions();
    let zero = decisions
        .iter()
        .find(|(_, d)| *d == 0)
        .map(|(p, _)| *p)
        .ok_or_else(|| AttackError::Unverified("no process decided 0".into()))?;
    let one = decisions
        .iter()
        .find(|(_, d)| *d == 1)
        .map(|(p, _)| *p)
        .ok_or_else(|| AttackError::Unverified("no process decided 1".into()))?;
    let witness = InconsistencyWitness {
        inputs: weaver.inputs().to_vec(),
        execution: weaver.execution(),
        decides_zero: zero,
        decides_one: one,
        processes_used: weaver.processes_used(),
    };
    witness
        .verify(weaver.protocol())
        .map_err(|e| AttackError::Unverified(e.to_string()))?;
    Ok(AttackOutcome::Inconsistent { witness, stats })
}

/// Convenience: run the attack and return just the witness, panicking
/// on validity violations (useful in benches over protocols known to be
/// consistent-but-attackable).
///
/// # Errors
///
/// See [`attack_identical`].
///
/// # Panics
///
/// Panics if the protocol turned out to violate validity instead.
pub fn attack_for_witness<P: Protocol>(
    protocol: &P,
    limits: &CombineLimits,
) -> Result<(InconsistencyWitness, CombineStats), AttackError> {
    match attack_identical(protocol, limits)? {
        AttackOutcome::Inconsistent { witness, stats } => Ok((witness, stats)),
        AttackOutcome::InvalidSolo { .. } => {
            panic!("protocol violates validity; no combination was needed")
        }
    }
}

/// [`attack_for_witness`] followed by schedule shrinking: run the
/// Lemma 3.2 adversary and hand back the **minimized** witness (steps
/// deleted and independent neighbors commuted until a fixpoint,
/// re-verified) together with what the shrink removed. The constructed
/// witness carries clone scaffolding — block writes covering every
/// register, spliced solo runs — that the minimal counterexample
/// usually does not need, so this is the form worth archiving as a
/// flight trace.
///
/// # Errors
///
/// See [`attack_identical`].
///
/// # Panics
///
/// Panics if the protocol turned out to violate validity instead.
pub fn attack_minimized<P: Protocol>(
    protocol: &P,
    limits: &CombineLimits,
) -> Result<(InconsistencyWitness, crate::witness::MinimizeStats), AttackError> {
    let (witness, _) = attack_for_witness(protocol, limits)?;
    Ok(witness.minimize_report(protocol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::max_identical_processes;
    use randsync_consensus::model_protocols::{NaiveWriteRead, Optimistic};

    #[test]
    fn naive_write_read_is_broken() {
        let p = NaiveWriteRead::new(2);
        let (witness, stats) =
            attack_for_witness(&p, &CombineLimits::default()).expect("attack succeeds");
        witness.verify(&p).unwrap();
        assert!(stats.base_splices >= 1);
        // The naive protocol has one register; the bound says at most
        // r²−r+1 = 1 identical process — so breaking it with a handful
        // is consistent with Theorem 3.3.
        assert!(witness.processes_used as u64 > max_identical_processes(1));
    }

    #[test]
    fn optimistic_protocols_are_broken_for_every_register_count() {
        for r in 1..=4 {
            let p = Optimistic::new(2, r);
            let (witness, stats) =
                attack_for_witness(&p, &CombineLimits::default()).unwrap_or_else(|e| {
                    panic!("attack on r={r} failed: {e}");
                });
            witness.verify(&p).unwrap();
            // Figure-3 style splits occur as soon as the solo writes
            // beyond the first register.
            if r >= 2 {
                assert!(
                    stats.subset_splits + stats.incomparable_resolutions > 0,
                    "r={r}: expected nontrivial proof cases, got {stats:?}"
                );
            }
        }
    }

    #[test]
    fn process_usage_respects_the_lemma31_budget() {
        // Lemma 3.1 bounds the processes used by
        // r² − r + (3v + 3w − v² − w²)/2 with v = w = 1 initially:
        // r² − r + 2.
        for r in 1..=4u64 {
            let p = Optimistic::new(2, r as usize);
            let (witness, _) = attack_for_witness(&p, &CombineLimits::default()).unwrap();
            let budget = r * r - r + 2;
            assert!(
                (witness.processes_used as u64) <= budget,
                "r={r}: used {} > budget {budget}",
                witness.processes_used
            );
        }
    }

    #[test]
    fn attack_rejects_non_register_protocols() {
        let p = randsync_consensus::model_protocols::CasModel::new(2);
        assert_eq!(
            attack_identical(&p, &CombineLimits::default()).unwrap_err(),
            AttackError::NotRegisters
        );
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
            AttackError::NotSymmetric,
            AttackError::NotRegisters,
            AttackError::SoloSearchExhausted(ProcessId(0)),
            AttackError::Unverified("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
