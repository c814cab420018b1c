//! The Lemma 3.5 combiner and the Lemma 3.6 adversary — the general
//! historyless case behind Theorem 3.7.
//!
//! Lemma 3.5 combines a 0-deciding interruptible execution α (initial
//! object set V, process set 𝒫) with a 1-deciding one β (set W,
//! disjoint process set 𝒬), both starting at the same configuration,
//! into a single execution deciding both values:
//!
//! * **V ⊆ W**: execute α's first piece. Its nontrivial operations are
//!   confined to V ⊆ W, so β's opening block write to W obliterates
//!   them — β remains valid. If α already decided, run β and be done;
//!   otherwise recurse on α's remaining pieces.
//! * **V, W incomparable**: enlarge to U = V ∪ W. Processes poised at
//!   W − V (outside 𝒬 — β's *excess capacity*) extend 𝒫 to 𝒫′, and
//!   Lemma 3.4 builds a fresh interruptible execution α′ with initial
//!   set U. Whichever value α′ decides, it replaces the matching side
//!   (constructing the symmetric β′ when needed), and the recursion
//!   continues with strictly larger object sets.
//!
//! Lemma 3.6 instantiates this at the initial configuration with
//! V = W = ∅, half the processes holding input 0 (they form 𝒫) and
//! half holding 1 (𝒬): by validity α decides 0 and β decides 1, so the
//! combination breaks any purported consensus with enough processes —
//! which is Theorem 3.7's Ω(√n).
//!
//! Deviation note (recorded in DESIGN.md): the paper threads exact
//! excess-capacity arithmetic through every construction; this
//! implementation re-derives the needed poised processes concretely
//! from the pool at each recursion step and reports
//! [`IeError::InsufficientProcesses`](crate::interruptible::IeError::InsufficientProcesses)
//! when the pool is genuinely too small. The witnesses produced are
//! verified by replay either way.

use std::collections::BTreeSet;

use randsync_model::{
    Configuration, Decision, Execution, ExploreLimits, ModelError, ObjectId, ProcessId,
    Protocol, Step,
};

use crate::attack::{inconsistency, AttackError, AttackOutcome, AttackStats};
use crate::combine31::CombineError;
use crate::interruptible::{construct_interruptible, ExcessCapacity, InterruptibleExecution};
use crate::poised::all_objects_historyless;

/// A growing execution over a fixed pool configuration (the general
/// case spawns no clones, so no weaving is needed).
#[derive(Clone, Debug)]
struct Run<'a, P: Protocol> {
    protocol: &'a P,
    config: Configuration<P::State>,
    steps: Vec<Step>,
}

impl<'a, P: Protocol> Run<'a, P> {
    fn new(protocol: &'a P, config: Configuration<P::State>) -> Self {
        Run { protocol, config, steps: Vec::new() }
    }

    /// Append a step verbatim.
    fn append(&mut self, step: Step) -> Result<(), ModelError> {
        self.config.step(self.protocol, step.pid, step.coin)?;
        self.steps.push(step);
        Ok(())
    }

    /// Append a block-write step, clamping its coin into the (possibly
    /// different) domain — the writer takes no further steps, so its
    /// post-write state is irrelevant.
    fn append_block_write(&mut self, step: Step) -> Result<(), ModelError> {
        let mut used = 0u32;
        self.config.step_with(self.protocol, step.pid, |domain| {
            used = step.coin.min(domain - 1);
            used
        })?;
        self.steps.push(Step::with_coin(step.pid, used));
        Ok(())
    }

    fn append_piece(&mut self, piece: &crate::interruptible::Piece) -> Result<(), ModelError> {
        for (step, _) in &piece.block_write {
            self.append_block_write(*step)?;
        }
        for step in &piece.body {
            self.append(*step)?;
        }
        Ok(())
    }

    fn append_all_pieces(&mut self, ie: &InterruptibleExecution) -> Result<(), ModelError> {
        for piece in &ie.pieces {
            self.append_piece(piece)?;
        }
        Ok(())
    }
}

/// Statistics from a general-case combination.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeneralStats {
    /// Subset-case piece executions.
    pub pieces_executed: usize,
    /// Incomparable-case resolutions (fresh Lemma 3.4 constructions).
    pub reconstructions: usize,
    /// Deepest recursion reached.
    pub max_depth: usize,
}

/// A pool size ample for this implementation's realization of the
/// Lemma 3.6 construction over `r` objects.
///
/// The paper's threshold is `3r² + r`; our pool-based realization
/// re-derives reservations concretely instead of threading the exact
/// capacity arithmetic, and is comfortable at twice that (see the
/// deviation note in the module docs and DESIGN.md).
pub fn ample_pool(r: usize) -> usize {
    2 * (3 * r * r + r)
}

/// The pool to run [`attack_historyless`] with against `protocol`:
/// [`ample_pool`] over its object count, since Lemma 3.6 needs a pool
/// that grows with the number of objects. Its one caller is
/// [`crate::attack::attack_target`], so every registry target is
/// attacked with the same pool.
pub fn ample_pool_for<P: Protocol>(protocol: &P) -> usize {
    ample_pool(protocol.objects().len())
}

/// Run the Lemma 3.6 adversary: break a historyless-object protocol by
/// combining a 0-deciding and a 1-deciding interruptible execution.
///
/// `pool` is the total number of processes made available (half with
/// input 0, half with input 1). Use [`ample_pool`] for a size at which
/// the construction is comfortable; smaller pools may still succeed or
/// may return [`AttackError::Construction`] with an insufficiency
/// report — which is itself the space/process trade-off the lemma
/// quantifies.
///
/// # Errors
///
/// See [`AttackError`].
pub fn attack_historyless<P: Protocol>(
    protocol: &P,
    pool: usize,
    limits: &ExploreLimits,
) -> Result<AttackOutcome, AttackError> {
    if !all_objects_historyless(protocol) {
        return Err(AttackError::NotHistoryless);
    }
    if pool > protocol.num_processes() && !protocol.is_symmetric() {
        return Err(AttackError::PoolNeedsSymmetry);
    }
    let pool = pool.max(2);
    let inputs: Vec<Decision> = (0..pool).map(|i| if i < pool / 2 { 0 } else { 1 }).collect();
    let base = Configuration::initial_with_pool(protocol, &inputs, pool);
    let p_set: BTreeSet<ProcessId> = (0..pool / 2).map(ProcessId).collect();
    let q_set: BTreeSet<ProcessId> = (pool / 2..pool).map(ProcessId).collect();

    // Lemma 3.6 applies Lemma 3.4 with excess capacity w̄ for W̄ where
    // W = ∅ — i.e. capacity r over the whole object set. The
    // construction withdraws spare poised processes at every
    // object-set growth, which is what the incomparable case of
    // Lemma 3.5 later consumes.
    let excess = capacity_for(protocol, &BTreeSet::new());
    let (alpha, _) = construct_interruptible(
        protocol,
        &base,
        BTreeSet::new(),
        p_set,
        &excess,
        limits,
    )?;
    if alpha.decides != 0 {
        return Ok(AttackOutcome::InvalidUnanimous {
            execution: Execution::from_steps(alpha.steps()),
            input: 0,
            decided: alpha.decides,
        });
    }
    let (beta, _) = construct_interruptible(
        protocol,
        &base,
        BTreeSet::new(),
        q_set,
        &excess,
        limits,
    )?;
    if beta.decides != 1 {
        return Ok(AttackOutcome::InvalidUnanimous {
            execution: Execution::from_steps(beta.steps()),
            input: 1,
            decided: beta.decides,
        });
    }

    let mut run = Run::new(protocol, base);
    let mut stats = GeneralStats::default();
    combine_rec(&mut run, alpha, beta, limits, &mut stats, 0)?;

    let execution = Execution::from_steps(run.steps);
    inconsistency(protocol, &inputs, execution, AttackStats::Historyless(stats))
}

/// Definition 3.2's parameter for a side facing `other`: capacity
/// `|other̄|` for the complement of `other`.
fn capacity_for<P: Protocol>(
    protocol: &P,
    other: &BTreeSet<ObjectId>,
) -> ExcessCapacity {
    let r = protocol.objects().len();
    let watched: BTreeSet<ObjectId> =
        (0..r).map(ObjectId).filter(|o| !other.contains(o)).collect();
    ExcessCapacity { spare: watched.len(), watched }
}

fn combine_rec<P: Protocol>(
    run: &mut Run<'_, P>,
    alpha: InterruptibleExecution,
    beta: InterruptibleExecution,
    limits: &ExploreLimits,
    stats: &mut GeneralStats,
    depth: usize,
) -> Result<(), AttackError> {
    stats.max_depth = stats.max_depth.max(depth);
    let r = run.protocol.objects().len();
    if depth > 4 * r + 8 {
        return Err(CombineError::DepthExceeded.into());
    }
    let v = alpha.initial_objects().clone();
    let w = beta.initial_objects().clone();

    if v.is_subset(&w) {
        subset_case(run, alpha, beta, limits, stats, depth)
    } else if w.is_subset(&v) {
        subset_case(run, beta, alpha, limits, stats, depth)
    } else {
        incomparable_case(run, alpha, beta, limits, stats, depth)
    }
}

/// V ⊆ W: execute α's first piece; recurse or finish with β.
fn subset_case<P: Protocol>(
    run: &mut Run<'_, P>,
    inner: InterruptibleExecution,
    outer: InterruptibleExecution,
    limits: &ExploreLimits,
    stats: &mut GeneralStats,
    depth: usize,
) -> Result<(), AttackError> {
    run.append_piece(&inner.pieces[0])?;
    stats.pieces_executed += 1;
    if inner.pieces.len() == 1 {
        // α decided; β's opening block write to W ⊇ V obliterates
        // everything α did to shared memory.
        run.append_all_pieces(&outer)?;
        stats.pieces_executed += outer.pieces.len();
        if run.config.is_inconsistent() {
            Ok(())
        } else {
            Err(CombineError::Internal("subset-case splice did not decide both values").into())
        }
    } else {
        combine_rec(run, inner.rest(), outer, limits, stats, depth + 1)
    }
}

/// Neither contains the other: rebuild one side with initial set
/// U = V ∪ W via Lemma 3.4, preserving process-set disjointness.
fn incomparable_case<P: Protocol>(
    run: &mut Run<'_, P>,
    alpha: InterruptibleExecution,
    beta: InterruptibleExecution,
    limits: &ExploreLimits,
    stats: &mut GeneralStats,
    depth: usize,
) -> Result<(), AttackError> {
    stats.reconstructions += 1;
    let protocol = run.protocol;
    let v = alpha.initial_objects().clone();
    let w = beta.initial_objects().clone();
    let u: BTreeSet<ObjectId> = v.union(&w).copied().collect();
    let r = protocol.objects().len();

    // 𝒫′ = 𝒫 plus processes poised at W − V drawn from outside 𝒬
    // (β's excess capacity, realized concretely from the pool).
    let mut p_prime = alpha.processes.clone();
    for &obj in w.difference(&v) {
        let mut added = 0usize;
        for i in 0..run.config.num_processes() {
            if added > r {
                break;
            }
            let pid = ProcessId(i);
            if beta.processes.contains(&pid) || p_prime.contains(&pid) {
                continue;
            }
            if run.config.poised_at(protocol, pid) == Some(obj) {
                p_prime.insert(pid);
                added += 1;
            }
        }
    }

    // Per the lemma, α′ is built with excess capacity w̄ for W̄ — its
    // first piece's capacity check lands on U ∩ W̄ = V − W, whose
    // spares are exactly α's own earlier withdrawals (the p′ additions
    // above consumed only W − V spares).
    let excess_a = capacity_for(protocol, &w);
    let (alpha2, _) = construct_interruptible(
        protocol,
        &run.config,
        u.clone(),
        p_prime.clone(),
        &excess_a,
        limits,
    )?;
    if alpha2.decides == alpha.decides {
        return combine_rec(run, alpha2, beta, limits, stats, depth + 1);
    }

    // α′ decided β's value; construct the symmetric β′ (initial set U,
    // processes disjoint from both 𝒫 and 𝒫′).
    let mut q_prime = beta.processes.clone();
    for &obj in v.difference(&w) {
        let mut added = 0usize;
        for i in 0..run.config.num_processes() {
            if added > r {
                break;
            }
            let pid = ProcessId(i);
            if alpha.processes.contains(&pid)
                || p_prime.contains(&pid)
                || q_prime.contains(&pid)
            {
                continue;
            }
            if run.config.poised_at(protocol, pid) == Some(obj) {
                q_prime.insert(pid);
                added += 1;
            }
        }
    }
    let excess_b = capacity_for(protocol, &v);
    let (beta2, _) =
        construct_interruptible(protocol, &run.config, u, q_prime, &excess_b, limits)?;
    if beta2.decides == beta.decides {
        // α (0, V ⊆ U) against β′ (1, U).
        combine_rec(run, alpha, beta2, limits, stats, depth + 1)
    } else {
        // β′ decided 0 and α′ decided 1; both have initial set U.
        combine_rec(run, beta2, alpha2, limits, stats, depth + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randsync_consensus::model_protocols::NaiveWriteRead;

    fn limits() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn general_attack_breaks_the_naive_protocol() {
        let p = NaiveWriteRead::new(2);
        match attack_historyless(&p, 8, &limits()).expect("attack runs") {
            AttackOutcome::Inconsistent { witness, stats: AttackStats::Historyless(stats) } => {
                witness.verify(&p).unwrap();
                assert!(stats.pieces_executed >= 2);
            }
            other => panic!("naive protocol is valid; expected inconsistency, got {other}"),
        }
    }

    #[test]
    fn asymmetric_pool_extension_is_rejected() {
        let p = randsync_consensus::model_protocols::TasTwoModel;
        assert!(matches!(
            attack_historyless(&p, 10, &limits()),
            Err(AttackError::PoolNeedsSymmetry)
        ));
    }
}
