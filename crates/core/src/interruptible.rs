//! Interruptible executions (Definitions 3.1, 3.2) and their
//! construction (Lemma 3.4).
//!
//! An **interruptible execution** α from configuration C with initial
//! object set V and process set 𝒫 divides into pieces α = α₁ ⋯ α_k
//! such that
//!
//! * each piece αᵢ begins with a **block write** to an object set Vᵢ by
//!   processes that take no further steps in α,
//! * all nontrivial operations in αᵢ are to objects in Vᵢ,
//! * V = V₁ ⊊ ⋯ ⊊ V_k, and
//! * after α, some process has decided.
//!
//! Because the objects are **historyless**, each block write fixes its
//! objects' values no matter when it executes — so an execution by
//! *other* processes that only changes objects in Vᵢ can be inserted
//! immediately before piece i without affecting the rest of α. That is
//! the "cutting and splicing" the general lower bound is built on.
//!
//! [`construct_interruptible`] implements Lemma 3.4: from any
//! configuration with enough processes poised at the right objects,
//! build an interruptible execution with prescribed **excess capacity**
//! (spare poised processes, outside the execution's own process set,
//! that the *other* side's combination may consume).

use std::collections::{BTreeMap, BTreeSet};

use randsync_model::explore::solo_until;
use randsync_model::{
    Configuration, Decision, ExploreLimits, ModelError, ObjectId, ProcessId,
    Protocol, Step,
};

/// One piece of an interruptible execution.
#[derive(Clone, Debug)]
pub struct Piece {
    /// The piece's object set Vᵢ.
    pub objects: BTreeSet<ObjectId>,
    /// The block write to Vᵢ: one `(step, object)` per object. These
    /// processes take no further steps in the whole execution.
    pub block_write: Vec<(Step, ObjectId)>,
    /// The remaining steps of the piece; every nontrivial operation
    /// targets Vᵢ.
    pub body: Vec<Step>,
}

impl Piece {
    /// All steps of the piece, block write first.
    pub fn steps(&self) -> Vec<Step> {
        let mut v: Vec<Step> = self.block_write.iter().map(|(s, _)| *s).collect();
        v.extend_from_slice(&self.body);
        v
    }
}

/// Definition 3.2's parameter: at the beginning of each piece αᵢ there
/// must be at least `spare` processes outside the execution's process
/// set poised at each object of `Vᵢ ∩ watched`.
#[derive(Clone, Debug, Default)]
pub struct ExcessCapacity {
    /// How many spare poised processes each watched object must have.
    pub spare: usize,
    /// The watched object set U.
    pub watched: BTreeSet<ObjectId>,
}

/// An interruptible execution: pieces plus bookkeeping.
#[derive(Clone, Debug)]
pub struct InterruptibleExecution {
    /// The pieces α₁ ⋯ α_k (their object sets strictly increase).
    pub pieces: Vec<Piece>,
    /// The execution's process set 𝒫 (every step's process is in it).
    pub processes: BTreeSet<ProcessId>,
    /// The value decided at the end.
    pub decides: Decision,
    /// The process that decided.
    pub decider: ProcessId,
}

impl InterruptibleExecution {
    /// The initial object set V = V₁.
    pub fn initial_objects(&self) -> &BTreeSet<ObjectId> {
        &self.pieces.first().expect("an IE has at least one piece").objects
    }

    /// All steps, in order.
    pub fn steps(&self) -> Vec<Step> {
        self.pieces.iter().flat_map(|p| p.steps()).collect()
    }

    /// Total number of steps.
    pub fn len(&self) -> usize {
        self.pieces.iter().map(|p| p.block_write.len() + p.body.len()).sum()
    }

    /// Whether the execution has no steps (never true for constructed
    /// ones).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop the first piece: the interruptible execution α₂ ⋯ α_k that
    /// remains valid from the configuration reached after α₁.
    ///
    /// # Panics
    ///
    /// Panics if this is the last piece.
    pub fn rest(&self) -> InterruptibleExecution {
        assert!(self.pieces.len() > 1, "cannot drop the only piece");
        InterruptibleExecution {
            pieces: self.pieces[1..].to_vec(),
            processes: self.processes.clone(),
            decides: self.decides,
            decider: self.decider,
        }
    }

    /// Check Definition 3.1 against a base configuration: replays the
    /// steps and verifies piece structure, write confinement, strict
    /// nesting, block-writer retirement, and the final decision.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// clause.
    pub fn validate<P: Protocol>(
        &self,
        protocol: &P,
        base: &Configuration<P::State>,
    ) -> Result<(), String> {
        if self.pieces.is_empty() {
            return Err("an interruptible execution needs at least one piece".into());
        }
        let specs = protocol.objects();
        let mut config = base.clone();
        let mut frozen: BTreeSet<ProcessId> = BTreeSet::new();
        let mut prev_objects: Option<&BTreeSet<ObjectId>> = None;
        for (i, piece) in self.pieces.iter().enumerate() {
            if let Some(prev) = prev_objects {
                if !prev.is_subset(&piece.objects) || prev == &piece.objects {
                    return Err(format!("piece {i}: object sets must strictly nest"));
                }
            }
            let bw_objects: BTreeSet<ObjectId> =
                piece.block_write.iter().map(|(_, o)| *o).collect();
            if bw_objects != piece.objects {
                return Err(format!("piece {i}: block write must cover the object set"));
            }
            for (step, obj) in &piece.block_write {
                if frozen.contains(&step.pid) {
                    return Err(format!(
                        "piece {i}: block writer {:?} already took its last step",
                        step.pid
                    ));
                }
                if config.poised_at(protocol, step.pid) != Some(*obj) {
                    return Err(format!(
                        "piece {i}: {:?} is not poised at {obj:?}",
                        step.pid
                    ));
                }
                config
                    .step(protocol, step.pid, step.coin)
                    .map_err(|e| format!("piece {i}: block-write step failed: {e}"))?;
                frozen.insert(step.pid);
            }
            for step in &piece.body {
                if frozen.contains(&step.pid) {
                    return Err(format!(
                        "piece {i}: frozen process {:?} took a step",
                        step.pid
                    ));
                }
                if !self.processes.contains(&step.pid) {
                    return Err(format!(
                        "piece {i}: {:?} is outside the process set",
                        step.pid
                    ));
                }
                let record = config
                    .step(protocol, step.pid, step.coin)
                    .map_err(|e| format!("piece {i}: body step failed: {e}"))?;
                if let Some((obj, op, _)) = record.op {
                    if !specs[obj.0].kind.is_trivial(&op) && !piece.objects.contains(&obj) {
                        return Err(format!(
                            "piece {i}: nontrivial operation on {obj:?} outside Vᵢ"
                        ));
                    }
                }
            }
            prev_objects = Some(&piece.objects);
        }
        match config.procs.get(self.decider.index()).and_then(|p| p.decision()) {
            Some(d) if d == self.decides => Ok(()),
            other => Err(format!(
                "decider {:?} ended as {other:?}, expected decision {}",
                self.decider, self.decides
            )),
        }
    }
}

/// Why Lemma 3.4's construction failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IeError {
    /// Not enough poised processes to cover a block write, reserve
    /// future covers, or provide the requested excess capacity.
    InsufficientProcesses(String),
    /// A process could not be driven to a decision or a poise outside
    /// the current object set within the exploration budget.
    SearchExhausted(ProcessId),
    /// A step failed during construction (invariant violation).
    Model(ModelError),
}

impl From<ModelError> for IeError {
    fn from(e: ModelError) -> Self {
        IeError::Model(e)
    }
}

impl core::fmt::Display for IeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IeError::InsufficientProcesses(m) => write!(f, "insufficient processes: {m}"),
            IeError::SearchExhausted(p) => {
                write!(f, "could not drive {p:?} to a decision or an outside poise")
            }
            IeError::Model(e) => write!(f, "model error during construction: {e}"),
        }
    }
}

impl std::error::Error for IeError {}

/// Lemma 3.4: construct an interruptible execution from `base` with
/// initial object set `initial`, process set `procs`, and the given
/// excess capacity, by the paper's recursion. Also returns the final
/// configuration reached.
///
/// The numeric preconditions of the lemma (|𝒫| ≥ (r² + r − v² + v)/2 +
/// e·|V̄ ∩ U| etc.) are not assumed; instead each reservation is
/// attempted and a precise [`IeError::InsufficientProcesses`] is
/// returned when the pool is genuinely too small — which is itself a
/// demonstration of the space/process trade-off the lemma quantifies.
///
/// # Errors
///
/// See [`IeError`].
pub fn construct_interruptible<P: Protocol>(
    protocol: &P,
    base: &Configuration<P::State>,
    initial: BTreeSet<ObjectId>,
    procs: BTreeSet<ProcessId>,
    excess: &ExcessCapacity,
    limits: &ExploreLimits,
) -> Result<(InterruptibleExecution, Configuration<P::State>), IeError> {
    let r = protocol.objects().len();
    let mut config = base.clone();
    // `members` is the execution's process set 𝒫, which shrinks as the
    // paper's E-sets are withdrawn (P' = P − P₁ − E); `available` are
    // the members that may still take steps (not frozen block writers).
    let mut members = procs;
    let mut available = members.clone();
    let mut frozen: BTreeSet<ProcessId> = BTreeSet::new();
    let mut pieces: Vec<Piece> = Vec::new();
    let mut v_set = initial;

    loop {
        let v_bar = r - v_set.len();

        // Excess-capacity check (Definition 3.2) at the beginning of
        // this piece: `spare` processes outside the process set poised
        // at each object of Vᵢ ∩ U.
        for &obj in v_set.intersection(&excess.watched) {
            let outside = (0..config.num_processes())
                .map(ProcessId)
                .filter(|p| !members.contains(p))
                .filter(|p| config.poised_at(protocol, *p) == Some(obj))
                .count();
            if outside < excess.spare {
                return Err(IeError::InsufficientProcesses(format!(
                    "excess capacity: {obj:?} has {outside} spare poised processes, \
                     need {}",
                    excess.spare
                )));
            }
        }

        // Reserve v̄ + 1 poised processes per object of V (the paper's
        // 𝒫̂); the block write uses one of each, the rest stay poised
        // for deeper pieces.
        let mut reserved: BTreeSet<ProcessId> = BTreeSet::new();
        let mut block_write: Vec<(Step, ObjectId)> = Vec::new();
        for &obj in &v_set {
            let mut poised: Vec<ProcessId> = available
                .iter()
                .copied()
                .filter(|p| !frozen.contains(p))
                .filter(|p| config.poised_at(protocol, *p) == Some(obj))
                .collect();
            if poised.is_empty() {
                return Err(IeError::InsufficientProcesses(format!(
                    "no process in the set is poised at {obj:?} for the block write"
                )));
            }
            poised.truncate(v_bar + 1);
            let writer = poised[0];
            for p in &poised {
                reserved.insert(*p);
            }
            block_write.push((Step::of(writer), obj));
        }
        // Perform the block write; writers take no further steps.
        for (step, _) in &block_write {
            config.step(protocol, step.pid, step.coin)?;
            frozen.insert(step.pid);
            available.remove(&step.pid);
        }

        // δ body: drive every unreserved process to a decision or to a
        // poise outside V.
        let mut body: Vec<Step> = Vec::new();
        let mut decided: Option<(ProcessId, Decision)> = None;
        let movers: Vec<ProcessId> = available
            .iter()
            .copied()
            .filter(|p| !reserved.contains(p) && !frozen.contains(p))
            .collect();
        for pid in movers {
            if !config.is_active(pid) {
                continue;
            }
            let v_ref = &v_set;
            let goal = |c: &Configuration<P::State>| {
                !c.is_active(pid)
                    || c.poised_at(protocol, pid)
                        .map(|o| !v_ref.contains(&o))
                        .unwrap_or(false)
                        && matches!(
                            c.next_action(protocol, pid),
                            Some(randsync_model::Action::Invoke { .. })
                        )
            };
            let steps = solo_until(protocol, &config, pid, limits, goal)
                .ok_or(IeError::SearchExhausted(pid))?;
            for &step in steps.steps() {
                let record = config.step(protocol, step.pid, step.coin)?;
                body.push(step);
                if let Some(d) = record.decided {
                    decided = Some((pid, d));
                    break;
                }
            }
            if decided.is_some() {
                break;
            }
        }

        pieces.push(Piece { objects: v_set.clone(), block_write, body });

        if let Some((decider, d)) = decided {
            let ie =
                InterruptibleExecution { pieces, processes: members, decides: d, decider };
            return Ok((ie, config));
        }

        if v_bar == 0 {
            // Everything is block-written and nobody decided: the
            // remaining processes are all poised outside V = all
            // objects, which is impossible — they must all be decided
            // or the pool is exhausted.
            return Err(IeError::InsufficientProcesses(
                "no process decided even with every object block-written".into(),
            ));
        }

        // Choose the next object set V' = V ∪ Y ∪ Z by the paper's
        // counting argument: find i with y_i + z_{e+i} ≥ v̄ − i + 1.
        let mut poised_count: BTreeMap<ObjectId, usize> = BTreeMap::new();
        for p in available.iter().filter(|p| !reserved.contains(p) && !frozen.contains(p)) {
            if let Some(obj) = config.poised_at(protocol, *p) {
                if !v_set.contains(&obj) {
                    *poised_count.entry(obj).or_insert(0) += 1;
                }
            }
        }
        let e = excess.spare;
        let mut chosen: Option<(usize, Vec<ObjectId>, Vec<ObjectId>)> = None;
        for i in 1..=v_bar {
            let ys: Vec<ObjectId> = poised_count
                .iter()
                .filter(|(o, &c)| !excess.watched.contains(o) && c >= i)
                .map(|(o, _)| *o)
                .collect();
            let zs: Vec<ObjectId> = poised_count
                .iter()
                .filter(|(o, &c)| excess.watched.contains(o) && c >= e + i)
                .map(|(o, _)| *o)
                .collect();
            let need = v_bar - i + 1;
            if ys.len() + zs.len() >= need {
                // Take Y first, then Z, exactly `need` objects.
                let mut y_take = ys;
                let mut z_take = zs;
                if y_take.len() >= need {
                    y_take.truncate(need);
                    z_take.clear();
                } else {
                    let rem = need - y_take.len();
                    z_take.truncate(rem);
                }
                chosen = Some((i, y_take, z_take));
                break;
            }
        }
        let Some((_, y_take, z_take)) = chosen else {
            return Err(IeError::InsufficientProcesses(
                "counting argument failed: not enough poised processes to extend V \
                 (the pool is below the lemma's threshold)"
                    .into(),
            ));
        };

        // Withdraw the excess set E: e processes poised at each Z
        // object leave the process set entirely (𝒫′ = 𝒫 − 𝒫₁ − E).
        // They take no steps, stay poised, and become the spare
        // capacity that Lemma 3.5's incomparable case consumes.
        for &obj in &z_take {
            let mut spare_needed = e;
            let poised: Vec<ProcessId> = available
                .iter()
                .copied()
                .filter(|p| !reserved.contains(p) && !frozen.contains(p))
                .filter(|p| config.poised_at(protocol, *p) == Some(obj))
                .collect();
            for p in poised {
                if spare_needed == 0 {
                    break;
                }
                available.remove(&p);
                members.remove(&p);
                spare_needed -= 1;
            }
        }

        for obj in y_take.into_iter().chain(z_take) {
            v_set.insert(obj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randsync_consensus::model_protocols::{NaiveWriteRead, Optimistic};

    fn limits() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn single_piece_on_naive_protocol() {
        let p = NaiveWriteRead::new(4);
        let base = Configuration::initial_with_pool(&p, &[0], 4);
        let procs: BTreeSet<ProcessId> = (0..4).map(ProcessId).collect();
        let (ie, _end) = construct_interruptible(
            &p,
            &base,
            BTreeSet::new(),
            procs,
            &ExcessCapacity::default(),
            &limits(),
        )
        .expect("construction succeeds");
        assert_eq!(ie.decides, 0, "all inputs are 0");
        ie.validate(&p, &base).unwrap();
        assert!(!ie.is_empty());
    }

    #[test]
    fn multi_register_protocol_builds_nested_pieces() {
        let p = Optimistic::new(8, 2);
        let base = Configuration::initial_with_pool(&p, &[1], 8);
        let procs: BTreeSet<ProcessId> = (0..8).map(ProcessId).collect();
        let (ie, _end) = construct_interruptible(
            &p,
            &base,
            BTreeSet::new(),
            procs,
            &ExcessCapacity::default(),
            &limits(),
        )
        .expect("construction succeeds");
        ie.validate(&p, &base).unwrap();
        assert_eq!(ie.decides, 1);
        // Nesting is strict whenever there is more than one piece.
        for w in ie.pieces.windows(2) {
            assert!(w[0].objects.is_subset(&w[1].objects));
            assert!(w[0].objects.len() < w[1].objects.len());
        }
    }

    #[test]
    fn construction_fails_gracefully_with_too_few_processes() {
        // A single process cannot both block-write and be reserved for
        // deeper covers once the object set grows; with pathological
        // pools the constructor reports the shortfall instead of
        // looping.
        let p = Optimistic::new(1, 3);
        let base = Configuration::initial_with_pool(&p, &[0], 1);
        let procs: BTreeSet<ProcessId> = [ProcessId(0)].into();
        let result = construct_interruptible(
            &p,
            &base,
            BTreeSet::new(),
            procs,
            &ExcessCapacity::default(),
            &limits(),
        );
        // The lone process halts at its first poise (V starts empty, so
        // any nontrivial operation lies outside it); with nobody left
        // to cover deeper block writes the constructor must report the
        // shortfall — never panic or hang. This is the lemma's
        // process-threshold made concrete.
        let err = result.expect_err("one process is below the lemma's threshold");
        assert!(matches!(err, IeError::InsufficientProcesses(_)), "{err}");
    }

    #[test]
    fn validation_rejects_tampered_executions() {
        let p = NaiveWriteRead::new(4);
        let base = Configuration::initial_with_pool(&p, &[0], 4);
        let procs: BTreeSet<ProcessId> = (0..4).map(ProcessId).collect();
        let (mut ie, _) = construct_interruptible(
            &p,
            &base,
            BTreeSet::new(),
            procs,
            &ExcessCapacity::default(),
            &limits(),
        )
        .unwrap();
        // Claim a different decision.
        ie.decides = 1 - ie.decides;
        assert!(ie.validate(&p, &base).is_err());
    }

    #[test]
    fn excess_capacity_is_checked() {
        let p = NaiveWriteRead::new(2);
        let base = Configuration::initial_with_pool(&p, &[0], 2);
        let procs: BTreeSet<ProcessId> = [ProcessId(0)].into();
        // Demand 5 spare processes poised at the register: impossible.
        let excess = ExcessCapacity { spare: 5, watched: [ObjectId(0)].into() };
        // V = {r0} so the check applies to the very first piece.
        let err = construct_interruptible(
            &p,
            &base,
            [ObjectId(0)].into(),
            procs,
            &excess,
            &limits(),
        )
        .unwrap_err();
        assert!(matches!(err, IeError::InsufficientProcesses(_)), "{err}");
    }
}
