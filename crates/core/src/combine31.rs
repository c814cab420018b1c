//! The Lemma 3.1 combiner: cutting and splicing executions.
//!
//! Lemma 3.1 is the constructive heart of the Section 3.1 lower bound.
//! Given a configuration C with
//!
//! * a set 𝒫 of processes poised at a register set V such that, after a
//!   block write to V, some process of 𝒫 has a solo execution α
//!   deciding 0, and
//! * a disjoint set 𝒬 poised at W with the symmetric solo execution β
//!   deciding 1,
//!
//! it produces an execution from C that decides **both** values. The
//! proof is a recursion on three cases, which this module implements
//! literally (the figures refer to the paper):
//!
//! * **V ⊆ W, α's writes all inside W** (Figure 2 / the base splice of
//!   Figure 1): run `block-write(V) · α · block-write(W) · β`. The
//!   block write to W obliterates every trace of the 0-deciding run, so
//!   β proceeds as if it never happened.
//! * **V ⊆ W, α first writes some R ∉ W** (Figure 3): run α up to just
//!   before that write, leave *clones* poised to re-perform the last
//!   write to each register of V, and recurse with V' = V ∪ {R} — the
//!   write to R becomes part of the next block write.
//! * **V, W incomparable** (Figure 4): clone 𝒬's processes poised at
//!   W − V to build a block-write cover of U = V ∪ W, obtain (by
//!   nondeterministic solo termination) a solo execution γ deciding
//!   after that block write, and recurse with the γ-side replacing
//!   whichever side γ agrees with — using fresh clones whenever
//!   disjointness demands them.
//!
//! Everything happens inside a [`Weaver`], so the result is a concrete,
//! replayable execution.

use std::collections::BTreeSet;

use randsync_model::{
    Decision, Explorer, ExploreLimits, ModelError, ObjectId, ProcessId, Protocol, Step,
};

use crate::weave::Weaver;

/// One side of the combination: a block-write cover of `objects`
/// together with the solo continuation that decides `decides` after
/// the block write.
#[derive(Clone, Debug)]
pub struct Side {
    /// The block-write cover: one poised process per object, with the
    /// coin its write-step transition will consume.
    pub cover: Vec<(Step, ObjectId)>,
    /// The object set V this side's block write fixes.
    pub objects: BTreeSet<ObjectId>,
    /// The process whose solo continuation decides.
    pub solo: ProcessId,
    /// The solo continuation (steps of `solo` only), valid immediately
    /// after the block write.
    pub cont: Vec<Step>,
    /// The value the continuation decides.
    pub decides: Decision,
}

impl Side {
    /// The processes participating in this side (cover ∪ solo).
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        let mut s: BTreeSet<ProcessId> = self.cover.iter().map(|(st, _)| st.pid).collect();
        s.insert(self.solo);
        s
    }
}

/// Counters describing which proof cases fired — the quantities gate
/// `thm-3.3-adversary` bounds for Figures 3 and 4.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombineStats {
    /// Base splices performed (Figure 1/2's final combination).
    pub base_splices: usize,
    /// Subset-case splits (Figure 3): α cut at a write outside W.
    pub subset_splits: usize,
    /// Incomparable-case resolutions (Figure 4).
    pub incomparable_resolutions: usize,
    /// Clones spawned in total.
    pub clones_spawned: usize,
    /// Deepest recursion reached.
    pub max_depth: usize,
}

/// Budgets for the combiner's searches and recursion.
#[derive(Clone, Copy, Debug)]
pub struct CombineLimits {
    /// Budgets for the nondeterministic-solo-termination searches.
    pub explore: ExploreLimits,
    /// Recursion depth cap (the proof needs at most ~2r levels).
    pub max_depth: usize,
}

impl Default for CombineLimits {
    fn default() -> Self {
        CombineLimits { explore: ExploreLimits::default(), max_depth: 64 }
    }
}

/// Why a combination failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CombineError {
    /// A step could not be applied (indicates an invariant violation).
    Model(ModelError),
    /// No terminating solo execution was found within the exploration
    /// budget — either the budget is too small or the protocol does not
    /// satisfy nondeterministic solo termination.
    SoloSearchExhausted,
    /// The recursion exceeded its depth cap.
    DepthExceeded,
    /// An internal invariant failed (a bug, or a protocol outside the
    /// lemma's hypotheses).
    Internal(&'static str),
}

impl From<ModelError> for CombineError {
    fn from(e: ModelError) -> Self {
        CombineError::Model(e)
    }
}

impl core::fmt::Display for CombineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CombineError::Model(e) => write!(f, "model error during combination: {e}"),
            CombineError::SoloSearchExhausted => {
                write!(f, "no terminating solo execution found within budget")
            }
            CombineError::DepthExceeded => write!(f, "combiner recursion depth exceeded"),
            CombineError::Internal(m) => write!(f, "combiner invariant violated: {m}"),
        }
    }
}

impl std::error::Error for CombineError {}

/// Combine two sides into an inconsistent execution, appending to
/// `weaver` until its configuration decides both values.
///
/// # Errors
///
/// See [`CombineError`].
pub fn combine<P: Protocol>(
    weaver: &mut Weaver<'_, P>,
    side_a: Side,
    side_b: Side,
    limits: &CombineLimits,
    stats: &mut CombineStats,
) -> Result<(), CombineError> {
    combine_rec(weaver, side_a, side_b, limits, stats, 0)
}

fn combine_rec<P: Protocol>(
    weaver: &mut Weaver<'_, P>,
    side_a: Side,
    side_b: Side,
    limits: &CombineLimits,
    stats: &mut CombineStats,
    depth: usize,
) -> Result<(), CombineError> {
    stats.max_depth = stats.max_depth.max(depth);
    if depth > limits.max_depth {
        return Err(CombineError::DepthExceeded);
    }
    if side_a.objects.is_subset(&side_b.objects) {
        subset_case(weaver, side_a, side_b, limits, stats, depth)
    } else if side_b.objects.is_subset(&side_a.objects) {
        subset_case(weaver, side_b, side_a, limits, stats, depth)
    } else {
        incomparable_case(weaver, side_a, side_b, limits, stats, depth)
    }
}

/// V ⊆ W: either splice directly (base case, Figure 2) or cut α at its
/// first write outside W (Figure 3) and recurse.
fn subset_case<P: Protocol>(
    weaver: &mut Weaver<'_, P>,
    inner: Side,
    outer: Side,
    limits: &CombineLimits,
    stats: &mut CombineStats,
    depth: usize,
) -> Result<(), CombineError> {
    // Probe on a scratch weaver: where (if anywhere) does the inner
    // continuation first write outside `outer.objects`?
    let cut = {
        let mut scratch = weaver.clone();
        let specs = scratch.protocol().objects();
        for (step, _) in &inner.cover {
            scratch.append(*step)?;
        }
        let mut found = None;
        for (idx, step) in inner.cont.iter().enumerate() {
            let record = scratch.append(*step)?;
            if let Some((obj, op, _)) = record.op {
                if !specs[obj.0].kind.is_trivial(&op) && !outer.objects.contains(&obj) {
                    found = Some((idx, obj));
                    break;
                }
            }
        }
        found
    };

    match cut {
        None => {
            // Base case: block-write(V) · α · block-write(W) · β.
            for (step, _) in &inner.cover {
                weaver.append(*step)?;
            }
            weaver.append_all(&inner.cont)?;
            for (step, _) in &outer.cover {
                weaver.append(*step)?;
            }
            weaver.append_all(&outer.cont)?;
            stats.base_splices += 1;
            if weaver.config().is_inconsistent() {
                Ok(())
            } else {
                Err(CombineError::Internal("base splice did not decide both values"))
            }
        }
        Some((k, target)) => {
            // Figure 3: execute block-write(V) and α up to just before
            // the write to `target`, then re-arm V with clones.
            let seg_start = weaver.len();
            for (step, _) in &inner.cover {
                weaver.append(*step)?;
            }
            weaver.append_all(&inner.cont[..k])?;

            // For each register of V, the last write in [seg_start, now)
            // determines the clone to leave behind. Record every
            // (owner, upto, coin) before the first spawn: spawning
            // inserts the clone's shadow steps into the trace, which
            // shifts the positions of later writes.
            let mut specs = Vec::new();
            for &obj in &inner.objects {
                let (pos, _) = weaver
                    .last_write_before(obj, weaver.len())
                    .filter(|(pos, _)| *pos >= seg_start)
                    .ok_or(CombineError::Internal(
                        "block-written register has no write in segment",
                    ))?;
                let trace = weaver.execution();
                let steps = trace.steps();
                let owner = steps[pos].pid;
                let upto = steps[..pos].iter().filter(|s| s.pid == owner).count();
                specs.push((obj, owner, upto, steps[pos].coin));
            }
            let mut new_cover = Vec::with_capacity(specs.len() + 1);
            for (obj, owner, upto, coin) in specs {
                let clone = weaver.spawn_clone(owner, upto)?;
                stats.clones_spawned += 1;
                new_cover.push((Step::with_coin(clone, coin), obj));
            }
            // The write to `target` joins the new block write.
            new_cover.push((inner.cont[k], target));

            let mut objects = inner.objects.clone();
            objects.insert(target);
            let inner2 = Side {
                cover: new_cover,
                objects,
                solo: inner.solo,
                cont: inner.cont[k + 1..].to_vec(),
                decides: inner.decides,
            };
            stats.subset_splits += 1;
            combine_rec(weaver, inner2, outer, limits, stats, depth + 1)
        }
    }
}

/// Neither V ⊆ W nor W ⊆ V (Figure 4): build a block-write cover of
/// U = V ∪ W, obtain a deciding solo γ after it, and recurse with the
/// γ-side enlarged to U.
fn incomparable_case<P: Protocol>(
    weaver: &mut Weaver<'_, P>,
    side_a: Side,
    side_b: Side,
    limits: &CombineLimits,
    stats: &mut CombineStats,
    depth: usize,
) -> Result<(), CombineError> {
    stats.incomparable_resolutions += 1;
    let u: BTreeSet<ObjectId> =
        side_a.objects.union(&side_b.objects).copied().collect();

    // Clones of the b-side processes poised at W − V complete a's cover
    // to all of U without touching b.
    let mut extra = Vec::new();
    for (step, obj) in &side_b.cover {
        if !side_a.objects.contains(obj) {
            let upto = weaver.steps_of(step.pid);
            let clone = weaver.spawn_clone(step.pid, upto)?;
            stats.clones_spawned += 1;
            extra.push((Step::with_coin(clone, step.coin), *obj));
        }
    }
    let mut cover_u: Vec<(Step, ObjectId)> = side_a.cover.clone();
    cover_u.extend(extra.iter().cloned());

    // Probe: block-write U, then find a deciding solo by one of the
    // block writers (nondeterministic solo termination).
    let explorer = Explorer::new(limits.explore);
    let (gamma_solo, gamma, gamma_decides) = {
        let mut scratch = weaver.clone();
        for (step, _) in &cover_u {
            scratch.append(*step)?;
        }
        let mut found = None;
        for (step, _) in &cover_u {
            if let Some((exec, d)) =
                explorer.solo_deciding(scratch.protocol(), scratch.config(), step.pid)
            {
                found = Some((step.pid, exec.steps().to_vec(), d));
                break;
            }
        }
        found.ok_or(CombineError::SoloSearchExhausted)?
    };

    if gamma_decides == side_a.decides {
        // γ replaces the a-side; its cover (a's processes + fresh
        // clones) is disjoint from b.
        let side_a2 = Side {
            cover: cover_u,
            objects: u,
            solo: gamma_solo,
            cont: gamma,
            decides: gamma_decides,
        };
        combine_rec(weaver, side_a2, side_b, limits, stats, depth + 1)
    } else {
        // γ replaces the b-side; disjointness from a now demands
        // cloning a's cover processes as well. The clones re-perform
        // identical writes, so γ (discovered against the original
        // cover's values) replays verbatim, with its solo remapped to
        // the corresponding clone if necessary.
        let mut cover2 = Vec::with_capacity(cover_u.len());
        let mut remap: Vec<(ProcessId, ProcessId)> = Vec::new();
        for (step, obj) in &side_a.cover {
            let upto = weaver.steps_of(step.pid);
            let clone = weaver.spawn_clone(step.pid, upto)?;
            stats.clones_spawned += 1;
            remap.push((step.pid, clone));
            cover2.push((Step::with_coin(clone, step.coin), *obj));
        }
        cover2.extend(extra.iter().cloned());

        let mapped = |pid: ProcessId| {
            remap.iter().find(|(o, _)| *o == pid).map(|(_, c)| *c).unwrap_or(pid)
        };
        let solo2 = mapped(gamma_solo);
        let cont2: Vec<Step> = gamma
            .iter()
            .map(|s| Step::with_coin(mapped(s.pid), s.coin))
            .collect();
        let side_b2 =
            Side { cover: cover2, objects: u, solo: solo2, cont: cont2, decides: gamma_decides };
        combine_rec(weaver, side_a, side_b2, limits, stats, depth + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randsync_consensus::model_protocols::NaiveWriteRead;

    #[test]
    fn side_processes_include_solo_and_cover() {
        let side = Side {
            cover: vec![(Step::of(ProcessId(0)), ObjectId(0))],
            objects: [ObjectId(0)].into(),
            solo: ProcessId(0),
            cont: vec![],
            decides: 0,
        };
        assert_eq!(side.processes(), [ProcessId(0)].into());
    }

    #[test]
    fn default_limits_are_sane() {
        let l = CombineLimits::default();
        assert!(l.max_depth >= 8);
        assert!(l.explore.max_configs > 1000);
    }

    #[test]
    fn error_display() {
        for e in [
            CombineError::SoloSearchExhausted,
            CombineError::DepthExceeded,
            CombineError::Internal("x"),
            CombineError::Model(ModelError::NoSuchProcess(ProcessId(1))),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Drive the base splice by hand on the naive protocol: this is
    /// exactly Figure 1.
    #[test]
    fn manual_base_splice_on_naive_protocol() {
        let p = NaiveWriteRead::new(2);
        let mut w = Weaver::new(&p, vec![0, 1]);
        // Both poised at the register from the start; V = W = {r0}.
        let side0 = Side {
            cover: vec![(Step::of(ProcessId(0)), ObjectId(0))],
            objects: [ObjectId(0)].into(),
            solo: ProcessId(0),
            cont: vec![Step::of(ProcessId(0)), Step::of(ProcessId(0))], // read, decide
            decides: 0,
        };
        let side1 = Side {
            cover: vec![(Step::of(ProcessId(1)), ObjectId(0))],
            objects: [ObjectId(0)].into(),
            solo: ProcessId(1),
            cont: vec![Step::of(ProcessId(1)), Step::of(ProcessId(1))],
            decides: 1,
        };
        let mut stats = CombineStats::default();
        combine(&mut w, side0, side1, &CombineLimits::default(), &mut stats).unwrap();
        assert!(w.config().is_inconsistent());
        assert_eq!(stats.base_splices, 1);
        assert_eq!(stats.subset_splits, 0);
        assert_eq!(stats.incomparable_resolutions, 0);
        assert!(w.self_check().unwrap());
    }
}
