//! Private-mixing consensus: local coin walks feeding one compare&swap.
//!
//! Each process "mixes" its **own** bounded counter for `r` steps —
//! every step increments or decrements according to a fresh local coin
//! flip — and then races everyone else on a single one-shot
//! `CAS(⊥ → input)` cell, deciding whatever the cell holds afterwards.
//! The preference carried into the CAS is always the process's *input*,
//! so validity is structural; agreement comes from the CAS alone,
//! exactly as in Herlihy's construction ([`crate::model_protocols::cas_model`]).
//!
//! The protocol is correct but deliberately *state-space heavy*: the
//! mixing phases of different processes touch disjoint objects, so the
//! raw reachable space is the full interleaving lattice of the private
//! walks (exponential in `n·r`) while only a single Mazurkiewicz class
//! matters. That makes it the showcase workload for the explorer's
//! partial-order reduction ([`ExploreConfig::por`]): the footprint rule
//! serializes the mixing phase into one chain per coin history and the
//! shared CAS phase is left fully expanded.
//!
//! [`ExploreConfig::por`]: randsync_model::ExploreConfig

use randsync_model::{
    Action, Decision, ObjectId, ObjectKind, ObjectSpec, Operation, ProcessId, Protocol,
    Response, Value,
};

/// The private-mixing protocol for `n` processes with `r` mixing steps.
#[derive(Clone, Debug)]
pub struct LocalCoinModel {
    n: usize,
    r: u32,
}

impl LocalCoinModel {
    /// An instance for `n` processes, each mixing for `r` steps.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `r == 0`.
    pub fn new(n: usize, r: u32) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(r > 0, "need at least one mixing step");
        LocalCoinModel { n, r }
    }

    /// The shared decision cell (the last object).
    fn cell(&self) -> ObjectId {
        ObjectId(self.n)
    }
}

/// State of a [`LocalCoinModel`] process.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LocalCoinState {
    /// Walking the private counter: `left` steps remain, the next one
    /// moves `up` or down.
    Mix {
        /// Which process (and hence which private counter) this is.
        pid: usize,
        /// Mixing steps remaining (strictly decreasing — the state
        /// machine is acyclic).
        left: u32,
        /// Direction of the next counter step.
        up: bool,
        /// The input, carried through to the CAS.
        pref: Decision,
    },
    /// About to attempt `CAS(⊥ → pref)` on the shared cell.
    Propose(Decision),
    /// Decided.
    Done(Decision),
}

impl Protocol for LocalCoinModel {
    type State = LocalCoinState;

    fn objects(&self) -> Vec<ObjectSpec> {
        // Bounded counters keep the value domain finite so the POR
        // footprint analysis stays exact (an unbounded Counter would
        // overflow the abstract-value cap and forfeit the reduction).
        let mut v: Vec<ObjectSpec> = (0..self.n)
            .map(|i| {
                ObjectSpec::new(
                    ObjectKind::BoundedCounter { lo: 0, hi: self.r as i64 },
                    format!("mix{i}"),
                )
            })
            .collect();
        v.push(ObjectSpec::new(ObjectKind::CompareSwap, "decision"));
        v
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn initial_state(&self, pid: ProcessId, input: Decision) -> LocalCoinState {
        LocalCoinState::Mix { pid: pid.0, left: self.r, up: true, pref: input }
    }

    fn action(&self, s: &LocalCoinState) -> Action {
        match s {
            LocalCoinState::Mix { pid, up, .. } => Action::Invoke {
                object: ObjectId(*pid),
                op: if *up { Operation::Inc } else { Operation::Dec },
            },
            LocalCoinState::Propose(d) => Action::Invoke {
                object: self.cell(),
                op: Operation::CompareSwap {
                    expected: Value::Bottom,
                    new: Value::Int(*d as i64),
                },
            },
            LocalCoinState::Done(d) => Action::Decide(*d),
        }
    }

    fn coin_domain(&self, s: &LocalCoinState, _resp: &Response) -> u32 {
        // A fresh direction is flipped after every mixing step that
        // still has a successor step.
        match s {
            LocalCoinState::Mix { left, .. } if *left > 1 => 2,
            _ => 1,
        }
    }

    fn transition(&self, s: &LocalCoinState, resp: &Response, coin: u32) -> LocalCoinState {
        match s {
            LocalCoinState::Mix { pid, left, pref, .. } if *left > 1 => LocalCoinState::Mix {
                pid: *pid,
                left: left - 1,
                up: coin == 1,
                pref: *pref,
            },
            LocalCoinState::Mix { pref, .. } => LocalCoinState::Propose(*pref),
            LocalCoinState::Propose(d) => match resp.value() {
                // ⊥ came back: our CAS installed `d`.
                Some(Value::Bottom) => LocalCoinState::Done(*d),
                // Someone beat us: adopt the installed value.
                Some(v) => {
                    LocalCoinState::Done(v.as_int().unwrap_or(0).clamp(0, 1) as Decision)
                }
                None => LocalCoinState::Done(*d),
            },
            done => done.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randsync_model::Explorer;

    #[test]
    fn model_checked_safe_for_small_instances() {
        for (n, r) in [(2, 2), (2, 3), (3, 2)] {
            let p = LocalCoinModel::new(n, r);
            let inputs: Vec<Decision> = (0..n).map(|i| (i % 2) as Decision).collect();
            let out = Explorer::default().explore(&p, &inputs);
            assert!(!out.truncated, "n={n} r={r}");
            assert!(out.is_safe(), "n={n} r={r}");
            assert_eq!(out.can_always_reach_termination, Some(true), "n={n} r={r}");
        }
    }

    #[test]
    fn por_preserves_verdicts_and_earns_its_keep() {
        let p = LocalCoinModel::new(2, 4);
        let raw = Explorer::default().explore(&p, &[0, 1]);
        let por = Explorer::default().por(true).explore(&p, &[0, 1]);
        assert!(!raw.truncated && !por.truncated);
        assert_eq!(raw.is_safe(), por.is_safe());
        assert_eq!(raw.can_always_reach_termination, por.can_always_reach_termination);
        assert_eq!(raw.infinite_execution_possible, por.infinite_execution_possible);
        assert!(por.por_pruned > 0, "private mixing must prune");
        let reduction = raw.configs_visited as f64 / por.configs_visited as f64;
        assert!(
            reduction > 1.5,
            "reduction {reduction:.2}x (raw {} vs por {})",
            raw.configs_visited,
            por.configs_visited
        );
        assert_eq!(por.por_fallbacks, 0, "the state machine is acyclic");
    }

    #[test]
    fn por_valency_matches_raw() {
        let p = LocalCoinModel::new(2, 3);
        let raw = Explorer::default().valency(&p, &[0, 1]).expect("not truncated");
        let por = Explorer::default().por(true).valency(&p, &[0, 1]).expect("not truncated");
        assert_eq!(raw.initial, por.initial);
        assert_eq!(raw.bivalent_cycle, por.bivalent_cycle);
        assert!(por.configs <= raw.configs);
    }

    #[test]
    fn best_first_exhausts_the_safe_space_without_a_witness() {
        let p = LocalCoinModel::new(2, 2);
        let bad = |c: &randsync_model::Configuration<LocalCoinState>| c.is_inconsistent();
        let (w, truncated) = Explorer::default().guided_violation(&p, &[0, 1], bad);
        assert!(w.is_none());
        assert!(!truncated);
    }
}
