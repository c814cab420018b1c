//! Section 4: the separation between deterministic and randomized
//! power, as queryable data.
//!
//! The deterministic "wait-free hierarchy" ranks primitives by the
//! largest n for which they solve n-process consensus deterministically
//! (Herlihy \[20\]). The paper's randomized measure ranks them instead by
//! the **number of object instances** required for randomized
//! n-process consensus. The two orders disagree — that disagreement is
//! the paper's headline:
//!
//! * *swap* and *fetch&add* both have deterministic consensus number 2,
//!   yet one fetch&add register solves randomized n-consensus
//!   (Theorem 4.4) while Ω(√n) swap registers are needed
//!   (Theorem 3.7);
//! * *compare&swap* (deterministically universal) and *fetch&add*
//!   (deterministically weak) are **equivalent** under the randomized
//!   measure: one instance each.

use randsync_model::ObjectKind;

use crate::bounds::{min_historyless_objects, registers_upper_bound};

/// The deterministic consensus number of a primitive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConsensusNumber {
    /// Solves deterministic wait-free consensus for exactly this many
    /// processes.
    Finite(u64),
    /// Solves deterministic consensus for any number of processes
    /// (Herlihy's "universal" level, e.g. compare&swap).
    Infinite,
}

impl core::fmt::Display for ConsensusNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConsensusNumber::Finite(k) => write!(f, "{k}"),
            ConsensusNumber::Infinite => write!(f, "∞"),
        }
    }
}

/// An asymptotic space bound, evaluable at a concrete n.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpaceBound {
    /// A constant number of instances.
    Constant(u64),
    /// Θ(√n) instances (evaluated as the paper's exact threshold
    /// inverse).
    SqrtN,
    /// O(n) instances.
    LinearN,
}

impl SpaceBound {
    /// Evaluate the bound for `n` processes.
    pub fn eval(&self, n: u64) -> u64 {
        match self {
            SpaceBound::Constant(c) => *c,
            SpaceBound::SqrtN => min_historyless_objects(n),
            SpaceBound::LinearN => registers_upper_bound(n),
        }
    }
}

impl core::fmt::Display for SpaceBound {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpaceBound::Constant(c) => write!(f, "{c}"),
            SpaceBound::SqrtN => write!(f, "Θ(√n)"),
            SpaceBound::LinearN => write!(f, "O(n)"),
        }
    }
}

/// One row of the separation table.
#[derive(Clone, Debug)]
pub struct PrimitiveProfile {
    /// The primitive.
    pub kind: ObjectKind,
    /// Whether it is historyless (the lower bound's hypothesis).
    pub historyless: bool,
    /// Its deterministic consensus number.
    pub consensus_number: ConsensusNumber,
    /// Instances sufficient for randomized n-process consensus.
    pub randomized_upper: SpaceBound,
    /// Instances necessary for randomized n-process consensus.
    pub randomized_lower: SpaceBound,
    /// Where the bounds come from.
    pub provenance: &'static str,
}

impl PrimitiveProfile {
    /// Whether upper and lower bounds match asymptotically at `n`
    /// within the paper's gap (√n lower vs n upper for historyless —
    /// the paper conjectures Θ(n)).
    pub fn bounds_consistent(&self, n: u64) -> bool {
        self.randomized_lower.eval(n) <= self.randomized_upper.eval(n)
    }
}

/// The Section 4 separation table, one row per primitive the paper
/// discusses.
pub fn separation_table() -> Vec<PrimitiveProfile> {
    vec![
        PrimitiveProfile {
            kind: ObjectKind::Register,
            historyless: true,
            consensus_number: ConsensusNumber::Finite(1),
            randomized_upper: SpaceBound::LinearN,
            randomized_lower: SpaceBound::SqrtN,
            provenance: "upper: Aspnes-Herlihy [9] / our snapshot-counter walk; \
                         lower: Theorem 3.7",
        },
        PrimitiveProfile {
            kind: ObjectKind::SwapRegister,
            historyless: true,
            consensus_number: ConsensusNumber::Finite(2),
            randomized_upper: SpaceBound::LinearN,
            randomized_lower: SpaceBound::SqrtN,
            provenance: "upper: swap subsumes read-write; lower: Theorem 3.7 — \
                         the paper's headline separation vs fetch&add",
        },
        PrimitiveProfile {
            kind: ObjectKind::TestAndSet,
            historyless: true,
            consensus_number: ConsensusNumber::Finite(2),
            randomized_upper: SpaceBound::LinearN,
            randomized_lower: SpaceBound::SqrtN,
            provenance: "upper: O(n·w) flags simulate registers (with READ); \
                         lower: Theorem 3.7",
        },
        PrimitiveProfile {
            kind: ObjectKind::FetchAdd,
            historyless: false,
            consensus_number: ConsensusNumber::Finite(2),
            randomized_upper: SpaceBound::Constant(1),
            randomized_lower: SpaceBound::Constant(1),
            provenance: "Theorem 4.4 (one fetch&add register suffices)",
        },
        PrimitiveProfile {
            kind: ObjectKind::FetchIncrement,
            historyless: false,
            consensus_number: ConsensusNumber::Finite(2),
            randomized_upper: SpaceBound::Constant(1),
            randomized_lower: SpaceBound::Constant(1),
            provenance: "Theorem 4.4",
        },
        PrimitiveProfile {
            kind: ObjectKind::FetchDecrement,
            historyless: false,
            consensus_number: ConsensusNumber::Finite(2),
            randomized_upper: SpaceBound::Constant(1),
            randomized_lower: SpaceBound::Constant(1),
            provenance: "Theorem 4.4",
        },
        PrimitiveProfile {
            kind: ObjectKind::Counter,
            historyless: false,
            consensus_number: ConsensusNumber::Finite(1),
            randomized_upper: SpaceBound::Constant(1),
            randomized_lower: SpaceBound::Constant(1),
            provenance: "Theorem 4.2 (Aspnes): one bounded counter suffices",
        },
        PrimitiveProfile {
            kind: ObjectKind::BoundedCounter { lo: -6, hi: 6 },
            historyless: false,
            consensus_number: ConsensusNumber::Finite(1),
            randomized_upper: SpaceBound::Constant(1),
            randomized_lower: SpaceBound::Constant(1),
            provenance: "Theorem 4.2",
        },
        PrimitiveProfile {
            kind: ObjectKind::CompareSwap,
            historyless: false,
            consensus_number: ConsensusNumber::Infinite,
            randomized_upper: SpaceBound::Constant(1),
            randomized_lower: SpaceBound::Constant(1),
            provenance: "Herlihy [20, Thm 5]: one bounded CAS register, \
                         deterministically",
        },
    ]
}

/// Corollaries 4.1 / 4.3 / 4.5: the number of historyless objects
/// needed by any randomized non-blocking implementation of `target`
/// for `n` processes. `None` when the paper's argument does not apply
/// (i.e. no single instance of `target` solves randomized consensus).
pub fn implementation_lower_bound(target: ObjectKind, n: u64) -> Option<u64> {
    let single_instance_suffices = matches!(
        target,
        ObjectKind::CompareSwap
            | ObjectKind::Counter
            | ObjectKind::BoundedCounter { .. }
            | ObjectKind::FetchAdd
            | ObjectKind::FetchIncrement
            | ObjectKind::FetchDecrement
    );
    single_instance_suffices.then(|| min_historyless_objects(n))
}

/// Render the separation table for `n` processes, evaluating the
/// asymptotic bounds (used by `randsync table` and the
/// `space_separation` example).
pub fn render_table(n: u64) -> String {
    use core::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<28} {:>12} {:>12} {:>10} {:>10}",
        "primitive", "historyless", "det. cons#", "rand ≤", "rand ≥"
    );
    for p in separation_table() {
        let _ = writeln!(
            s,
            "{:<28} {:>12} {:>12} {:>10} {:>10}",
            p.kind.name(),
            p.historyless,
            p.consensus_number.to_string(),
            p.randomized_upper.eval(n),
            p.randomized_lower.eval(n),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn historyless_flags_match_the_kind_algebra() {
        for p in separation_table() {
            assert_eq!(p.historyless, p.kind.is_historyless(), "{}", p.kind.name());
        }
    }

    #[test]
    fn the_headline_separation_swap_vs_fetch_add() {
        let table = separation_table();
        let swap = table.iter().find(|p| p.kind == ObjectKind::SwapRegister).unwrap();
        let fa = table.iter().find(|p| p.kind == ObjectKind::FetchAdd).unwrap();
        // Same deterministic power...
        assert_eq!(swap.consensus_number, fa.consensus_number);
        // ...different randomized space, and the gap grows with n.
        for n in [16u64, 256, 4096] {
            assert_eq!(fa.randomized_lower.eval(n), 1);
            assert!(swap.randomized_lower.eval(n) > fa.randomized_lower.eval(n));
        }
        assert!(swap.randomized_lower.eval(4096) > swap.randomized_lower.eval(16));
    }

    #[test]
    fn cas_and_fetch_add_are_equivalent_randomized() {
        let table = separation_table();
        let cas = table.iter().find(|p| p.kind == ObjectKind::CompareSwap).unwrap();
        let fa = table.iter().find(|p| p.kind == ObjectKind::FetchAdd).unwrap();
        // Deterministically incomparable...
        assert_eq!(cas.consensus_number, ConsensusNumber::Infinite);
        assert_eq!(fa.consensus_number, ConsensusNumber::Finite(2));
        // ...randomized-space equivalent (Theorem 4.4's point).
        for n in [4u64, 64, 1024] {
            assert_eq!(cas.randomized_upper.eval(n), fa.randomized_upper.eval(n));
        }
    }

    #[test]
    fn every_row_has_consistent_bounds() {
        let table = separation_table();
        for p in &table {
            for n in [2u64, 10, 100, 10_000] {
                assert!(p.bounds_consistent(n), "{} at n={n}", p.kind.name());
            }
            // Historyless rows need Θ(√n) instances; every other row
            // solves consensus with one.
            if p.historyless {
                assert_eq!(p.randomized_lower, SpaceBound::SqrtN, "{}", p.kind.name());
            } else {
                assert_eq!(p.randomized_upper, SpaceBound::Constant(1), "{}", p.kind.name());
            }
        }
        // The randomized measure inverts the deterministic order:
        // counter is below swap deterministically, far above it here.
        let counter = table.iter().find(|p| p.kind == ObjectKind::Counter).unwrap();
        let swap = table.iter().find(|p| p.kind == ObjectKind::SwapRegister).unwrap();
        assert_eq!(counter.consensus_number, ConsensusNumber::Finite(1));
        assert_eq!(swap.consensus_number, ConsensusNumber::Finite(2));
        assert!(counter.randomized_upper.eval(1024) < swap.randomized_lower.eval(1024));
    }

    #[test]
    fn corollaries_apply_exactly_to_single_instance_solvers() {
        assert!(implementation_lower_bound(ObjectKind::CompareSwap, 100).is_some());
        assert!(implementation_lower_bound(ObjectKind::Counter, 100).is_some());
        assert!(implementation_lower_bound(ObjectKind::FetchAdd, 100).is_some());
        assert!(implementation_lower_bound(ObjectKind::Register, 100).is_none());
        assert!(implementation_lower_bound(ObjectKind::SwapRegister, 100).is_none());
        assert_eq!(
            implementation_lower_bound(ObjectKind::FetchAdd, 10_000),
            Some(min_historyless_objects(10_000))
        );
    }

    #[test]
    fn rendered_table_mentions_every_primitive() {
        let s = render_table(1024);
        for p in separation_table() {
            assert!(s.contains(p.kind.name()), "missing {}", p.kind.name());
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(ConsensusNumber::Infinite.to_string(), "∞");
        assert_eq!(ConsensusNumber::Finite(2).to_string(), "2");
        assert_eq!(SpaceBound::Constant(1).to_string(), "1");
        assert_eq!(SpaceBound::SqrtN.to_string(), "Θ(√n)");
        assert_eq!(SpaceBound::LinearN.to_string(), "O(n)");
    }
}
