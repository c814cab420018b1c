//! Equivalence properties for symmetry-quotient (canonical)
//! exploration.
//!
//! The canonicalizer promises that for a protocol declaring itself
//! `Symmetric`, exploring one representative per process-permutation
//! class changes *what is counted*, never *what is true*: the
//! `is_safe()` verdict, the existence of each violation kind, the
//! valency classification of the initial configuration, and the
//! termination/cycle facts must all match a raw exploration. These
//! tests hold canonical mode to that promise across every symmetric
//! model protocol, random inputs, budgets, and parallel shapes — and
//! check permutation invariance directly: permuting the input vector
//! must not change anything canonical mode reports.

use proptest::prelude::*;
use randsync_consensus::model_protocols::{
    CasModel, MixedZigzag, NaiveWriteRead, Optimistic, PhaseModel, SwapChain, SwapTwoModel,
    TasRace, TasTwoModel, WalkBacking, WalkModel, Zigzag,
};
use randsync_model::{
    ExploreConfig, ExploreLimits, ExploreOutcome, Explorer, Protocol, Symmetry,
};

fn run<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
    threads: usize,
    canonical: bool,
) -> ExploreOutcome
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    Explorer::with_config(ExploreConfig { limits, threads, canonical, ..Default::default() })
        .explore(protocol, inputs)
}

/// Core property: raw and canonical exploration agree on every verdict.
///
/// Only applies when the raw run completes within budget — the
/// canonical run then completes too (it visits no more configurations
/// and the same depths), and all verdict fields are comparable. When
/// the raw run truncates, verdict fields are `None`/partial by design
/// and only the reduction inequality is checked.
fn check_verdicts_agree<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
    threads: usize,
) -> Result<(), TestCaseError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let raw = run(protocol, inputs, limits, threads, false);
    let canon = run(protocol, inputs, limits, threads, true);

    prop_assert!(canon.canonicalized, "protocol must declare Symmetric for this test");
    prop_assert!(
        canon.configs_visited <= raw.configs_visited,
        "quotient cannot be larger than the raw space"
    );
    prop_assert!(canon.raw_configs >= canon.configs_visited);
    prop_assert_eq!(canon.canonical_configs, canon.configs_visited);

    if raw.truncated {
        return Ok(());
    }
    prop_assert!(!canon.truncated, "canonical truncated where raw completed");
    prop_assert_eq!(raw.is_safe(), canon.is_safe(), "safety verdict diverged");
    prop_assert_eq!(
        raw.consistency_violation.is_some(),
        canon.consistency_violation.is_some(),
        "consistency-violation existence diverged"
    );
    prop_assert_eq!(
        raw.validity_violation.is_some(),
        canon.validity_violation.is_some(),
        "validity-violation existence diverged"
    );
    prop_assert_eq!(
        raw.can_always_reach_termination,
        canon.can_always_reach_termination,
        "termination reachability diverged"
    );
    prop_assert_eq!(
        raw.infinite_execution_possible,
        canon.infinite_execution_possible,
        "infinite-execution verdict diverged"
    );
    prop_assert_eq!(
        raw.terminal_configs == 0,
        canon.terminal_configs == 0,
        "terminal-config existence diverged"
    );
    Ok(())
}

/// Valency classification must agree between raw and canonical mode:
/// same initial valency, same emptiness per class, same bivalent-cycle
/// fact. (Per-class *counts* legitimately differ — that is the point of
/// the quotient.)
fn check_valency_agrees<P>(protocol: &P, inputs: &[u8]) -> Result<(), TestCaseError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let limits = ExploreLimits::default();
    let raw = Explorer::new(limits).valency(protocol, inputs);
    let canon = Explorer::new(limits).canonical(true).valency(protocol, inputs);
    match (raw, canon) {
        (Some(r), Some(c)) => {
            prop_assert_eq!(r.initial, c.initial, "initial valency diverged");
            prop_assert_eq!(r.zero_valent == 0, c.zero_valent == 0);
            prop_assert_eq!(r.one_valent == 0, c.one_valent == 0);
            prop_assert_eq!(r.bivalent == 0, c.bivalent == 0);
            prop_assert_eq!(r.stuck == 0, c.stuck == 0);
            prop_assert_eq!(r.bivalent_cycle, c.bivalent_cycle, "bivalent cycle diverged");
            prop_assert_eq!(
                r.critical_configs == 0,
                c.critical_configs == 0,
                "critical-config existence diverged"
            );
            prop_assert!(c.configs <= r.configs);
        }
        (r, c) => prop_assert!(
            r.is_none() && c.is_none(),
            "one mode truncated the valency analysis, the other did not"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The broken register protocols (Naive/Optimistic/Zigzag): the
    /// violation the raw search finds must survive the quotient, at
    /// every parallel shape.
    #[test]
    fn broken_register_protocols_agree(
        n in 2usize..=3,
        bits in prop::collection::vec(0u8..=1, 3),
        r in 1usize..=2,
        shape in 0usize..=1,
        cap in prop_oneof![Just(usize::MAX), Just(300usize)],
    ) {
        let threads = [1, 4][shape];
        let inputs = &bits[..n];
        let limits = ExploreLimits { max_configs: cap, max_depth: 10_000 };
        check_verdicts_agree(&NaiveWriteRead::new(n), inputs, limits, threads)?;
        check_verdicts_agree(&Optimistic::new(n, r), inputs, limits, threads)?;
        check_verdicts_agree(&Zigzag::new(n, r), inputs, limits, threads)?;
    }

    /// The correct protocols (CAS, 2-process swap) and the historyless
    /// adversary targets (SwapChain, TasRace, MixedZigzag).
    #[test]
    fn correct_and_historyless_protocols_agree(
        bits in prop::collection::vec(0u8..=1, 3),
        shape in 0usize..=1,
    ) {
        let threads = [1, 4][shape];
        let limits = ExploreLimits::default();
        check_verdicts_agree(&CasModel::new(3), &bits[..3], limits, threads)?;
        check_verdicts_agree(&SwapTwoModel, &bits[..2], limits, threads)?;
        check_verdicts_agree(&SwapChain::new(3), &bits[..3], limits, threads)?;
        check_verdicts_agree(&TasRace::new(2), &bits[..2], limits, threads)?;
        check_verdicts_agree(&MixedZigzag::new(2), &bits[..2], limits, threads)?;
    }

    /// The randomized protocols (coin branching): phase rounds and the
    /// random-walk counter protocol, including its cycle verdicts.
    #[test]
    fn randomized_protocols_agree(
        bits in prop::collection::vec(0u8..=1, 3),
        rounds in 1usize..=2,
        cap in prop_oneof![Just(usize::MAX), Just(2_000usize)],
    ) {
        let limits = ExploreLimits { max_configs: cap, max_depth: 10_000 };
        check_verdicts_agree(&PhaseModel::new(2, rounds), &bits[..2], limits, 1)?;
        check_verdicts_agree(
            &WalkModel::with_tight_margins(2, WalkBacking::BoundedCounter),
            &bits[..2],
            limits,
            1,
        )?;
    }

    /// Valency classification is quotient-invariant on symmetric
    /// protocols, broken and correct alike.
    #[test]
    fn valency_classification_agrees(
        a in 0u8..=1,
        b in 0u8..=1,
        rounds in 1usize..=2,
    ) {
        check_valency_agrees(&NaiveWriteRead::new(2), &[a, b])?;
        check_valency_agrees(&CasModel::new(2), &[a, b])?;
        check_valency_agrees(&PhaseModel::new(2, rounds), &[a, b])?;
    }

    /// Permutation invariance: canonical exploration must report
    /// byte-for-byte identical numbers for any permutation of the input
    /// vector — all permuted starts share one canonical representative.
    #[test]
    fn canonical_outcome_is_permutation_invariant(
        bits in prop::collection::vec(0u8..=1, 3),
    ) {
        let limits = ExploreLimits::default();
        let p = NaiveWriteRead::new(3);
        let base = run(&p, &bits, limits, 1, true);
        let mut perm = bits.clone();
        perm.rotate_left(1);
        let rot = run(&p, &perm, limits, 1, true);
        perm.swap(0, 1);
        let swp = run(&p, &perm, limits, 1, true);
        for other in [&rot, &swp] {
            prop_assert_eq!(base.configs_visited, other.configs_visited);
            prop_assert_eq!(base.raw_configs, other.raw_configs);
            prop_assert_eq!(base.terminal_configs, other.terminal_configs);
            prop_assert_eq!(base.is_safe(), other.is_safe());
            prop_assert_eq!(base.arena_bytes, other.arena_bytes);
        }
    }
}

/// Canonical mode on an *asymmetric* protocol must be a no-op: the
/// declaration gates the quotient, whatever the caller requested.
#[test]
fn asymmetric_protocols_are_never_quotiented() {
    assert_eq!(TasTwoModel.symmetry(), Symmetry::Asymmetric);
    let limits = ExploreLimits::default();
    let raw = Explorer::new(limits).explore(&TasTwoModel, &[0, 1]);
    let req = Explorer::new(limits).canonical(true).explore(&TasTwoModel, &[0, 1]);
    assert!(!req.canonicalized);
    assert_eq!(raw.configs_visited, req.configs_visited);
    assert_eq!(raw.is_safe(), req.is_safe());
}

/// Every protocol the quotient is claimed sound for actually declares
/// itself symmetric — and the broken three actually reduce on a space
/// wide enough for the reduction to matter.
#[test]
fn symmetric_declarations_and_real_reduction() {
    assert_eq!(NaiveWriteRead::new(3).symmetry(), Symmetry::Symmetric);
    assert_eq!(CasModel::new(3).symmetry(), Symmetry::Symmetric);
    assert_eq!(PhaseModel::new(3, 2).symmetry(), Symmetry::Symmetric);
    assert_eq!(SwapTwoModel.symmetry(), Symmetry::Symmetric);
    assert_eq!(
        WalkModel::with_tight_margins(2, WalkBacking::BoundedCounter).symmetry(),
        Symmetry::Symmetric
    );

    let p = PhaseModel::new(3, 2);
    let inputs = [0u8, 1, 1];
    let limits = ExploreLimits::default();
    let raw = Explorer::new(limits).explore(&p, &inputs);
    let canon = Explorer::new(limits).canonical(true).explore(&p, &inputs);
    assert!(!raw.truncated && !canon.truncated);
    assert!(
        (canon.configs_visited as f64) < 0.75 * raw.configs_visited as f64,
        "expected a real reduction: {} canonical vs {} raw",
        canon.configs_visited,
        raw.configs_visited
    );
    assert_eq!(raw.is_safe(), canon.is_safe());
}
