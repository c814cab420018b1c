//! Equivalence properties for partial-order-reduced exploration.
//!
//! The POR layer promises that pruning enabled moves down to an ample
//! subset changes *what is counted*, never *what is true*: pruned
//! interleavings are Mazurkiewicz-equivalent to retained ones, so the
//! `is_safe()` verdict, the existence of each violation kind, the
//! valency classification of the initial configuration, and the
//! termination/cycle facts must all match a raw exploration. These
//! tests hold `ExploreConfig::por` to that promise across the registry
//! protocols, random inputs, budgets, and parallel shapes; check that
//! the reduction composes with the symmetry quotient (`--canonical`);
//! and check that the best-first guided mode returns schedules the
//! configuration algebra replays deterministically.

use proptest::prelude::*;
use randsync_consensus::model_protocols::{
    CasModel, FetchIncTwoModel, LocalCoinModel, MixedZigzag, NaiveWriteRead, Optimistic,
    PhaseModel, SwapChain, SwapTwoModel, TasRace, TasTwoModel, WalkBacking, WalkModel, Zigzag,
};
use randsync_model::{
    Configuration, ExploreConfig, ExploreLimits, ExploreOutcome, Explorer, Protocol,
};

fn run<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
    threads: usize,
    por: bool,
    canonical: bool,
) -> ExploreOutcome
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    Explorer::with_config(ExploreConfig {
        limits,
        threads,
        canonical,
        por,
        ..Default::default()
    })
    .explore(protocol, inputs)
}

/// Core property: raw and reduced exploration agree on every verdict.
///
/// Only applies when the raw run completes within budget — the reduced
/// run then completes too (it visits no more configurations and the
/// same depths), and all verdict fields are comparable. When the raw
/// run truncates, verdict fields are `None`/partial by design and only
/// the reduction inequality is checked.
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
    let raw = run(protocol, inputs, limits, threads, false, false);
    let red = run(protocol, inputs, limits, threads, true, false);

    prop_assert!(red.por_enabled, "POR was requested but did not engage");
    prop_assert!(!raw.por_enabled, "raw run must not report POR");
    prop_assert!(
        red.configs_visited <= raw.configs_visited,
        "reduced space cannot be larger than the raw space"
    );

    if raw.truncated {
        return Ok(());
    }
    prop_assert!(!red.truncated, "POR truncated where raw completed");
    prop_assert_eq!(raw.is_safe(), red.is_safe(), "safety verdict diverged");
    prop_assert_eq!(
        raw.consistency_violation.is_some(),
        red.consistency_violation.is_some(),
        "consistency-violation existence diverged"
    );
    prop_assert_eq!(
        raw.validity_violation.is_some(),
        red.validity_violation.is_some(),
        "validity-violation existence diverged"
    );
    prop_assert_eq!(
        raw.can_always_reach_termination,
        red.can_always_reach_termination,
        "termination reachability diverged"
    );
    prop_assert_eq!(
        raw.infinite_execution_possible,
        red.infinite_execution_possible,
        "infinite-execution verdict diverged"
    );
    prop_assert_eq!(
        raw.terminal_configs == 0,
        red.terminal_configs == 0,
        "terminal-config existence diverged"
    );
    Ok(())
}

/// Valency classification must agree between raw and reduced mode: same
/// initial valency, same emptiness per class, same bivalent-cycle fact.
/// (Per-class *counts* legitimately differ — that is the point of the
/// reduction.)
fn check_valency_agrees<P>(protocol: &P, inputs: &[u8]) -> Result<(), TestCaseError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let limits = ExploreLimits::default();
    let raw = Explorer::new(limits).valency(protocol, inputs);
    let red = Explorer::new(limits).por(true).valency(protocol, inputs);
    match (raw, red) {
        (Some(r), Some(p)) => {
            prop_assert_eq!(r.initial, p.initial, "initial valency diverged");
            prop_assert_eq!(r.zero_valent == 0, p.zero_valent == 0);
            prop_assert_eq!(r.one_valent == 0, p.one_valent == 0);
            prop_assert_eq!(r.bivalent == 0, p.bivalent == 0);
            prop_assert_eq!(r.stuck == 0, p.stuck == 0);
            prop_assert_eq!(r.bivalent_cycle, p.bivalent_cycle, "bivalent cycle diverged");
            prop_assert_eq!(
                r.critical_configs == 0,
                p.critical_configs == 0,
                "critical-config existence diverged"
            );
            prop_assert!(p.configs <= r.configs);
        }
        (r, p) => prop_assert!(
            r.is_none() && p.is_none(),
            "one mode truncated the valency analysis, the other did not"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The broken register protocols (Naive/Optimistic/Zigzag): the
    /// violation the raw search finds must survive the reduction, at
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

    /// The correct protocols (CAS, the 2-process pairs) and the
    /// historyless adversary targets (SwapChain, TasRace, MixedZigzag)
    /// — including the asymmetric ones, which POR handles and the
    /// symmetry quotient must skip.
    #[test]
    fn correct_and_historyless_protocols_agree(
        bits in prop::collection::vec(0u8..=1, 3),
        shape in 0usize..=1,
    ) {
        let threads = [1, 4][shape];
        let limits = ExploreLimits::default();
        check_verdicts_agree(&CasModel::new(3), &bits[..3], limits, threads)?;
        check_verdicts_agree(&SwapTwoModel, &bits[..2], limits, threads)?;
        check_verdicts_agree(&TasTwoModel, &bits[..2], limits, threads)?;
        check_verdicts_agree(&FetchIncTwoModel, &bits[..2], limits, threads)?;
        check_verdicts_agree(&SwapChain::new(3), &bits[..3], limits, threads)?;
        check_verdicts_agree(&TasRace::new(2), &bits[..2], limits, threads)?;
        check_verdicts_agree(&MixedZigzag::new(2), &bits[..2], limits, threads)?;
    }

    /// The randomized protocols (coin branching): phase rounds, the
    /// random-walk counter protocol with its cycle verdicts, and the
    /// private-mixing protocol POR was built to collapse.
    #[test]
    fn randomized_protocols_agree(
        bits in prop::collection::vec(0u8..=1, 3),
        rounds in 1usize..=2,
        mix in 2u32..=4,
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
        check_verdicts_agree(&LocalCoinModel::new(2, mix), &bits[..2], limits, 1)?;
    }

    /// Valency classification is reduction-invariant, broken and
    /// correct alike.
    #[test]
    fn valency_classification_agrees(
        a in 0u8..=1,
        b in 0u8..=1,
        rounds in 1usize..=2,
        mix in 2u32..=3,
    ) {
        check_valency_agrees(&NaiveWriteRead::new(2), &[a, b])?;
        check_valency_agrees(&CasModel::new(2), &[a, b])?;
        check_valency_agrees(&PhaseModel::new(2, rounds), &[a, b])?;
        check_valency_agrees(&LocalCoinModel::new(2, mix), &[a, b])?;
    }

    /// POR composes with the symmetry quotient: requesting both on a
    /// symmetric protocol keeps every verdict intact and visits no more
    /// configurations than the quotient alone.
    #[test]
    fn por_composes_with_canonical(
        bits in prop::collection::vec(0u8..=1, 3),
        rounds in 1usize..=2,
    ) {
        let limits = ExploreLimits::default();
        for (raw, both) in [
            {
                let p = NaiveWriteRead::new(3);
                (run(&p, &bits, limits, 1, false, false), run(&p, &bits, limits, 1, true, true))
            },
            {
                let p = PhaseModel::new(2, rounds);
                (
                    run(&p, &bits[..2], limits, 1, false, false),
                    run(&p, &bits[..2], limits, 1, true, true),
                )
            },
        ] {
            prop_assert!(both.por_enabled && both.canonicalized);
            prop_assert!(both.configs_visited <= raw.configs_visited);
            prop_assert!(!raw.truncated && !both.truncated);
            prop_assert_eq!(raw.is_safe(), both.is_safe());
            prop_assert_eq!(
                raw.consistency_violation.is_some(),
                both.consistency_violation.is_some()
            );
            prop_assert_eq!(
                raw.validity_violation.is_some(),
                both.validity_violation.is_some()
            );
            prop_assert_eq!(raw.terminal_configs == 0, both.terminal_configs == 0);
        }
    }

    /// Best-first guided search: whenever raw BFS proves a protocol
    /// inconsistent, the guided mode finds a witness schedule too, and
    /// that schedule replays deterministically — two replays from the
    /// initial configuration land on the same inconsistent state.
    #[test]
    fn best_first_witnesses_replay_deterministically(
        n in 2usize..=3,
        bits in prop::collection::vec(0u8..=1, 3),
        r in 1usize..=2,
    ) {
        let inputs = &bits[..n];
        // Only mixed inputs can produce an inconsistency witness.
        prop_assume!(inputs.contains(&0) && inputs.contains(&1));
        let p = Optimistic::new(n, r);
        let bad = |c: &Configuration<_>| c.is_inconsistent();
        let (guided, truncated) = Explorer::default().guided_violation(&p, inputs, bad);
        prop_assert!(!truncated);
        let exec = guided.expect("optimistic register consensus is inconsistent");
        let start = Configuration::initial(&p, inputs);
        let (end_a, trace_a) = exec.replay(&p, &start).expect("witness replays");
        let (end_b, trace_b) = exec.replay(&p, &start).expect("witness replays twice");
        prop_assert!(end_a.is_inconsistent());
        prop_assert_eq!(format!("{end_a:?}"), format!("{end_b:?}"), "replay diverged");
        prop_assert_eq!(trace_a.len(), trace_b.len());
        // Exhaustive BFS agrees on existence (witness shapes may differ).
        let (bfs, _) = Explorer::default().find_violation(&p, inputs, bad);
        prop_assert!(bfs.is_some());
    }
}

/// The showcase reduction: private coin mixing before a shared CAS.
/// Every mixing step is independent of every other process's, so the
/// reduced space must collapse the interleaving lattice — by well over
/// the 1.5× the benchmarks advertise — while agreeing on safety.
#[test]
fn local_coin_reduction_is_real_and_sound() {
    let p = LocalCoinModel::new(2, 4);
    let inputs = [0u8, 1];
    let limits = ExploreLimits::default();
    let raw = run(&p, &inputs, limits, 1, false, false);
    let red = run(&p, &inputs, limits, 1, true, false);
    assert!(!raw.truncated && !red.truncated);
    assert!(red.por_pruned > 0, "no moves pruned on the showcase protocol");
    assert!(
        (red.configs_visited as f64) * 1.5 < raw.configs_visited as f64,
        "expected a real reduction: {} reduced vs {} raw",
        red.configs_visited,
        raw.configs_visited
    );
    assert_eq!(raw.is_safe(), red.is_safe());
    assert!(red.is_safe(), "localcoin is a correct consensus protocol");
}
