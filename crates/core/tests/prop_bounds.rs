//! Property tests for the closed-form bounds and the witness
//! machinery's tamper resistance.

use proptest::prelude::*;
use randsync_core::attack::{attack_identical, AttackOutcome, AttackStats};
use randsync_core::combine31::{CombineLimits, CombineStats};
use randsync_core::witness::InconsistencyWitness;
use randsync_model::Protocol;
use randsync_core::bounds::{
    composition_lower_bound, max_identical_processes, max_processes_historyless,
    min_historyless_objects, min_registers_identical, registers_upper_bound,
};

/// The Lemma 3.2 adversary's witness and its proof-case statistics;
/// an error when it finds no register inconsistency.
fn register_witness<P: Protocol>(p: &P) -> Result<(InconsistencyWitness, CombineStats), String> {
    match attack_identical(p, &CombineLimits::default()) {
        Ok(AttackOutcome::Inconsistent { witness, stats: AttackStats::Register(stats) }) => {
            Ok((witness, stats))
        }
        Ok(other) => Err(format!("no combination was needed: {other}")),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    /// The inverse functions are exact: min_objects(threshold(r)) == r
    /// and threshold(min_objects(n)) ≥ n.
    #[test]
    fn inverses_are_exact(r in 1u64..5_000) {
        prop_assert_eq!(min_registers_identical(max_identical_processes(r)), r);
        prop_assert_eq!(min_historyless_objects(max_processes_historyless(r)), r);
    }

    #[test]
    fn min_objects_is_the_least_sufficient(n in 1u64..2_000_000) {
        let r = min_historyless_objects(n);
        prop_assert!(max_processes_historyless(r) >= n);
        if r > 1 {
            prop_assert!(max_processes_historyless(r - 1) < n);
        }
        let ri = min_registers_identical(n);
        prop_assert!(max_identical_processes(ri) >= n);
        if ri > 1 {
            prop_assert!(max_identical_processes(ri - 1) < n);
        }
    }

    /// Monotonicity of every bound.
    #[test]
    fn bounds_are_monotone(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(min_historyless_objects(lo) <= min_historyless_objects(hi));
        prop_assert!(min_registers_identical(lo) <= min_registers_identical(hi));
        prop_assert!(registers_upper_bound(lo) <= registers_upper_bound(hi));
    }

    /// The √ envelope: (r−1)·r·3 < n implies r objects may be needed —
    /// concretely, min_historyless_objects(n)² ≤ n and
    /// 3·(min+1)² + (min+1) > n.
    #[test]
    fn sqrt_envelope(n in 4u64..4_000_000) {
        let r = min_historyless_objects(n);
        prop_assert!(3 * r * r + r >= n, "threshold covers n");
        prop_assert!((r as f64) <= (n as f64).sqrt() + 1.0);
        prop_assert!((r as f64) >= ((n as f64) / 3.0).sqrt() - 1.0);
    }

    /// Theorem 2.1 arithmetic: h = ceil(g/f) satisfies f·h ≥ g and is
    /// the least such integer.
    #[test]
    fn composition_is_least_sufficient(g in 0u64..1_000_000, f in 1u64..1_000) {
        let h = composition_lower_bound(g, f);
        prop_assert!(f * h >= g);
        if h > 0 {
            prop_assert!(f * (h - 1) < g);
        }
    }

    /// The lower bound never exceeds the upper bound (no contradiction
    /// between Theorem 3.7 and the O(n) construction).
    #[test]
    fn lower_never_exceeds_upper(n in 1u64..10_000_000) {
        prop_assert!(min_historyless_objects(n) <= registers_upper_bound(n));
    }
}

mod witness_tampering {
    use proptest::prelude::*;
    use randsync_consensus::model_protocols::Optimistic;
    use super::register_witness;
    use randsync_model::{Execution, Step};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Dropping any suffix of a witness execution destroys it: the
        /// attack's executions contain no wasted tail (the deciding
        /// steps are at the very end, as the construction dictates).
        #[test]
        fn truncated_witnesses_fail_verification(
            r in 1usize..4,
            cut in 1usize..4,
        ) {
            let p = Optimistic::new(2, r);
            let (witness, _) =
                register_witness(&p).unwrap();
            let len = witness.execution.len();
            prop_assume!(cut < len);
            let mut tampered = witness.clone();
            tampered.execution =
                Execution::from_steps(witness.execution.steps()[..len - cut].to_vec());
            prop_assert!(tampered.verify(&p).is_err());
        }

        /// Injecting a bogus step makes verification fail-closed rather
        /// than panic.
        #[test]
        fn corrupted_witnesses_fail_closed(
            r in 1usize..4,
            at in any::<prop::sample::Index>(),
        ) {
            let p = Optimistic::new(2, r);
            let (witness, _) =
                register_witness(&p).unwrap();
            let mut steps = witness.execution.steps().to_vec();
            let pos = at.index(steps.len());
            steps.insert(pos, Step::of(randsync_model::ProcessId(usize::MAX / 2)));
            let mut tampered = witness.clone();
            tampered.execution = Execution::from_steps(steps);
            prop_assert!(tampered.verify(&p).is_err());
        }
    }
}

mod witness_shrinking {
    use proptest::prelude::*;
    use randsync_consensus::model_protocols::{Optimistic, Zigzag};
    use super::register_witness;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Shrinking never breaks a witness: after deleting steps and
        /// commuting independent neighbors, the minimized schedule
        /// still fails consensus (verify succeeds in proving the
        /// double decision), every removed step is accounted for, the
        /// shrink is idempotent, and the minimized flight trace is
        /// bit-identical across replays.
        #[test]
        fn minimized_witnesses_still_verify(
            r in 1usize..4,
            zig in any::<bool>(),
        ) {
            macro_rules! check {
                ($p:expr) => {{
                    let p = $p;
                    let (min, stats) = register_witness(&p)
                        .unwrap()
                        .0
                        .minimize_report(&p)
                        .unwrap();
                    // The shrunk schedule is still a real counterexample.
                    prop_assert!(min.verify(&p).is_ok(), "minimized witness broke");
                    // Idempotence: a second shrink finds nothing to do.
                    let (again, s2) = min.minimize_report(&p).unwrap();
                    prop_assert_eq!(s2.deleted, 0, "first shrink left dead steps");
                    prop_assert_eq!(again.execution.len(), min.execution.len());
                    // Replays are bit-identical: the flight trace is a
                    // pure function of the witness.
                    let t1 = min.flight_trace("shrunk", 2, r);
                    let t2 = min.flight_trace("shrunk", 2, r);
                    prop_assert_eq!(t1, t2, "flight trace not deterministic");
                    stats
                }};
            }
            if zig {
                check!(Zigzag::new(2, r));
            } else {
                check!(Optimistic::new(2, r));
            }
        }
    }
}
