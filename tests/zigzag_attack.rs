//! Integration: the zigzag protocol drives the Lemma 3.1 recursion
//! through its Figure 4 (incomparable object sets) case.

use randsync::consensus::model_protocols::Zigzag;
use randsync::core::attack::{attack_identical, AttackOutcome, AttackStats};
use randsync::core::combine31::{CombineLimits, CombineStats};
use randsync::core::witness::InconsistencyWitness;
use randsync::model::Protocol;

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

#[test]
fn zigzag_attack_exercises_the_incomparable_case() {
    for r in 2..=12usize {
        let p = Zigzag::new(2, r);
        let (witness, stats) = register_witness(&p)
            .unwrap_or_else(|e| panic!("r={r}: {e}"));
        witness.verify(&p).unwrap();
        // Lemma 3.1 bounds the unminimized construction by r² − r + 2.
        assert!(
            witness.processes_used <= r * r - r + 2,
            "r={r}: {} processes exceed r² − r + 2",
            witness.processes_used
        );
        assert!(
            stats.incomparable_resolutions > 0,
            "r={r}: zigzag first-writes diverge, Figure 4 must fire; got {stats:?}"
        );
    }
}

#[test]
fn zigzag_with_one_register_degenerates_to_the_subset_case() {
    let p = Zigzag::new(2, 1);
    let (witness, stats) = register_witness(&p).unwrap();
    witness.verify(&p).unwrap();
    assert_eq!(stats.incomparable_resolutions, 0);
}
