//! Integration: the lower-bound adversaries against the protocol zoo.
//!
//! Every flawed protocol must fall to the constructive attacks with a
//! replay-verified witness whose process consumption respects the
//! paper's budgets; every *correct* protocol must be rejected up front
//! (wrong object class) — the adversary never fabricates violations.

use randsync::consensus::model_protocols::{CasModel, NaiveWriteRead, Optimistic};
use randsync::consensus::registry::{self, AttackFamily};
use randsync::core::attack::{
    attack_identical, attack_target, AttackError, AttackOutcome, AttackStats,
};
use randsync::core::bounds::{max_identical_processes, max_processes_historyless};
use randsync::core::combine31::{CombineLimits, CombineStats};
use randsync::core::combine35::{ample_pool, attack_historyless};
use randsync::core::witness::InconsistencyWitness;
use randsync::model::runtime::DynObject;
use randsync::model::{ExploreLimits, Protocol};
use randsync::objects::bridge;

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
fn attack_target_breaks_every_registry_target_within_its_budget() {
    // The one entry point picks the adversary and pool for each flawed
    // registry target; its witness replays on the model and on bridged
    // atomics, within Lemma 3.1's r² − r + 2 for the register family
    // and within the pool for the historyless one.
    let mut seen = Vec::new();
    for entry in registry::adversary_targets() {
        let protocol = entry.build_default();
        let (witness, stats) = match attack_target(entry.attack, &protocol) {
            Ok(AttackOutcome::Inconsistent { witness, stats }) => (witness, stats),
            other => panic!("{}: expected an inconsistency, got {other:?}", entry.name),
        };
        witness.verify(&protocol).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let objects = bridge::instantiate_all(&protocol).expect("flawed targets bridge");
        let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
        witness
            .verify_on(&protocol, &refs)
            .unwrap_or_else(|e| panic!("{}: bridged replay: {e}", entry.name));
        let r = protocol.objects().len();
        let budget = match (entry.attack, stats) {
            (AttackFamily::RegisterIdentical, AttackStats::Register(_)) => {
                max_identical_processes(r as u64) as usize + 1
            }
            (AttackFamily::Historyless, AttackStats::Historyless(_)) => {
                assert_eq!(witness.inputs.len(), ample_pool(r), "{}: pool", entry.name);
                witness.inputs.len()
            }
            other => panic!("{}: family and statistics disagree: {other:?}", entry.name),
        };
        assert!(
            witness.processes_used <= budget,
            "{}: {} processes > budget {budget}",
            entry.name,
            witness.processes_used
        );
        seen.push(entry.attack);
    }
    assert!(seen.contains(&AttackFamily::RegisterIdentical));
    assert!(seen.contains(&AttackFamily::Historyless));
}

#[test]
fn lemma_32_breaks_every_optimistic_protocol() {
    for r in 1..=4usize {
        let p = Optimistic::new(2, r);
        let (witness, stats) = register_witness(&p)
            .unwrap_or_else(|e| panic!("r={r}: {e}"));
        witness.verify(&p).unwrap();
        // Lemma 3.1's budget at v = w = 1: r² − r + 2 processes.
        let budget = max_identical_processes(r as u64) + 1;
        assert!(
            witness.processes_used as u64 <= budget,
            "r={r}: {} processes > budget {budget}",
            witness.processes_used
        );
        // Deeper register counts exercise the nontrivial proof cases.
        if r >= 2 {
            assert!(stats.subset_splits + stats.incomparable_resolutions > 0, "r={r}");
        }
    }
}

#[test]
fn lemma_36_breaks_flawed_protocols_with_an_ample_pool() {
    for r in 1..=3usize {
        let p = Optimistic::new(2, r);
        assert!(ample_pool(r) as u64 >= max_processes_historyless(r as u64));
        let pool = ample_pool(r).max((max_processes_historyless(r as u64) + 1) as usize);
        match attack_historyless(&p, pool, &ExploreLimits::default()) {
            Ok(AttackOutcome::Inconsistent { witness, stats: AttackStats::Historyless(stats) }) => {
                witness.verify(&p).unwrap();
                assert!(witness.processes_used <= pool);
                assert!(stats.pieces_executed >= 2);
            }
            Ok(other) => panic!("optimistic is valid, got {other:?}"),
            Err(e) => panic!("r={r}: {e}"),
        }
    }
}

#[test]
fn both_attacks_agree_on_the_naive_protocol() {
    let p = NaiveWriteRead::new(2);
    let (w1, _) = register_witness(&p).unwrap();
    w1.verify(&p).unwrap();
    match attack_historyless(&p, 6, &ExploreLimits::default()).unwrap() {
        AttackOutcome::Inconsistent { witness, .. } => witness.verify(&p).unwrap(),
        other => panic!("naive is valid, got {other}"),
    }
}

#[test]
fn correct_protocols_are_out_of_scope_not_falsified() {
    // The CAS protocol is consensus — and it is not historyless, so
    // neither attack applies. The adversary refuses with a typed error
    // rather than fabricating a witness, and so does the entry point
    // for a target no adversary applies to.
    let cas = CasModel::new(3);
    assert!(matches!(
        attack_identical(&cas, &CombineLimits::default()),
        Err(AttackError::NotRegisters)
    ));
    assert!(matches!(
        attack_historyless(&cas, 12, &ExploreLimits::default()),
        Err(AttackError::NotHistoryless)
    ));
    let entry = registry::find("cas").expect("cas is registered");
    assert_eq!(entry.attack, AttackFamily::NotApplicable);
    let cas = entry.build_default();
    assert_eq!(attack_target(entry.attack, &cas).unwrap_err(), AttackError::NotApplicable);
    assert_eq!(
        attack_target(AttackFamily::RegisterIdentical, &cas).unwrap_err(),
        AttackError::NotRegisters
    );
    assert_eq!(
        attack_target(AttackFamily::Historyless, &cas).unwrap_err(),
        AttackError::NotHistoryless
    );
}

#[test]
fn witnesses_grow_with_register_count() {
    // More registers force longer combination executions — the shape
    // behind the paper's r²-style process budgets.
    let mut last_steps = 0usize;
    for r in 1..=4usize {
        let p = Optimistic::new(2, r);
        let (witness, _) = register_witness(&p).unwrap();
        assert!(
            witness.execution.len() >= last_steps,
            "r={r}: witness shrank ({} < {last_steps})",
            witness.execution.len()
        );
        last_steps = witness.execution.len();
    }
}

#[test]
fn witness_replays_are_deterministic() {
    let p = Optimistic::new(2, 2);
    let (witness, _) = register_witness(&p).unwrap();
    // Replaying twice produces identical final configurations.
    let start = witness.initial_configuration(&p);
    let (end1, _) = witness.execution.replay(&p, &start).unwrap();
    let (end2, _) = witness.execution.replay(&p, &start).unwrap();
    assert_eq!(end1, end2);
    assert!(end1.is_inconsistent());
}

#[test]
fn the_attack_outcome_is_inconsistency_not_invalidity() {
    // These protocols decide only values they read or hold — validity
    // is never the failure mode; consistency is.
    for r in 1..=3usize {
        match attack_identical(&Optimistic::new(2, r), &CombineLimits::default()).unwrap() {
            AttackOutcome::Inconsistent { .. } => {}
            other => panic!("unexpected validity violation: {other}"),
        }
    }
}
