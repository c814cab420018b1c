//! Equivalence properties for the out-of-core tier and
//! checkpoint/resume (DESIGN.md §14).
//!
//! The spillable engine promises that a resident-memory budget changes
//! *where bytes live*, never *what is computed*: every outcome field —
//! visit counts, witness executions, termination/cycle facts, the
//! arena's total footprint — must be bit-identical to the in-RAM tier,
//! at every thread count and budget. Checkpointing promises that
//! a search interrupted at a deadline or depth budget and resumed
//! (possibly on the other storage tier) reaches the same final outcome
//! as one that was never interrupted. These tests hold both features to
//! those promises across the model protocols, random inputs, and
//! parallel shapes.

use proptest::prelude::*;
use randsync_consensus::model_protocols::{
    CasModel, NaiveWriteRead, Optimistic, PhaseModel, SwapChain, WalkBacking, WalkModel,
};
use randsync_model::{
    Checkpoint, CheckpointRequest, ExploreConfig, ExploreLimits, ExploreOutcome, Explorer,
    Protocol, TruncationReason,
};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A collision-free checkpoint path for one test case.
fn ckpt_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "randsync-prop-ckpt-{}-{tag}-{seq}.ckpt",
        std::process::id()
    ))
}

fn run<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
    threads: usize,
    mem_budget_bytes: usize,
) -> ExploreOutcome
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    Explorer::with_config(ExploreConfig {
        limits,
        threads,
        mem_budget_bytes,
        ..Default::default()
    })
    .explore(protocol, inputs)
}

/// Bit-identity between two outcomes of the *same* search on different
/// storage tiers: everything observable must match, including witness
/// step sequences and the arena's total (resident + spilled) footprint.
fn assert_identical(ram: &ExploreOutcome, other: &ExploreOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(ram.configs_visited, other.configs_visited);
    prop_assert_eq!(ram.raw_configs, other.raw_configs);
    prop_assert_eq!(ram.terminal_configs, other.terminal_configs);
    prop_assert_eq!(ram.truncated, other.truncated);
    prop_assert_eq!(ram.truncation_reason, other.truncation_reason);
    prop_assert_eq!(&ram.consistency_violation, &other.consistency_violation);
    prop_assert_eq!(&ram.validity_violation, &other.validity_violation);
    prop_assert_eq!(ram.can_always_reach_termination, other.can_always_reach_termination);
    prop_assert_eq!(ram.infinite_execution_possible, other.infinite_execution_possible);
    prop_assert_eq!(ram.arena_bytes, other.arena_bytes, "total arena footprint diverged");
    prop_assert_eq!(ram.bytes_per_config.to_bits(), other.bytes_per_config.to_bits());
    Ok(())
}

/// Core spill property: a memory budget never changes the outcome.
fn check_spill_matches_ram<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
    threads: usize,
    budget: usize,
) -> Result<(), TestCaseError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let ram = run(protocol, inputs, limits, threads, 0);
    let spill = run(protocol, inputs, limits, threads, budget);
    prop_assert!(spill.spill_mode, "nonzero budget must select the out-of-core tier");
    prop_assert!(!ram.spill_mode && ram.spilled_bytes == 0);
    assert_identical(&ram, &spill)
}

/// Checkpoint/resume property: interrupt a search with `limits_cut`,
/// resume the written checkpoint (under `resume_budget` bytes of
/// resident memory), and require the final outcome to be bit-identical
/// to a search that was never interrupted.
fn check_resume_completes<P>(
    protocol: &P,
    inputs: &[u8],
    limits_cut: ExploreLimits,
    deadline_in_past: bool,
    resume_budget: usize,
    tag: &str,
) -> Result<(), TestCaseError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let full_limits = ExploreLimits { max_configs: 3_000_000, max_depth: 200_000 };
    let uninterrupted = run(protocol, inputs, full_limits, 1, 0);
    prop_assert!(!uninterrupted.truncated, "pick protocols the full budget exhausts");

    let path = ckpt_path(tag);
    let req = CheckpointRequest {
        path: path.clone(),
        protocol: tag.to_string(),
        n: inputs.len() as u32,
        r: 0,
        inputs: inputs.to_vec(),
    };
    let mut config = ExploreConfig {
        limits: limits_cut,
        checkpoint: Some(req),
        ..Default::default()
    };
    if deadline_in_past {
        // Already expired: the search must stop at the first level
        // boundary, whatever the host's speed — the most adversarial
        // deadline cut that is still deterministic to test against.
        config.deadline = Some(std::time::Instant::now());
    }
    let cut = Explorer::with_config(config).explore(protocol, inputs);
    prop_assert!(cut.truncated, "the cut run must actually be interrupted");
    prop_assert!(
        matches!(
            cut.truncation_reason,
            Some(TruncationReason::DepthCap) | Some(TruncationReason::Deadline)
        ),
        "resumable truncation reasons only"
    );
    let Some(written) = &cut.checkpoint else {
        return Err(TestCaseError::fail(format!(
            "no checkpoint written: {:?}",
            cut.checkpoint_error
        )));
    };

    let ckpt = Checkpoint::load(written).expect("checkpoint loads");
    prop_assert_eq!(ckpt.nodes(), cut.configs_visited, "checkpoint carries the visited set");
    let resumed = Explorer::new(full_limits).mem_budget(resume_budget).resume(protocol, &ckpt);
    let _ = std::fs::remove_file(&path);
    let resumed = resumed.expect("resume succeeds");
    assert_identical(&uninterrupted, &resumed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Broken register protocols: the violation witness the in-RAM
    /// search finds must survive spilling, at every parallel shape and
    /// down to pathologically small budgets.
    #[test]
    fn spilled_broken_protocols_match_ram(
        bits in prop::collection::vec(0u8..=1, 3),
        r in 1usize..=2,
        shape in 0usize..=1,
        budget in prop_oneof![Just(1024usize), Just(4096), Just(64 * 1024)],
    ) {
        let threads = [1, 4][shape];
        let limits = ExploreLimits::default();
        check_spill_matches_ram(&NaiveWriteRead::new(3), &bits, limits, threads, budget)?;
        check_spill_matches_ram(&Optimistic::new(3, r), &bits, limits, threads, budget)?;
    }

    /// Correct and randomized protocols, including cycle verdicts and
    /// truncated (config-capped) searches: the cap must bite at the
    /// same configuration on both tiers.
    #[test]
    fn spilled_correct_protocols_match_ram(
        bits in prop::collection::vec(0u8..=1, 3),
        shape in 0usize..=1,
        cap in prop_oneof![Just(usize::MAX), Just(500usize)],
    ) {
        let threads = [1, 4][shape];
        let limits = ExploreLimits { max_configs: cap, max_depth: 10_000 };
        check_spill_matches_ram(&CasModel::new(3), &bits, limits, threads, 2048)?;
        check_spill_matches_ram(&SwapChain::new(3), &bits, limits, threads, 2048)?;
        check_spill_matches_ram(
            &WalkModel::with_tight_margins(2, WalkBacking::BoundedCounter),
            &bits[..2],
            limits,
            threads,
            2048,
        )?;
    }

    /// Valency classification is tier-invariant: the spill engine must
    /// reproduce the full per-class counts, not just verdicts.
    #[test]
    fn spilled_valency_matches_ram(
        a in 0u8..=1,
        b in 0u8..=1,
        rounds in 1usize..=2,
    ) {
        let limits = ExploreLimits::default();
        let ram = Explorer::new(limits).valency(&PhaseModel::new(2, rounds), &[a, b]);
        let spill =
            Explorer::new(limits).mem_budget(2048).valency(&PhaseModel::new(2, rounds), &[a, b]);
        prop_assert_eq!(format!("{ram:?}"), format!("{spill:?}"));

        let ram = Explorer::new(limits).valency(&NaiveWriteRead::new(2), &[a, b]);
        let spill = Explorer::new(limits).mem_budget(1024).valency(&NaiveWriteRead::new(2), &[a, b]);
        prop_assert_eq!(format!("{ram:?}"), format!("{spill:?}"));
    }

    /// Depth-capped interruption: checkpoint at a level boundary, then
    /// resume — in RAM and under a budget — to the uninterrupted
    /// outcome.
    #[test]
    fn depth_capped_checkpoint_resumes_to_uninterrupted_outcome(
        bits in prop::collection::vec(0u8..=1, 3),
        depth in 1usize..=3,
        budget in prop_oneof![Just(0usize), Just(4096)],
    ) {
        let cut = ExploreLimits { max_configs: 3_000_000, max_depth: depth };
        check_resume_completes(&NaiveWriteRead::new(3), &bits, cut, false, budget, "depthcap")?;
    }

    /// Deadline interruption: an already-expired deadline cuts the
    /// search at the first level boundary; resuming the checkpoint
    /// still reaches the uninterrupted outcome (the resumed search also
    /// exercises the spill tier).
    #[test]
    fn deadline_checkpoint_resumes_to_uninterrupted_outcome(
        bits in prop::collection::vec(0u8..=1, 2),
        rounds in 1usize..=2,
        budget in prop_oneof![Just(0usize), Just(2048)],
    ) {
        let full = ExploreLimits { max_configs: 3_000_000, max_depth: 200_000 };
        check_resume_completes(&PhaseModel::new(2, rounds), &bits, full, true, budget, "deadline")?;
    }
}

/// A checkpoint round-trips through its binary format unchanged, and
/// resuming twice from the same file is deterministic.
#[test]
fn resume_is_deterministic_across_repeats() {
    let p = NaiveWriteRead::new(3);
    let inputs = [0u8, 1, 0];
    let path = ckpt_path("repeat");
    let req = CheckpointRequest {
        path: path.clone(),
        protocol: "repeat".into(),
        n: 3,
        r: 0,
        inputs: inputs.to_vec(),
    };
    let cut = Explorer::with_config(ExploreConfig {
        limits: ExploreLimits { max_configs: 3_000_000, max_depth: 2 },
        checkpoint: Some(req),
        ..Default::default()
    })
    .explore(&p, &inputs);
    let written = cut.checkpoint.expect("checkpoint written");
    let ckpt = Checkpoint::load(&written).expect("loads");
    let full = ExploreLimits { max_configs: 3_000_000, max_depth: 200_000 };
    let a = Explorer::new(full).resume(&p, &ckpt).expect("resumes");
    let b = Explorer::new(full).mem_budget(4096).resume(&p, &ckpt).expect("resumes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(a.configs_visited, b.configs_visited);
    assert_eq!(a.arena_bytes, b.arena_bytes);
    assert_eq!(a.consistency_violation, b.consistency_violation);
    assert_eq!(a.validity_violation, b.validity_violation);
}
