//! Equivalence properties for the parallel exploration engine.
//!
//! The engine promises results identical to a sequential BFS for every
//! thread count. These tests hold it to that promise against
//! an independent **retained sequential reference**: a verbatim
//! re-implementation of the pre-parallel `Explorer::explore_from` loop
//! (`Configuration`-keyed `HashMap`, `VecDeque` queue, clone-per-probe)
//! built on the public [`successors`] enumeration. For random protocols,
//! inputs, and budgets, the engine at `threads = 1` and `threads = 4`
//! must agree with the reference on
//! `configs_visited`, `terminal_configs`, `is_safe()`, truncation, and
//! the depth of each violation witness.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use randsync_consensus::model_protocols::{
    NaiveWriteRead, Optimistic, PhaseModel, SwapTwoModel, TasTwoModel,
};
use randsync_model::explore::successors;
use randsync_model::{Configuration, ExploreConfig, ExploreLimits, Explorer, Protocol};

/// What the reference BFS observes; the subset of `ExploreOutcome` the
/// engine must reproduce exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
struct RefOutcome {
    consistency_depth: Option<usize>,
    validity_depth: Option<usize>,
    configs_visited: usize,
    terminal_configs: usize,
    truncated: bool,
}

/// The pre-parallel sequential exploration, kept as the oracle: plain
/// queue-order BFS, configurations cloned into a `HashMap` for dedup,
/// one full clone per enumerated successor.
fn reference_explore<P>(protocol: &P, inputs: &[u8], limits: ExploreLimits) -> RefOutcome
where
    P: Protocol,
{
    let start = Configuration::initial(protocol, inputs);
    let mut nodes = vec![start.clone()];
    let mut depth = vec![0usize];
    let mut index: HashMap<Configuration<P::State>, usize> = HashMap::new();
    index.insert(start, 0);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);

    let mut consistency_depth = None;
    let mut validity_depth = None;
    let mut truncated = false;
    let mut terminal_configs = 0usize;

    while let Some(i) = queue.pop_front() {
        let config = nodes[i].clone();
        if config.is_inconsistent() && consistency_depth.is_none() {
            consistency_depth = Some(depth[i]);
        }
        if validity_depth.is_none()
            && config.decided_values().iter().any(|d| !inputs.contains(d))
        {
            validity_depth = Some(depth[i]);
        }
        let active = config.active_processes();
        if active.is_empty() {
            terminal_configs += 1;
            continue;
        }
        if depth[i] >= limits.max_depth {
            truncated = true;
            continue;
        }
        for pid in active {
            for (_step, next) in successors(protocol, &config, pid) {
                if index.contains_key(&next) {
                    continue;
                }
                if nodes.len() >= limits.max_configs {
                    truncated = true;
                    continue;
                }
                let j = nodes.len();
                nodes.push(next.clone());
                depth.push(depth[i] + 1);
                index.insert(next, j);
                queue.push_back(j);
            }
        }
    }

    RefOutcome {
        consistency_depth,
        validity_depth,
        configs_visited: nodes.len(),
        terminal_configs,
        truncated,
    }
}

/// Run the engine under the given parallel shape and project onto the
/// reference's observables.
fn engine_explore<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
    threads: usize,
) -> RefOutcome
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let out = Explorer::with_config(ExploreConfig { limits, threads, ..ExploreConfig::default() })
        .explore(protocol, inputs);
    RefOutcome {
        consistency_depth: out.consistency_violation.as_ref().map(|w| w.len()),
        validity_depth: out.validity_violation.as_ref().map(|w| w.len()),
        configs_visited: out.configs_visited,
        terminal_configs: out.terminal_configs,
        truncated: out.truncated,
    }
}

/// Engine (at several parallel shapes) versus reference.
fn check_against_reference<P>(
    protocol: &P,
    inputs: &[u8],
    limits: ExploreLimits,
) -> Result<(), TestCaseError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let oracle = reference_explore(protocol, inputs, limits);
    for threads in [1, 4] {
        let got = engine_explore(protocol, inputs, limits, threads);
        prop_assert_eq!(
            &oracle,
            &got,
            "threads={} inputs={:?} limits={:?}",
            threads,
            inputs,
            limits
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The broken naive write/read protocol: violations (and their
    /// shortest-witness depth) must agree everywhere.
    #[test]
    fn naive_engine_matches_reference(
        n in 2usize..=3,
        bits in prop::collection::vec(0u8..=1, 3),
        cap in prop_oneof![Just(usize::MAX), Just(400usize), Just(50usize)],
    ) {
        let inputs = &bits[..n];
        let limits = ExploreLimits { max_configs: cap, max_depth: 10_000 };
        check_against_reference(&NaiveWriteRead::new(n), inputs, limits)?;
    }

    /// Correct two-process protocols (swap- and test&set-based): the
    /// engine must agree they are safe and on every count.
    #[test]
    fn two_proc_engine_matches_reference(
        a in 0u8..=1,
        b in 0u8..=1,
        depth_cap in prop_oneof![Just(10_000usize), Just(4usize)],
    ) {
        let limits = ExploreLimits { max_configs: 100_000, max_depth: depth_cap };
        check_against_reference(&SwapTwoModel, &[a, b], limits)?;
        check_against_reference(&TasTwoModel, &[a, b], limits)?;
    }

    /// The randomized phase protocol: coin branching plus truncation.
    #[test]
    fn phase_model_engine_matches_reference(
        a in 0u8..=1,
        b in 0u8..=1,
        rounds in 1usize..=2,
        cap in prop_oneof![Just(usize::MAX), Just(2_000usize)],
    ) {
        let limits = ExploreLimits { max_configs: cap, max_depth: 10_000 };
        check_against_reference(&PhaseModel::new(2, rounds), &[a, b], limits)?;
    }

    /// Valency analysis rides the same engine; it must be invariant
    /// under the parallel shape too.
    #[test]
    fn valency_is_thread_invariant(
        a in 0u8..=1,
        b in 0u8..=1,
        rounds in 1usize..=2,
    ) {
        let p = PhaseModel::new(2, rounds);
        let limits = ExploreLimits::default();
        let base = Explorer::with_config(ExploreConfig { limits, threads: 1, ..ExploreConfig::default() })
            .valency(&p, &[a, b]);
        let par = Explorer::with_config(ExploreConfig { limits, threads: 4, ..ExploreConfig::default() })
            .valency(&p, &[a, b]);
        match (base, par) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.initial, y.initial);
                prop_assert_eq!(x.zero_valent, y.zero_valent);
                prop_assert_eq!(x.one_valent, y.one_valent);
                prop_assert_eq!(x.bivalent, y.bivalent);
                prop_assert_eq!(x.stuck, y.stuck);
                prop_assert_eq!(x.configs, y.configs);
                prop_assert_eq!(x.bivalent_cycle, y.bivalent_cycle);
                prop_assert_eq!(x.critical_configs, y.critical_configs);
            }
            (x, y) => prop_assert!(
                x.is_none() && y.is_none(),
                "one shape truncated, the other did not"
            ),
        }
    }
}

/// A deterministic repeated-run check on a space wide enough (~10^4
/// configs, BFS levels far past the engine's parallel threshold) to
/// actually schedule worker threads.
#[test]
fn wide_space_is_stable_across_runs_and_threads() {
    let p = Optimistic::new(3, 3);
    let inputs = [0u8, 1, 0];
    let limits = ExploreLimits::default();
    let oracle = reference_explore(&p, &inputs, limits);
    for run in 0..2 {
        for threads in [2, 4] {
            let got = engine_explore(&p, &inputs, limits, threads);
            assert_eq!(oracle, got, "run={run} threads={threads}");
        }
    }
}

/// The engine memoizes each step — a process state against the value
/// of the object its action accesses — on the codec's words. For every
/// registry protocol at its defaults, every node of the raw graph
/// expands to the same words against the finished search's step table
/// as against an empty one, which runs every step through the protocol.
#[test]
fn memoized_steps_equal_protocol_steps_across_the_registry() {
    for entry in randsync_consensus::registry::registry() {
        let nodes = randsync_model::explore::audit_step_table(&entry.build_default(), entry.default_inputs)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let configs = Explorer::new(ExploreLimits::EXHAUSTIVE)
            .explore(&entry.build_default(), entry.default_inputs)
            .configs_visited;
        assert_eq!(nodes, configs, "{}: the audit covers the raw graph", entry.name);
    }
}
