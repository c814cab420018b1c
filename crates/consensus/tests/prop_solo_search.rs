//! The one solo search against the search it replaced.
//!
//! [`solo_until`] keeps one parent link per node and rebuilds the
//! witness once. The oracle below is the breadth-first search the
//! Lemma 3.4 construction and the attack's solo-termination lookups
//! each used to run on their own: it clones the whole path for every
//! queued node. From random reachable configurations of five registry
//! protocols, for every process, under random budgets and two goals
//! ("has decided" and "poised outside a random object set"), both
//! searches must return the same witness, or both none.

use std::collections::{BTreeSet, HashSet, VecDeque};

use proptest::prelude::*;
use randsync_consensus::registry;
use randsync_model::explore::{solo_until, successors};
use randsync_model::{Configuration, ExploreLimits, ObjectId, ProcessId, Protocol, Step};

/// The path-cloning solo BFS, kept as the oracle: O(depth²) copying,
/// visited set keyed on whole configurations.
fn oracle<P, F>(
    protocol: &P,
    config: &Configuration<P::State>,
    pid: ProcessId,
    limits: &ExploreLimits,
    goal: F,
) -> Option<Vec<Step>>
where
    P: Protocol,
    F: Fn(&Configuration<P::State>) -> bool,
{
    if goal(config) {
        return Some(Vec::new());
    }
    let mut queue = VecDeque::from([(config.clone(), Vec::new())]);
    let mut seen = HashSet::from([config.clone()]);
    let mut expanded = 0usize;
    while let Some((c, path)) = queue.pop_front() {
        if path.len() >= limits.max_depth {
            continue;
        }
        expanded += 1;
        if expanded > limits.max_configs {
            return None;
        }
        for (step, next) in successors(protocol, &c, pid) {
            let mut p = path.clone();
            p.push(step);
            if goal(&next) {
                return Some(p);
            }
            if seen.insert(next.clone()) {
                queue.push_back((next, p));
            }
        }
    }
    None
}

/// Walk from the initial configuration, taking the successor `choice`
/// selects among all active processes' moves at each step.
fn reachable<P: Protocol>(protocol: &P, inputs: &[u8], walk: &[u64]) -> Configuration<P::State> {
    let mut config = Configuration::initial(protocol, inputs);
    for &choice in walk {
        let mut moves: Vec<_> = config
            .active_processes()
            .into_iter()
            .flat_map(|pid| successors(protocol, &config, pid))
            .collect();
        if moves.is_empty() {
            break;
        }
        config = moves.swap_remove(choice as usize % moves.len()).1;
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn solo_until_matches_the_path_cloning_search(
        name in prop::sample::select(
            vec!["naive", "optimistic", "zigzag", "walk-counter", "localcoin"],
        ),
        walk in prop::collection::vec(any::<u64>(), 0..24),
        outside in any::<u64>(),
        max_configs in prop_oneof![Just(usize::MAX), Just(200usize), 1usize..20],
        max_depth in prop_oneof![Just(usize::MAX), 1usize..12],
    ) {
        let entry = registry::find(name).expect("registered");
        let protocol = entry.build_default();
        let config = reachable(&protocol, entry.default_inputs, &walk);
        let limits = ExploreLimits { max_configs, max_depth };
        let set: BTreeSet<ObjectId> = (0..protocol.objects().len())
            .filter(|i| outside >> (i % 64) & 1 == 1)
            .map(ObjectId)
            .collect();
        for pid in (0..config.num_processes()).map(ProcessId) {
            let decided = |c: &Configuration<_>| c.procs[pid.0].decision().is_some();
            let poised_outside = |c: &Configuration<_>| {
                c.poised_at(&protocol, pid).is_some_and(|o| !set.contains(&o))
            };
            let merged = |goal: &dyn Fn(&Configuration<_>) -> bool| {
                solo_until(&protocol, &config, pid, &limits, goal).map(|e| e.steps().to_vec())
            };
            prop_assert_eq!(
                merged(&decided),
                oracle(&protocol, &config, pid, &limits, decided),
                "{} {:?} decided", name, pid
            );
            prop_assert_eq!(
                merged(&poised_outside),
                oracle(&protocol, &config, pid, &limits, poised_outside),
                "{} {:?} poised outside {:?}", name, pid, set
            );
        }
    }
}
