//! A navigable index from the paper's statements to this workspace's
//! code.
//!
//! | Paper | Code |
//! |---|---|
//! | §2 model: processes, objects, configurations, executions | [`randsync_model::Protocol`], [`randsync_model::Configuration`], [`randsync_model::Execution`] |
//! | §2 trivial / commute / overwrite / historyless / interfering | [`randsync_model::ObjectKind`] (`is_trivial`, `commutes`, `overwrites`, `is_historyless`, `is_interfering`) |
//! | §2 wait-free / non-blocking / randomized variants | discussed per protocol; termination checks in [`randsync_model::Explorer`] |
//! | §2 nondeterministic solo termination | [`randsync_model::explore::solo_until`] (the one solo search; [`randsync_model::Explorer::solo_deciding`] is its "has decided" goal) |
//! | §2 "randomized consensus from registers must have non-terminating executions" | [`randsync_model::ExploreOutcome::infinite_execution_possible`] |
//! | Theorem 2.1 (composition g/f) | [`crate::bounds::composition_lower_bound`] |
//! | §3 poised processes, block writes | [`crate::poised`] |
//! | §3.1 cloning | [`crate::weave::Weaver::spawn_clone`] |
//! | Lemma 3.1 (Figures 2–4) | [`crate::combine31::combine`] |
//! | Lemma 3.2 / Theorem 3.3 (r² − r + 1) | [`crate::attack::attack_identical`], [`crate::bounds::max_identical_processes`] |
//! | Definition 3.1 (interruptible executions) | [`crate::interruptible::InterruptibleExecution`] |
//! | Definition 3.2 (excess capacity) | [`crate::interruptible::ExcessCapacity`] |
//! | Lemma 3.4 | [`crate::interruptible::construct_interruptible`] |
//! | Lemma 3.5 / Lemma 3.6 / Theorem 3.7 (Ω(√n)) | [`crate::combine35::attack_historyless`], [`crate::bounds::min_historyless_objects`] |
//! | Lemma 3.2 or Lemma 3.6, whichever breaks a flawed registry target (with its pool) | [`crate::attack::attack_target`], one [`crate::attack::AttackOutcome`] for both |
//! | Figure 1 (combining two executions) | the base splice inside [`crate::combine31`]; gate `thm-3.3-adversary` |
//! | Corollary 4.1 / 4.3 / 4.5 | [`crate::hierarchy::implementation_lower_bound`] |
//! | Theorem 4.2 (one bounded counter — Aspnes) | `randsync_consensus::WalkConsensus::with_bounded_counter` |
//! | Theorem 4.4 (one fetch&add) | `randsync_consensus::WalkConsensus::with_fetch_add` |
//! | Herlihy's CAS universality (cited) | `randsync_consensus::CasConsensus` |
//! | §4 2-process observations (swap, fetch&inc, test&set) | `randsync_consensus::{SwapTwoConsensus, FetchIncTwoConsensus, TasTwoConsensus}` |
//! | O(n)-register upper bound (cited \[9, 30\]) | `randsync_objects::SnapshotCounter` + `randsync_consensus::{WalkConsensus::with_register_counter, AhConsensus}` |
//! | Snapshot "Observation 1 in \[3\]" example | `randsync_objects::SnapshotArray` |
//! | Burns–Lynch lineage (related work) | `randsync_consensus::model_protocols::mutex` |
//! | Jayanti–Tan–Toueg multi-use n − 1 (conclusions) | [`crate::bounds::multiuse_lower_bound`] |
//! | Conclusions' Θ(n) conjecture | the gap between [`crate::bounds::min_historyless_objects`] and [`crate::bounds::registers_upper_bound`] |
//!
//! The experiment-id ↔ gate-entry mapping lives in `DESIGN.md` §4 and
//! the recorded results in `EXPERIMENTS.md`.

#[cfg(test)]
mod tests {
    //! Compile-time liveness of the map: every referenced item must
    //! still exist (imports fail the build otherwise).
    #[allow(unused_imports)]
    use crate::attack::{attack_identical, attack_target, AttackOutcome};
    #[allow(unused_imports)]
    use crate::bounds::{
        composition_lower_bound, max_identical_processes, min_historyless_objects,
        multiuse_lower_bound,
    };
    #[allow(unused_imports)]
    use crate::combine31::combine;
    #[allow(unused_imports)]
    use crate::combine35::attack_historyless;
    #[allow(unused_imports)]
    use crate::hierarchy::implementation_lower_bound;
    #[allow(unused_imports)]
    use crate::interruptible::{construct_interruptible, ExcessCapacity, InterruptibleExecution};
    #[allow(unused_imports)]
    use crate::weave::Weaver;
    #[allow(unused_imports)]
    use randsync_consensus::{
        AhConsensus, CasConsensus, FetchIncTwoConsensus, SwapTwoConsensus, TasTwoConsensus,
        WalkConsensus,
    };

    #[test]
    fn the_map_compiles_against_live_items() {
        // The imports above are the assertion.
    }
}
