//! # randsync-core
//!
//! The contribution of Fich, Herlihy and Shavit's *"On the Space
//! Complexity of Randomized Synchronization"* (PODC 1993), made
//! executable:
//!
//! * [`bounds`] — the paper's closed forms: Theorem 3.3's
//!   `r² − r + 1` identical-process ceiling, Lemma 3.6's `3r² + r`
//!   historyless threshold and its Ω(√n) inverse (Theorem 3.7), and the
//!   Theorem 2.1 composition bound `h(n) ≥ g(n)/f(n)`;
//! * [`poised`] — poised processes and **block writes** (Section 3's
//!   basic tool for fixing the values of a set of historyless objects);
//! * [`weave`] — the Section 3.1 **cloning** technique as an executable
//!   transformation: duplicate steps woven into an execution in
//!   lockstep are invisible to every other process, so clones can be
//!   left behind poised to re-perform past writes;
//! * [`combine31`] / [`attack`] — Lemma 3.1 and Lemma 3.2 as a working
//!   adversary: given any symmetric register protocol that claims to
//!   solve consensus while satisfying nondeterministic solo
//!   termination, *construct* an execution that decides both 0 and 1
//!   (Figures 1–4 of the paper, replayed concretely); [`attack_target`]
//!   picks the adversary (and pool) for a registry target;
//! * [`interruptible`] / [`combine35`] — Definitions 3.1/3.2 and
//!   Lemmas 3.4/3.5: interruptible executions with excess capacity over
//!   arbitrary historyless objects, and their combination (the general
//!   case behind Theorem 3.7);
//! * [`witness`] — replay-verified [`InconsistencyWitness`]es: every
//!   claim the adversary makes is checked by re-executing the trace
//!   from the initial configuration;
//! * [`hierarchy`] — Section 4's separation results as queryable data:
//!   deterministic consensus numbers versus randomized space, with the
//!   corollaries 4.1/4.3/4.5 derived through Theorem 2.1.
//!
//! ## Example: the bounds
//!
//! ```
//! use randsync_core::bounds;
//!
//! // Theorem 3.3: at most r² − r + 1 identical processes can solve
//! // randomized consensus using r read–write registers.
//! assert_eq!(bounds::max_identical_processes(3), 7);
//!
//! // Theorem 3.7: Ω(√n) historyless objects are necessary.
//! let r = bounds::min_historyless_objects(10_000);
//! assert!(r * r >= 10_000 / 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attack;
pub mod bounds;
pub mod combine31;
pub mod combine35;
pub mod hierarchy;
pub mod interruptible;
pub mod paper_map;
pub mod poised;
pub mod weave;
pub mod witness;

pub use attack::{attack_identical, attack_target, AttackError, AttackOutcome, AttackStats};
pub use combine35::{ample_pool, attack_historyless, GeneralStats};
pub use bounds::*;
pub use hierarchy::{separation_table, PrimitiveProfile, SpaceBound};
pub use interruptible::{ExcessCapacity, InterruptibleExecution, Piece};
pub use weave::Weaver;
pub use witness::{InconsistencyWitness, MinimizeStats};
