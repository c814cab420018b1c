//! # randsync-consensus
//!
//! Every consensus protocol the paper states, cites, or depends on —
//! **one state machine each, many interpreters**:
//!
//! * the single source of truth is [`model_protocols`]: each protocol
//!   is a state machine against `randsync-model`'s
//!   [`Protocol`](randsync_model::Protocol) trait, so it can be driven
//!   by the simulator, exhaustively model checked, attacked by the
//!   lower-bound adversary in `randsync-core` — and *executed on real
//!   threads* by `randsync-model`'s runtime interpreter over the
//!   atomics-backed objects of `randsync-objects`;
//! * the threaded types in this crate's top-level modules
//!   ([`WalkConsensus`], [`CasConsensus`], …) are thin instantiations
//!   of those machines through the runtime — they own the concrete
//!   shared objects and a seed, and `decide` interprets the machine
//!   against them. There is no second copy of any protocol's step
//!   logic. All correct protocols satisfy the paper's conditions
//!   (*consistency*: all processes return the same value; *validity*:
//!   the returned value is some process's input); the deliberately
//!   *flawed* ones exist for the adversary to break.
//!
//! The [`registry`] is the crate's single protocol catalog: every
//! machine, its objects, its paper hook, and a uniform constructor —
//! consumed by the CLI, the gate, and the differential test
//! harness, which replays each entry under the threaded runtime, the
//! simulator, and the explorer and cross-checks the three.
//!
//! ## Protocol inventory
//!
//! Generated by [`registry::markdown_table`]; `randsync protocols`
//! prints the live version.
//!
//! | Protocol | Objects | Paper hook |
//! |---|---|---|
//! | [`WalkConsensus`] over one bounded counter | 1 | Theorem 4.2 (Aspnes) |
//! | [`WalkConsensus`] over one fetch&add register | 1 | Theorem 4.4 |
//! | [`WalkConsensus`] over the n-register counter | O(n) registers | the O(n) upper bound of Section 1 / Corollary 4.3 |
//! | [`CasConsensus`] | 1 compare&swap register | Herlihy \[20\], deterministic |
//! | [`SwapTwoConsensus`] | 1 swap register, n = 2 | Section 4's 2-process separations |
//! | [`TasTwoConsensus`] | 1 test&set + 2 registers, n = 2 | Section 4's 2-process separations |
//! | [`FetchIncTwoConsensus`] | 1 fetch&increment + 2 registers, n = 2 | Section 4's 2-process separations |
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use randsync_consensus::{Consensus, WalkConsensus};
//! use randsync_objects::FetchAddRegister;
//!
//! // Theorem 4.4: randomized n-process consensus from a single
//! // fetch&add register.
//! let n = 4;
//! let proto = Arc::new(WalkConsensus::with_fetch_add(FetchAddRegister::new(0), n, 0xFEED));
//! let mut handles = Vec::new();
//! for p in 0..n {
//!     let proto = Arc::clone(&proto);
//!     handles.push(std::thread::spawn(move || proto.decide(p, (p % 2) as u8)));
//! }
//! let decisions: Vec<u8> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]), "consistency");
//! assert!(decisions[0] == 0 || decisions[0] == 1, "validity (inputs were 0 and 1)");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cas;
pub mod coin;
mod driver;
pub mod fetchinc2;
pub mod model_protocols;
pub mod multivalued;
pub mod registry;
pub mod rounds;
pub mod spec;
pub mod swap2;
pub mod tas2;
pub mod walk;

pub use cas::CasConsensus;
pub use coin::{CoinOutcome, WalkCoin};
pub use fetchinc2::FetchIncTwoConsensus;
pub use multivalued::MultiValuedConsensus;
pub use registry::{AnyProtocol, AnyState, AttackFamily, ProtocolEntry};
pub use rounds::AhConsensus;
pub use spec::{Consensus, TrialStats};
pub use swap2::SwapTwoConsensus;
pub use tas2::TasTwoConsensus;
pub use walk::{CounterAccess, WalkConsensus, WalkParams};
