//! # randsync-model
//!
//! The asynchronous shared-memory computation model of Fich, Herlihy and
//! Shavit, *"On the Space Complexity of Randomized Synchronization"*
//! (PODC 1993), made executable.
//!
//! The model consists of a collection of *n* sequential threads of control
//! called **processes** that communicate by applying **operations** to
//! shared, linearizable, typed **objects** (Section 2 of the paper). This
//! crate provides:
//!
//! * the operation algebra — [`Operation`], [`Response`], [`ObjectKind`] —
//!   including the paper's classification predicates: *trivial*,
//!   *commuting*, *overwriting*, *interfering* and **historyless**;
//! * process state machines via the [`Protocol`] trait, with explicit
//!   coin-flip nondeterminism so randomized protocols can be driven by
//!   an adversary as well as by a fair random scheduler;
//! * [`Configuration`]s, replayable [`Execution`]s, and a [`Simulator`]
//!   parameterized by pluggable [`Scheduler`]s (round-robin, seeded
//!   random, solo, crash-injecting, scripted);
//! * bounded exhaustive state-space exploration ([`explore`]) used both to
//!   model-check small protocols and to realize the paper's
//!   "nondeterministic solo termination" witnesses — built on a parallel,
//!   memory-lean BFS engine (bit-packed interned configuration arena,
//!   sharded hash-first dedup, depth-synchronous worker fan-out) whose
//!   results are bit-identical at every thread count; protocols declaring
//!   [`Symmetry::Symmetric`] can additionally be explored on the
//!   process-permutation quotient ([`ExploreConfig::canonical`]), cutting
//!   visited configurations by up to `n!` with identical verdicts;
//!   [`ExploreConfig`] picks the parallel shape and [`sim::monte_carlo`]
//!   batches simulation trials the same deterministic way;
//! * a history recorder and a Wing–Gong linearizability checker
//!   ([`history`], [`linearize`]) for validating real, threaded object
//!   implementations against the same [`ObjectKind`] semantics.
//!
//! ## Example
//!
//! ```
//! use randsync_model::{ObjectKind, Operation, Value};
//!
//! // The paper's Section 2 classification, executable:
//! assert!(ObjectKind::Register.is_historyless());
//! assert!(ObjectKind::SwapRegister.is_historyless());
//! assert!(ObjectKind::TestAndSet.is_historyless());
//! assert!(!ObjectKind::FetchAdd.is_historyless());
//! assert!(!ObjectKind::CompareSwap.is_historyless());
//!
//! // Applying an operation yields (new value, response):
//! let (v, r) = ObjectKind::FetchAdd
//!     .apply(&Value::Int(5), &Operation::FetchAdd(3))
//!     .unwrap();
//! assert_eq!(v, Value::Int(8));
//! assert_eq!(r, randsync_model::Response::Value(Value::Int(5)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod execution;
pub mod explore;
pub mod history;
pub mod kind;
pub mod linearize;
pub mod op;
pub mod process;
pub mod protocol;
pub mod rng;
pub mod runtime;
pub mod sched;
pub mod sim;
pub mod trace;
pub mod value;

pub use config::{Configuration, EnabledStep, ProcState};
pub use error::ModelError;
pub use execution::{Execution, Step, StepRecord};
pub use explore::{
    straddle_score, Canonicalizer, Checkpoint, CheckpointError, CheckpointRequest,
    ExploreConfig, ExploreLimits, ExploreOutcome, Explorer, FrontierTransport, LocalFrontier,
    SharedFrontier, StagedMisses, TransportError, TruncationReason, Valency, ValencyAnalysis,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use history::{Event, History};
pub use kind::ObjectKind;
pub use linearize::LinearizabilityChecker;
pub use op::{Operation, Response};
pub use process::{ObjectId, ProcessId};
pub use protocol::{Action, Decision, ObjectSpec, Protocol, Symmetry};
pub use rng::SplitMix64;
pub use runtime::{DynObject, FlightLog, ModelObject, ProcessStats, RunReport, Runtime};
pub use sched::{
    ContrarianScheduler, CrashScheduler, RandomScheduler, RoundRobinScheduler, Scheduler,
    ScriptScheduler, SoloScheduler,
};
pub use sim::{monte_carlo, monte_carlo_summary, McSummary, RunOutcome, Simulator};
pub use trace::{render_execution, render_record};
pub use value::Value;
