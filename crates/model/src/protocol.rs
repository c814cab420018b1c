//! Process state machines: the [`Protocol`] trait.
//!
//! A protocol describes, for each process, a deterministic state machine
//! with explicit coin-flip nondeterminism: the next [`Action`] is a
//! function of the current state alone, and the state transition on an
//! operation's response may branch on a coin drawn from a declared
//! finite domain. Modeling coins as *explicit, enumerable* branches is
//! what lets the same protocol be driven three ways:
//!
//! * by a fair seeded random scheduler (simulation),
//! * by bounded exhaustive exploration (model checking), and
//! * by the lower-bound adversary, which — per the paper's
//!   *nondeterministic solo termination* property — may pick coin
//!   outcomes as nondeterministic choices.
//!
//! Process behaviour is a function of the **state only**, never of the
//! process id; protocols that need an id bake it into the state in
//! [`Protocol::initial_state`]. This is what makes the Section 3.1
//! *cloning* technique expressible: a clone is a process given the same
//! state.

use core::fmt;
use core::hash::Hash;

use crate::kind::ObjectKind;
use crate::op::{Operation, Response};
use crate::process::{ObjectId, ProcessId};
use crate::value::Value;

/// A consensus decision value. Binary consensus uses `0` and `1`.
pub type Decision = u8;

/// Whether a protocol's processes are interchangeable — the paper's
/// Section 3.1 *identical processes* hypothesis, as a capability
/// declaration the exploration engine can act on.
///
/// For a [`Symmetry::Symmetric`] protocol, any permutation of a
/// configuration's process states is reachable exactly when the
/// configuration itself is (permuting every step's process id permutes
/// the whole execution), so the explorer may soundly quotient the state
/// space by process-identity permutation
/// ([`ExploreConfig::canonical`](crate::explore::ExploreConfig::canonical)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Symmetry {
    /// Process identity may matter (e.g. the state embeds the process
    /// id, or processes own per-id registers). The explorer never
    /// quotients such a protocol.
    #[default]
    Asymmetric,
    /// Identical processes: [`Protocol::initial_state`] ignores `pid`
    /// and no state depends on process identity. Permuting process
    /// states yields an equivalent configuration.
    Symmetric,
}

impl Symmetry {
    /// Whether this is [`Symmetry::Symmetric`].
    pub fn is_symmetric(self) -> bool {
        matches!(self, Symmetry::Symmetric)
    }
}

/// The declaration of one shared object used by a protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObjectSpec {
    /// The object's type.
    pub kind: ObjectKind,
    /// The object's initial value.
    pub initial: Value,
    /// A human-readable name for traces.
    pub name: String,
}

impl ObjectSpec {
    /// An object of `kind` with that kind's default initial value.
    pub fn new(kind: ObjectKind, name: impl Into<String>) -> Self {
        ObjectSpec { kind, initial: kind.initial_value(), name: name.into() }
    }

    /// An object of `kind` with an explicit initial value.
    pub fn with_initial(kind: ObjectKind, initial: Value, name: impl Into<String>) -> Self {
        ObjectSpec { kind, initial, name: name.into() }
    }
}

/// What a process does when next allocated a step.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Apply `op` to the shared object `object`.
    Invoke {
        /// The target object.
        object: ObjectId,
        /// The operation to apply.
        op: Operation,
    },
    /// Return (decide) a value and take no further steps.
    Decide(Decision),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Invoke { object, op } => write!(f, "{object:?}.{op:?}"),
            Action::Decide(d) => write!(f, "decide({d})"),
        }
    }
}

/// An asynchronous shared-memory protocol: per-process state machines
/// over a fixed set of shared objects.
///
/// Determinism contract: [`action`](Protocol::action),
/// [`coin_domain`](Protocol::coin_domain) and
/// [`transition`](Protocol::transition) must be pure functions of their
/// arguments, as [`ObjectKind::apply`](crate::kind::ObjectKind::apply)
/// is of the value and operation. All nondeterminism is expressed
/// through the coin domain. The explorer relies on this: it runs each
/// distinct step — a process state against the value of the object its
/// action accesses — through the protocol once, and replays the
/// memoized successors wherever that step recurs.
pub trait Protocol {
    /// Per-process local state. Must be cheap to clone and hashable so
    /// configurations can be memoized during exploration, and totally
    /// ordered so symmetric configurations have a well-defined canonical
    /// representative (the sorted process vector); any derived `Ord` is
    /// fine — only totality matters, never the particular order.
    type State: Clone + Eq + Ord + Hash + fmt::Debug;

    /// The shared objects this protocol uses, in [`ObjectId`] order.
    fn objects(&self) -> Vec<ObjectSpec>;

    /// The number of processes the protocol is instantiated for.
    fn num_processes(&self) -> usize;

    /// The initial state of process `pid` with consensus input `input`.
    fn initial_state(&self, pid: ProcessId, input: Decision) -> Self::State;

    /// The next action of a process in state `state`.
    fn action(&self, state: &Self::State) -> Action;

    /// The number of distinct coin outcomes for the transition out of
    /// `state` upon receiving `resp`. `1` means the transition is
    /// deterministic. Must be at least 1.
    fn coin_domain(&self, state: &Self::State, resp: &Response) -> u32 {
        let _ = (state, resp);
        1
    }

    /// The state after receiving `resp` with coin outcome
    /// `coin < coin_domain(state, resp)`.
    fn transition(&self, state: &Self::State, resp: &Response, coin: u32) -> Self::State;

    /// Whether all processes with equal inputs start in identical states
    /// (the paper's Section 3.1 "identical processes" restriction).
    ///
    /// When `true`, [`initial_state`](Protocol::initial_state) must
    /// ignore `pid`; the cloning machinery relies on this.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// Declares whether the explorer may quotient this protocol's state
    /// space by process-identity permutation (see [`Symmetry`]).
    ///
    /// The default, [`Symmetry::Asymmetric`], keeps exploration exact
    /// over raw configurations. Override to [`Symmetry::Symmetric`]
    /// only when process behaviour is genuinely identity-free — the
    /// same contract [`is_symmetric`](Protocol::is_symmetric) promises
    /// the cloning adversary, here promised to the canonicalizer.
    fn symmetry(&self) -> Symmetry {
        Symmetry::Asymmetric
    }
}

/// Blanket impl so `&P` is usable wherever a protocol is expected.
impl<P: Protocol + ?Sized> Protocol for &P {
    type State = P::State;

    fn objects(&self) -> Vec<ObjectSpec> {
        (**self).objects()
    }

    fn num_processes(&self) -> usize {
        (**self).num_processes()
    }

    fn initial_state(&self, pid: ProcessId, input: Decision) -> Self::State {
        (**self).initial_state(pid, input)
    }

    fn action(&self, state: &Self::State) -> Action {
        (**self).action(state)
    }

    fn coin_domain(&self, state: &Self::State, resp: &Response) -> u32 {
        (**self).coin_domain(state, resp)
    }

    fn transition(&self, state: &Self::State, resp: &Response, coin: u32) -> Self::State {
        (**self).transition(state, resp, coin)
    }

    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }

    fn symmetry(&self) -> Symmetry {
        (**self).symmetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial protocol: each process reads one register, then decides
    /// its own input. (Not consensus — used to exercise the trait.)
    #[derive(Debug)]
    pub struct DecideOwnInput {
        n: usize,
    }

    impl DecideOwnInput {
        pub fn new(n: usize) -> Self {
            DecideOwnInput { n }
        }
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub enum St {
        Fresh(Decision),
        Ready(Decision),
    }

    impl Protocol for DecideOwnInput {
        type State = St;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::new(ObjectKind::Register, "r")]
        }

        fn num_processes(&self) -> usize {
            self.n
        }

        fn initial_state(&self, _pid: ProcessId, input: Decision) -> St {
            St::Fresh(input)
        }

        fn action(&self, state: &St) -> Action {
            match state {
                St::Fresh(_) => Action::Invoke { object: ObjectId(0), op: Operation::Read },
                St::Ready(d) => Action::Decide(*d),
            }
        }

        fn transition(&self, state: &St, _resp: &Response, _coin: u32) -> St {
            match state {
                St::Fresh(d) => St::Ready(*d),
                St::Ready(d) => St::Ready(*d),
            }
        }

        fn is_symmetric(&self) -> bool {
            true
        }

        fn symmetry(&self) -> Symmetry {
            Symmetry::Symmetric
        }
    }

    #[test]
    fn symmetry_defaults_to_asymmetric() {
        /// A protocol relying on every default.
        #[derive(Debug)]
        struct Plain;
        impl Protocol for Plain {
            type State = St;
            fn objects(&self) -> Vec<ObjectSpec> {
                vec![ObjectSpec::new(ObjectKind::Register, "r")]
            }
            fn num_processes(&self) -> usize {
                1
            }
            fn initial_state(&self, _pid: ProcessId, input: Decision) -> St {
                St::Fresh(input)
            }
            fn action(&self, _state: &St) -> Action {
                Action::Decide(0)
            }
            fn transition(&self, state: &St, _resp: &Response, _coin: u32) -> St {
                state.clone()
            }
        }
        assert_eq!(Plain.symmetry(), Symmetry::Asymmetric);
        assert!(!Plain.symmetry().is_symmetric());
        assert!(DecideOwnInput::new(2).symmetry().is_symmetric());
    }

    #[test]
    fn object_spec_constructors() {
        let s = ObjectSpec::new(ObjectKind::TestAndSet, "flag");
        assert_eq!(s.initial, Value::Bool(false));
        let s2 = ObjectSpec::with_initial(ObjectKind::Register, Value::Int(7), "r");
        assert_eq!(s2.initial, Value::Int(7));
        assert_eq!(s2.name, "r");
    }

    #[test]
    fn action_debug_format() {
        let a = Action::Invoke { object: ObjectId(3), op: Operation::TestAndSet };
        assert_eq!(format!("{a:?}"), "R3.test&set");
        assert_eq!(format!("{:?}", Action::Decide(1)), "decide(1)");
    }

    #[test]
    fn default_coin_domain_is_deterministic() {
        let p = DecideOwnInput::new(2);
        let s = p.initial_state(ProcessId(0), 1);
        assert_eq!(p.coin_domain(&s, &Response::Ack), 1);
    }

    #[test]
    fn reference_blanket_impl_delegates() {
        let p = DecideOwnInput::new(3);
        let r = &p;
        assert_eq!(Protocol::num_processes(&r), 3);
        assert!(Protocol::is_symmetric(&r));
        assert_eq!(Protocol::objects(&r).len(), 1);
    }
}
