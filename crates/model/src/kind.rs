//! Object types and the paper's operation algebra.
//!
//! Section 2 of the paper classifies operations algebraically:
//!
//! * an operation is **trivial** if applying it never changes the value;
//! * two operations **commute** if the order in which they are applied
//!   never affects the resulting value;
//! * `f` **overwrites** `f'` if performing `f'` then `f` always results
//!   in the same value as performing just `f` (i.e. `f(f'(x)) = f(x)`);
//! * an object type is **historyless** if all its nontrivial operations
//!   overwrite one another — the value depends only on the last
//!   nontrivial operation applied;
//! * a set of operations is **interfering** if every pair either
//!   commutes or one overwrites the other.
//!
//! [`ObjectKind`] implements the operational semantics of every object
//! type the paper mentions, and the classification predicates are
//! *decided by checking the definitions* over the kind's sampled value
//! and operation spaces (which are exhaustive for the finite-state kinds
//! and representative for the integer-valued ones — the algebra of each
//! operation family is uniform in its parameters).

use crate::error::ModelError;
use crate::op::{Operation, Response};
use crate::value::Value;

/// The type of a shared object: its value space, initial value, and the
/// set of primitive operations that may be applied to it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ObjectKind {
    /// A read–write register holding an arbitrary [`Value`]
    /// (READ / WRITE). Historyless.
    Register,
    /// A swap register (READ / WRITE / SWAP). The response to SWAP is the
    /// previous value. Historyless; the op set is interfering.
    SwapRegister,
    /// A test&set register over `{false, true}` (TEST&SET / READ /
    /// RESET), initially `false`. Historyless.
    TestAndSet,
    /// A fetch&add register over the integers (FETCH&ADD(a) / READ),
    /// initially 0. Commuting (hence interfering) but **not**
    /// historyless.
    FetchAdd,
    /// A fetch&increment register: FETCH&ADD(1) and READ only.
    ///
    /// The paper's fetch&increment register returns the previous value
    /// and increments. We additionally allow READ (= the information
    /// content of FETCH&ADD(0)); this matches the counter-implementation
    /// claim of Theorem 4.4 and is recorded as a modeling choice in
    /// DESIGN.md.
    FetchIncrement,
    /// A fetch&decrement register: FETCH&ADD(-1) and READ only (see
    /// [`ObjectKind::FetchIncrement`] for the READ note).
    FetchDecrement,
    /// A compare&swap register (COMPARE&SWAP(e, n) / READ), initially ⊥.
    /// **Not** historyless and **not** interfering.
    CompareSwap,
    /// An unbounded counter (INC / DEC / RESET / READ), initially 0.
    /// Interfering but not historyless.
    Counter,
    /// A bounded counter over the inclusive range `[lo, hi]`; INC and DEC
    /// wrap modulo the size of the range (Section 2). Initially `0`
    /// clamped into range.
    BoundedCounter {
        /// Smallest representable value.
        lo: i64,
        /// Largest representable value.
        hi: i64,
    },
}

impl ObjectKind {
    /// The value this kind of object holds before any operation is
    /// applied.
    pub fn initial_value(&self) -> Value {
        match self {
            ObjectKind::Register | ObjectKind::SwapRegister | ObjectKind::CompareSwap => {
                Value::Bottom
            }
            ObjectKind::TestAndSet => Value::Bool(false),
            ObjectKind::FetchAdd
            | ObjectKind::FetchIncrement
            | ObjectKind::FetchDecrement
            | ObjectKind::Counter => Value::Int(0),
            ObjectKind::BoundedCounter { lo, hi } => Value::Int(0i64.clamp(*lo, *hi)),
        }
    }

    /// Whether `op` is part of this kind's operation set.
    pub fn supports(&self, op: &Operation) -> bool {
        match self {
            ObjectKind::Register => matches!(op, Operation::Read | Operation::Write(_)),
            ObjectKind::SwapRegister => {
                matches!(op, Operation::Read | Operation::Write(_) | Operation::Swap(_))
            }
            ObjectKind::TestAndSet => {
                matches!(op, Operation::Read | Operation::TestAndSet | Operation::Reset)
            }
            ObjectKind::FetchAdd => matches!(op, Operation::Read | Operation::FetchAdd(_)),
            ObjectKind::FetchIncrement => {
                matches!(op, Operation::Read | Operation::FetchAdd(1))
            }
            ObjectKind::FetchDecrement => {
                matches!(op, Operation::Read | Operation::FetchAdd(-1))
            }
            ObjectKind::CompareSwap => {
                matches!(op, Operation::Read | Operation::CompareSwap { .. })
            }
            ObjectKind::Counter | ObjectKind::BoundedCounter { .. } => matches!(
                op,
                Operation::Read | Operation::Inc | Operation::Dec | Operation::Reset
            ),
        }
    }

    /// Apply `op` to current value `v`, yielding the new value and the
    /// response. A pure function of the kind, `v` and `op` (errors
    /// included), which the explorer's memoized steps rely on (see the
    /// [`Protocol`](crate::protocol::Protocol) determinism contract).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnsupportedOperation`] if this kind does not
    /// support `op`, and [`ModelError::TypeMismatch`] if the stored value
    /// is outside this kind's value space (which indicates a corrupted
    /// configuration).
    pub fn apply(&self, v: &Value, op: &Operation) -> Result<(Value, Response), ModelError> {
        if !self.supports(op) {
            return Err(ModelError::UnsupportedOperation { kind: *self, op: *op });
        }
        match op {
            Operation::Read => Ok((*v, Response::Value(*v))),
            Operation::Write(x) => Ok((*x, Response::Ack)),
            Operation::Swap(x) => Ok((*x, Response::Value(*v))),
            Operation::TestAndSet => {
                let old = v.as_bool().ok_or(ModelError::TypeMismatch {
                    kind: *self,
                    value: *v,
                })?;
                Ok((Value::Bool(true), Response::Value(Value::Bool(old))))
            }
            Operation::Reset => match self {
                ObjectKind::TestAndSet => Ok((Value::Bool(false), Response::Ack)),
                ObjectKind::Counter => Ok((Value::Int(0), Response::Ack)),
                ObjectKind::BoundedCounter { lo, hi } => {
                    Ok((Value::Int(0i64.clamp(*lo, *hi)), Response::Ack))
                }
                _ => unreachable!("supports() admitted reset only for the kinds above"),
            },
            Operation::FetchAdd(a) => {
                let old = v.as_int().ok_or(ModelError::TypeMismatch {
                    kind: *self,
                    value: *v,
                })?;
                Ok((Value::Int(old.wrapping_add(*a)), Response::Value(Value::Int(old))))
            }
            Operation::CompareSwap { expected, new } => {
                let next = if v == expected { *new } else { *v };
                Ok((next, Response::Value(*v)))
            }
            Operation::Inc | Operation::Dec => {
                let old = v.as_int().ok_or(ModelError::TypeMismatch {
                    kind: *self,
                    value: *v,
                })?;
                let delta = if matches!(op, Operation::Inc) { 1 } else { -1 };
                let next = match self {
                    ObjectKind::BoundedCounter { lo, hi } => {
                        wrap_into_range(old + delta, *lo, *hi)
                    }
                    _ => old.wrapping_add(delta),
                };
                Ok((Value::Int(next), Response::Ack))
            }
        }
    }

    /// Whether `op` is **trivial** for this kind: applying it never
    /// changes the value. Decided by checking the definition over the
    /// kind's sampled value space.
    pub fn is_trivial(&self, op: &Operation) -> bool {
        if !self.supports(op) {
            return false;
        }
        self.sample_values().iter().all(|v| {
            self.apply(v, op).map(|(next, _)| next == *v).unwrap_or(false)
        })
    }

    /// Whether `f` **overwrites** `g` for this kind: `f(g(x)) = f(x)` for
    /// every value `x`. Decided over the sampled value space.
    pub fn overwrites(&self, f: &Operation, g: &Operation) -> bool {
        if !self.supports(f) || !self.supports(g) {
            return false;
        }
        self.sample_values().iter().all(|x| {
            let via_g = self
                .apply(x, g)
                .and_then(|(gx, _)| self.apply(&gx, f))
                .map(|(fgx, _)| fgx);
            let direct = self.apply(x, f).map(|(fx, _)| fx);
            matches!((via_g, direct), (Ok(a), Ok(b)) if a == b)
        })
    }

    /// Whether `f` and `g` **commute** for this kind: applying them in
    /// either order always yields the same value. Decided over the
    /// sampled value space.
    pub fn commutes(&self, f: &Operation, g: &Operation) -> bool {
        if !self.supports(f) || !self.supports(g) {
            return false;
        }
        self.sample_values().iter().all(|x| {
            let fg = self
                .apply(x, g)
                .and_then(|(gx, _)| self.apply(&gx, f))
                .map(|(v, _)| v);
            let gf = self
                .apply(x, f)
                .and_then(|(fx, _)| self.apply(&fx, g))
                .map(|(v, _)| v);
            matches!((fg, gf), (Ok(a), Ok(b)) if a == b)
        })
    }

    /// Whether `f` and `g` are **independent** for this kind: applying
    /// them in either order yields the same value *and* the same
    /// response for each operation — neither observes whether the other
    /// ran first. Decided over the sampled value space.
    ///
    /// This is strictly stronger than [`commutes`](Self::commutes):
    /// two fetch&adds commute (the sums agree) but are *not*
    /// independent, because each returns the previous value and
    /// therefore observes the order. Independence is the relation the
    /// explorer's partial-order reduction needs — swapping two adjacent
    /// independent steps of *different* processes closes the diamond
    /// exactly (same object value, same responses, hence the same
    /// process transitions), so the two interleavings reach the same
    /// configuration, not merely value-equivalent ones.
    pub fn independent(&self, f: &Operation, g: &Operation) -> bool {
        if !self.supports(f) || !self.supports(g) {
            return false;
        }
        self.sample_values().iter().all(|x| {
            let (Ok((fx, rf)), Ok((gx, rg))) = (self.apply(x, f), self.apply(x, g)) else {
                return false;
            };
            let (Ok((fgx, rg2)), Ok((gfx, rf2))) = (self.apply(&fx, g), self.apply(&gx, f))
            else {
                return false;
            };
            fgx == gfx && rf == rf2 && rg == rg2
        })
    }

    /// Whether this object type is **historyless**: all its nontrivial
    /// operations overwrite one another, so the value depends only on the
    /// last nontrivial operation applied.
    ///
    /// This is the hypothesis of the paper's main lower bound
    /// (Theorem 3.7).
    pub fn is_historyless(&self) -> bool {
        let ops = self.sample_nontrivial_ops();
        ops.iter().all(|f| ops.iter().all(|g| self.overwrites(f, g)))
    }

    /// Whether this kind's full (sampled) operation set is
    /// **interfering**: every pair of operations commutes or one
    /// overwrites the other.
    pub fn is_interfering(&self) -> bool {
        let ops = self.sample_ops();
        ops.iter().all(|f| {
            ops.iter().all(|g| {
                self.commutes(f, g) || self.overwrites(f, g) || self.overwrites(g, f)
            })
        })
    }

    /// Representative values of this kind's value space. Exhaustive for
    /// the finite-state kinds (test&set, small bounded counters);
    /// representative for the integer-valued ones.
    pub fn sample_values(&self) -> Vec<Value> {
        match self {
            ObjectKind::Register | ObjectKind::SwapRegister | ObjectKind::CompareSwap => vec![
                Value::Bottom,
                Value::Int(-2),
                Value::Int(-1),
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Bool(false),
                Value::Bool(true),
                Value::Pair(0, 1),
                Value::Pair(1, 0),
            ],
            ObjectKind::TestAndSet => vec![Value::Bool(false), Value::Bool(true)],
            ObjectKind::FetchAdd
            | ObjectKind::FetchIncrement
            | ObjectKind::FetchDecrement
            | ObjectKind::Counter => {
                (-3..=4).map(Value::Int).collect()
            }
            ObjectKind::BoundedCounter { lo, hi } => {
                let span = (hi - lo).min(8);
                (0..=span).map(|d| Value::Int(lo + d)).chain([Value::Int(*hi)]).collect()
            }
        }
    }

    /// Representative operations of this kind (trivial ones included).
    pub fn sample_ops(&self) -> Vec<Operation> {
        let mut ops = vec![Operation::Read];
        ops.extend(self.sample_nontrivial_ops());
        if matches!(self, ObjectKind::FetchAdd) {
            ops.push(Operation::FetchAdd(0));
        }
        ops
    }

    /// Representative **nontrivial** operations of this kind, used to
    /// decide [`is_historyless`](Self::is_historyless).
    pub fn sample_nontrivial_ops(&self) -> Vec<Operation> {
        match self {
            ObjectKind::Register => vec![
                Operation::Write(Value::Bottom),
                Operation::Write(Value::Int(0)),
                Operation::Write(Value::Int(1)),
                Operation::Write(Value::Pair(0, 1)),
            ],
            ObjectKind::SwapRegister => vec![
                Operation::Write(Value::Int(0)),
                Operation::Write(Value::Int(1)),
                Operation::Swap(Value::Bottom),
                Operation::Swap(Value::Int(0)),
                Operation::Swap(Value::Int(1)),
            ],
            ObjectKind::TestAndSet => vec![Operation::TestAndSet, Operation::Reset],
            ObjectKind::FetchAdd => {
                vec![
                    Operation::FetchAdd(-2),
                    Operation::FetchAdd(-1),
                    Operation::FetchAdd(1),
                    Operation::FetchAdd(2),
                ]
            }
            ObjectKind::FetchIncrement => vec![Operation::FetchAdd(1)],
            ObjectKind::FetchDecrement => vec![Operation::FetchAdd(-1)],
            ObjectKind::CompareSwap => {
                let vs = [Value::Bottom, Value::Int(0), Value::Int(1)];
                let mut ops = Vec::new();
                for e in vs {
                    for n in vs {
                        if e != n {
                            ops.push(Operation::CompareSwap { expected: e, new: n });
                        }
                    }
                }
                ops
            }
            ObjectKind::Counter | ObjectKind::BoundedCounter { .. } => {
                vec![Operation::Inc, Operation::Dec, Operation::Reset]
            }
        }
    }

    /// A short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ObjectKind::Register => "read-write register",
            ObjectKind::SwapRegister => "swap register",
            ObjectKind::TestAndSet => "test&set register",
            ObjectKind::FetchAdd => "fetch&add register",
            ObjectKind::FetchIncrement => "fetch&increment register",
            ObjectKind::FetchDecrement => "fetch&decrement register",
            ObjectKind::CompareSwap => "compare&swap register",
            ObjectKind::Counter => "counter",
            ObjectKind::BoundedCounter { .. } => "bounded counter",
        }
    }

    /// A machine-friendly identifier (metric-name component: lowercase,
    /// underscores, no parameters).
    pub fn slug(&self) -> &'static str {
        match self {
            ObjectKind::Register => "register",
            ObjectKind::SwapRegister => "swap",
            ObjectKind::TestAndSet => "test_and_set",
            ObjectKind::FetchAdd => "fetch_add",
            ObjectKind::FetchIncrement => "fetch_increment",
            ObjectKind::FetchDecrement => "fetch_decrement",
            ObjectKind::CompareSwap => "compare_swap",
            ObjectKind::Counter => "counter",
            ObjectKind::BoundedCounter { .. } => "bounded_counter",
        }
    }

    /// All the kinds this crate models (with a representative bounded
    /// counter).
    pub fn all() -> Vec<ObjectKind> {
        vec![
            ObjectKind::Register,
            ObjectKind::SwapRegister,
            ObjectKind::TestAndSet,
            ObjectKind::FetchAdd,
            ObjectKind::FetchIncrement,
            ObjectKind::FetchDecrement,
            ObjectKind::CompareSwap,
            ObjectKind::Counter,
            ObjectKind::BoundedCounter { lo: -6, hi: 6 },
        ]
    }
}

/// Wrap `v` into the inclusive range `[lo, hi]`, modulo the range size —
/// the paper's bounded-counter semantics.
fn wrap_into_range(v: i64, lo: i64, hi: i64) -> i64 {
    debug_assert!(lo <= hi);
    let size = hi - lo + 1;
    lo + (v - lo).rem_euclid(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_semantics() {
        let k = ObjectKind::Register;
        assert_eq!(k.initial_value(), Value::Bottom);
        let (v, r) = k.apply(&Value::Bottom, &Operation::Write(Value::Int(9))).unwrap();
        assert_eq!(v, Value::Int(9));
        assert_eq!(r, Response::Ack);
        let (v2, r2) = k.apply(&v, &Operation::Read).unwrap();
        assert_eq!(v2, Value::Int(9));
        assert_eq!(r2, Response::Value(Value::Int(9)));
    }

    #[test]
    fn swap_returns_previous_value() {
        let k = ObjectKind::SwapRegister;
        let (v, r) = k.apply(&Value::Int(1), &Operation::Swap(Value::Int(2))).unwrap();
        assert_eq!(v, Value::Int(2));
        assert_eq!(r, Response::Value(Value::Int(1)));
    }

    #[test]
    fn test_and_set_semantics() {
        let k = ObjectKind::TestAndSet;
        let (v, r) = k.apply(&Value::Bool(false), &Operation::TestAndSet).unwrap();
        assert_eq!(v, Value::Bool(true));
        assert_eq!(r, Response::Value(Value::Bool(false)));
        // Second test&set observes true and leaves true.
        let (v2, r2) = k.apply(&v, &Operation::TestAndSet).unwrap();
        assert_eq!(v2, Value::Bool(true));
        assert_eq!(r2, Response::Value(Value::Bool(true)));
        let (v3, _) = k.apply(&v2, &Operation::Reset).unwrap();
        assert_eq!(v3, Value::Bool(false));
    }

    #[test]
    fn fetch_add_semantics() {
        let k = ObjectKind::FetchAdd;
        let (v, r) = k.apply(&Value::Int(5), &Operation::FetchAdd(-7)).unwrap();
        assert_eq!(v, Value::Int(-2));
        assert_eq!(r, Response::Value(Value::Int(5)));
    }

    #[test]
    fn compare_swap_semantics() {
        let k = ObjectKind::CompareSwap;
        let cas = Operation::CompareSwap { expected: Value::Bottom, new: Value::Int(1) };
        let (v, r) = k.apply(&Value::Bottom, &cas).unwrap();
        assert_eq!(v, Value::Int(1));
        assert_eq!(r, Response::Value(Value::Bottom));
        // Failed CAS leaves the value and still returns it.
        let (v2, r2) = k.apply(&v, &cas).unwrap();
        assert_eq!(v2, Value::Int(1));
        assert_eq!(r2, Response::Value(Value::Int(1)));
    }

    #[test]
    fn bounded_counter_wraps_modulo_range() {
        let k = ObjectKind::BoundedCounter { lo: -2, hi: 2 };
        let (v, _) = k.apply(&Value::Int(2), &Operation::Inc).unwrap();
        assert_eq!(v, Value::Int(-2), "inc past hi wraps to lo");
        let (v, _) = k.apply(&Value::Int(-2), &Operation::Dec).unwrap();
        assert_eq!(v, Value::Int(2), "dec past lo wraps to hi");
    }

    #[test]
    fn unsupported_operations_are_rejected() {
        assert!(ObjectKind::Register.apply(&Value::Bottom, &Operation::Inc).is_err());
        assert!(ObjectKind::TestAndSet.apply(&Value::Bool(false), &Operation::FetchAdd(1)).is_err());
        assert!(ObjectKind::FetchIncrement
            .apply(&Value::Int(0), &Operation::FetchAdd(2))
            .is_err());
        // FetchIncrement supports exactly +1.
        assert!(ObjectKind::FetchIncrement
            .apply(&Value::Int(0), &Operation::FetchAdd(1))
            .is_ok());
    }

    #[test]
    fn read_is_trivial_everywhere() {
        for k in ObjectKind::all() {
            assert!(k.is_trivial(&Operation::Read), "{}", k.name());
        }
    }

    #[test]
    fn fetch_add_zero_is_trivial() {
        assert!(ObjectKind::FetchAdd.is_trivial(&Operation::FetchAdd(0)));
        assert!(!ObjectKind::FetchAdd.is_trivial(&Operation::FetchAdd(1)));
    }

    #[test]
    fn degenerate_cas_is_trivial() {
        // compare&swap(e → e) never changes the value.
        let op = Operation::CompareSwap { expected: Value::Int(1), new: Value::Int(1) };
        assert!(ObjectKind::CompareSwap.is_trivial(&op));
    }

    #[test]
    fn writes_overwrite_one_another() {
        let k = ObjectKind::SwapRegister;
        let w1 = Operation::Write(Value::Int(1));
        let s2 = Operation::Swap(Value::Int(2));
        assert!(k.overwrites(&w1, &s2));
        assert!(k.overwrites(&s2, &w1));
        assert!(k.overwrites(&w1, &w1), "writes are idempotent");
    }

    #[test]
    fn fetch_adds_commute_but_do_not_overwrite() {
        let k = ObjectKind::FetchAdd;
        let a = Operation::FetchAdd(2);
        let b = Operation::FetchAdd(3);
        assert!(k.commutes(&a, &b));
        assert!(!k.overwrites(&a, &b));
        assert!(!k.overwrites(&b, &a));
    }

    #[test]
    fn reads_are_independent_everywhere() {
        // Two reads never disturb each other, whatever the kind.
        for k in ObjectKind::all() {
            assert!(k.independent(&Operation::Read, &Operation::Read), "{}", k.name());
        }
    }

    #[test]
    fn reads_depend_on_value_changers() {
        // A read *observes*: any operation that can change the value is
        // dependent with it, even though they commute value-wise.
        let k = ObjectKind::Register;
        let w = Operation::Write(Value::Int(1));
        assert!(k.commutes(&Operation::Read, &w));
        assert!(!k.independent(&Operation::Read, &w));
        assert!(!ObjectKind::Counter.independent(&Operation::Read, &Operation::Inc));
    }

    #[test]
    fn fetch_adds_commute_but_are_not_independent() {
        // The sums agree in either order, but each fetch&add returns
        // the previous value and therefore observes the order.
        let k = ObjectKind::FetchAdd;
        let a = Operation::FetchAdd(2);
        let b = Operation::FetchAdd(3);
        assert!(k.commutes(&a, &b));
        assert!(!k.independent(&a, &b));
        assert!(!k.independent(&a, &a));
    }

    #[test]
    fn blind_commuting_ops_are_independent() {
        // Inc/Dec respond with Ack: commuting *and* order-blind.
        for k in [ObjectKind::Counter, ObjectKind::BoundedCounter { lo: -2, hi: 2 }] {
            assert!(k.independent(&Operation::Inc, &Operation::Inc), "{}", k.name());
            assert!(k.independent(&Operation::Inc, &Operation::Dec), "{}", k.name());
            assert!(k.independent(&Operation::Reset, &Operation::Reset), "{}", k.name());
        }
    }

    #[test]
    fn writes_and_swaps_are_dependent() {
        let k = ObjectKind::SwapRegister;
        let w1 = Operation::Write(Value::Int(1));
        let w2 = Operation::Write(Value::Int(2));
        let s = Operation::Swap(Value::Int(3));
        // Distinct writes overwrite: the surviving value names the order.
        assert!(!k.independent(&w1, &w2));
        // A swap observes the previous value on top of overwriting.
        assert!(!k.independent(&s, &w1));
        assert!(!k.independent(&s, &s));
        // Identical writes are the degenerate exception: either order
        // leaves the same value and both respond Ack.
        assert!(k.independent(&w1, &w1));
    }

    #[test]
    fn cas_and_tas_interfere() {
        let cas = Operation::CompareSwap { expected: Value::Bottom, new: Value::Int(1) };
        assert!(!ObjectKind::CompareSwap.independent(&cas, &cas));
        assert!(!ObjectKind::CompareSwap.independent(&Operation::Read, &cas));
        assert!(!ObjectKind::TestAndSet.independent(&Operation::TestAndSet, &Operation::TestAndSet));
    }

    #[test]
    fn independence_is_symmetric_and_implies_commutation() {
        for k in ObjectKind::all() {
            let ops = k.sample_ops();
            for f in &ops {
                for g in &ops {
                    assert_eq!(k.independent(f, g), k.independent(g, f), "{}", k.name());
                    if k.independent(f, g) {
                        assert!(k.commutes(f, g), "{}: {f:?} vs {g:?}", k.name());
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_ops_commute_with_everything() {
        // "A trivial operation commutes with any other operation on the
        // same object."
        for k in ObjectKind::all() {
            for op in k.sample_ops() {
                assert!(k.commutes(&Operation::Read, &op), "{} vs {op:?}", k.name());
            }
        }
    }

    #[test]
    fn paper_historyless_classification() {
        // Paper, Section 2: read-write, swap and test&set registers are
        // historyless; fetch&add, compare&swap and counters are not.
        assert!(ObjectKind::Register.is_historyless());
        assert!(ObjectKind::SwapRegister.is_historyless());
        assert!(ObjectKind::TestAndSet.is_historyless());
        assert!(!ObjectKind::FetchAdd.is_historyless());
        assert!(!ObjectKind::FetchIncrement.is_historyless());
        assert!(!ObjectKind::FetchDecrement.is_historyless());
        assert!(!ObjectKind::CompareSwap.is_historyless());
        assert!(!ObjectKind::Counter.is_historyless());
        assert!(!ObjectKind::BoundedCounter { lo: -6, hi: 6 }.is_historyless());
    }

    #[test]
    fn paper_interfering_classification() {
        // "The set of READ, WRITE, and SWAP operations is interfering,
        // but the set of COMPARE&SWAP operations is not."
        assert!(ObjectKind::Register.is_interfering());
        assert!(ObjectKind::SwapRegister.is_interfering());
        assert!(ObjectKind::TestAndSet.is_interfering());
        assert!(ObjectKind::FetchAdd.is_interfering());
        assert!(ObjectKind::Counter.is_interfering());
        assert!(!ObjectKind::CompareSwap.is_interfering());
    }

    #[test]
    fn historyless_implies_interfering() {
        for k in ObjectKind::all() {
            if k.is_historyless() {
                assert!(k.is_interfering(), "{}", k.name());
            }
        }
    }

    #[test]
    fn reset_overwrites_inc_but_not_conversely() {
        let k = ObjectKind::Counter;
        assert!(k.overwrites(&Operation::Reset, &Operation::Inc));
        assert!(!k.overwrites(&Operation::Inc, &Operation::Reset));
        assert!(k.commutes(&Operation::Inc, &Operation::Dec));
    }

    #[test]
    fn wrap_into_range_basics() {
        assert_eq!(wrap_into_range(3, -2, 2), -2);
        assert_eq!(wrap_into_range(-3, -2, 2), 2);
        assert_eq!(wrap_into_range(0, -2, 2), 0);
        assert_eq!(wrap_into_range(7, 0, 4), 2);
    }

    #[test]
    fn support_matrix_is_exactly_as_documented() {
        use Operation as Op;
        let w = Op::Write(Value::Int(1));
        let s = Op::Swap(Value::Int(1));
        let cas = Op::CompareSwap { expected: Value::Bottom, new: Value::Int(1) };
        // (kind, [read, write, swap, tas, reset, fa(1), cas, inc, dec])
        let table: Vec<(ObjectKind, [bool; 9])> = vec![
            (ObjectKind::Register, [true, true, false, false, false, false, false, false, false]),
            (ObjectKind::SwapRegister, [true, true, true, false, false, false, false, false, false]),
            (ObjectKind::TestAndSet, [true, false, false, true, true, false, false, false, false]),
            (ObjectKind::FetchAdd, [true, false, false, false, false, true, false, false, false]),
            (ObjectKind::FetchIncrement, [true, false, false, false, false, true, false, false, false]),
            (ObjectKind::FetchDecrement, [true, false, false, false, false, false, false, false, false]),
            (ObjectKind::CompareSwap, [true, false, false, false, false, false, true, false, false]),
            (ObjectKind::Counter, [true, false, false, false, true, false, false, true, true]),
            (
                ObjectKind::BoundedCounter { lo: -2, hi: 2 },
                [true, false, false, false, true, false, false, true, true],
            ),
        ];
        let ops =
            [Op::Read, w, s, Op::TestAndSet, Op::Reset, Op::FetchAdd(1), cas, Op::Inc, Op::Dec];
        for (kind, expected) in table {
            for (op, want) in ops.iter().zip(expected) {
                assert_eq!(
                    kind.supports(op),
                    want,
                    "{} supports {op:?}?",
                    kind.name()
                );
            }
        }
        // FetchDecrement supports fetch&add(-1) (not +1).
        assert!(ObjectKind::FetchDecrement.supports(&Op::FetchAdd(-1)));
        assert!(!ObjectKind::FetchIncrement.supports(&Op::FetchAdd(-1)));
    }

    #[test]
    fn every_sampled_op_applies_to_every_sampled_value() {
        for kind in ObjectKind::all() {
            for v in kind.sample_values() {
                for op in kind.sample_ops() {
                    assert!(
                        kind.apply(&v, &op).is_ok(),
                        "{}: {op:?} on {v:?}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_single_value_bounded_counter() {
        let k = ObjectKind::BoundedCounter { lo: 0, hi: 0 };
        let (v, _) = k.apply(&Value::Int(0), &Operation::Inc).unwrap();
        assert_eq!(v, Value::Int(0), "a one-value range absorbs everything");
        assert!(k.is_historyless(), "all its nontrivial ops fix the same value");
    }

    #[test]
    fn initial_values_are_in_range() {
        let k = ObjectKind::BoundedCounter { lo: 3, hi: 9 };
        assert_eq!(k.initial_value(), Value::Int(3));
        let k = ObjectKind::BoundedCounter { lo: -9, hi: -3 };
        assert_eq!(k.initial_value(), Value::Int(-3));
    }
}
