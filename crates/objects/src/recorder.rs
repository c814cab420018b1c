//! History recording for linearizability validation.
//!
//! A [`Recorder`] stamps each operation with invocation/response
//! timestamps from a shared logical clock and accumulates
//! [`Event`]s. The resulting
//! [`History`] is checked against the
//! [`ObjectKind`](randsync_model::ObjectKind) sequential semantics by
//! the model crate's Wing–Gong checker — this is how the threaded
//! objects in this crate are validated against the *same* semantics the
//! simulator and the lower-bound machinery use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use randsync_model::{Event, History, Operation, Response, Value};

use crate::traits::{CompareSwap, Counter, FetchAdd, ReadWrite, Swap, TestAndSet};

const ORD: Ordering = Ordering::SeqCst;

/// Records timed operation events against a single object.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_events(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        // A panic while holding the lock poisons it; recording is
        // append-only, so the data is still coherent — keep going.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record an arbitrary operation: stamps the invocation, runs `f`,
    /// stamps the response, and logs the event. Returns `f`'s response.
    pub fn record<F>(&self, process: usize, op: Operation, f: F) -> Response
    where
        F: FnOnce() -> Response,
    {
        let invoked_at = self.clock.fetch_add(1, ORD);
        let response = f();
        let responded_at = self.clock.fetch_add(1, ORD);
        self.lock_events().push(Event {
            process,
            op,
            response,
            invoked_at,
            responded_at,
        });
        response
    }

    /// The recorded history so far (a snapshot; recording may continue).
    pub fn history(&self) -> History {
        History::from_events(self.lock_events().clone())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock_events().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- convenience wrappers per object family -------------------

    /// Record a READ on a read–write register.
    pub fn read(&self, process: usize, reg: &dyn ReadWrite) -> i64 {
        let r = self.record(process, Operation::Read, || {
            Response::Value(Value::Int(reg.read()))
        });
        r.as_int().expect("read response carries an int")
    }

    /// Record a WRITE on a read–write register.
    pub fn write(&self, process: usize, reg: &dyn ReadWrite, v: i64) {
        self.record(process, Operation::Write(Value::Int(v)), || {
            reg.write(v);
            Response::Ack
        });
    }

    /// Record a SWAP.
    pub fn swap(&self, process: usize, reg: &dyn Swap, v: i64) -> i64 {
        let r = self.record(process, Operation::Swap(Value::Int(v)), || {
            Response::Value(Value::Int(reg.swap(v)))
        });
        r.as_int().expect("swap response carries an int")
    }

    /// Record a TEST&SET.
    pub fn test_and_set(&self, process: usize, flag: &dyn TestAndSet) -> bool {
        let r = self.record(process, Operation::TestAndSet, || {
            Response::Value(Value::Bool(flag.test_and_set()))
        });
        r.value()
            .and_then(|v| v.as_bool())
            .expect("test&set response carries a bool")
    }

    /// Record a FETCH&ADD.
    pub fn fetch_add(&self, process: usize, reg: &dyn FetchAdd, delta: i64) -> i64 {
        let r = self.record(process, Operation::FetchAdd(delta), || {
            Response::Value(Value::Int(reg.fetch_add(delta)))
        });
        r.as_int().expect("fetch&add response carries an int")
    }

    /// Record a COMPARE&SWAP.
    pub fn compare_swap(
        &self,
        process: usize,
        reg: &dyn CompareSwap,
        expected: i64,
        new: i64,
    ) -> i64 {
        let op = Operation::CompareSwap {
            expected: Value::Int(expected),
            new: Value::Int(new),
        };
        let r = self.record(process, op, || {
            Response::Value(Value::Int(reg.compare_swap(expected, new)))
        });
        r.as_int().expect("compare&swap response carries an int")
    }

    /// Record an INC on a counter.
    pub fn inc(&self, process: usize, c: &dyn Counter) {
        self.record(process, Operation::Inc, || {
            c.inc();
            Response::Ack
        });
    }

    /// Record a DEC on a counter.
    pub fn dec(&self, process: usize, c: &dyn Counter) {
        self.record(process, Operation::Dec, || {
            c.dec();
            Response::Ack
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{CasRegister, FetchAddRegister, SwapRegister, TestAndSetFlag};
    use randsync_model::{LinearizabilityChecker, ObjectKind};

    #[test]
    fn recorded_sequential_history_is_linearizable() {
        let reg = SwapRegister::new(0);
        let rec = Recorder::new();
        rec.write(0, &reg, 5);
        assert_eq!(rec.swap(0, &reg, 7), 5);
        assert_eq!(rec.read(0, &reg), 7);
        assert_eq!(rec.len(), 3);
        let checker = LinearizabilityChecker::with_initial(ObjectKind::SwapRegister, Value::Int(0));
        assert!(checker.is_linearizable(&rec.history()));
    }

    #[test]
    fn recorder_intervals_are_well_formed_under_concurrency() {
        let fa = FetchAddRegister::new(0);
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for p in 0..4 {
                let (rec, fa) = (&rec, &fa);
                s.spawn(move || {
                    for _ in 0..20 {
                        rec.fetch_add(p, fa, 1);
                    }
                });
            }
        });
        let h = rec.history();
        assert_eq!(h.len(), 80);
        assert!(h.is_well_formed());
    }

    #[test]
    fn concurrent_tas_history_linearizes() {
        let flag = TestAndSetFlag::new();
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for p in 0..4 {
                let (rec, flag) = (&rec, &flag);
                s.spawn(move || {
                    rec.test_and_set(p, flag);
                });
            }
        });
        let checker = LinearizabilityChecker::new(ObjectKind::TestAndSet);
        assert!(checker.is_linearizable(&rec.history()));
        // Exactly one winner in the recorded responses.
        let winners = rec
            .history()
            .events()
            .iter()
            .filter(|e| e.response == Response::Value(Value::Bool(false)))
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn concurrent_cas_history_linearizes() {
        let cas = CasRegister::new(0);
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for p in 0..3 {
                let (rec, cas) = (&rec, &cas);
                s.spawn(move || {
                    rec.compare_swap(p, cas, 0, p as i64 + 1);
                    rec.record(p, Operation::Read, || {
                        Response::Value(Value::Int(cas.load()))
                    });
                });
            }
        });
        let checker = LinearizabilityChecker::with_initial(ObjectKind::CompareSwap, Value::Int(0));
        assert!(checker.is_linearizable(&rec.history()));
    }

    #[test]
    fn empty_recorder() {
        let rec = Recorder::new();
        assert!(rec.is_empty());
        assert!(rec.history().is_empty());
    }
}
