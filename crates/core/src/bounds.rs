//! The paper's closed-form bounds.
//!
//! Everything here is arithmetic, but it is the arithmetic the rest of
//! the workspace is built to witness: the adversary in [`crate::attack`]
//! realizes [`max_identical_processes`] constructively, and the
//! separation tables in [`crate::hierarchy`] are derived from
//! [`min_historyless_objects`] and [`composition_lower_bound`].

/// Theorem 3.3: at most `r² − r + 1` **identical** processes can solve
/// randomized consensus using `r` read–write registers.
///
/// Equivalently (Lemma 3.2): there is no implementation of consensus
/// satisfying nondeterministic solo termination from `r` registers
/// using `r² − r + 2` or more identical processes.
pub fn max_identical_processes(r: u64) -> u64 {
    r * r - r + 1
}

/// The least number of read–write registers *not excluded* by
/// Theorem 3.3 for `n` identical processes: the smallest `r` with
/// `r² − r + 1 ≥ n`.
pub fn min_registers_identical(n: u64) -> u64 {
    if n <= 1 {
        return 1;
    }
    // Solve r² − r + 1 ≥ n: r ≥ (1 + √(4n−3)) / 2.
    let mut r = ((1.0 + ((4 * n - 3) as f64).sqrt()) / 2.0).floor() as u64;
    while max_identical_processes(r) < n {
        r += 1;
    }
    while r > 1 && max_identical_processes(r - 1) >= n {
        r -= 1;
    }
    r
}

/// Lemma 3.6: there is no implementation of consensus satisfying
/// nondeterministic solo termination from `r` **historyless** objects
/// using `3r² + r` or more processes; so at most this many minus one.
pub fn max_processes_historyless(r: u64) -> u64 {
    3 * r * r + r - 1
}

/// Theorem 3.7: the least number of historyless objects *not excluded*
/// by Lemma 3.6 for `n` processes — the smallest `r` with
/// `3r² + r − 1 ≥ n`. Grows as `Θ(√n)`.
pub fn min_historyless_objects(n: u64) -> u64 {
    if n <= 3 {
        return 1;
    }
    let mut r = (((n as f64) / 3.0).sqrt()).floor() as u64;
    if r == 0 {
        r = 1;
    }
    while max_processes_historyless(r) < n {
        r += 1;
    }
    while r > 1 && max_processes_historyless(r - 1) >= n {
        r -= 1;
    }
    r
}

/// The O(n) **upper** bound quoted in Section 1: randomized n-process
/// consensus is solvable from this many bounded read–write registers
/// (our construction: the n-slot snapshot counter driving the walk).
pub fn registers_upper_bound(n: u64) -> u64 {
    n.max(1)
}

/// Theorem 2.1: if `f(n)` instances of `X` solve n-process randomized
/// consensus and `g(n)` instances of `Y` are required, then any
/// randomized non-blocking implementation of `X` from `Y` requires
/// `g(n)/f(n)` instances of `Y`. Rounded up, because object counts are
/// integral.
///
/// # Panics
///
/// Panics if `f == 0` (an implementation of consensus from zero objects
/// is vacuous).
pub fn composition_lower_bound(g: u64, f: u64) -> u64 {
    assert!(f > 0, "f(n) = 0 makes the composition vacuous");
    g.div_ceil(f)
}

/// Corollaries 4.1, 4.3, 4.5 in one formula: implementing any object of
/// which **one** instance solves randomized consensus (compare&swap,
/// counter, fetch&add, fetch&increment, fetch&decrement) from
/// historyless objects requires at least `min_historyless_objects(n)`
/// instances.
pub fn corollary_lower_bound(n: u64) -> u64 {
    composition_lower_bound(min_historyless_objects(n), 1)
}

/// The **multiple-use** strengthening the paper's conclusions cite
/// (Jayanti, Tan & Toueg): implementing a *multi-use* object such as an
/// increment, fetch&add, or compare&swap register — where each process
/// may access it repeatedly — from registers or swap registers takes
/// `n − 1` instances, versus the single-access Θ(√n)-vs-O(n) regime
/// this paper establishes.
pub fn multiuse_lower_bound(n: u64) -> u64 {
    n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_33_small_values() {
        assert_eq!(max_identical_processes(1), 1);
        assert_eq!(max_identical_processes(2), 3);
        assert_eq!(max_identical_processes(3), 7);
        assert_eq!(max_identical_processes(4), 13);
        assert_eq!(max_identical_processes(10), 91);
    }

    #[test]
    fn lemma_36_small_values() {
        assert_eq!(max_processes_historyless(1), 3);
        assert_eq!(max_processes_historyless(2), 13);
        assert_eq!(max_processes_historyless(3), 29);
    }

    #[test]
    fn inversions_round_trip() {
        for r in 1..200u64 {
            assert_eq!(min_registers_identical(max_identical_processes(r)), r);
            assert_eq!(min_historyless_objects(max_processes_historyless(r)), r);
            // One more process forces one more object.
            assert_eq!(min_registers_identical(max_identical_processes(r) + 1), r + 1);
            assert_eq!(min_historyless_objects(max_processes_historyless(r) + 1), r + 1);
        }
    }

    #[test]
    fn min_objects_is_monotone() {
        let mut prev = 0;
        for n in 1..5000u64 {
            let r = min_historyless_objects(n);
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn sqrt_growth() {
        // Θ(√n): bracket min_historyless_objects(n) between
        // √(n/3) − 1 and √n for large n.
        for n in [100u64, 1_000, 10_000, 1_000_000] {
            let r = min_historyless_objects(n);
            let lo = ((n as f64) / 3.0).sqrt() - 1.0;
            let hi = (n as f64).sqrt() + 1.0;
            assert!((r as f64) >= lo, "n={n}, r={r}");
            assert!((r as f64) <= hi, "n={n}, r={r}");
        }
        // Quadrupling n roughly doubles the bound.
        for n in [1u64 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18] {
            let ratio = min_historyless_objects(4 * n) as f64 / min_historyless_objects(n) as f64;
            assert!((1.8..=2.2).contains(&ratio), "n={n}, ratio={ratio}");
        }
    }

    #[test]
    fn composition_rounds_up() {
        assert_eq!(composition_lower_bound(10, 3), 4);
        assert_eq!(composition_lower_bound(9, 3), 3);
        assert_eq!(composition_lower_bound(0, 5), 0);
        assert_eq!(composition_lower_bound(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "vacuous")]
    fn composition_rejects_zero_f() {
        let _ = composition_lower_bound(5, 0);
    }

    #[test]
    fn corollaries_equal_theorem_37() {
        for n in [2u64, 10, 100, 1000] {
            assert_eq!(corollary_lower_bound(n), min_historyless_objects(n));
        }
    }

    #[test]
    fn upper_and_lower_bounds_do_not_cross() {
        for n in 1..2000u64 {
            assert!(min_historyless_objects(n) <= registers_upper_bound(n));
        }
    }

    #[test]
    fn multiuse_bound_dominates_the_single_access_bound_eventually() {
        // The conclusions' point: multi-use objects are harder — for
        // every n ≥ 2, n − 1 ≥ Ω(√n), strictly so once n > 4.
        for n in 2u64..10_000 {
            assert!(multiuse_lower_bound(n) + 1 >= min_historyless_objects(n));
        }
        assert!(multiuse_lower_bound(100) > min_historyless_objects(100));
        assert_eq!(multiuse_lower_bound(0), 0);
        assert_eq!(multiuse_lower_bound(1), 0);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(min_registers_identical(0), 1);
        assert_eq!(min_registers_identical(1), 1);
        assert_eq!(min_registers_identical(2), 2);
        assert_eq!(min_historyless_objects(0), 1);
        assert_eq!(min_historyless_objects(3), 1);
        assert_eq!(min_historyless_objects(4), 2);
        assert_eq!(registers_upper_bound(0), 1);
    }
}
