//! T3.3 — Theorem 3.3: the r² − r + 1 identical-process threshold.
//!
//! Theorem 3.3: at most r² − r + 1 identical processes can solve
//! randomized consensus using r read–write registers. The adversary
//! realizes the matching Lemma 3.2 construction; we report, per r, the
//! threshold, the processes the adversary actually consumed, and the
//! witness size — confirming the construction stays within its budget.

use criterion::{BenchmarkId, Criterion};
use randsync_bench::banner;
use randsync_consensus::model_protocols::{Optimistic, Zigzag};
use randsync_core::attack::attack_for_witness;
use randsync_core::bounds::{max_identical_processes, min_registers_identical};
use randsync_core::combine31::CombineLimits;

fn main() {
    banner(
        "T3.3",
        "the identical-process threshold r² − r + 1",
        "no consensus with nondeterministic solo termination from r registers \
         with r² − r + 2 or more identical processes",
    );

    println!(
        "{:>4} {:>18} {:>16} {:>16}",
        "r", "threshold r²−r+1", "optimistic used", "zigzag used"
    );
    for r in 1..=12usize {
        let t = max_identical_processes(r as u64);
        let (w1, _) =
            attack_for_witness(&Optimistic::new(2, r), &CombineLimits::default()).unwrap();
        let (w2, _) =
            attack_for_witness(&Zigzag::new(2, r), &CombineLimits::default()).unwrap();
        assert!(w1.processes_used as u64 <= t + 1);
        assert!(w2.processes_used as u64 <= t + 1);
        println!("{:>4} {:>18} {:>16} {:>16}", r, t, w1.processes_used, w2.processes_used);
    }

    println!("\ninverse view (registers forced by a process count):");
    println!("{:>10} {:>24}", "n", "min registers (identical)");
    for n in [1u64, 2, 4, 8, 16, 64, 256, 1024] {
        println!("{:>10} {:>24}", n, min_registers_identical(n));
    }
    println!("\nshape check: the inverse grows as Θ(√n).");

    let mut c = Criterion::default().sample_size(15).configure_from_args();
    let mut group = c.benchmark_group("thm33_attack_cost");
    for r in [2usize, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            let p = Optimistic::new(2, r);
            b.iter(|| attack_for_witness(&p, &CombineLimits::default()).unwrap());
        });
    }
    group.finish();
    c.final_summary();
}
