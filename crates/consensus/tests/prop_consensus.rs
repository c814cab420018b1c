//! Property tests: consensus correctness over randomized seeds, inputs
//! and schedules — threaded and simulated.

use proptest::prelude::*;
use randsync_consensus::model_protocols::{WalkBacking, WalkModel};
use randsync_consensus::spec::decide_concurrently;
use randsync_consensus::{CasConsensus, SwapTwoConsensus, WalkConsensus};
use randsync_model::{
    ContrarianScheduler, CrashScheduler, Operation, ProcessId, RandomScheduler, Scheduler, Simulator,
};
use randsync_objects::FetchAddRegister;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The threaded counter walk is consistent and valid for every
    /// seed/input combination.
    #[test]
    fn threaded_counter_walk_is_correct(
        n in 2usize..6,
        seed in any::<u64>(),
        input_bits in any::<u16>(),
    ) {
        let inputs: Vec<u8> = (0..n).map(|p| ((input_bits >> p) & 1) as u8).collect();
        let proto = WalkConsensus::with_bounded_counter(n, seed);
        let ds = decide_concurrently(&proto, &inputs);
        let d = ds[0];
        prop_assert!(ds.iter().all(|&x| x == d), "inconsistent: {ds:?}");
        prop_assert!(inputs.contains(&d), "invalid: {d} not in {inputs:?}");
    }

    /// Same for the fetch&add instantiation (Theorem 4.4).
    #[test]
    fn threaded_fetch_add_walk_is_correct(
        n in 2usize..6,
        seed in any::<u64>(),
        input_bits in any::<u16>(),
    ) {
        let inputs: Vec<u8> = (0..n).map(|p| ((input_bits >> p) & 1) as u8).collect();
        let proto = WalkConsensus::with_fetch_add(FetchAddRegister::new(0), n, seed);
        let ds = decide_concurrently(&proto, &inputs);
        let d = ds[0];
        prop_assert!(ds.iter().all(|&x| x == d));
        prop_assert!(inputs.contains(&d));
    }

    /// CAS consensus under arbitrary thread interleavings.
    #[test]
    fn threaded_cas_is_correct(n in 2usize..9, input_bits in any::<u16>()) {
        let inputs: Vec<u8> = (0..n).map(|p| ((input_bits >> p) & 1) as u8).collect();
        let proto = CasConsensus::new(n);
        let ds = decide_concurrently(&proto, &inputs);
        let d = ds[0];
        prop_assert!(ds.iter().all(|&x| x == d));
        prop_assert!(inputs.contains(&d));
    }

    /// Two-process swap consensus under arbitrary interleavings.
    #[test]
    fn threaded_swap2_is_correct(a in 0u8..2, b in 0u8..2) {
        let proto = SwapTwoConsensus::new();
        let ds = decide_concurrently(&proto, &[a, b]);
        prop_assert_eq!(ds[0], ds[1]);
        prop_assert!([a, b].contains(&ds[0]));
    }

    /// The model walk, simulated under arbitrary random schedules with
    /// arbitrary coin seeds, terminates consistently and validly —
    /// randomized wait-freedom observed end to end. The adversary is a
    /// fair random scheduler, the value-observing contrarian that drags
    /// the cursor toward zero, or a random scheduler that crashes p0 at
    /// step 3; none of them pushes the cursor out of Theorem 4.2's ±3n.
    #[test]
    fn simulated_walk_is_correct_under_random_adversaries(
        n in 2usize..5,
        coin_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        input_bits in any::<u8>(),
        backing_fa in any::<bool>(),
        adversary in 0u8..3,
    ) {
        let backing =
            if backing_fa { WalkBacking::FetchAdd } else { WalkBacking::BoundedCounter };
        let p = WalkModel::with_default_margins(n, backing);
        let inputs: Vec<u8> = (0..n).map(|i| (input_bits >> i) & 1).collect();
        let mut sim = Simulator::new(2_000_000, coin_seed);
        let random = RandomScheduler::new(sched_seed);
        let mut sched: Box<dyn Scheduler> = match adversary {
            0 => Box::new(random),
            1 => Box::new(ContrarianScheduler::new(0, sched_seed)),
            _ => Box::new(CrashScheduler::new(random, vec![(3, ProcessId(0))])),
        };
        let out = sim.run(&p, &inputs, sched.as_mut()).unwrap();
        prop_assert!(out.all_decided, "did not terminate within budget");
        let vals = out.decided_values();
        prop_assert_eq!(vals.len(), 1, "inconsistent: {:?}", vals);
        prop_assert!(inputs.contains(&vals[0]), "invalid");
        let mut cursor = 0i64;
        for r in &out.records {
            cursor += match r.op {
                Some((_, Operation::Inc, _)) => 1,
                Some((_, Operation::Dec, _)) => -1,
                Some((_, Operation::FetchAdd(d), _)) => d,
                _ => continue,
            };
            prop_assert!(cursor.abs() <= 3 * n as i64, "cursor {} left ±3n", cursor);
        }
    }

    /// Unanimity is decided deterministically — no coin is consumed —
    /// for every seed and schedule (the validity mechanism of the walk).
    #[test]
    fn simulated_walk_unanimity_never_flips_coins(
        n in 2usize..5,
        input in 0u8..2,
        coin_seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        let p = WalkModel::with_default_margins(n, WalkBacking::BoundedCounter);
        let inputs = vec![input; n];
        let mut sim = Simulator::new(1_000_000, coin_seed);
        let mut sched = RandomScheduler::new(sched_seed);
        let out = sim.run(&p, &inputs, &mut sched).unwrap();
        prop_assert!(out.all_decided);
        prop_assert_eq!(out.decided_values(), vec![input]);
        prop_assert!(out.records.iter().all(|r| r.coin == 0));
    }
}
