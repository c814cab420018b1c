//! The paper's proof, live: watch the Lemma 3.2 adversary construct an
//! execution that decides both 0 and 1 against a flawed register
//! "consensus" protocol.
//!
//! Run with: `cargo run --example adversary_attack`

use randsync::consensus::model_protocols::Optimistic;
use randsync::consensus::AttackFamily;
use randsync::core::attack::{attack_target, AttackOutcome, AttackStats};
use randsync::model::Configuration;

fn main() {
    // A plausible-looking protocol: write your input to r registers,
    // read them all back, decide the unanimous value (or the last
    // register's value on conflict). Theorem 3.3 says any such protocol
    // over r registers breaks once more than r² − r + 1 identical
    // processes may participate — and the adversary finds the break.
    let r = 3;
    let protocol = Optimistic::new(2, r);
    println!(
        "target: write-all/validate-all protocol over {r} registers \
         (symmetric, always terminating)\n"
    );

    let outcome = attack_target(AttackFamily::RegisterIdentical, &protocol)
        .expect("the attack applies to symmetric register protocols");

    match outcome {
        AttackOutcome::Inconsistent { witness, stats: AttackStats::Register(stats) } => {
            println!("constructed an inconsistent execution:");
            println!("  steps           : {}", witness.execution.len());
            println!("  processes used  : {}", witness.processes_used);
            println!("  {:?} decides 0, {:?} decides 1", witness.decides_zero, witness.decides_one);
            println!("\nproof cases exercised (the paper's figures):");
            println!("  figure 1/2 base splices      : {}", stats.base_splices);
            println!("  figure 3 subset-case splits  : {}", stats.subset_splits);
            println!("  figure 4 incomparable cases  : {}", stats.incomparable_resolutions);
            println!("  clones spawned               : {}", stats.clones_spawned);

            // Replay the witness step by step, narrating.
            println!("\nreplaying the witness:");
            let start = witness.initial_configuration(&protocol);
            let mut config: Configuration<_> = start.clone();
            for step in witness.execution.steps() {
                let record = config.step(&protocol, step.pid, step.coin).expect("replays");
                match (record.op, record.decided) {
                    (Some((obj, op, resp)), _) => {
                        println!("  {:?}: {obj:?}.{op:?} → {resp:?}", record.pid)
                    }
                    (None, Some(d)) => println!("  {:?}: DECIDES {d}", record.pid),
                    _ => {}
                }
            }
            let decided = config.decided_values();
            println!("\nfinal decided values: {decided:?} — consistency is violated.");
            assert_eq!(decided, vec![0, 1]);

            witness.verify(&protocol).expect("witness verifies by replay");
            println!(
                "\n(Theorem 3.3 bound for r = {r}: at most {} identical processes; \
                 the adversary consumed {}.)",
                randsync::core::bounds::max_identical_processes(r as u64),
                witness.processes_used
            );
        }
        other => println!("the protocol is broken even without combination: {other}"),
    }
}
