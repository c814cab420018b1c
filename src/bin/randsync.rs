//! `randsync` — command-line front end for the reproduction.
//!
//! ```text
//! randsync table [n]                 the Section 4 separation table
//! randsync bounds <n>                thresholds for n processes
//! randsync protocols                 the protocol registry inventory
//! randsync attack <protocol> [r]     run the lower-bound adversary
//! randsync check <protocol> [r]      exhaustively model-check a protocol
//! randsync valency <protocol> [t]    valency analysis (FLP structure)
//! randsync shrink <trace.jsonl>      minimize a witness trace (delete + commute)
//! randsync resume <file.ckpt>        continue a checkpointed exploration
//! randsync run <protocol> [n] [seed] execute on real threads via the runtime
//! randsync replay <trace.jsonl>      re-execute a recorded run deterministically
//! randsync montecarlo <protocol> [trials] [seed] [n]   seeded trial sweep + histogram
//! randsync walk <n> [seed]           threaded one-counter consensus demo
//!
//! randsync serve [addr] [--workers N] [--queue N]   start the verification job server
//! randsync worker [addr]                            start a frontier shard server
//! randsync submit <addr> <job> [key=value ...]      run one job against a server
//! randsync shutdown <addr>                          drain a server and stop it
//! randsync top <addr>                               live metrics dashboard (watch job)
//! randsync soak <addr>                              soak the server, judge thresholds
//! randsync gate [--filter <id|tag>]                 run the fail-closed verification gate
//! randsync trace-tree <a.jsonl> [b.jsonl ...]       stitch span sinks into one tree
//! ```
//!
//! Protocol names come from the shared registry
//! (`randsync::consensus::registry`); `randsync protocols` lists them
//! all with their paper hooks. `attack` applies only to the flawed
//! entries the adversaries target; `run` applies only to entries whose
//! termination survives free thread scheduling.
//!
//! The `serve`/`submit`/`shutdown` trio speaks the framed JSONL
//! protocol of `randsync::svc` (DESIGN.md §13): `submit` values are
//! parsed as integers/booleans when they look like one and strings
//! otherwise, and `value=@path` embeds a file's contents (how a replay
//! trace travels). `submit <addr> metrics` fetches the server's
//! metrics snapshot, and `submit --timeout-s <s>` bounds how long a
//! silent server is waited on (the deadline resets whenever a progress
//! frame arrives, so long streaming jobs are safe).
//!
//! Distributed exploration (DESIGN.md §16): start N frontier shard
//! servers with `randsync worker [addr]`, then point a coordinator at
//! them with `serve --workers-addrs host:port,host:port,...` — its
//! `valency`/`explore`/`resume` jobs dedup against the shards and stay
//! bit-identical to a single-node run, with or without `por`. `serve --max-conns N` caps the
//! event loop's simultaneously open connections (excess connections
//! get an immediate `overloaded` error frame).
//!
//! Out-of-core and resumable exploration (DESIGN.md §14): `valency`
//! accepts `--mem-budget <bytes>` (run the search on the spillable
//! out-of-core tier under a resident-memory budget — results are
//! bit-identical to the in-RAM tier), `--deadline-ms <ms>` (stop at the
//! first BFS level boundary past the deadline), and
//! `--checkpoint <file>` (write a resumable checkpoint if the search
//! stops at a deadline or depth budget). `randsync resume <file.ckpt>`
//! continues such a search to the full verdict, printing the same
//! summary as `randsync check`. `serve --checkpoint-dir <dir>` points
//! the server's `explore`/`resume` job checkpoints at a directory.
//!
//! Search modes (DESIGN.md §15): `valency --por` prunes
//! Mazurkiewicz-equivalent interleavings (partial-order reduction;
//! verdicts and valencies are preserved, the visited counts shrink, and
//! a reduction report line shows what was pruned; it composes with
//! `--mem-budget`, which then also prints its out-of-core line), and
//! `valency --best-first` switches to the guided adversary search — a
//! valency-split-scored frontier that hunts for an inconsistency
//! witness instead of sweeping the space; a found witness is minimized
//! (steps deleted, independent neighbors commuted) and dumped as a
//! replayable flight trace. `randsync shrink <trace.jsonl>` applies the
//! same minimization to any recorded witness trace.
//!
//! Observability flags: `valency` and `run` accept `--metrics` (enable
//! the global metrics registry and print its snapshot — for `valency`
//! this also streams a per-depth progress line to stderr as the BFS
//! runs); `run` additionally accepts `--trace <file>` to record the
//! execution's flight-recorder trace as JSONL, replayable bit-for-bit
//! with `randsync replay <file>`.

use std::path::Path;
use std::process::ExitCode;

use randsync::consensus::registry::{self, AttackFamily, ProtocolEntry};
use randsync::consensus::spec::decide_concurrently;
use randsync::consensus::{Consensus, WalkConsensus};
use randsync::core::attack::{attack_identical, AttackOutcome};
use randsync::core::combine31::CombineLimits;
use randsync::core::combine35::{ample_pool_for, attack_historyless, GeneralOutcome};
use randsync::core::bounds;
use randsync::core::hierarchy::render_table;
use randsync::model::runtime::{replay_execution, Runtime};
use randsync::core::witness::InconsistencyWitness;
use randsync::model::{
    Checkpoint, CheckpointRequest, Configuration, Execution, ExploreConfig, ExploreLimits,
    ExploreOutcome, Explorer, Protocol, SearchMode,
};
use randsync::objects::bridge;
use randsync::obs::{self, ExecutionTrace, Field, Json, MetricValue, Snapshot, TraceSink};
use randsync::gate;
use randsync::svc::soak::{run_soak, SoakConfig, ThresholdCatalog};
use randsync::svc::{job, Client, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "table" => {
            let n = parse(args.get(1), 1024);
            print!("{}", render_table(n));
            ExitCode::SUCCESS
        }
        "bounds" => {
            let Some(n) = args.get(1).and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("usage: randsync bounds <n>");
                return ExitCode::FAILURE;
            };
            println!("n-process randomized binary consensus, n = {n}:");
            println!(
                "  historyless objects necessary (Thm 3.7) : {}",
                bounds::min_historyless_objects(n)
            );
            println!(
                "  bounded registers sufficient  (Sec 1)   : {}",
                bounds::registers_upper_bound(n)
            );
            println!(
                "  registers for identical procs (Thm 3.3) : {}",
                bounds::min_registers_identical(n)
            );
            println!("  counter / fetch&add / CAS instances     : 1  (Thms 4.2/4.4, Herlihy)");
            ExitCode::SUCCESS
        }
        "protocols" => {
            print!("{}", registry::markdown_table());
            ExitCode::SUCCESS
        }
        "attack" => run_attack(&args[1..]),
        "check" => run_check(&args[1..]),
        "valency" => run_valency(&args[1..]),
        "shrink" => run_shrink(&args[1..]),
        "resume" => run_resume(&args[1..]),
        "run" => run_threaded(&args[1..]),
        "replay" => run_replay(&args[1..]),
        "montecarlo" => run_montecarlo(&args[1..]),
        "serve" => run_serve(&args[1..], false),
        // A worker is a server whose job is hosting frontier shard
        // sessions: same binary, same protocol, zero workers wasted on
        // a queue nobody submits to.
        "worker" => run_serve(&args[1..], true),
        "submit" => run_submit(&args[1..]),
        "shutdown" => run_shutdown(&args[1..]),
        "top" => run_top(&args[1..]),
        "soak" => run_soak_cmd(&args[1..]),
        "gate" => run_gate_cmd(&args[1..]),
        "trace-tree" => run_trace_tree(&args[1..]),
        "walk" => {
            let n = parse(args.get(1), 4) as usize;
            let seed = parse(args.get(2), 42);
            let proto = WalkConsensus::with_bounded_counter(n.max(2), seed);
            let inputs: Vec<u8> = (0..n.max(2)).map(|p| (p % 2) as u8).collect();
            let ds = decide_concurrently(&proto, &inputs);
            println!(
                "{} with {} object(s): inputs {:?} → decisions {:?}",
                proto.name(),
                proto.object_count(),
                inputs,
                ds
            );
            ExitCode::SUCCESS
        }
        _ => {
            println!(
                "randsync — executable reproduction of Fich-Herlihy-Shavit (PODC 1993)\n\n\
                 usage:\n  randsync table [n]\n  randsync bounds <n>\n  randsync protocols\n  \
                 randsync attack <naive|optimistic|zigzag|swapchain|tasrace|...> [r]\n  \
                 randsync check <protocol> [r]\n  \
                 randsync valency <protocol> [threads] [--canonical] [--por] [--best-first]\n          \
                 [--metrics] [--mem-budget <bytes>] [--deadline-ms <ms>] [--checkpoint <file>]\n  \
                 randsync shrink <trace.jsonl> [--out <file>]\n  \
                 randsync resume <file.ckpt> [--mem-budget <bytes>]\n  \
                 randsync run <protocol> [n] [seed] [--metrics] [--trace <file>]\n  \
                 randsync replay <trace.jsonl>\n  \
                 randsync montecarlo <protocol> [trials] [seed] [n]\n  \
                 randsync walk <n> [seed]\n  \
                 randsync serve [addr] [--workers N] [--queue N] [--max-conns N]\n          \
                 [--checkpoint-dir <dir>] [--workers-addrs a:p,b:p,...] [--trace <file>]\n  \
                 randsync worker [addr] [--max-conns N] [--trace <file>]\n  \
                 randsync submit <addr> <job> [--timeout-s S] [--trace <file>] [key=value ...]\n  \
                 randsync shutdown <addr>\n  \
                 randsync top <addr> [--interval-ms MS] [--ticks N]\n  \
                 randsync soak <addr> [--duration-s S] [--inflight N] [--catalog <file>]\n  \
                 randsync gate [--list] [--filter <id|tag>] [--report <file>] [--bench <file>]\n          \
                 [--corpus <dir>] [--add-witness <trace.jsonl>] [--seed-corpus]\n  \
                 randsync trace-tree <a.jsonl> [b.jsonl ...]\n\n\
                 protocol names: see `randsync protocols`\n\
                 job kinds: valency, explore, resume, run, monte_carlo, replay, \
                 verify_witness, protocols, sleep, watch, metrics"
            );
            ExitCode::SUCCESS
        }
    }
}

fn parse(arg: Option<&String>, default: u64) -> u64 {
    arg.and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Resolve a registry name or fail with the conventional message.
fn lookup(which: &str) -> Result<&'static ProtocolEntry, ExitCode> {
    registry::find(which).ok_or_else(|| {
        eprintln!("unknown protocol: {which} (see `randsync protocols`)");
        ExitCode::FAILURE
    })
}

/// Observability flags shared by `run` (and, minus `--trace`,
/// `valency`): `--metrics` toggles the global registry, `--trace`
/// consumes a file path for the flight recorder.
struct ObsFlags {
    metrics: bool,
    trace: Option<String>,
}

/// Strip recognized observability flags out of `args`, returning the
/// remaining positional arguments. Unknown `--flags` are rejected so a
/// typo doesn't silently become a positional argument.
fn split_obs_flags<'a>(
    args: &'a [String],
    allow: &[&str],
) -> Result<(Vec<&'a String>, ObsFlags), ExitCode> {
    let mut flags = ObsFlags { metrics: false, trace: None };
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics" if allow.contains(&"--metrics") => flags.metrics = true,
            "--trace" if allow.contains(&"--trace") => {
                let Some(path) = iter.next() else {
                    eprintln!("--trace needs a file path");
                    return Err(ExitCode::FAILURE);
                };
                flags.trace = Some(path.clone());
            }
            other if other.starts_with("--") && !allow.contains(&other) => {
                eprintln!("unknown flag: {other}");
                return Err(ExitCode::FAILURE);
            }
            _ => positional.push(arg),
        }
    }
    Ok((positional, flags))
}

/// Print the global metrics snapshot, indented under a header.
fn print_metrics_snapshot() {
    let snapshot = obs::global_metrics().snapshot();
    if snapshot.is_empty() {
        println!("metrics   : (no instrumented code ran)");
        return;
    }
    println!("metrics:");
    for line in snapshot.to_text().lines() {
        println!("  {line}");
    }
}

/// A [`TraceSink`] that renders the explorer's per-level events as
/// live progress lines on stderr, so long valency runs show the BFS
/// advancing instead of sitting silent.
#[derive(Debug)]
struct StderrProgress;

impl TraceSink for StderrProgress {
    fn event(&self, name: &str, _timestamp_micros: u64, fields: &[(&str, Field)]) {
        if name != "explore.level" {
            return;
        }
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    Field::U64(u) => *u,
                    Field::I64(i) => *i as u64,
                    _ => 0,
                })
                .unwrap_or(0)
        };
        eprintln!(
            "  depth {:>4}  frontier {:>9}  configs {:>9}  dedup {:>9}  arena {:>7} KiB",
            get("depth"),
            get("frontier"),
            get("configs"),
            get("dedup_hits"),
            get("arena_bytes") / 1024,
        );
    }
}

fn run_attack(args: &[String]) -> ExitCode {
    let which = args.first().map(String::as_str).unwrap_or("optimistic");
    let r = parse(args.get(1), 2) as usize;
    let entry = match lookup(which) {
        Ok(e) => e,
        Err(code) => {
            eprintln!("unknown attack target: {which}");
            return code;
        }
    };
    let protocol = (entry.build)(entry.default_n, r);
    match entry.attack {
        AttackFamily::RegisterIdentical => report_register_attack(&protocol),
        AttackFamily::Historyless => report_general_attack(&protocol, ample_pool_for(&protocol)),
        AttackFamily::NotApplicable => {
            eprintln!(
                "unknown attack target: {which} (no adversary applies — the protocol is correct)"
            );
            ExitCode::FAILURE
        }
    }
}

fn report_register_attack<P: Protocol>(protocol: &P) -> ExitCode {
    match attack_identical(protocol, &CombineLimits::default()) {
        Ok(AttackOutcome::Inconsistent { witness, stats }) => {
            println!("inconsistency constructed (Lemma 3.2 adversary):");
            println!("  {witness}");
            println!(
                "  cases: {} base splices, {} subset splits (Fig 3), {} incomparable \
                 (Fig 4), {} clones",
                stats.base_splices,
                stats.subset_splits,
                stats.incomparable_resolutions,
                stats.clones_spawned
            );
            let minimal = witness.minimize(protocol);
            println!(
                "  minimized: {} steps, {} processes",
                minimal.execution.len(),
                minimal.processes_used
            );
            replay_trace(protocol, &witness);
            ExitCode::SUCCESS
        }
        Ok(AttackOutcome::InvalidSolo { pid, input, decided, .. }) => {
            println!("validity violation: {pid:?} (input {input}) decided {decided} solo");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("attack failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_general_attack<P: Protocol>(protocol: &P, pool: usize) -> ExitCode {
    match attack_historyless(protocol, pool, &ExploreLimits::default()) {
        Ok(GeneralOutcome::Inconsistent { witness, stats }) => {
            println!("inconsistency constructed (Lemma 3.6 adversary):");
            println!("  {witness}");
            println!(
                "  {} pieces executed, {} reconstructions, recursion depth {}",
                stats.pieces_executed, stats.reconstructions, stats.max_depth
            );
            replay_trace(protocol, &witness);
            ExitCode::SUCCESS
        }
        Ok(GeneralOutcome::InvalidExecution { input, decided, .. }) => {
            println!("validity violation: unanimous input {input} decided {decided}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("attack failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn replay_trace<P: Protocol>(
    protocol: &P,
    witness: &randsync::core::witness::InconsistencyWitness,
) {
    println!("  trace:");
    let start: Configuration<P::State> = witness.initial_configuration(protocol);
    let text = randsync::model::render_execution(protocol, &start, &witness.execution)
        .expect("witness replays");
    for line in text.lines() {
        println!("    {line}");
    }
}

fn run_valency(args: &[String]) -> ExitCode {
    // `randsync valency <protocol> [threads] [--canonical] [--por]
    //  [--best-first] [--metrics] [--mem-budget <bytes>]
    //  [--deadline-ms <ms>] [--checkpoint <file>]`
    let mut canonical = false;
    let mut por = false;
    let mut best_first = false;
    let mut metrics = false;
    let mut mem_budget = 0usize;
    let mut deadline_ms: Option<u64> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--canonical" | "canonical" => canonical = true,
            "--por" => por = true,
            "--best-first" => best_first = true,
            "--metrics" => metrics = true,
            "--mem-budget" | "--deadline-ms" => {
                let Some(v) = iter.next().and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("{arg} needs a non-negative integer");
                    return ExitCode::FAILURE;
                };
                if arg == "--mem-budget" {
                    mem_budget = v as usize;
                } else {
                    deadline_ms = Some(v);
                }
            }
            "--checkpoint" => {
                let Some(path) = iter.next() else {
                    eprintln!("--checkpoint needs a file path");
                    return ExitCode::FAILURE;
                };
                checkpoint_path = Some(path.clone());
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
            _ => positional.push(arg),
        }
    }
    let which = positional.first().map(|s| s.as_str()).unwrap_or("cas");
    // Optional worker-thread count; 0 (the default) resolves to the
    // host's available parallelism. Results are identical either way.
    let threads = parse(positional.get(1).copied(), 0) as usize;
    let entry = match lookup(which) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let mut config = ExploreConfig {
        limits: ExploreLimits::EXHAUSTIVE,
        threads,
        canonical,
        por,
        search: if best_first { SearchMode::BestFirst } else { SearchMode::Bfs },
        mem_budget_bytes: mem_budget,
        ..ExploreConfig::default()
    };
    if let Some(ms) = deadline_ms {
        config.deadline =
            Some(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    if let Some(path) = &checkpoint_path {
        config.checkpoint = Some(CheckpointRequest {
            path: path.into(),
            protocol: entry.name.to_string(),
            n: entry.default_n as u32,
            r: entry.default_r as u64,
            inputs: entry.default_inputs.to_vec(),
        });
    }
    let explorer = Explorer::with_config(config);
    if metrics {
        // Live per-depth progress on stderr while the BFS runs, a
        // registry snapshot after it finishes.
        obs::set_metrics_enabled(true);
        obs::install_trace_sink(std::sync::Arc::new(StderrProgress));
    }
    let code = if best_first {
        best_first_report(&explorer, entry)
    } else {
        valency_report(&explorer, &entry.build_default(), entry.default_inputs)
    };
    if metrics {
        obs::clear_trace_sink();
        print_metrics_snapshot();
    }
    code
}

/// Print the storage/truncation/checkpoint lines shared by the
/// `valency` and `resume` exploration summaries.
fn print_explore_footprint(out: &ExploreOutcome) {
    if out.canonicalized {
        println!(
            "symmetry reduction  : {} canonical configs represent {}{} raw ({:.2}x)",
            out.canonical_configs,
            out.raw_configs,
            if out.raw_configs_overflow { "+" } else { "" },
            out.reduction_factor()
        );
    } else {
        println!("symmetry reduction  : off (raw exploration)");
    }
    if out.por_enabled {
        println!(
            "partial-order red.  : on — {} enabled moves pruned, {} cycle-proviso fallbacks",
            out.por_pruned, out.por_fallbacks
        );
    }
    println!(
        "arena               : {} bytes ({:.1} B/config)",
        out.arena_bytes, out.bytes_per_config
    );
    println!("seen-set            : {} bytes resident", out.seen_bytes);
    if out.spill_mode {
        println!(
            "out-of-core         : {} bytes resident, {} bytes spilled, {} merge passes",
            out.resident_arena_bytes, out.spilled_bytes, out.dedup_merge_passes
        );
    }
    if let Some(path) = &out.checkpoint {
        println!("checkpoint          : {}", path.display());
    }
    if let Some(e) = &out.checkpoint_error {
        eprintln!("checkpoint failed   : {e}");
    }
}

/// Explore once (honouring any memory budget / deadline / checkpoint
/// request in the explorer's config) and, if the space was exhausted,
/// print the valency analysis of that same graph, followed by the
/// symmetry reduction achieved and the arena footprint. A truncated
/// exploration prints why it stopped (and where the checkpoint went)
/// and fails.
fn valency_report<P>(explorer: &Explorer, protocol: &P, inputs: &[u8]) -> ExitCode
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let (out, analysis) = explorer.explore_with_valency(protocol, inputs);
    let Some(a) = analysis else {
        let reason = out
            .truncation_reason
            .map(|r| r.to_string())
            .unwrap_or_else(|| "budget".to_string());
        println!("configurations      : {} (truncated: {reason})", out.configs_visited);
        print_explore_footprint(&out);
        eprintln!("exploration truncated ({reason}); valencies would be unsound");
        return ExitCode::FAILURE;
    };
    println!("initial valency     : {:?}", a.initial);
    println!("configurations      : {}", a.configs);
    println!("  0-valent          : {}", a.zero_valent);
    println!("  1-valent          : {}", a.one_valent);
    println!("  bivalent          : {}", a.bivalent);
    println!("  stuck             : {}", a.stuck);
    println!("critical configs    : {}", a.critical_configs);
    println!("bivalent cycle      : {}", a.bivalent_cycle);
    print_explore_footprint(&out);
    ExitCode::SUCCESS
}

/// The guided adversary search behind `valency --best-first`: hunt for
/// an inconsistency with the valency-split-scored frontier instead of
/// sweeping the space. A found witness is minimized (deletion +
/// commutation) and dumped as a replayable flight trace in the current
/// directory.
fn best_first_report(explorer: &Explorer, entry: &ProtocolEntry) -> ExitCode {
    let protocol = entry.build_default();
    let (found, truncated) =
        explorer.find_violation(&protocol, entry.default_inputs, |c| c.is_inconsistent());
    let Some(execution) = found else {
        if truncated {
            eprintln!(
                "guided search       : no inconsistency within the budget (inconclusive)"
            );
            return ExitCode::FAILURE;
        }
        println!("guided search       : space exhausted, no inconsistency (protocol consistent)");
        return ExitCode::SUCCESS;
    };
    println!("guided search       : inconsistency reached in {} steps", execution.len());
    let Some(witness) =
        InconsistencyWitness::from_execution(&protocol, entry.default_inputs, execution)
    else {
        eprintln!("internal error: violating execution did not replay to an inconsistency");
        return ExitCode::FAILURE;
    };
    if let Err(e) = witness.verify(&protocol) {
        eprintln!("internal error: witness failed verification: {e}");
        return ExitCode::FAILURE;
    }
    let (minimal, stats) = witness.minimize_report(&protocol);
    println!(
        "minimized           : {} steps, {} processes ({} deleted, {} commuted)",
        minimal.execution.len(),
        minimal.processes_used,
        stats.deleted,
        stats.commuted
    );
    match minimal.dump_flight_trace(
        entry.name,
        entry.default_n,
        entry.default_r,
        Path::new("."),
    ) {
        Ok(path) => {
            println!(
                "flight trace        : {} — `randsync replay {}`",
                path.display(),
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write flight trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `randsync shrink <trace.jsonl> [--out <file>]`: minimize a recorded
/// witness trace — delete steps and commute independent neighbors while
/// the replay still decides both values — and write the shrunk trace
/// back out (default: `<input>.min.jsonl`), replayable with
/// `randsync replay`.
fn run_shrink(args: &[String]) -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                let Some(p) = iter.next() else {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                };
                out_path = Some(p.clone());
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
            _ if path.is_none() => path = Some(arg.clone()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: randsync shrink <trace.jsonl> [--out <file>]");
        return ExitCode::FAILURE;
    };
    let trace = match ExecutionTrace::read_from(Path::new(&path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entry = match lookup(&trace.protocol) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let protocol = (entry.build)(trace.n, trace.r);
    let execution = Execution::from_trace(&trace);
    let Some(witness) = InconsistencyWitness::from_execution(&protocol, &trace.inputs, execution)
    else {
        eprintln!(
            "{path} does not witness an inconsistency (the replay never decides both values); \
             nothing to shrink"
        );
        return ExitCode::FAILURE;
    };
    let (minimal, stats) = witness.minimize_report(&protocol);
    println!(
        "{} — {} steps shrunk to {} ({} deleted, {} commuted)",
        entry.name,
        trace.steps.len(),
        minimal.execution.len(),
        stats.deleted,
        stats.commuted
    );
    let out = out_path.unwrap_or_else(|| format!("{path}.min.jsonl"));
    let min_trace = minimal.flight_trace(entry.name, trace.n, trace.r);
    if let Err(e) = min_trace.write_to(Path::new(&out)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("minimized trace     : {out} — `randsync replay {out}`");
    ExitCode::SUCCESS
}

/// `randsync resume <file.ckpt> [--mem-budget <bytes>]`: load a
/// checkpoint written by `valency --checkpoint` (or the job server) and
/// continue the search to its full verdict. Stdout matches `randsync
/// check` line-for-line so the two can be diffed; the resume banner
/// goes to stderr.
fn run_resume(args: &[String]) -> ExitCode {
    let mut mem_budget = 0usize;
    let mut path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mem-budget" => {
                let Some(v) = iter.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--mem-budget needs a non-negative integer");
                    return ExitCode::FAILURE;
                };
                mem_budget = v;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
            _ if path.is_none() => path = Some(arg.clone()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: randsync resume <file.ckpt> [--mem-budget <bytes>]");
        return ExitCode::FAILURE;
    };
    let ckpt = match Checkpoint::load(Path::new(&path)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot load checkpoint {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entry = match lookup(&ckpt.protocol) {
        Ok(e) => e,
        Err(code) => return code,
    };
    eprintln!(
        "resuming {} (n={}, r={}) from depth {}, {} configs",
        ckpt.protocol,
        ckpt.n,
        ckpt.r,
        ckpt.level_depth,
        ckpt.nodes()
    );
    let explorer = Explorer::new(ExploreLimits::EXHAUSTIVE)
        .mem_budget(mem_budget);
    let out = match explorer.resume(&(entry.build)(ckpt.n as usize, ckpt.r as usize), &ckpt) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("resume failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_check_summary(&out);
    ExitCode::SUCCESS
}

fn run_check(args: &[String]) -> ExitCode {
    let which = args.first().map(String::as_str).unwrap_or("cas");
    let r = parse(args.get(1), 2) as usize;
    let entry = match lookup(which) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let explorer = Explorer::new(ExploreLimits::EXHAUSTIVE);
    let out = explorer.explore(&(entry.build)(entry.default_n, r), entry.default_inputs);
    print_check_summary(&out);
    ExitCode::SUCCESS
}

/// The two-line model-checking verdict shared by `check` and `resume`
/// (identical output lets a resumed search be diffed against an
/// uninterrupted one).
fn print_check_summary(out: &ExploreOutcome) {
    println!(
        "configs: {}{}",
        out.configs_visited,
        if out.truncated { " (truncated)" } else { "" }
    );
    match (&out.consistency_violation, &out.validity_violation) {
        (None, None) => println!(
            "SAFE — termination reachable: {:?}, infinite executions: {:?}",
            out.can_always_reach_termination, out.infinite_execution_possible
        ),
        (Some(w), _) => println!("BROKEN — consistency violation in {} steps", w.len()),
        (None, Some(w)) => println!("BROKEN — validity violation in {} steps", w.len()),
    }
}

/// `randsync run <protocol> [n] [seed] [--metrics] [--trace <file>]`:
/// instantiate a registry protocol's state machine on real bridged
/// objects and execute it with one OS thread per process. With
/// `--trace` the run goes through the flight recorder and the
/// linearized schedule is written as JSONL, replayable bit-for-bit
/// with `randsync replay`.
fn run_threaded(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_obs_flags(args, &["--metrics", "--trace"]) {
        Ok(split) => split,
        Err(code) => return code,
    };
    let which = positional.first().map(|s| s.as_str()).unwrap_or("walk-counter");
    let entry = match lookup(which) {
        Ok(e) => e,
        Err(code) => return code,
    };
    if !entry.runnable {
        eprintln!(
            "{which} is model-only (its termination needs a fair scheduler or coin \
             enumeration); use `randsync check {which}` instead"
        );
        return ExitCode::FAILURE;
    }
    let n = parse(positional.get(1).copied(), entry.default_n as u64) as usize;
    let seed = parse(positional.get(2).copied(), 42);
    if flags.metrics {
        obs::set_metrics_enabled(true);
    }
    let protocol = (entry.build)(n, entry.default_r);
    let n = protocol.num_processes(); // fixed-arity entries ignore the request
    let inputs = entry.inputs_for(n);
    let objects = match bridge::instantiate_all(&protocol) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot bridge {which} onto real objects: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runtime = Runtime::new(seed);
    let (report, execution) = if flags.trace.is_some() {
        let (report, execution) = runtime.run_traced(&protocol, &inputs, &objects);
        (report, Some(execution))
    } else {
        (runtime.run(&protocol, &inputs, &objects), None)
    };
    println!("{} — {} ({})", entry.name, entry.objects, entry.paper);
    println!("  processes : {n} (one OS thread each), seed {seed}");
    println!("  inputs    : {inputs:?}");
    println!("  decisions : {:?}", report.decisions);
    println!("  steps     : {:?}", report.steps);
    println!(
        "  coins     : {:?} ({} flips total)",
        report.coin_flips,
        report.total_coin_flips()
    );
    let ops = report
        .total_ops_by_kind()
        .into_iter()
        .map(|(kind, count)| format!("{count} on {}", kind.name()))
        .collect::<Vec<_>>()
        .join(", ");
    println!("  ops       : {}", if ops.is_empty() { "none".to_string() } else { ops });
    println!("  wall      : {:.3} ms", report.wall.as_secs_f64() * 1e3);
    let ok = report.all_decided() && report.consistent() && report.valid(&inputs);
    println!(
        "  verdict   : {}",
        if ok { "consistent and valid" } else { "VIOLATION (expected for flawed protocols)" }
    );
    if let (Some(path), Some(execution)) = (&flags.trace, &execution) {
        let trace = ExecutionTrace {
            schema_version: randsync::obs::TRACE_SCHEMA_VERSION,
            protocol: entry.name.to_string(),
            n,
            r: entry.default_r,
            seed,
            interpreter: "runtime".to_string(),
            inputs: inputs.clone(),
            steps: execution
                .steps()
                .iter()
                .map(|s| (s.pid.index() as u32, s.coin))
                .collect(),
            decisions: report.decisions.clone(),
        };
        if let Err(e) = trace.write_to(Path::new(path)) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  trace     : {path} ({} steps) — `randsync replay {path}`", trace.steps.len());
    }
    if flags.metrics {
        print_metrics_snapshot();
    }
    if ok || !entry.expected_safe {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `randsync replay <trace.jsonl>`: re-execute a flight-recorder trace
/// sequentially on fresh bridged objects and check the decisions
/// against what the recorded run claimed. Exit code is nonzero on any
/// divergence, so this doubles as a trace integrity check.
fn run_replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: randsync replay <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let trace = match ExecutionTrace::read_from(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entry = match lookup(&trace.protocol) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let protocol = (entry.build)(trace.n, trace.r);
    let objects = match bridge::instantiate_all(&protocol) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot bridge {} onto real objects: {e}", trace.protocol);
            return ExitCode::FAILURE;
        }
    };
    let refs: Vec<&dyn randsync::model::DynObject> =
        objects.iter().map(AsRef::as_ref).collect();
    let execution = Execution::from_trace(&trace);
    let decisions = match replay_execution(&protocol, &refs, &trace.inputs, &execution) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("replay diverged from the recorded run: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} — replayed {} steps from {path}", entry.name, trace.steps.len());
    println!("  recorded by : {} interpreter, seed {}", trace.interpreter, trace.seed);
    println!("  inputs      : {:?}", trace.inputs);
    println!("  decisions   : {decisions:?}");
    if trace.decisions_match(&decisions) {
        println!("  verdict     : decisions match the recorded run");
        ExitCode::SUCCESS
    } else {
        eprintln!("  verdict     : DIVERGED — the trace recorded {:?}", trace.decisions);
        ExitCode::FAILURE
    }
}

/// `randsync montecarlo <protocol> [trials] [seed] [n]`: a seeded batch
/// of simulator trials, printed with the per-decision-value histogram.
/// Runs through the same job code the server uses, so the numbers here
/// are bit-identical to a `monte_carlo` job submitted over the wire.
fn run_montecarlo(args: &[String]) -> ExitCode {
    let which = args.first().map(String::as_str).unwrap_or("cas");
    let entry = match lookup(which) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let params = Json::Obj(vec![
        ("protocol".to_string(), Json::Str(entry.name.to_string())),
        ("trials".to_string(), Json::Int(parse(args.get(1), 256) as i128)),
        ("seed".to_string(), Json::Int(parse(args.get(2), 0) as i128)),
        ("n".to_string(), Json::Int(parse(args.get(3), entry.default_n as u64) as i128)),
    ]);
    let job = match job::Job::parse("monte_carlo", &params) {
        Ok(job) => job,
        Err(e) => {
            eprintln!("{}: {}", e.code, e.message);
            return ExitCode::FAILURE;
        }
    };
    match job.execute(std::time::Instant::now() + std::time::Duration::from_secs(3600)) {
        Ok(result) => {
            print_mc_summary(&result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {}", e.code, e.message);
            ExitCode::FAILURE
        }
    }
}

/// Print a `monte_carlo` result object (local or from a server),
/// histogram included.
fn print_mc_summary(result: &Json) {
    let get = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{} — {} trials, n = {}",
        result.get("protocol").and_then(Json::as_str).unwrap_or("?"),
        get("trials"),
        get("n"),
    );
    println!("  decided runs    : {}", get("decided_runs"));
    println!("  consistent runs : {}", get("consistent_runs"));
    let mean = match result.get("mean_steps") {
        Some(Json::Float(f)) => *f,
        Some(Json::Int(i)) => *i as f64,
        _ => 0.0,
    };
    println!("  steps           : mean {:.1}, max {}", mean, get("max_steps"));
    if get("undecided_processes") > 0 {
        println!("  undecided procs : {}", get("undecided_processes"));
    }
    let Some(counts) = result.get("decision_counts").and_then(Json::as_arr) else {
        return;
    };
    let total: u64 = counts
        .iter()
        .filter_map(|pair| pair.as_arr()?.get(1)?.as_u64())
        .sum();
    println!("  decisions       :");
    for pair in counts {
        let Some(pair) = pair.as_arr() else { continue };
        let (Some(value), Some(count)) =
            (pair.first().and_then(Json::as_u64), pair.get(1).and_then(Json::as_u64))
        else {
            continue;
        };
        let share = if total == 0 { 0.0 } else { 100.0 * count as f64 / total as f64 };
        println!("    value {value} : {count:>8} ({share:>5.1}%)");
    }
}

/// `randsync serve [addr] [--workers N] [--queue N] [--max-conns N]
/// [--checkpoint-dir <dir>] [--workers-addrs a,b,...]` — and, with
/// `worker_role`, `randsync worker [addr]`: run the job server until a
/// `shutdown` control frame drains it. Binding port 0 picks an
/// ephemeral port; the actual address is printed either way. A worker
/// role is the same server with one queue worker — its purpose is
/// answering `frontier_*` shard frames, which never touch the queue.
fn run_serve(args: &[String], worker_role: bool) -> ExitCode {
    let mut addr: Option<&str> = None;
    let mut config = ServerConfig::default();
    if worker_role {
        config.workers = 1;
    }
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--checkpoint-dir needs a path");
                    return ExitCode::FAILURE;
                };
                config.checkpoint_dir = Some(std::path::PathBuf::from(dir));
            }
            "--trace" => {
                let Some(path) = iter.next() else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                };
                config.trace_path = Some(std::path::PathBuf::from(path));
            }
            "--workers-addrs" => {
                let Some(list) = iter.next() else {
                    eprintln!("--workers-addrs needs a comma-separated address list");
                    return ExitCode::FAILURE;
                };
                config.frontier_workers =
                    list.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
                if config.frontier_workers.is_empty() {
                    eprintln!("--workers-addrs needs at least one address");
                    return ExitCode::FAILURE;
                }
            }
            "--workers" | "--queue" | "--max-conns" => {
                let Some(n) = iter.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("{arg} needs a positive integer");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--workers" => config.workers = n,
                    "--queue" => config.queue = n,
                    _ => config.max_conns = n,
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
            other if addr.is_none() => addr = Some(other),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let addr = addr.unwrap_or("127.0.0.1:7450");
    let server = match Server::bind(addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(actual) => println!("randsync-svc listening on {actual}"),
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush(); // scripts poll for the line above
    match server.run() {
        Ok(()) => {
            println!("randsync-svc drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse one `key=value` argument value: integers and booleans are
/// typed, `@path` embeds a file's contents, anything else is a string.
fn parse_submit_value(value: &str) -> Result<Json, ExitCode> {
    if let Some(path) = value.strip_prefix('@') {
        return match std::fs::read_to_string(path) {
            Ok(text) => Ok(Json::Str(text)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                Err(ExitCode::FAILURE)
            }
        };
    }
    Ok(match value {
        "true" => Json::Bool(true),
        "false" => Json::Bool(false),
        "null" => Json::Null,
        _ => value
            .parse::<i128>()
            .map(Json::Int)
            .unwrap_or_else(|_| Json::Str(value.to_string())),
    })
}

/// `randsync submit <addr> <job> [--timeout-s S] [key=value ...]`: run
/// one job against a server, streaming progress frames to stderr.
/// `--timeout-s` bounds the silence tolerated between frames (default
/// 600; every progress frame resets it). Exit code mirrors the reply
/// status.
fn run_submit(args: &[String]) -> ExitCode {
    let (Some(addr), Some(kind)) = (args.first(), args.get(1)) else {
        eprintln!("usage: randsync submit <addr> <job> [--timeout-s S] [key=value ...]");
        return ExitCode::FAILURE;
    };
    let mut params = Vec::new();
    let mut idle = Some(Client::DEFAULT_IDLE_TIMEOUT);
    let mut trace_path: Option<String> = None;
    let mut iter = args[2..].iter();
    while let Some(arg) = iter.next() {
        if arg == "--timeout-s" {
            match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(0) => idle = None,
                Some(s) => idle = Some(std::time::Duration::from_secs(s)),
                None => {
                    eprintln!("--timeout-s needs a number of seconds (0 = wait forever)");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        if arg == "--trace" {
            let Some(path) = iter.next() else {
                eprintln!("--trace needs a file path");
                return ExitCode::FAILURE;
            };
            trace_path = Some(path.clone());
            continue;
        }
        let Some((key, value)) = arg.split_once('=') else {
            eprintln!("parameters are key=value pairs, got: {arg}");
            return ExitCode::FAILURE;
        };
        match parse_submit_value(value) {
            Ok(v) => params.push((key.to_string(), v)),
            Err(code) => return code,
        }
    }
    let params = if params.is_empty() { Json::Null } else { Json::Obj(params) };
    let mut client = match Client::connect_with_timeout(addr, idle) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // With --trace, record this side's span to a JSONL sink and open a
    // root `submit` span: the client attaches its context to the frame,
    // so the server's `svc.job` span (and any worker spans under it)
    // stitch into one tree with this file via `randsync trace-tree`.
    if let Some(path) = &trace_path {
        match obs::JsonlSink::create(Path::new(path)) {
            Ok(sink) => obs::install_trace_sink(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let ctx_guard = trace_path
        .as_ref()
        .map(|_| obs::push_context(obs::TraceContext::root()));
    let span = trace_path
        .as_ref()
        .map(|_| obs::span("submit", &[("job", Field::Str(kind.to_string()))]));
    let id = match client.send(kind, &params) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("cannot send request: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reply = client.wait(&id, |frame| {
        let stage = frame.get("stage").and_then(Json::as_str).unwrap_or("?");
        if stage == "explore.level" {
            eprintln!(
                "  depth {:>4}  frontier {:>9}  configs {:>9}",
                frame.get("depth").and_then(Json::as_u64).unwrap_or(0),
                frame.get("frontier").and_then(Json::as_u64).unwrap_or(0),
                frame.get("configs").and_then(Json::as_u64).unwrap_or(0),
            );
        } else {
            eprintln!("  {stage}");
        }
    });
    drop(span);
    drop(ctx_guard);
    if trace_path.is_some() {
        obs::clear_trace_sink(); // flush the JSONL before exiting
    }
    match reply {
        Ok(reply) if reply.ok => {
            if kind == "monte_carlo" {
                print_mc_summary(&reply.body);
            } else if kind == "metrics" {
                // Render the snapshot as aligned text with quantile
                // columns rather than raw JSON.
                match reply.body.get("metrics").and_then(Snapshot::from_json) {
                    Some(snap) => print!("{}", snap.to_text()),
                    None => println!("{}", reply.body.render()),
                }
            } else {
                println!("{}", reply.body.render());
            }
            ExitCode::SUCCESS
        }
        Ok(reply) => {
            eprintln!(
                "{}: {}",
                reply.error_code().unwrap_or("error"),
                reply.body.get("message").and_then(Json::as_str).unwrap_or("(no message)")
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `randsync shutdown <addr>`: drain a running server and stop it.
fn run_shutdown(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("usage: randsync shutdown <addr>");
        return ExitCode::FAILURE;
    };
    match Client::connect(addr).and_then(|mut c| c.shutdown()) {
        Ok(draining) => {
            println!("server draining ({draining} queued job(s)) and stopping");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One refresh of the `randsync top` dashboard, rendered from a
/// `svc.watch` metrics delta: throughput, queue/connection state,
/// cache hit rate, per-job-kind latency quantiles, and — under a
/// distributed frontier — which shard was slowest.
fn render_top_tick(tick: u64, interval_millis: u64, delta: &Snapshot) {
    let c = |name: &str| delta.counter(name).unwrap_or(0);
    let g = |name: &str| delta.gauge(name).unwrap_or(0);
    let secs = (interval_millis as f64 / 1e3).max(1e-9);
    let done = c("svc.jobs.ok") + c("svc.jobs.error");
    let hits = c("svc.cache.hits");
    let lookups = hits + c("svc.cache.misses");
    println!(
        "tick {tick:>3}  jobs/s {:>7.1}  queue {:>4}  conns {:>3}  outbox {:>4}  cache {}",
        done as f64 / secs,
        g("svc.queue.depth"),
        g("svc.conns.open"),
        g("svc.loop.outbox_depth"),
        if lookups == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * hits as f64 / lookups as f64)
        },
    );
    for (name, value) in &delta.entries {
        let MetricValue::Histogram { count, .. } = value else { continue };
        if *count == 0 {
            continue;
        }
        let Some(kind) = name.strip_prefix("svc.job.micros.") else { continue };
        let (p50, p99) = (
            value.quantile(0.50).unwrap_or(0),
            value.quantile(0.99).unwrap_or(0),
        );
        println!("    {kind:<14} {count:>5} done  p50 {p50:>8}us  p99 {p99:>8}us");
    }
    // Per-shard health: svc.dist.slowest.shardK counts the rounds
    // where shard K was the straggler. All-zero deltas are omitted.
    let shards: Vec<(&str, u64)> = delta
        .entries
        .iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) => {
                name.strip_prefix("svc.dist.slowest.").map(|shard| (shard, *n))
            }
            _ => None,
        })
        .collect();
    if shards.iter().any(|(_, n)| *n > 0) {
        let line = shards
            .iter()
            .map(|(shard, n)| format!("{shard}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("    slowest-shard rounds: {line}");
    }
}

/// `randsync top <addr> [--interval-ms MS] [--ticks N]`: submit a
/// `watch` job and render each streamed metrics delta as a dashboard
/// refresh. The server computes the deltas; this side only renders.
fn run_top(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("usage: randsync top <addr> [--interval-ms MS] [--ticks N]");
        return ExitCode::FAILURE;
    };
    let mut interval_millis = 1_000u64;
    let mut ticks = 30u64;
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--interval-ms" | "--ticks" => {
                let Some(v) = iter.next().and_then(|s| s.parse::<u64>().ok()).filter(|v| *v > 0)
                else {
                    eprintln!("{arg} needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if arg == "--interval-ms" {
                    interval_millis = v;
                } else {
                    ticks = v;
                }
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params = Json::Obj(vec![
        ("interval_millis".to_string(), Json::Int(i128::from(interval_millis))),
        ("ticks".to_string(), Json::Int(i128::from(ticks))),
    ]);
    let id = match client.send("watch", &params) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("cannot send watch job: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reply = client.wait(&id, |frame| {
        if frame.get("stage").and_then(Json::as_str) != Some("svc.watch") {
            return;
        }
        let delta = frame
            .get("delta")
            .and_then(Json::as_str)
            .and_then(|text| obs::parse_json(text).ok())
            .as_ref()
            .and_then(Snapshot::from_json);
        let tick = frame.get("tick").and_then(Json::as_u64).unwrap_or(0);
        match delta {
            Some(delta) => render_top_tick(tick, interval_millis, &delta),
            None => eprintln!("tick {tick}: undecodable delta frame"),
        }
    });
    match reply {
        Ok(reply) if reply.ok => ExitCode::SUCCESS,
        Ok(reply) => {
            eprintln!(
                "{}: {}",
                reply.error_code().unwrap_or("error"),
                reply.body.get("message").and_then(Json::as_str).unwrap_or("(no message)")
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("watch failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `randsync soak <addr> [--duration-s S] [--inflight N]
/// [--catalog <file>]`: drive a mixed job load at the backpressure
/// boundary while sampling metrics, then judge leaks, p99 ceilings,
/// and cache hit rate against the threshold catalog (the baked
/// defaults, or a JSON file). Exit code is the verdict, so CI can
/// gate on it.
fn run_soak_cmd(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("usage: randsync soak <addr> [--duration-s S] [--inflight N] [--catalog <file>]");
        return ExitCode::FAILURE;
    };
    let mut config = SoakConfig::default();
    let mut catalog = ThresholdCatalog::baked();
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--duration-s" | "--inflight" => {
                let Some(v) = iter.next().and_then(|s| s.parse::<u64>().ok()).filter(|v| *v > 0)
                else {
                    eprintln!("{arg} needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if arg == "--duration-s" {
                    config.duration = std::time::Duration::from_secs(v);
                } else {
                    config.inflight = v as usize;
                }
            }
            "--catalog" => {
                let Some(path) = iter.next() else {
                    eprintln!("--catalog needs a file path");
                    return ExitCode::FAILURE;
                };
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read catalog {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let json = match obs::parse_json(&text) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("catalog {path} is not valid JSON: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                catalog = match ThresholdCatalog::from_json(&json) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("catalog {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run_soak(addr, &config, &catalog) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("soak failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `randsync trace-tree <a.jsonl> [b.jsonl ...]`: merge the span
/// events from per-process JSONL trace sinks (`serve --trace`,
/// `worker --trace`, `submit --trace`) and render each trace's
/// stitched causal tree with per-span wall time and the critical
/// path. Exit code is nonzero when any span's parent was never
/// collected — an orphan means a process's trace file is missing.
fn run_trace_tree(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("usage: randsync trace-tree <trace.jsonl> [more.jsonl ...]");
        return ExitCode::FAILURE;
    }
    let mut inputs = Vec::new();
    for path in args {
        match std::fs::read_to_string(path) {
            Ok(text) => inputs.push((path.clone(), text)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let forest = obs::merge_spans(&inputs);
    print!("{}", forest.render());
    if forest.traces.is_empty() {
        eprintln!("no spans found across {} file(s)", inputs.len());
        return ExitCode::FAILURE;
    }
    let orphans = forest.orphan_count();
    if orphans > 0 {
        eprintln!("{orphans} orphaned span(s): a parent span was never collected");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Short git revision stamped into `BENCH_gate.json`, `"unknown"`
/// outside a checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `randsync gate` — run the fail-closed verification gate (DESIGN.md
/// §18): every property-catalog entry selected by `--filter`, then the
/// witness regression corpus. Exit code is nonzero on ANY failure,
/// lost or tampered witness, or skipped entry.
///
/// Corpus maintenance lives here too: `--add-witness <trace.jsonl>`
/// validates, shrinks, checksums, and files a new witness with
/// provenance; `--seed-corpus` rebuilds the corpus from the registry's
/// adversary targets (idempotent).
fn run_gate_cmd(args: &[String]) -> ExitCode {
    let mut config = gate::GateConfig::default();
    let mut list = false;
    let mut seed = false;
    let mut report_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut add_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--seed-corpus" => seed = true,
            "--filter" => {
                let Some(f) = iter.next() else {
                    eprintln!("--filter needs a catalog id, id substring, or tag");
                    return ExitCode::FAILURE;
                };
                config.filter = Some(f.clone());
            }
            "--corpus" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--corpus needs a directory");
                    return ExitCode::FAILURE;
                };
                config.corpus_dir = std::path::PathBuf::from(dir);
            }
            "--report" => {
                let Some(p) = iter.next() else {
                    eprintln!("--report needs a file path");
                    return ExitCode::FAILURE;
                };
                report_path = Some(p.clone());
            }
            "--bench" => {
                let Some(p) = iter.next() else {
                    eprintln!("--bench needs a file path");
                    return ExitCode::FAILURE;
                };
                bench_path = Some(p.clone());
            }
            "--add-witness" => {
                let Some(p) = iter.next() else {
                    eprintln!("--add-witness needs a trace file");
                    return ExitCode::FAILURE;
                };
                add_path = Some(p.clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if list {
        for e in gate::catalog() {
            println!(
                "{:<22} {:<32} [{}] budget {} ms{}",
                e.id,
                e.paper,
                e.tags.join(","),
                e.budget_ms,
                if e.requires_witness { "  (requires corpus witness)" } else { "" }
            );
        }
        println!("{:<22} the witness regression corpus [smoke,corpus]", gate::CORPUS_ENTRY_ID);
        return ExitCode::SUCCESS;
    }
    if let Some(path) = add_path {
        return match gate::add_witness(&config.corpus_dir, Path::new(&path)) {
            Ok(Some(record)) => {
                println!(
                    "filed {} — property {} ({} steps, {} processes, checksum {})",
                    record.file, record.property, record.steps, record.processes_used,
                    record.checksum
                );
                ExitCode::SUCCESS
            }
            Ok(None) => {
                println!("an identical witness is already filed; corpus unchanged");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot file witness: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if seed {
        return match gate::seed_corpus(&config.corpus_dir) {
            Ok(added) if added.is_empty() => {
                println!("corpus already seeded; nothing to add");
                ExitCode::SUCCESS
            }
            Ok(added) => {
                for record in &added {
                    println!(
                        "filed {} — property {} ({} steps, {} processes)",
                        record.file, record.property, record.steps, record.processes_used
                    );
                }
                println!("{} witness(es) filed", added.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("seeding failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = gate::run_gate(&config);
    print!("{}", report.render());
    if let Some(path) = report_path {
        let mut text = report.to_json().render();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write report {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report              : {path}");
    }
    if let Some(path) = bench_path {
        let mut text = report.bench_json(&git_revision()).render();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write bench {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench               : {path}");
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
