//! `randsync` — command-line front end for the reproduction.
//!
//! `randsync help` lists every subcommand with its usage line; that
//! list is generated from the command table below, the same
//! declaration the argument parser reads, so it is the one reference.
//! A malformed invocation (an unknown subcommand or flag, a flag
//! without its value, a number that does not parse, a surplus
//! argument) is refused with a message naming the offending token and
//! the command's usage line, and exits 1.
//!
//! Protocol names come from the shared registry
//! (`randsync::consensus::registry`); `randsync protocols` lists them
//! all with their paper hooks. `attack` applies only to the flawed
//! entries the adversaries target; `run` applies only to entries whose
//! termination survives free thread scheduling. `attack` and `check`
//! take an explicit r only for entries whose object set it sizes.
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

use randsync::consensus::registry::{self, ProtocolEntry};
use randsync::consensus::spec::decide_concurrently;
use randsync::consensus::{Consensus, WalkConsensus};
use randsync::core::attack::{attack_target, AttackError, AttackOutcome, AttackStats};
use randsync::core::bounds;
use randsync::core::hierarchy::render_table;
use randsync::model::runtime::{replay_execution, Runtime};
use randsync::core::witness::InconsistencyWitness;
use randsync::model::{
    Checkpoint, CheckpointRequest, Configuration, DynObject, Execution, ExploreConfig,
    ExploreLimits, ExploreOutcome, Explorer, Protocol,
};
use randsync::objects::bridge;
use randsync::obs::{self, ExecutionTrace, Field, Json, MetricValue, Snapshot, TraceSink};
use randsync::gate;
use randsync::svc::soak::{run_soak, SoakConfig, ThresholdCatalog};
use randsync::svc::{job, Client, Server, ServerConfig};

/// Write `args` to stdout. A reader that closed the pipe early
/// (`randsync check localcoin | head -1`) ends the process quietly
/// with status 141, the shell's status for a SIGPIPE death; the
/// SIGPIPE disposition itself is left alone, so `serve` and `worker`
/// still see EPIPE on their sockets as an error.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`]; shadows the std macro in this file.
macro_rules! print {
    ($($arg:tt)*) => {
        crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`]; shadows the std macro in this file.
macro_rules! println {
    () => {
        crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One subcommand: its name, its usage line, a one-line summary and
/// its handler. The usage line is also the grammar [`parse_args`]
/// reads the command's arguments with: `<x>` is a required positional
/// and `[x]` an optional one, `[--f]` is a boolean flag and
/// `[--f <v>]` a flag that takes a value, and `[x ...]` takes the rest
/// of the positionals.
struct Command {
    name: &'static str,
    usage: &'static str,
    about: &'static str,
    run: fn(&Args) -> Outcome,
}

/// Why a command stopped short: a refused argument, printed with the
/// command's usage line, or a failure while running, printed alone.
/// Both exit 1.
#[derive(Debug, PartialEq)]
enum Stop {
    Usage(String),
    Failed(String),
}

type Outcome = Result<ExitCode, Stop>;

static COMMANDS: &[Command] = &[
    Command { name: "table", usage: "[n]", about: "the Section 4 separation table", run: run_table },
    Command { name: "bounds", usage: "<n>", about: "thresholds for n processes", run: run_bounds },
    Command {
        name: "protocols",
        usage: "",
        about: "the protocol registry inventory",
        run: run_protocols,
    },
    Command {
        name: "attack",
        usage: "<protocol> [r]",
        about: "run the lower-bound adversary",
        run: run_attack,
    },
    Command {
        name: "check",
        usage: "<protocol> [r]",
        about: "exhaustively model-check a protocol",
        run: run_check,
    },
    Command {
        name: "valency",
        usage: "<protocol> [threads] [--canonical] [--por] [--best-first] [--metrics] \
                [--mem-budget <bytes>] [--deadline-ms <ms>] [--checkpoint <file>]",
        about: "valency analysis (FLP structure)",
        run: run_valency,
    },
    Command {
        name: "shrink",
        usage: "<trace.jsonl> [--out <file>]",
        about: "minimize a witness trace (delete + commute)",
        run: run_shrink,
    },
    Command {
        name: "resume",
        usage: "<file.ckpt> [--mem-budget <bytes>]",
        about: "continue a checkpointed exploration",
        run: run_resume,
    },
    Command {
        name: "run",
        usage: "<protocol> [n] [seed] [--metrics] [--trace <file>]",
        about: "execute on real threads via the runtime",
        run: run_threaded,
    },
    Command {
        name: "replay",
        usage: "<trace.jsonl>",
        about: "re-execute a recorded run deterministically",
        run: run_replay,
    },
    Command {
        name: "montecarlo",
        usage: "<protocol> [trials] [seed] [n]",
        about: "seeded trial sweep + histogram",
        run: run_montecarlo,
    },
    Command {
        name: "walk",
        usage: "<n> [seed]",
        about: "threaded one-counter consensus demo",
        run: run_walk,
    },
    Command {
        name: "serve",
        usage: "[addr] [--workers <n>] [--queue <n>] [--max-conns <n>] \
                [--checkpoint-dir <dir>] [--workers-addrs <a:p,b:p,...>] [--trace <file>]",
        about: "start the verification job server",
        run: |args| run_serve(args, false),
    },
    // A worker is a server whose job is hosting frontier shard
    // sessions: same binary, same protocol, zero workers wasted on a
    // queue nobody submits to.
    Command {
        name: "worker",
        usage: "[addr] [--max-conns <n>] [--trace <file>]",
        about: "start a frontier shard server",
        run: |args| run_serve(args, true),
    },
    Command {
        name: "submit",
        usage: "<addr> <job> [--timeout-s <s>] [--trace <file>] [key=value ...]",
        about: "run one job against a server",
        run: run_submit,
    },
    Command {
        name: "shutdown",
        usage: "<addr>",
        about: "drain a server and stop it",
        run: run_shutdown,
    },
    Command {
        name: "top",
        usage: "<addr> [--interval-ms <ms>] [--ticks <n>]",
        about: "live metrics dashboard (watch job)",
        run: run_top,
    },
    Command {
        name: "soak",
        usage: "<addr> [--duration-s <s>] [--inflight <n>] [--catalog <file>]",
        about: "soak the server, judge thresholds",
        run: run_soak_cmd,
    },
    Command {
        name: "gate",
        usage: "[--list] [--filter <id|tag>] [--report <file>] [--corpus <dir>] \
                [--add-witness <trace.jsonl>] [--seed-corpus]",
        about: "run the fail-closed verification gate",
        run: run_gate_cmd,
    },
    Command {
        name: "trace-tree",
        usage: "<a.jsonl> [b.jsonl ...]",
        about: "stitch span sinks into one tree",
        run: run_trace_tree,
    },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("help", String::as_str);
    if name == "help" || name == "--help" {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!("unknown subcommand: {name}");
        eprintln!("usage: randsync <{}> ... (see `randsync help`)", names.join("|"));
        return ExitCode::FAILURE;
    };
    match parse_args(cmd.usage, &argv[1..]).and_then(|args| (cmd.run)(&args)) {
        Ok(code) => code,
        Err(Stop::Usage(message)) => {
            eprintln!("{message}");
            eprintln!("usage: randsync {} {}", cmd.name, cmd.usage);
            ExitCode::FAILURE
        }
        Err(Stop::Failed(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// The help text: every command's usage line, wrapped at group
/// boundaries, with its summary.
fn help() -> String {
    let mut out = String::from(
        "randsync — executable reproduction of Fich-Herlihy-Shavit (PODC 1993)\n\nusage:\n",
    );
    for cmd in COMMANDS {
        let mut line = format!("  randsync {}", cmd.name);
        for group in groups(cmd.usage) {
            if line.len() + group.len() >= 80 {
                out.push_str(&line);
                line = "\n         ".to_string();
            }
            line.push(' ');
            line.push_str(group);
        }
        out.push_str(&format!("{line}\n      {}\n", cmd.about));
    }
    out.push_str(
        "\nprotocol names: see `randsync protocols`\n\
         job kinds: valency, explore, resume, run, monte_carlo, replay, verify_witness,\n\
         \x20          protocols, sleep, watch, metrics\n",
    );
    out
}

/// The groups of a usage line: `<x>`, `[x]`, `[--f]`, `[--f <v>]` and
/// `[x ...]`.
fn groups(usage: &'static str) -> impl Iterator<Item = &'static str> {
    let mut rest = usage.trim();
    std::iter::from_fn(move || {
        let close = if rest.starts_with('[') { ']' } else { '>' };
        let (group, tail) = rest.split_at(rest.find(close)? + 1);
        rest = tail.trim_start();
        Some(group)
    })
}

/// One group of a usage line, as the parser reads it.
#[derive(Debug, PartialEq)]
enum Slot {
    Positional { name: &'static str, required: bool },
    Rest,
    Flag { name: &'static str, value: Option<&'static str> },
}

fn slot(group: &'static str) -> Slot {
    let inner = &group[1..group.len() - 1];
    if inner.starts_with("--") {
        match inner.split_once(' ') {
            Some((name, value)) => Slot::Flag { name, value: Some(value) },
            None => Slot::Flag { name: inner, value: None },
        }
    } else if inner.ends_with(" ...") {
        Slot::Rest
    } else {
        Slot::Positional { name: inner, required: group.starts_with('<') }
    }
}

/// A command's arguments, parsed against its usage line: positionals
/// by name, flags by `--name` (a boolean flag with an empty value),
/// and what a `[x ...]` group took.
#[derive(Debug, Default)]
struct Args {
    values: Vec<(&'static str, String)>,
    rest: Vec<String>,
}

impl Args {
    /// The value of a positional or valued flag; the last one wins.
    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// A required positional: the parser has refused its absence.
    fn required(&self, name: &str) -> &str {
        self.get(name).unwrap_or_default()
    }

    /// Whether a flag was given.
    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A numeric value; one that does not parse is refused.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Stop> {
        let refuse = |v| Stop::Usage(format!("{name} must be a non-negative integer, got: {v}"));
        self.get(name).map(|v| v.parse().map_err(|_| refuse(v))).transpose()
    }

    /// A numeric value that must be positive, `default` when absent.
    fn positive(&self, name: &str, default: u64) -> Result<u64, Stop> {
        match self.num(name)? {
            Some(0) => Err(Stop::Usage(format!("{name} must be a positive integer, got: 0"))),
            v => Ok(v.unwrap_or(default)),
        }
    }
}

/// Parse `argv` against the grammar of `usage`. Flags may appear
/// anywhere; positionals fill the declared slots in order.
fn parse_args(usage: &'static str, argv: &[String]) -> Result<Args, Stop> {
    let slots: Vec<Slot> = groups(usage).map(slot).collect();
    let mut positionals = slots.iter().filter_map(|s| match s {
        Slot::Positional { name, .. } => Some(*name),
        _ => None,
    });
    let mut args = Args::default();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if arg.starts_with("--") {
            let Some(&Slot::Flag { name, value }) =
                slots.iter().find(|s| matches!(s, Slot::Flag { name, .. } if name == arg))
            else {
                return Err(Stop::Usage(format!("unknown flag: {arg}")));
            };
            let value = match value {
                None => String::new(),
                Some(placeholder) => match argv.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(Stop::Usage(format!("{arg} needs a value {placeholder}"))),
                },
            };
            args.values.push((name, value));
        } else if let Some(name) = positionals.next() {
            args.values.push((name, arg.clone()));
        } else if slots.contains(&Slot::Rest) {
            args.rest.push(arg.clone());
        } else {
            return Err(Stop::Usage(format!("unexpected argument: {arg}")));
        }
    }
    for s in &slots {
        if let Slot::Positional { name, required: true } = s {
            if args.get(name).is_none() {
                return Err(Stop::Usage(format!("missing <{name}>")));
            }
        }
    }
    Ok(args)
}

/// Resolve a registry name or fail with the conventional message.
fn lookup(which: &str) -> Result<&'static ProtocolEntry, Stop> {
    registry::find(which)
        .ok_or_else(|| Stop::Failed(format!("unknown protocol: {which} (see `randsync protocols`)")))
}

fn run_table(args: &Args) -> Outcome {
    print!("{}", render_table(args.num("n")?.unwrap_or(1024)));
    Ok(ExitCode::SUCCESS)
}

fn run_bounds(args: &Args) -> Outcome {
    let n: u64 = args.num("n")?.unwrap_or_default();
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
    Ok(ExitCode::SUCCESS)
}

fn run_protocols(_: &Args) -> Outcome {
    print!("{}", registry::markdown_table());
    Ok(ExitCode::SUCCESS)
}

fn run_walk(args: &Args) -> Outcome {
    let n = args.num::<usize>("n")?.unwrap_or_default().max(2);
    let seed = args.num("seed")?.unwrap_or(42);
    let proto = WalkConsensus::with_bounded_counter(n, seed);
    let inputs: Vec<u8> = (0..n).map(|p| (p % 2) as u8).collect();
    let ds = decide_concurrently(&proto, &inputs);
    println!(
        "{} with {} object(s): inputs {:?} → decisions {:?}",
        proto.name(),
        proto.object_count(),
        inputs,
        ds
    );
    Ok(ExitCode::SUCCESS)
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

/// The round parameter r of `attack` and `check`: the entry's
/// `default_r` when absent (as for `valency`, `run`, the svc jobs and
/// the gate), and refused for an entry whose object set does not
/// depend on it.
fn round_param(entry: &ProtocolEntry, args: &Args) -> Result<usize, Stop> {
    match args.num("r")? {
        Some(r) if !entry.takes_r => Err(Stop::Usage(format!(
            "{} has a fixed object set ({}) and takes no r, got: {r}",
            entry.name, entry.objects
        ))),
        r => Ok(r.unwrap_or(entry.default_r)),
    }
}

/// `randsync attack`: run the adversary the registry assigns to the
/// target, narrate the witness it constructs, and print its trace.
fn run_attack(args: &Args) -> Outcome {
    let entry = lookup(args.required("protocol"))?;
    let protocol = (entry.build)(entry.default_n, round_param(entry, args)?);
    let (witness, stats) = match attack_target(entry.attack, &protocol) {
        Ok(AttackOutcome::Inconsistent { witness, stats }) => (witness, stats),
        Ok(violation) => {
            println!("{violation}");
            return Ok(ExitCode::SUCCESS);
        }
        Err(AttackError::NotApplicable) => {
            return Err(Stop::Failed(format!(
                "unknown attack target: {} (no adversary applies — the protocol is correct)",
                entry.name
            )))
        }
        Err(e) => return Err(Stop::Failed(format!("attack failed: {e}"))),
    };
    match stats {
        AttackStats::Register(stats) => {
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
            let minimal = witness.minimize(&protocol).map_err(|e| {
                Stop::Failed(format!("internal error: minimized witness failed verification: {e}"))
            })?;
            println!(
                "  minimized: {} steps, {} processes",
                minimal.execution.len(),
                minimal.processes_used
            );
        }
        AttackStats::Historyless(stats) => {
            println!("inconsistency constructed (Lemma 3.6 adversary):");
            println!("  {witness}");
            println!(
                "  {} pieces executed, {} reconstructions, recursion depth {}",
                stats.pieces_executed, stats.reconstructions, stats.max_depth
            );
        }
    }
    replay_trace(&protocol, &witness);
    Ok(ExitCode::SUCCESS)
}

fn replay_trace<P: Protocol>(protocol: &P, witness: &InconsistencyWitness) {
    println!("  trace:");
    let start: Configuration<P::State> = witness.initial_configuration(protocol);
    let text = randsync::model::render_execution(protocol, &start, &witness.execution)
        .expect("witness replays");
    for line in text.lines() {
        println!("    {line}");
    }
}

fn run_valency(args: &Args) -> Outcome {
    // Optional worker-thread count; 0 (the default) resolves to the
    // host's available parallelism. Results are identical either way.
    let threads = args.num("threads")?.unwrap_or(0);
    let mem_budget = args.num("--mem-budget")?.unwrap_or(0);
    let deadline_ms = args.num("--deadline-ms")?;
    let (best_first, metrics) = (args.flag("--best-first"), args.flag("--metrics"));
    let entry = lookup(args.required("protocol"))?;
    let mut config = ExploreConfig {
        limits: ExploreLimits::EXHAUSTIVE,
        threads,
        canonical: args.flag("--canonical"),
        por: args.flag("--por"),
        mem_budget_bytes: mem_budget,
        ..ExploreConfig::default()
    };
    if let Some(ms) = deadline_ms {
        config.deadline =
            Some(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    if let Some(path) = args.get("--checkpoint") {
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
    let outcome = if best_first {
        best_first_report(&explorer, entry)
    } else {
        valency_report(&explorer, &entry.build_default(), entry.default_inputs)
    };
    if metrics {
        obs::clear_trace_sink();
        print_metrics_snapshot();
    }
    outcome
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
fn valency_report<P>(explorer: &Explorer, protocol: &P, inputs: &[u8]) -> Outcome
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
        return Err(Stop::Failed(format!(
            "exploration truncated ({reason}); valencies would be unsound"
        )));
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
    Ok(ExitCode::SUCCESS)
}

/// The guided adversary search behind `valency --best-first`: hunt for
/// an inconsistency with the valency-split-scored frontier instead of
/// sweeping the space. A found witness is minimized (deletion +
/// commutation) and dumped as a replayable flight trace in the current
/// directory.
fn best_first_report(explorer: &Explorer, entry: &ProtocolEntry) -> Outcome {
    let protocol = entry.build_default();
    let (found, truncated) =
        explorer.guided_violation(&protocol, entry.default_inputs, |c| c.is_inconsistent());
    let Some(execution) = found else {
        if truncated {
            return Err(Stop::Failed(
                "guided search       : no inconsistency within the budget (inconclusive)".into(),
            ));
        }
        println!("guided search       : space exhausted, no inconsistency (protocol consistent)");
        return Ok(ExitCode::SUCCESS);
    };
    println!("guided search       : inconsistency reached in {} steps", execution.len());
    let witness = InconsistencyWitness::from_execution(&protocol, entry.default_inputs, execution)
        .ok_or_else(|| {
            Stop::Failed(
                "internal error: violating execution did not replay to an inconsistency".into(),
            )
        })?;
    witness
        .verify(&protocol)
        .map_err(|e| Stop::Failed(format!("internal error: witness failed verification: {e}")))?;
    let (minimal, stats) = witness.minimize_report(&protocol).map_err(|e| {
        Stop::Failed(format!("internal error: minimized witness failed verification: {e}"))
    })?;
    println!(
        "minimized           : {} steps, {} processes ({} deleted, {} commuted)",
        minimal.execution.len(),
        minimal.processes_used,
        stats.deleted,
        stats.commuted
    );
    let path = minimal
        .dump_flight_trace(entry.name, entry.default_n, entry.default_r, Path::new("."))
        .map_err(|e| Stop::Failed(format!("cannot write flight trace: {e}")))?;
    println!("flight trace        : {} — `randsync replay {}`", path.display(), path.display());
    Ok(ExitCode::SUCCESS)
}

/// `randsync shrink`: minimize a recorded witness trace — delete steps
/// and commute independent neighbors while the replay still decides
/// both values — and write the shrunk trace back out (default:
/// `<input>.min.jsonl`), replayable with `randsync replay`.
fn run_shrink(args: &Args) -> Outcome {
    let path = args.required("trace.jsonl");
    let trace = read_trace(path)?;
    let entry = lookup(&trace.protocol)?;
    let protocol = (entry.build)(trace.n, trace.r);
    let execution = Execution::from_trace(&trace);
    let witness = InconsistencyWitness::from_execution(&protocol, &trace.inputs, execution)
        .ok_or_else(|| {
            Stop::Failed(format!(
                "{path} does not witness an inconsistency (the replay never decides both \
                 values); nothing to shrink"
            ))
        })?;
    let (minimal, stats) = witness.minimize_report(&protocol).map_err(|e| {
        Stop::Failed(format!("{path}: the shrunk witness failed verification: {e}"))
    })?;
    println!(
        "{} — {} steps shrunk to {} ({} deleted, {} commuted)",
        entry.name,
        trace.steps.len(),
        minimal.execution.len(),
        stats.deleted,
        stats.commuted
    );
    let out = args.get("--out").map_or_else(|| format!("{path}.min.jsonl"), str::to_string);
    let min_trace = minimal.flight_trace(entry.name, trace.n, trace.r);
    min_trace
        .write_to(Path::new(&out))
        .map_err(|e| Stop::Failed(format!("cannot write {out}: {e}")))?;
    println!("minimized trace     : {out} — `randsync replay {out}`");
    Ok(ExitCode::SUCCESS)
}

fn read_trace(path: &str) -> Result<ExecutionTrace, Stop> {
    ExecutionTrace::read_from(Path::new(path))
        .map_err(|e| Stop::Failed(format!("cannot read trace {path}: {e}")))
}

/// `randsync resume`: load a checkpoint written by `valency
/// --checkpoint` (or the job server) and continue the search to its
/// full verdict. Stdout matches `randsync check` line-for-line so the
/// two can be diffed; the resume banner goes to stderr.
fn run_resume(args: &Args) -> Outcome {
    let mem_budget = args.num("--mem-budget")?.unwrap_or(0);
    let path = args.required("file.ckpt");
    let ckpt = Checkpoint::load(Path::new(path))
        .map_err(|e| Stop::Failed(format!("cannot load checkpoint {path}: {e}")))?;
    let entry = lookup(&ckpt.protocol)?;
    eprintln!(
        "resuming {} (n={}, r={}) from depth {}, {} configs",
        ckpt.protocol,
        ckpt.n,
        ckpt.r,
        ckpt.level_depth,
        ckpt.nodes()
    );
    let explorer = Explorer::new(ExploreLimits::EXHAUSTIVE).mem_budget(mem_budget);
    let out = explorer
        .resume(&(entry.build)(ckpt.n as usize, ckpt.r as usize), &ckpt)
        .map_err(|e| Stop::Failed(format!("resume failed: {e}")))?;
    print_check_summary(&out);
    Ok(ExitCode::SUCCESS)
}

fn run_check(args: &Args) -> Outcome {
    let entry = lookup(args.required("protocol"))?;
    let protocol = (entry.build)(entry.default_n, round_param(entry, args)?);
    let out = Explorer::new(ExploreLimits::EXHAUSTIVE).explore(&protocol, entry.default_inputs);
    print_check_summary(&out);
    Ok(ExitCode::SUCCESS)
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

/// `randsync run`: instantiate a registry protocol's state machine on
/// real bridged objects and execute it with one OS thread per process.
/// With `--trace` the run goes through the flight recorder and the
/// linearized schedule is written as JSONL, replayable bit-for-bit
/// with `randsync replay`.
fn run_threaded(args: &Args) -> Outcome {
    let (metrics, trace_path) = (args.flag("--metrics"), args.get("--trace"));
    let entry = lookup(args.required("protocol"))?;
    if !entry.runnable {
        return Err(Stop::Failed(format!(
            "{0} is model-only (its termination needs a fair scheduler or coin \
             enumeration); use `randsync check {0}` instead",
            entry.name
        )));
    }
    let n = args.num("n")?.unwrap_or(entry.default_n);
    let seed = args.num("seed")?.unwrap_or(42);
    if metrics {
        obs::set_metrics_enabled(true);
    }
    let protocol = (entry.build)(n, entry.default_r);
    let n = protocol.num_processes(); // fixed-arity entries ignore the request
    let inputs = entry.inputs_for(n);
    let objects = bridged(entry.name, &protocol)?;
    let runtime = Runtime::new(seed);
    let (report, execution) = if trace_path.is_some() {
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
    if let (Some(path), Some(execution)) = (trace_path, &execution) {
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
        trace
            .write_to(Path::new(path))
            .map_err(|e| Stop::Failed(format!("cannot write trace to {path}: {e}")))?;
        println!("  trace     : {path} ({} steps) — `randsync replay {path}`", trace.steps.len());
    }
    if metrics {
        print_metrics_snapshot();
    }
    Ok(if ok || !entry.expected_safe { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The objects of `name`'s protocol as real atomics.
fn bridged<P: Protocol>(name: &str, protocol: &P) -> Result<Vec<Box<dyn DynObject>>, Stop> {
    bridge::instantiate_all(protocol)
        .map_err(|e| Stop::Failed(format!("cannot bridge {name} onto real objects: {e}")))
}

/// `randsync replay`: re-execute a flight-recorder trace sequentially
/// on fresh bridged objects and check the decisions against what the
/// recorded run claimed. Exit code is nonzero on any divergence, so
/// this doubles as a trace integrity check.
fn run_replay(args: &Args) -> Outcome {
    let path = args.required("trace.jsonl");
    let trace = read_trace(path)?;
    let entry = lookup(&trace.protocol)?;
    let protocol = (entry.build)(trace.n, trace.r);
    let objects = bridged(&trace.protocol, &protocol)?;
    let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
    let execution = Execution::from_trace(&trace);
    let decisions = replay_execution(&protocol, &refs, &trace.inputs, &execution)
        .map_err(|e| Stop::Failed(format!("replay diverged from the recorded run: {e}")))?;
    println!("{} — replayed {} steps from {path}", entry.name, trace.steps.len());
    println!("  recorded by : {} interpreter, seed {}", trace.interpreter, trace.seed);
    println!("  inputs      : {:?}", trace.inputs);
    println!("  decisions   : {decisions:?}");
    if !trace.decisions_match(&decisions) {
        return Err(Stop::Failed(format!(
            "  verdict     : DIVERGED — the trace recorded {:?}",
            trace.decisions
        )));
    }
    println!("  verdict     : decisions match the recorded run");
    Ok(ExitCode::SUCCESS)
}

/// `randsync montecarlo`: a seeded batch of simulator trials, printed
/// with the per-decision-value histogram. Runs through the same job
/// code the server uses, so the numbers here are bit-identical to a
/// `monte_carlo` job submitted over the wire.
fn run_montecarlo(args: &Args) -> Outcome {
    let entry = lookup(args.required("protocol"))?;
    let int = |name: &str, default: u64| -> Result<Json, Stop> {
        Ok(Json::Int(i128::from(args.num(name)?.unwrap_or(default))))
    };
    let params = Json::Obj(vec![
        ("protocol".to_string(), Json::Str(entry.name.to_string())),
        ("trials".to_string(), int("trials", 256)?),
        ("seed".to_string(), int("seed", 0)?),
        ("n".to_string(), int("n", entry.default_n as u64)?),
    ]);
    let job_error = |e: job::JobError| Stop::Failed(format!("{}: {}", e.code, e.message));
    let job = job::Job::parse("monte_carlo", &params).map_err(job_error)?;
    let result = job
        .execute(std::time::Instant::now() + std::time::Duration::from_secs(3600))
        .map_err(job_error)?;
    print_mc_summary(&result);
    Ok(ExitCode::SUCCESS)
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

/// `randsync serve` — and, with `worker_role`, `randsync worker`: run
/// the job server until a `shutdown` control frame drains it. Binding
/// port 0 picks an ephemeral port; the actual address is printed
/// either way. A worker role is the same server with one queue worker
/// — its purpose is answering `frontier_*` shard frames, which never
/// touch the queue.
fn run_serve(args: &Args, worker_role: bool) -> Outcome {
    let defaults = ServerConfig::default();
    let mut config = ServerConfig {
        workers: args.num("--workers")?.unwrap_or(if worker_role { 1 } else { defaults.workers }),
        queue: args.num("--queue")?.unwrap_or(defaults.queue),
        max_conns: args.num("--max-conns")?.unwrap_or(defaults.max_conns),
        checkpoint_dir: args.get("--checkpoint-dir").map(Into::into),
        trace_path: args.get("--trace").map(Into::into),
        ..defaults
    };
    if let Some(list) = args.get("--workers-addrs") {
        config.frontier_workers =
            list.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
        if config.frontier_workers.is_empty() {
            return Err(Stop::Usage(format!(
                "--workers-addrs needs at least one address, got: {list}"
            )));
        }
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7450");
    let server = Server::bind(addr, config)
        .map_err(|e| Stop::Failed(format!("cannot bind {addr}: {e}")))?;
    let actual = server
        .local_addr()
        .map_err(|e| Stop::Failed(format!("cannot resolve bound address: {e}")))?;
    println!("randsync-svc listening on {actual}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush(); // scripts poll for the line above
    server.run().map_err(|e| Stop::Failed(format!("server failed: {e}")))?;
    println!("randsync-svc drained and stopped");
    Ok(ExitCode::SUCCESS)
}

/// Parse one `key=value` argument value: integers and booleans are
/// typed, `@path` embeds a file's contents, anything else is a string.
fn parse_submit_value(value: &str) -> Result<Json, Stop> {
    if let Some(path) = value.strip_prefix('@') {
        return std::fs::read_to_string(path)
            .map(Json::Str)
            .map_err(|e| Stop::Failed(format!("cannot read {path}: {e}")));
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

/// The failure a server reply carries.
fn reply_error(body: &Json, code: Option<&str>) -> Stop {
    Stop::Failed(format!(
        "{}: {}",
        code.unwrap_or("error"),
        body.get("message").and_then(Json::as_str).unwrap_or("(no message)")
    ))
}

/// `randsync submit`: run one job against a server, streaming progress
/// frames to stderr. `--timeout-s` bounds the silence tolerated between
/// frames (default 600, 0 waits forever; every progress frame resets
/// it). Exit code mirrors the reply status.
fn run_submit(args: &Args) -> Outcome {
    let (addr, kind) = (args.required("addr"), args.required("job"));
    let idle = match args.num("--timeout-s")? {
        Some(0) => None,
        Some(s) => Some(std::time::Duration::from_secs(s)),
        None => Some(Client::DEFAULT_IDLE_TIMEOUT),
    };
    let trace_path = args.get("--trace");
    let mut params = Vec::new();
    for arg in &args.rest {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(Stop::Usage(format!("parameters are key=value pairs, got: {arg}")));
        };
        params.push((key.to_string(), parse_submit_value(value)?));
    }
    let params = if params.is_empty() { Json::Null } else { Json::Obj(params) };
    let mut client = Client::connect_with_timeout(addr, idle)
        .map_err(|e| Stop::Failed(format!("cannot connect to {addr}: {e}")))?;
    // With --trace, record this side's span to a JSONL sink and open a
    // root `submit` span: the client attaches its context to the frame,
    // so the server's `svc.job` span (and any worker spans under it)
    // stitch into one tree with this file via `randsync trace-tree`.
    if let Some(path) = trace_path {
        let sink = obs::JsonlSink::create(Path::new(path))
            .map_err(|e| Stop::Failed(format!("cannot create trace file {path}: {e}")))?;
        obs::install_trace_sink(std::sync::Arc::new(sink));
    }
    let ctx_guard = trace_path.map(|_| obs::push_context(obs::TraceContext::root()));
    let span = trace_path.map(|_| obs::span("submit", &[("job", Field::Str(kind.to_string()))]));
    let id = client
        .send(kind, &params)
        .map_err(|e| Stop::Failed(format!("cannot send request: {e}")))?;
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
    let reply = reply.map_err(|e| Stop::Failed(format!("request failed: {e}")))?;
    if !reply.ok {
        return Err(reply_error(&reply.body, reply.error_code()));
    }
    if kind == "monte_carlo" {
        print_mc_summary(&reply.body);
    } else if kind == "metrics" {
        // Render the snapshot as aligned text with quantile columns
        // rather than raw JSON.
        match reply.body.get("metrics").and_then(Snapshot::from_json) {
            Some(snap) => print!("{}", snap.to_text()),
            None => println!("{}", reply.body.render()),
        }
    } else {
        println!("{}", reply.body.render());
    }
    Ok(ExitCode::SUCCESS)
}

/// `randsync shutdown`: drain a running server and stop it.
fn run_shutdown(args: &Args) -> Outcome {
    let draining = Client::connect(args.required("addr"))
        .and_then(|mut c| c.shutdown())
        .map_err(|e| Stop::Failed(format!("shutdown failed: {e}")))?;
    println!("server draining ({draining} queued job(s)) and stopping");
    Ok(ExitCode::SUCCESS)
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

/// `randsync top`: submit a `watch` job and render each streamed
/// metrics delta as a dashboard refresh. The server computes the
/// deltas; this side only renders.
fn run_top(args: &Args) -> Outcome {
    let addr = args.required("addr");
    let interval_millis = args.positive("--interval-ms", 1_000)?;
    let ticks = args.positive("--ticks", 30)?;
    let mut client = Client::connect(addr)
        .map_err(|e| Stop::Failed(format!("cannot connect to {addr}: {e}")))?;
    let params = Json::Obj(vec![
        ("interval_millis".to_string(), Json::Int(i128::from(interval_millis))),
        ("ticks".to_string(), Json::Int(i128::from(ticks))),
    ]);
    let id = client
        .send("watch", &params)
        .map_err(|e| Stop::Failed(format!("cannot send watch job: {e}")))?;
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
    let reply = reply.map_err(|e| Stop::Failed(format!("watch failed: {e}")))?;
    if !reply.ok {
        return Err(reply_error(&reply.body, reply.error_code()));
    }
    Ok(ExitCode::SUCCESS)
}

/// `randsync soak`: drive a mixed job load at the backpressure
/// boundary while sampling metrics, then judge leaks, p99 ceilings,
/// and cache hit rate against the threshold catalog (the baked
/// defaults, or a JSON file). Exit code is the verdict, so CI can
/// gate on it.
fn run_soak_cmd(args: &Args) -> Outcome {
    let defaults = SoakConfig::default();
    let config = SoakConfig {
        duration: std::time::Duration::from_secs(
            args.positive("--duration-s", defaults.duration.as_secs())?,
        ),
        inflight: args.positive("--inflight", defaults.inflight as u64)? as usize,
        ..defaults
    };
    let catalog = match args.get("--catalog") {
        None => ThresholdCatalog::baked(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| Stop::Failed(format!("cannot read catalog {path}: {e}")))?;
            let json = obs::parse_json(&text)
                .map_err(|e| Stop::Failed(format!("catalog {path} is not valid JSON: {e}")))?;
            ThresholdCatalog::from_json(&json)
                .map_err(|e| Stop::Failed(format!("catalog {path}: {e}")))?
        }
    };
    let report = run_soak(args.required("addr"), &config, &catalog)
        .map_err(|e| Stop::Failed(format!("soak failed: {e}")))?;
    print!("{}", report.render());
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `randsync trace-tree`: merge the span events from per-process JSONL
/// trace sinks (`serve --trace`, `worker --trace`, `submit --trace`)
/// and render each trace's stitched causal tree with per-span wall
/// time and the critical path. Exit code is nonzero when any span's
/// parent was never collected — an orphan means a process's trace
/// file is missing.
fn run_trace_tree(args: &Args) -> Outcome {
    let mut inputs = Vec::new();
    let first = args.required("a.jsonl");
    for path in std::iter::once(first).chain(args.rest.iter().map(String::as_str)) {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Stop::Failed(format!("cannot read {path}: {e}")))?;
        inputs.push((path.to_string(), text));
    }
    let forest = obs::merge_spans(&inputs);
    print!("{}", forest.render());
    if forest.traces.is_empty() {
        return Err(Stop::Failed(format!("no spans found across {} file(s)", inputs.len())));
    }
    let orphans = forest.orphan_count();
    if orphans > 0 {
        return Err(Stop::Failed(format!(
            "{orphans} orphaned span(s): a parent span was never collected"
        )));
    }
    Ok(ExitCode::SUCCESS)
}

/// Short git revision stamped into the gate report, `"unknown"`
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
fn run_gate_cmd(args: &Args) -> Outcome {
    let defaults = gate::GateConfig::default();
    let config = gate::GateConfig {
        filter: args.get("--filter").map(str::to_string),
        corpus_dir: args.get("--corpus").map_or(defaults.corpus_dir, Into::into),
    };
    if args.flag("--list") {
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
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = args.get("--add-witness") {
        match gate::add_witness(&config.corpus_dir, Path::new(path)) {
            Ok(Some(record)) => println!(
                "filed {} — property {} ({} steps, {} processes, checksum {})",
                record.file, record.property, record.steps, record.processes_used, record.checksum
            ),
            Ok(None) => println!("an identical witness is already filed; corpus unchanged"),
            Err(e) => return Err(Stop::Failed(format!("cannot file witness: {e}"))),
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("--seed-corpus") {
        let added = gate::seed_corpus(&config.corpus_dir)
            .map_err(|e| Stop::Failed(format!("seeding failed: {e}")))?;
        if added.is_empty() {
            println!("corpus already seeded; nothing to add");
            return Ok(ExitCode::SUCCESS);
        }
        for record in &added {
            println!(
                "filed {} — property {} ({} steps, {} processes)",
                record.file, record.property, record.steps, record.processes_used
            );
        }
        println!("{} witness(es) filed", added.len());
        return Ok(ExitCode::SUCCESS);
    }
    let report = gate::run_gate(&config);
    print!("{}", report.render());
    if let Some(path) = args.get("--report") {
        let mut text = report.to_json(&git_revision()).render();
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| Stop::Failed(format!("cannot write report {path}: {e}")))?;
        println!("report              : {path}");
    }
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(usage: &'static str, argv: &[&str]) -> Result<Args, Stop> {
        parse_args(usage, &argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn refused(message: &str) -> Stop {
        Stop::Usage(message.to_string())
    }

    #[test]
    fn positionals_fill_required_optional_and_rest_slots_in_order() {
        let usage = "<a> [b] [c ...]";
        let args = parse(usage, &["x", "y", "z", "w"]).unwrap();
        assert_eq!((args.get("a"), args.get("b")), (Some("x"), Some("y")));
        assert_eq!(args.rest, ["z", "w"]);
        let args = parse(usage, &["x"]).unwrap();
        assert_eq!((args.required("a"), args.get("b"), args.rest.len()), ("x", None, 0));
        assert_eq!(parse(usage, &[]).unwrap_err(), refused("missing <a>"));
        let surplus = parse("<a> [b]", &["x", "y", "z"]).unwrap_err();
        assert_eq!(surplus, refused("unexpected argument: z"));
    }

    #[test]
    fn boolean_and_valued_flags_interleave_with_positionals() {
        let usage = "<a> [b] [--on] [--size <bytes>]";
        let args = parse(usage, &["--size", "9", "x", "--on", "y", "--size", "10"]).unwrap();
        assert_eq!((args.get("a"), args.get("b"), args.flag("--on")), (Some("x"), Some("y"), true));
        assert_eq!(args.num::<u64>("--size"), Ok(Some(10)), "the last value wins");
        let args = parse(usage, &["x"]).unwrap();
        assert_eq!((args.flag("--on"), args.num::<u64>("--size")), (false, Ok(None)));
    }

    #[test]
    fn malformed_flags_and_numbers_are_refused_by_token() {
        let usage = "<a> [--on] [--size <bytes>]";
        assert_eq!(parse(usage, &["x", "--off"]).unwrap_err(), refused("unknown flag: --off"));
        for argv in [&["x", "--size"][..], &["x", "--size", "--on"]] {
            assert_eq!(parse(usage, argv).unwrap_err(), refused("--size needs a value <bytes>"));
        }
        let args = parse(usage, &["x", "--size", "lots"]).unwrap();
        let bad = refused("--size must be a non-negative integer, got: lots");
        assert_eq!(args.num::<u64>("--size"), Err(bad));
        let args = parse(usage, &["x", "--size", "0"]).unwrap();
        let zero = refused("--size must be a positive integer, got: 0");
        assert_eq!(args.positive("--size", 1), Err(zero));
    }

    #[test]
    fn every_usage_line_is_a_grammar() {
        for cmd in COMMANDS {
            let words: Vec<&str> = cmd.usage.split_whitespace().collect();
            let groups: Vec<&str> = groups(cmd.usage).collect();
            assert_eq!(groups.join(" "), words.join(" "), "{}: every word is in a group", cmd.name);
            let bracketed = |g: &&str| {
                (g.starts_with('<') && g.ends_with('>') && !g.contains(' '))
                    || (g.starts_with('[') && g.ends_with(']'))
            };
            assert!(groups.iter().all(bracketed), "{}: {groups:?}", cmd.name);
            // Required positionals come first and a rest group last, so
            // each positional has one slot it can fill.
            let kinds: Vec<u8> = groups
                .into_iter()
                .filter_map(|g| match slot(g) {
                    Slot::Positional { required, .. } => Some(if required { 0 } else { 1 }),
                    Slot::Rest => Some(2),
                    Slot::Flag { .. } => None,
                })
                .collect();
            assert!(kinds.windows(2).all(|w| w[0] <= w[1] && w[0] < 2), "{}", cmd.name);
        }
    }
}
