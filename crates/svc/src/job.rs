//! Typed jobs: parsing request parameters into a fully-defaulted
//! [`Job`], keying the results cache, and executing jobs through the
//! library crates.
//!
//! Every job dispatches through `consensus::registry`, so the server
//! duplicates no protocol list: an entry added to the registry is
//! immediately servable. [`Job::parse`] declares each parameter once —
//! wire name, type and default — fills every default, and refuses keys
//! it does not declare, so two requests that differ only in spelling
//! (omitted vs. explicit default) parse to equal jobs and therefore
//! share a cache key, while a misspelt key is a `bad_request`.

use std::time::{Duration, Instant};

use randsync_consensus::registry::{self, AttackFamily, ProtocolEntry};
use randsync_core::attack::{attack_target, AttackOutcome};
use randsync_model::runtime::{replay_execution, Runtime};
use randsync_model::{
    monte_carlo_summary, Checkpoint, CheckpointRequest, DynObject, Execution, ExploreConfig,
    ExploreLimits, ExploreOutcome, Explorer, McSummary, Protocol, SharedFrontier,
};
use randsync_obs::{ExecutionTrace, Json};
use randsync_objects::bridge;

use crate::cache::checkpoint_store;
use crate::wire::{code, WIRE_SCHEMA_VERSION};

/// Longest sleep a `sleep` diagnostics job may request.
const MAX_SLEEP_MILLIS: u64 = 60_000;

/// Seeds per slice between deadline checks in `monte_carlo` jobs.
const MC_DEADLINE_SLICE: u64 = 256;

/// Server-side execution context handed to [`Job::execute_ctx`]:
/// facilities that come from the serving process, not the request.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ExecContext {
    /// Frontier shard addresses for distributed exploration
    /// ([`crate::dist::DistributedFrontier`]); empty keeps all dedup
    /// in-process. Results are bit-identical either way, so this is
    /// deliberately *not* part of any cache key.
    pub frontier_workers: Vec<String>,
}

impl ExecContext {
    /// The frontier transport this context prescribes, if any.
    fn frontier_transport(&self) -> Result<Option<SharedFrontier>, JobError> {
        if self.frontier_workers.is_empty() {
            return Ok(None);
        }
        let frontier = crate::dist::DistributedFrontier::connect(&self.frontier_workers)
            .map_err(|e| JobError::failed(format!("cannot reach frontier workers: {e}")))?;
        Ok(Some(SharedFrontier::new(frontier)))
    }
}

/// A job failure: a wire error code plus a message.
#[derive(Clone, PartialEq, Debug)]
pub struct JobError {
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl JobError {
    fn bad(message: impl Into<String>) -> JobError {
        JobError { code: code::BAD_REQUEST, message: message.into() }
    }

    fn failed(message: impl Into<String>) -> JobError {
        JobError { code: code::JOB_FAILED, message: message.into() }
    }

    fn deadline() -> JobError {
        JobError {
            code: code::DEADLINE_EXCEEDED,
            message: "job exceeded its wall-clock budget".to_string(),
        }
    }
}

/// One parsed, validated job with every parameter defaulted.
#[derive(Clone, PartialEq, Debug)]
pub enum Job {
    /// Valency analysis (FLP structure) of a registry protocol.
    Valency {
        /// Registry protocol name.
        protocol: String,
        /// Explorer worker threads (0 = host parallelism).
        threads: usize,
        /// Explore the symmetry quotient.
        canonical: bool,
        /// Prune Mazurkiewicz-equivalent interleavings (partial-order
        /// reduction). Changes the visited counts, never the verdicts —
        /// but it is part of the cache key, so a reduced run can never
        /// answer for a raw one.
        por: bool,
        /// Configuration budget.
        max_configs: usize,
        /// Depth budget.
        max_depth: usize,
    },
    /// Full exploration of a registry protocol, optionally out-of-core,
    /// leaving a resumable checkpoint behind when a budget truncates it.
    Explore {
        /// Registry protocol name.
        protocol: String,
        /// Process count (fixed-arity entries ignore it).
        n: usize,
        /// Round/repetition parameter.
        r: usize,
        /// Explorer worker threads (0 = host parallelism).
        threads: usize,
        /// Explore the symmetry quotient.
        canonical: bool,
        /// Prune Mazurkiewicz-equivalent interleavings (partial-order
        /// reduction). Part of the cache key.
        por: bool,
        /// Configuration budget.
        max_configs: usize,
        /// Depth budget.
        max_depth: usize,
        /// Resident-memory budget in bytes (0 = all in RAM).
        mem_budget: usize,
        /// Exploration wall-clock budget in ms (0 = the job budget);
        /// hitting it yields a truncated outcome with a checkpoint, not
        /// an error.
        deadline_millis: u64,
    },
    /// Continue a checkpointed `explore` under fresh budgets.
    Resume {
        /// Checkpoint id issued by a prior truncated `explore`.
        checkpoint: String,
        /// Explorer worker threads (0 = host parallelism).
        threads: usize,
        /// Configuration budget.
        max_configs: usize,
        /// Depth budget.
        max_depth: usize,
        /// Resident-memory budget in bytes (0 = all in RAM).
        mem_budget: usize,
        /// Exploration wall-clock budget in ms (0 = the job budget).
        deadline_millis: u64,
    },
    /// One threaded-runtime execution on real bridged objects.
    Run {
        /// Registry protocol name (must be `runnable`).
        protocol: String,
        /// Process count (fixed-arity entries ignore it).
        n: usize,
        /// Coin-stream master seed.
        seed: u64,
        /// Per-process step budget.
        max_steps: usize,
    },
    /// A batch of seeded simulator trials with the decision histogram.
    MonteCarlo {
        /// Registry protocol name.
        protocol: String,
        /// Process count (fixed-arity entries ignore it).
        n: usize,
        /// Number of trials (seeds `seed..seed+trials`).
        trials: u64,
        /// First seed.
        seed: u64,
        /// Per-trial step budget.
        max_steps: usize,
        /// Worker threads (0 = host parallelism).
        threads: usize,
    },
    /// Re-execute a flight-recorder trace and check its decisions.
    Replay {
        /// The trace file contents (JSONL, embedded in the request).
        trace: String,
    },
    /// Run the applicable lower-bound adversary and verify its witness.
    VerifyWitness {
        /// Registry protocol name (must have an applicable adversary).
        protocol: String,
        /// Round/repetition parameter.
        r: usize,
    },
    /// The protocol registry as structured data.
    Protocols,
    /// Diagnostics: hold a worker for `millis` (cooperatively
    /// cancellable). Exists so operators and the integration tests can
    /// exercise backpressure, budgets, and drain deterministically.
    Sleep {
        /// How long to hold the worker.
        millis: u64,
    },
    /// Telemetry: stream periodic metrics *deltas* as `svc.watch`
    /// progress frames. Each tick snapshots the global registry,
    /// subtracts the previous tick's snapshot, and emits the delta —
    /// the feed behind `randsync top` and the soak monitor.
    Watch {
        /// Milliseconds between ticks.
        interval_millis: u64,
        /// How many deltas to emit before completing.
        ticks: u64,
    },
}

/// A request's parameters, read one declared key at a time. Every key
/// a job accepts is named once, with its type and default, by the
/// [`Job::parse`] arm that reads it; [`Params::finish`] then refuses
/// whatever no arm asked for, so a misspelt key is an error instead of
/// a silently applied default.
struct Params<'a> {
    params: &'a Json,
    asked: Vec<&'static str>,
}

impl<'a> Params<'a> {
    /// The value given for `key`, recording the key as accepted; an
    /// explicit `null` counts as absent.
    fn get(&mut self, key: &'static str) -> Option<&'a Json> {
        self.asked.push(key);
        self.params.get(key).filter(|v| **v != Json::Null)
    }

    fn num<T: TryFrom<u64>>(&mut self, key: &'static str, default: T) -> Result<T, JobError> {
        self.get(key).map_or(Ok(default), |v| {
            v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
                JobError::bad(format!("parameter {key:?} must be a non-negative integer"))
            })
        })
    }

    fn bool(&mut self, key: &'static str, default: bool) -> Result<bool, JobError> {
        match self.get(key) {
            None => Ok(default),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(JobError::bad(format!("parameter {key:?} must be a boolean"))),
        }
    }

    /// A required string parameter; `missing` is the refusal when it
    /// is absent or not a string.
    fn string(&mut self, key: &'static str, missing: &str) -> Result<String, JobError> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(JobError::bad(missing)),
        }
    }

    /// The `protocol` parameter, resolved in the registry.
    fn protocol(&mut self, default: &str) -> Result<&'static ProtocolEntry, JobError> {
        let name = match self.get("protocol") {
            None => default,
            Some(Json::Str(s)) => s.as_str(),
            Some(_) => return Err(JobError::bad("parameter \"protocol\" must be a string")),
        };
        registry::find(name).ok_or_else(|| JobError {
            code: code::UNKNOWN_PROTOCOL,
            message: format!("unknown protocol: {name} (see the protocols job)"),
        })
    }

    /// Refuse params that are neither null nor an object, any key no
    /// reader asked for, and any key given twice.
    fn finish(self, kind: &str) -> Result<(), JobError> {
        let fields = match self.params {
            Json::Null => return Ok(()),
            Json::Obj(fields) => fields,
            _ => return Err(JobError::bad("params must be a JSON object or null")),
        };
        for (i, (key, _)) in fields.iter().enumerate() {
            if !self.asked.contains(&key.as_str()) {
                return Err(JobError::bad(format!("unknown parameter {key:?} for the {kind} job")));
            }
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(JobError::bad(format!("parameter {key:?} given more than once")));
            }
        }
        Ok(())
    }
}

impl Job {
    /// Parse and validate a request's job kind and parameters, filling
    /// every default. Params must be `null` (all defaults) or an object
    /// naming each accepted key at most once.
    ///
    /// # Errors
    ///
    /// `unknown_job`, `unknown_protocol`, or `bad_request` (also for an
    /// undeclared or repeated key, naming it) — all cheap,
    /// so malformed requests are rejected before touching the queue.
    pub fn parse(kind: &str, params: &Json) -> Result<Job, JobError> {
        let limits = ExploreLimits::EXHAUSTIVE;
        let mut p = Params { params, asked: Vec::new() };
        let job = match kind {
            "valency" => Job::Valency {
                protocol: p.protocol("cas")?.name.to_string(),
                threads: p.num("threads", 0)?,
                canonical: p.bool("canonical", false)?,
                por: p.bool("por", false)?,
                max_configs: p.num("max_configs", limits.max_configs)?,
                max_depth: p.num("max_depth", limits.max_depth)?,
            },
            "explore" => {
                let entry = p.protocol("cas")?;
                Job::Explore {
                    protocol: entry.name.to_string(),
                    n: p.num("n", entry.default_n)?,
                    r: p.num("r", entry.default_r)?,
                    threads: p.num("threads", 0)?,
                    canonical: p.bool("canonical", false)?,
                    por: p.bool("por", false)?,
                    max_configs: p.num("max_configs", limits.max_configs)?,
                    max_depth: p.num("max_depth", limits.max_depth)?,
                    mem_budget: p.num("mem_budget", 0)?,
                    deadline_millis: p.num("deadline_millis", 0)?,
                }
            }
            "resume" => Job::Resume {
                checkpoint: p.string(
                    "checkpoint",
                    "resume needs a string \"checkpoint\" parameter \
                     (the id a truncated explore job returned)",
                )?,
                threads: p.num("threads", 0)?,
                max_configs: p.num("max_configs", limits.max_configs)?,
                max_depth: p.num("max_depth", limits.max_depth)?,
                mem_budget: p.num("mem_budget", 0)?,
                deadline_millis: p.num("deadline_millis", 0)?,
            },
            "run" => {
                let entry = p.protocol("cas")?;
                if !entry.runnable {
                    return Err(JobError::bad(format!(
                        "{} is model-only; use the valency or monte_carlo job",
                        entry.name
                    )));
                }
                Job::Run {
                    protocol: entry.name.to_string(),
                    n: p.num("n", entry.default_n)?,
                    seed: p.num("seed", 42)?,
                    max_steps: p.num("max_steps", 2_000_000)?,
                }
            }
            "monte_carlo" => {
                let entry = p.protocol("cas")?;
                Job::MonteCarlo {
                    protocol: entry.name.to_string(),
                    n: p.num("n", entry.default_n)?,
                    trials: p.num("trials", 256)?,
                    seed: p.num("seed", 0)?,
                    max_steps: p.num("max_steps", 100_000)?,
                    threads: p.num("threads", 0)?,
                }
            }
            "replay" => Job::Replay {
                trace: p.string("trace", "replay needs a string \"trace\" parameter (JSONL)")?,
            },
            "verify_witness" => {
                let entry = p.protocol("optimistic")?;
                if entry.attack == AttackFamily::NotApplicable {
                    return Err(JobError::bad(format!(
                        "no adversary applies to {} (it is correct, or out of scope)",
                        entry.name
                    )));
                }
                Job::VerifyWitness {
                    protocol: entry.name.to_string(),
                    r: p.num("r", entry.default_r)?,
                }
            }
            "protocols" => Job::Protocols,
            "sleep" => {
                let millis: u64 = p.num("millis", 0)?;
                if millis > MAX_SLEEP_MILLIS {
                    return Err(JobError::bad(format!("sleep capped at {MAX_SLEEP_MILLIS} ms")));
                }
                Job::Sleep { millis }
            }
            "watch" => {
                let interval_millis: u64 = p.num("interval_millis", 500)?;
                let ticks: u64 = p.num("ticks", 8)?;
                if interval_millis == 0 || ticks == 0 {
                    return Err(JobError::bad("watch needs interval_millis >= 1 and ticks >= 1"));
                }
                if interval_millis.saturating_mul(ticks) > MAX_SLEEP_MILLIS {
                    return Err(JobError::bad(format!(
                        "watch capped at {MAX_SLEEP_MILLIS} ms total (interval_millis * ticks)"
                    )));
                }
                Job::Watch { interval_millis, ticks }
            }
            other => {
                return Err(JobError {
                    code: code::UNKNOWN_JOB,
                    message: format!(
                        "unknown job {other:?} (valency, explore, resume, run, monte_carlo, \
                         replay, verify_witness, protocols, sleep, watch)"
                    ),
                })
            }
        };
        p.finish(kind)?;
        Ok(job)
    }

    /// The job kind's wire name.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Valency { .. } => "valency",
            Job::Explore { .. } => "explore",
            Job::Resume { .. } => "resume",
            Job::Run { .. } => "run",
            Job::MonteCarlo { .. } => "monte_carlo",
            Job::Replay { .. } => "replay",
            Job::VerifyWitness { .. } => "verify_witness",
            Job::Protocols => "protocols",
            Job::Sleep { .. } => "sleep",
            Job::Watch { .. } => "watch",
        }
    }

    /// Whether the result is a deterministic function of the canonical
    /// parameters, and therefore cacheable. `run` is excluded (the OS
    /// interleaving is part of the result), as are `replay` (arbitrary
    /// payload size), `sleep` (the point is the wait), and
    /// `explore`/`resume` (a wall-clock budget — and hence host speed —
    /// decides whether they truncate, and each run mints a fresh
    /// checkpoint id), and `watch` (a live feed of the server's own
    /// metrics — caching it would defeat the point).
    pub fn cacheable(&self) -> bool {
        matches!(
            self,
            Job::Valency { .. } | Job::MonteCarlo { .. } | Job::VerifyWitness { .. } | Job::Protocols
        )
    }

    /// The cache key: the wire schema version plus the parsed job's
    /// derived `Debug` form. [`Job::parse`] fills every default and the
    /// form lists every field, so two requests share a slot exactly
    /// when they parse to equal jobs. The form is not a stable format
    /// across builds, and need not be: the results cache lives and dies
    /// with the serving process, so no key outlives the build that
    /// made it.
    pub fn cache_key(&self) -> String {
        format!("{WIRE_SCHEMA_VERSION}:{self:?}")
    }

    /// Execute the job with default context (all dedup in-process),
    /// cancelling cooperatively at `deadline`.
    ///
    /// # Errors
    ///
    /// `deadline_exceeded` when the budget ran out first, otherwise
    /// `job_failed` with the underlying failure.
    pub fn execute(&self, deadline: Instant) -> Result<Json, JobError> {
        self.execute_ctx(deadline, &ExecContext::default())
    }

    /// Execute the job under a server's [`ExecContext`], cancelling
    /// cooperatively at `deadline`. With frontier workers configured,
    /// `valency`/`explore`/`resume` dedup against the remote shards;
    /// every result stays bit-identical to the in-process run.
    ///
    /// # Errors
    ///
    /// `deadline_exceeded` when the budget ran out first, otherwise
    /// `job_failed` with the underlying failure.
    pub fn execute_ctx(&self, deadline: Instant, ctx: &ExecContext) -> Result<Json, JobError> {
        match self {
            Job::Valency { protocol, threads, canonical, por, max_configs, max_depth } => {
                let entry = registry::find(protocol).expect("parse validated the name");
                let explorer = Explorer::with_config(ExploreConfig {
                    limits: ExploreLimits { max_configs: *max_configs, max_depth: *max_depth },
                    threads: *threads,
                    canonical: *canonical,
                    por: *por,
                    deadline: Some(deadline),
                    transport: ctx.frontier_transport()?,
                    ..Default::default()
                });
                let analysis = explorer
                    .valency(&entry.build_default(), entry.default_inputs)
                    .ok_or_else(|| {
                        if Instant::now() >= deadline {
                            JobError::deadline()
                        } else {
                            JobError::failed(
                                "state space exceeded the configuration budget; \
                                 valencies would be unsound",
                            )
                        }
                    })?;
                Ok(Json::Obj(vec![
                    ("protocol".to_string(), Json::Str(entry.name.to_string())),
                    ("initial".to_string(), Json::Str(format!("{:?}", analysis.initial))),
                    ("configs".to_string(), Json::Int(analysis.configs as i128)),
                    ("zero_valent".to_string(), Json::Int(analysis.zero_valent as i128)),
                    ("one_valent".to_string(), Json::Int(analysis.one_valent as i128)),
                    ("bivalent".to_string(), Json::Int(analysis.bivalent as i128)),
                    ("stuck".to_string(), Json::Int(analysis.stuck as i128)),
                    (
                        "critical_configs".to_string(),
                        Json::Int(analysis.critical_configs as i128),
                    ),
                    ("bivalent_cycle".to_string(), Json::Bool(analysis.bivalent_cycle)),
                ]))
            }
            Job::Explore {
                protocol,
                n,
                r,
                threads,
                canonical,
                por,
                max_configs,
                max_depth,
                mem_budget,
                deadline_millis,
            } => {
                let entry = registry::find(protocol).expect("parse validated the name");
                let built = (entry.build)(*n, *r);
                let n_eff = built.num_processes();
                let inputs = entry.inputs_for(n_eff);
                let (id, path) = checkpoint_store().reserve();
                let explorer = Explorer::with_config(ExploreConfig {
                    limits: ExploreLimits { max_configs: *max_configs, max_depth: *max_depth },
                    threads: *threads,
                    canonical: *canonical,
                    por: *por,
                    deadline: Some(explore_deadline(deadline, *deadline_millis)),
                    mem_budget_bytes: *mem_budget,
                    transport: ctx.frontier_transport()?,
                    checkpoint: Some(CheckpointRequest {
                        path: path.clone(),
                        protocol: entry.name.to_string(),
                        n: *n as u32,
                        r: *r as u64,
                        inputs: inputs.clone(),
                    }),
                    ..Default::default()
                });
                let outcome = explorer.explore(&built, &inputs);
                Ok(explore_outcome_json(entry.name, &outcome, commit_checkpoint(&outcome, id, path)))
            }
            Job::Resume { checkpoint, threads, max_configs, max_depth, mem_budget, deadline_millis } => {
                let path = checkpoint_store().get(checkpoint).ok_or_else(|| {
                    JobError::bad(format!(
                        "unknown checkpoint {checkpoint:?} (ids come from truncated explore jobs \
                         on this server)"
                    ))
                })?;
                let ckpt = Checkpoint::load(&path)
                    .map_err(|e| JobError::failed(format!("cannot load checkpoint: {e}")))?;
                let entry = registry::find(&ckpt.protocol).ok_or_else(|| JobError {
                    code: code::UNKNOWN_PROTOCOL,
                    message: format!("checkpoint names unknown protocol {:?}", ckpt.protocol),
                })?;
                let built = (entry.build)(ckpt.n as usize, ckpt.r as usize);
                let (id, repath) = checkpoint_store().reserve();
                let explorer = Explorer::with_config(ExploreConfig {
                    limits: ExploreLimits { max_configs: *max_configs, max_depth: *max_depth },
                    threads: *threads,
                    deadline: Some(explore_deadline(deadline, *deadline_millis)),
                    mem_budget_bytes: *mem_budget,
                    transport: ctx.frontier_transport()?,
                    checkpoint: Some(CheckpointRequest {
                        path: repath.clone(),
                        protocol: entry.name.to_string(),
                        n: ckpt.n,
                        r: ckpt.r,
                        inputs: ckpt.inputs.clone(),
                    }),
                    ..Default::default()
                });
                let outcome = explorer
                    .resume(&built, &ckpt)
                    .map_err(|e| JobError::failed(format!("resume failed: {e}")))?;
                let mut json =
                    explore_outcome_json(entry.name, &outcome, commit_checkpoint(&outcome, id, repath));
                if let Json::Obj(fields) = &mut json {
                    fields.push(("resumed_from".to_string(), Json::Str(checkpoint.clone())));
                }
                Ok(json)
            }
            Job::Run { protocol, n, seed, max_steps } => {
                let entry = registry::find(protocol).expect("parse validated the name");
                let protocol = (entry.build)(*n, entry.default_r);
                let n = protocol.num_processes();
                let inputs = entry.inputs_for(n);
                let objects = bridge::instantiate_all(&protocol)
                    .map_err(|e| JobError::failed(format!("cannot bridge objects: {e}")))?;
                let report =
                    Runtime::new(*seed).max_steps(*max_steps).run(&protocol, &inputs, &objects);
                Ok(Json::Obj(vec![
                    ("protocol".to_string(), Json::Str(entry.name.to_string())),
                    ("n".to_string(), Json::Int(n as i128)),
                    ("seed".to_string(), Json::Int(i128::from(*seed))),
                    (
                        "inputs".to_string(),
                        Json::Arr(inputs.iter().map(|&i| Json::Int(i128::from(i))).collect()),
                    ),
                    (
                        "decisions".to_string(),
                        Json::Arr(
                            report
                                .decisions
                                .iter()
                                .map(|d| match d {
                                    Some(v) => Json::Int(i128::from(*v)),
                                    None => Json::Null,
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "steps".to_string(),
                        Json::Arr(report.steps.iter().map(|&s| Json::Int(s as i128)).collect()),
                    ),
                    (
                        "coin_flips".to_string(),
                        Json::Int(i128::from(report.total_coin_flips())),
                    ),
                    ("all_decided".to_string(), Json::Bool(report.all_decided())),
                    ("consistent".to_string(), Json::Bool(report.consistent())),
                    ("valid".to_string(), Json::Bool(report.valid(&inputs))),
                    (
                        "wall_micros".to_string(),
                        Json::Int(report.wall.as_micros().min(i128::MAX as u128) as i128),
                    ),
                ]))
            }
            Job::MonteCarlo { protocol, n, trials, seed, max_steps, threads } => {
                let entry = registry::find(protocol).expect("parse validated the name");
                let protocol = (entry.build)(*n, entry.default_r);
                let n = protocol.num_processes();
                let inputs = entry.inputs_for(n);
                // Slice the seed range so the wall-clock budget is
                // honored between slices; the merged summary is
                // bit-identical to the unsliced run (McSummary::absorb).
                let mut summary = McSummary::default();
                let mut next = *seed;
                let end = seed.saturating_add(*trials);
                while next < end {
                    if Instant::now() >= deadline {
                        return Err(JobError::deadline());
                    }
                    let hi = next.saturating_add(MC_DEADLINE_SLICE).min(end);
                    summary.absorb(&monte_carlo_summary(
                        &protocol, &inputs, next..hi, *threads, *max_steps,
                    ));
                    next = hi;
                }
                Ok(mc_summary_json(entry.name, n, &summary))
            }
            Job::Replay { trace } => {
                let trace = ExecutionTrace::from_jsonl(trace)
                    .map_err(|e| JobError::bad(format!("bad trace payload: {e}")))?;
                let entry = registry::find(&trace.protocol).ok_or_else(|| JobError {
                    code: code::UNKNOWN_PROTOCOL,
                    message: format!("trace names unknown protocol {:?}", trace.protocol),
                })?;
                let protocol = (entry.build)(trace.n, trace.r);
                let objects = bridge::instantiate_all(&protocol)
                    .map_err(|e| JobError::failed(format!("cannot bridge objects: {e}")))?;
                let refs: Vec<&dyn DynObject> = objects.iter().map(AsRef::as_ref).collect();
                let execution = Execution::from_trace(&trace);
                let decisions = replay_execution(&protocol, &refs, &trace.inputs, &execution)
                    .map_err(|e| JobError::failed(format!("replay diverged: {e}")))?;
                let matches = trace.decisions_match(&decisions);
                Ok(Json::Obj(vec![
                    ("protocol".to_string(), Json::Str(entry.name.to_string())),
                    ("interpreter".to_string(), Json::Str(trace.interpreter.clone())),
                    ("steps".to_string(), Json::Int(trace.steps.len() as i128)),
                    (
                        "decisions".to_string(),
                        Json::Arr(
                            decisions
                                .iter()
                                .map(|d| match d {
                                    Some(v) => Json::Int(i128::from(*v)),
                                    None => Json::Null,
                                })
                                .collect(),
                        ),
                    ),
                    ("matches_recording".to_string(), Json::Bool(matches)),
                ]))
            }
            Job::VerifyWitness { protocol, r } => {
                let entry = registry::find(protocol).expect("parse validated the name");
                let built = (entry.build)(entry.default_n, *r);
                verify_witness_result(entry, &built)
            }
            Job::Protocols => {
                let entries = registry::registry()
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(e.name.to_string())),
                            ("objects".to_string(), Json::Str(e.objects.to_string())),
                            ("paper".to_string(), Json::Str(e.paper.to_string())),
                            ("default_n".to_string(), Json::Int(e.default_n as i128)),
                            ("default_r".to_string(), Json::Int(e.default_r as i128)),
                            ("takes_r".to_string(), Json::Bool(e.takes_r)),
                            ("expected_safe".to_string(), Json::Bool(e.expected_safe)),
                            ("runnable".to_string(), Json::Bool(e.runnable)),
                            (
                                "attack".to_string(),
                                Json::Str(e.attack.label().to_string()),
                            ),
                        ])
                    })
                    .collect();
                Ok(Json::Obj(vec![("protocols".to_string(), Json::Arr(entries))]))
            }
            Job::Sleep { millis } => {
                // Sleep in slices so the job budget cancels it too.
                let target = Instant::now() + Duration::from_millis(*millis);
                while Instant::now() < target {
                    if Instant::now() >= deadline {
                        return Err(JobError::deadline());
                    }
                    let left = target - Instant::now();
                    std::thread::sleep(left.min(Duration::from_millis(25)));
                }
                Ok(Json::Obj(vec![(
                    "slept_millis".to_string(),
                    Json::Int(i128::from(*millis)),
                )]))
            }
            Job::Watch { interval_millis, ticks } => {
                let mut prev = randsync_obs::global_metrics().snapshot();
                for tick in 0..*ticks {
                    // Sleep in slices so the job budget cancels a
                    // long watch promptly (same discipline as sleep).
                    let target = Instant::now() + Duration::from_millis(*interval_millis);
                    while Instant::now() < target {
                        if Instant::now() >= deadline {
                            return Err(JobError::deadline());
                        }
                        let left = target - Instant::now();
                        std::thread::sleep(left.min(Duration::from_millis(25)));
                    }
                    let now = randsync_obs::global_metrics().snapshot();
                    let delta = now.delta(&prev);
                    randsync_obs::emit(
                        "svc.watch",
                        &[
                            ("tick", tick.into()),
                            ("delta", delta.to_json().render().into()),
                        ],
                    );
                    prev = now;
                }
                Ok(Json::Obj(vec![
                    ("ticks".to_string(), Json::Int(i128::from(*ticks))),
                    ("interval_millis".to_string(), Json::Int(i128::from(*interval_millis))),
                ]))
            }
        }
    }
}

/// The exploration deadline: the job budget, tightened by an explicit
/// per-exploration budget when one was requested. Hitting it is a
/// *truncated outcome with a checkpoint*, never a job error — the whole
/// point of the explore/resume pair.
fn explore_deadline(job_deadline: Instant, millis: u64) -> Instant {
    if millis == 0 {
        job_deadline
    } else {
        job_deadline.min(Instant::now() + Duration::from_millis(millis))
    }
}

/// Publish the reserved checkpoint id if the engine wrote the file;
/// return the id to report (or `None` for a completed search).
fn commit_checkpoint(outcome: &ExploreOutcome, id: String, path: std::path::PathBuf) -> Option<String> {
    if outcome.checkpoint.is_some() {
        checkpoint_store().commit(id.clone(), path);
        Some(id)
    } else {
        None
    }
}

/// Serialize an [`ExploreOutcome`] as the `explore`/`resume` job
/// result. The storage-tier figures sit in one `footprint` object: they
/// describe where the search kept its state (RAM, spill files, remote
/// shards), not the search, so they legitimately differ between tiers.
/// Everything outside `footprint` must render byte-identically on every
/// tier; the `transport_error` field appears only when a distributed
/// frontier actually failed.
fn explore_outcome_json(protocol: &str, o: &ExploreOutcome, checkpoint: Option<String>) -> Json {
    let opt_bool = |v: Option<bool>| match v {
        Some(b) => Json::Bool(b),
        None => Json::Null,
    };
    let mut fields = vec![
        ("protocol".to_string(), Json::Str(protocol.to_string())),
        ("configs".to_string(), Json::Int(o.configs_visited as i128)),
        ("raw_configs".to_string(), Json::Int(o.raw_configs as i128)),
        ("raw_configs_overflow".to_string(), Json::Bool(o.raw_configs_overflow)),
        ("safe".to_string(), Json::Bool(o.is_safe())),
        ("terminal_configs".to_string(), Json::Int(o.terminal_configs as i128)),
        ("truncated".to_string(), Json::Bool(o.truncated)),
        (
            "truncation_reason".to_string(),
            match o.truncation_reason {
                Some(r) => Json::Str(r.to_string()),
                None => Json::Null,
            },
        ),
        ("can_always_reach_termination".to_string(), opt_bool(o.can_always_reach_termination)),
        ("infinite_execution_possible".to_string(), opt_bool(o.infinite_execution_possible)),
        ("canonical".to_string(), Json::Bool(o.canonicalized)),
        ("por".to_string(), Json::Bool(o.por_enabled)),
        ("por_pruned".to_string(), Json::Int(o.por_pruned as i128)),
        ("por_fallbacks".to_string(), Json::Int(o.por_fallbacks as i128)),
        ("arena_bytes".to_string(), Json::Int(o.arena_bytes as i128)),
        (
            "footprint".to_string(),
            Json::Obj(vec![
                ("spill_mode".to_string(), Json::Bool(o.spill_mode)),
                ("spilled_bytes".to_string(), Json::Int(i128::from(o.spilled_bytes))),
                ("dedup_merge_passes".to_string(), Json::Int(i128::from(o.dedup_merge_passes))),
                ("dedup_run_bytes".to_string(), Json::Int(i128::from(o.dedup_run_bytes))),
                ("seen_bytes".to_string(), Json::Int(o.seen_bytes as i128)),
                ("resident_arena_bytes".to_string(), Json::Int(o.resident_arena_bytes as i128)),
            ]),
        ),
        (
            "checkpoint".to_string(),
            match checkpoint {
                Some(id) => Json::Str(id),
                None => Json::Null,
            },
        ),
        (
            "checkpoint_error".to_string(),
            match &o.checkpoint_error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
    ];
    if let Some(e) = &o.transport_error {
        fields.push(("transport_error".to_string(), Json::Str(e.clone())));
    }
    Json::Obj(fields)
}

/// Serialize an [`McSummary`] — including the per-decision-value
/// histogram — as the `monte_carlo` job's result object.
pub fn mc_summary_json(protocol: &str, n: usize, s: &McSummary) -> Json {
    Json::Obj(vec![
        ("protocol".to_string(), Json::Str(protocol.to_string())),
        ("n".to_string(), Json::Int(n as i128)),
        ("trials".to_string(), Json::Int(i128::from(s.trials))),
        ("decided_runs".to_string(), Json::Int(i128::from(s.decided_runs))),
        ("consistent_runs".to_string(), Json::Int(i128::from(s.consistent_runs))),
        ("total_steps".to_string(), Json::Int(i128::from(s.total_steps))),
        ("max_steps".to_string(), Json::Int(i128::from(s.max_steps))),
        ("mean_steps".to_string(), Json::Float(s.mean_steps())),
        (
            "undecided_processes".to_string(),
            Json::Int(i128::from(s.undecided_processes)),
        ),
        (
            "decision_counts".to_string(),
            Json::Arr(
                s.decision_counts
                    .iter()
                    .map(|&(v, c)| {
                        Json::Arr(vec![Json::Int(i128::from(v)), Json::Int(i128::from(c))])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Run the adversary the registry assigns to `entry` against `built`.
/// A witness it returns has already been verified through the runtime
/// interpreter on fresh model objects (the adversary fails otherwise),
/// so it is reported as verified without a second replay.
fn verify_witness_result<P>(entry: &ProtocolEntry, built: &P) -> Result<Json, JobError>
where
    P: Protocol,
    P::State: Send + Sync,
{
    let mut fields = vec![
        ("protocol".to_string(), Json::Str(entry.name.to_string())),
        ("family".to_string(), Json::Str(entry.attack.label().to_string())),
    ];
    match attack_target(entry.attack, built) {
        Ok(AttackOutcome::Inconsistent { witness, .. }) => {
            fields.extend([
                ("outcome".to_string(), Json::Str("inconsistent".to_string())),
                ("steps".to_string(), Json::Int(witness.execution.len() as i128)),
                ("processes_used".to_string(), Json::Int(witness.processes_used as i128)),
                ("verified".to_string(), Json::Bool(true)),
            ]);
        }
        Ok(
            AttackOutcome::InvalidSolo { input, decided, .. }
            | AttackOutcome::InvalidUnanimous { input, decided, .. },
        ) => {
            fields.extend([
                ("outcome".to_string(), Json::Str("invalid".to_string())),
                ("input".to_string(), Json::Int(i128::from(input))),
                ("decided".to_string(), Json::Int(i128::from(decided))),
            ]);
        }
        Err(e) => return Err(JobError::failed(format!("attack failed: {e}"))),
    }
    Ok(Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn canonical_params_fill_defaults_identically() {
        let explicit = randsync_obs::parse_json(
            "{\"protocol\":\"cas\",\"threads\":0,\"canonical\":false,\
             \"por\":false,\"max_configs\":3000000,\"max_depth\":200000}",
        )
        .unwrap();
        let a = Job::parse("valency", &Json::Null).unwrap();
        let b = Job::parse("valency", &explicit).unwrap();
        let empty = Job::parse("valency", &Json::Obj(Vec::new())).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, empty);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(empty.cache_key(), b.cache_key());
        assert!(a.cacheable());
    }

    fn refusal(kind: &str, params: &str) -> JobError {
        let params = randsync_obs::parse_json(params).unwrap();
        Job::parse(kind, &params).expect_err("params must be refused")
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        let err = refusal("valency", "{\"protocl\":\"naive\"}");
        assert_eq!(err.code, code::BAD_REQUEST);
        assert!(err.message.contains("\"protocl\""), "{}", err.message);
        // A key another job accepts is still unknown here.
        let err = refusal("valency", "{\"trials\":5}");
        assert!(err.message.contains("\"trials\""), "{}", err.message);
        let err = refusal("protocols", "{\"protocol\":\"cas\"}");
        assert!(err.message.contains("\"protocol\""), "{}", err.message);
    }

    #[test]
    fn duplicate_keys_are_refused_by_name() {
        let err = refusal("monte_carlo", "{\"trials\":5,\"seed\":1,\"trials\":6}");
        assert_eq!(err.code, code::BAD_REQUEST);
        assert!(err.message.contains("\"trials\""), "{}", err.message);
        assert!(err.message.contains("more than once"), "{}", err.message);
    }

    #[test]
    fn params_must_be_an_object_or_null() {
        for params in ["[]", "[1,2]", "7", "\"cas\""] {
            let err = refusal("valency", params);
            assert_eq!(err.code, code::BAD_REQUEST, "{params}");
            assert!(err.message.contains("object"), "{params}: {}", err.message);
        }
        // Null params still mean every default, and explicit nulls
        // stand for absent keys.
        let defaults = Job::parse("monte_carlo", &Json::Null).unwrap();
        let nulls = randsync_obs::parse_json("{\"trials\":null}").unwrap();
        assert_eq!(Job::parse("monte_carlo", &nulls).unwrap(), defaults);
        assert!(matches!(defaults, Job::MonteCarlo { trials: 256, seed: 0, .. }));
    }

    #[test]
    fn strategy_flags_split_the_cache_key() {
        // A POR run changes the visited counts (never the verdicts),
        // so it must never be served from a raw run's cache slot.
        let raw = Job::parse("valency", &Json::Null).unwrap();
        let por_params = Json::Obj(vec![("por".to_string(), Json::Bool(true))]);
        let por = Job::parse("valency", &por_params).unwrap();
        assert_ne!(raw.cache_key(), por.cache_key());

        let raw = Job::parse("explore", &Json::Null).unwrap();
        let por = Job::parse("explore", &por_params).unwrap();
        assert_ne!(raw.cache_key(), por.cache_key());
    }

    #[test]
    fn por_valency_job_agrees_with_raw() {
        let raw = Job::parse("valency", &Json::Null).unwrap().execute(far()).unwrap();
        let por_params = Json::Obj(vec![("por".to_string(), Json::Bool(true))]);
        let por = Job::parse("valency", &por_params).unwrap().execute(far()).unwrap();
        assert_eq!(
            raw.get("initial").and_then(Json::as_str),
            por.get("initial").and_then(Json::as_str)
        );
        assert_eq!(raw.get("bivalent_cycle"), por.get("bivalent_cycle"));
        assert!(
            por.get("configs").and_then(Json::as_usize)
                <= raw.get("configs").and_then(Json::as_usize)
        );
    }

    #[test]
    fn unknown_jobs_and_protocols_have_distinct_codes() {
        assert_eq!(Job::parse("frobnicate", &Json::Null).unwrap_err().code, code::UNKNOWN_JOB);
        let params = Json::Obj(vec![(
            "protocol".to_string(),
            Json::Str("nonsense".to_string()),
        )]);
        assert_eq!(Job::parse("valency", &params).unwrap_err().code, code::UNKNOWN_PROTOCOL);
    }

    #[test]
    fn model_only_protocols_are_rejected_for_run() {
        let params = Json::Obj(vec![("protocol".to_string(), Json::Str("phase".to_string()))]);
        let err = Job::parse("run", &params).unwrap_err();
        assert_eq!(err.code, code::BAD_REQUEST);
        assert!(err.message.contains("model-only"));
    }

    #[test]
    fn valency_job_matches_direct_library_call() {
        let job = Job::parse("valency", &Json::Null).unwrap();
        let result = job.execute(far()).unwrap();
        let entry = registry::find("cas").unwrap();
        let direct = Explorer::new(ExploreLimits::EXHAUSTIVE)
            .valency(&entry.build_default(), entry.default_inputs)
            .unwrap();
        assert_eq!(result.get("configs").and_then(Json::as_usize), Some(direct.configs));
        assert_eq!(
            result.get("initial").and_then(Json::as_str),
            Some(format!("{:?}", direct.initial).as_str())
        );
    }

    #[test]
    fn expired_deadline_cancels_exploration_and_sleep() {
        let past = Instant::now();
        let job = Job::parse("valency", &Json::Null).unwrap();
        assert_eq!(job.execute(past).unwrap_err().code, code::DEADLINE_EXCEEDED);
        let sleep = Job::Sleep { millis: 5_000 };
        let started = Instant::now();
        assert_eq!(sleep.execute(past).unwrap_err().code, code::DEADLINE_EXCEEDED);
        assert!(started.elapsed() < Duration::from_secs(1), "cancelled promptly");
    }

    #[test]
    fn monte_carlo_job_is_deterministic_and_carries_the_histogram() {
        let params = randsync_obs::parse_json(
            "{\"protocol\":\"cas\",\"trials\":40,\"seed\":5,\"max_steps\":1000}",
        )
        .unwrap();
        let job = Job::parse("monte_carlo", &params).unwrap();
        let a = job.execute(far()).unwrap();
        let b = job.execute(far()).unwrap();
        assert_eq!(a.render(), b.render(), "bit-identical re-execution");
        assert_eq!(a.get("trials").and_then(Json::as_u64), Some(40));
        let counts = a.get("decision_counts").and_then(Json::as_arr).unwrap();
        let total: u64 = counts
            .iter()
            .map(|pair| pair.as_arr().unwrap()[1].as_u64().unwrap())
            .sum();
        assert_eq!(total, 3 * 40, "every cas process decides in every trial");
    }

    #[test]
    fn verify_witness_job_confirms_the_flawed_targets() {
        for name in ["naive", "tasrace"] {
            let params =
                Json::Obj(vec![("protocol".to_string(), Json::Str(name.to_string()))]);
            let job = Job::parse("verify_witness", &params).unwrap();
            let result = job.execute(far()).unwrap();
            assert_eq!(result.get("outcome").and_then(Json::as_str), Some("inconsistent"));
            assert_eq!(result.get("verified"), Some(&Json::Bool(true)), "{name}");
        }
        let params = Json::Obj(vec![("protocol".to_string(), Json::Str("cas".to_string()))]);
        assert_eq!(
            Job::parse("verify_witness", &params).unwrap_err().code,
            code::BAD_REQUEST
        );
    }

    #[test]
    fn verify_witness_job_breaks_the_multi_object_target() {
        // Lemma 3.6's pool grows with the object count; a one-object
        // pool cannot break mixedzigzag.
        let params =
            Json::Obj(vec![("protocol".to_string(), Json::Str("mixedzigzag".to_string()))]);
        let result = Job::parse("verify_witness", &params).unwrap().execute(far()).unwrap();
        assert_eq!(result.get("outcome").and_then(Json::as_str), Some("inconsistent"));
        assert_eq!(result.get("verified"), Some(&Json::Bool(true)));
    }

    #[test]
    fn protocols_job_mirrors_the_registry() {
        let result = Job::Protocols.execute(far()).unwrap();
        let list = result.get("protocols").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), registry::registry().len());
        for (entry, row) in registry::registry().iter().zip(list) {
            assert_eq!(row.get("name").and_then(Json::as_str), Some(entry.name));
            assert_eq!(
                row.get("attack").and_then(Json::as_str),
                Some(entry.attack.label())
            );
        }
    }
}
