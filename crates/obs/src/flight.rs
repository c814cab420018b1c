//! The flight recorder's on-disk artifact: a complete, replayable
//! record of one execution.
//!
//! An execution of a randomized protocol is fully determined by its
//! schedule and coin stream — the sequence of `(process, coin)` pairs
//! in linearization order (DESIGN.md §12). [`ExecutionTrace`] captures
//! exactly that, plus the header needed to rebuild the protocol
//! instance, as JSONL: one header object, one object per step, one
//! footer with the observed decisions for cross-checking a replay.
//!
//! This crate is a leaf (no dependency on the model crate), so steps
//! are plain `(pid, coin)` tuples; the model and binary layers convert
//! to and from their richer `Step` type.

use std::fmt;
use std::path::Path;

use crate::json::{parse, Json, JsonError};

/// Current trace file schema version, bumped on incompatible change.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// A serializable record of one execution: everything needed to
/// replay it deterministically and check the outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExecutionTrace {
    /// Schema version of the file this was read from / will write.
    pub schema_version: u32,
    /// Registry name of the protocol (e.g. `"cas"`).
    pub protocol: String,
    /// Number of processes the protocol instance was built with.
    pub n: usize,
    /// Range parameter the instance was built with (protocols that
    /// ignore it carry their default).
    pub r: usize,
    /// Seed the original run used (informational; replay does not
    /// draw coins).
    pub seed: u64,
    /// Which interpreter produced the trace: `"runtime"`, `"sim"`, ...
    pub interpreter: String,
    /// Per-process inputs. May be longer than `n` for witness pools.
    pub inputs: Vec<u8>,
    /// The schedule and coin stream, in linearization order:
    /// `(process id, coin)` per step.
    pub steps: Vec<(u32, u32)>,
    /// Decision observed for each process (`None` = undecided), for
    /// verifying a replay reproduces the run bit-for-bit.
    pub decisions: Vec<Option<u8>>,
}

/// Why reading a trace failed.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceError {
    /// A line was not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying parse error.
        error: JsonError,
    },
    /// A line parsed but did not match the schema.
    Schema {
        /// 1-based line number (0 = whole-file problem).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json { line, error } => write!(f, "trace line {line}: {error}"),
            TraceError::Schema { line: 0, message } => write!(f, "trace: {message}"),
            TraceError::Schema { line, message } => write!(f, "trace line {line}: {message}"),
            TraceError::Io(message) => write!(f, "trace I/O: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl ExecutionTrace {
    /// Whether `replayed` — the decisions a replay of this trace
    /// produced — reproduces what the recording claims. Witness traces
    /// (`interpreter == "witness"`) claim only their designated
    /// deciders, so `None` entries match anything; every other trace
    /// claims each process's outcome exactly.
    pub fn decisions_match(&self, replayed: &[Option<u8>]) -> bool {
        if self.interpreter == "witness" {
            self.decisions
                .iter()
                .enumerate()
                .all(|(pid, claim)| claim.is_none() || replayed.get(pid) == Some(claim))
        } else {
            self.decisions == replayed
        }
    }

    /// Serialize to JSONL: header, one line per step, footer.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.steps.len() * 24);
        let header = Json::Obj(vec![
            ("type".to_string(), Json::Str("header".to_string())),
            ("schema_version".to_string(), Json::Int(i128::from(self.schema_version))),
            ("protocol".to_string(), Json::Str(self.protocol.clone())),
            ("n".to_string(), Json::Int(self.n as i128)),
            ("r".to_string(), Json::Int(self.r as i128)),
            ("seed".to_string(), Json::Int(i128::from(self.seed))),
            ("interpreter".to_string(), Json::Str(self.interpreter.clone())),
            (
                "inputs".to_string(),
                Json::Arr(self.inputs.iter().map(|&i| Json::Int(i128::from(i))).collect()),
            ),
        ]);
        out.push_str(&header.render());
        out.push('\n');
        for &(pid, coin) in &self.steps {
            // Hand-rolled for speed and stable field order; the parser
            // below accepts exactly this shape.
            out.push_str("{\"type\":\"step\",\"pid\":");
            let _ = fmt::Write::write_fmt(&mut out, format_args!("{pid}"));
            out.push_str(",\"coin\":");
            let _ = fmt::Write::write_fmt(&mut out, format_args!("{coin}"));
            out.push_str("}\n");
        }
        let footer = Json::Obj(vec![
            ("type".to_string(), Json::Str("footer".to_string())),
            ("steps".to_string(), Json::Int(self.steps.len() as i128)),
            (
                "decisions".to_string(),
                Json::Arr(
                    self.decisions
                        .iter()
                        .map(|d| match d {
                            Some(v) => Json::Int(i128::from(*v)),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&footer.render());
        out.push('\n');
        out
    }

    /// Parse a JSONL trace produced by [`ExecutionTrace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// [`TraceError`] on malformed JSON, schema violations, a missing
    /// header/footer, or a footer step count that disagrees with the
    /// number of step lines (truncation detection).
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let schema = |line: usize, message: &str| TraceError::Schema {
            line,
            message: message.to_string(),
        };
        let mut header: Option<ExecutionTrace> = None;
        let mut steps: Vec<(u32, u32)> = Vec::new();
        let mut footer: Option<(usize, Vec<Option<u8>>)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let v = parse(raw).map_err(|error| TraceError::Json { line, error })?;
            let kind = v
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| schema(line, "missing \"type\" field"))?;
            match kind {
                "header" => {
                    if header.is_some() {
                        return Err(schema(line, "duplicate header"));
                    }
                    let field_u64 = |name: &str| {
                        v.get(name)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| schema(line, &format!("header missing {name:?}")))
                    };
                    let field_str = |name: &str| {
                        v.get(name)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| schema(line, &format!("header missing {name:?}")))
                    };
                    let schema_version = field_u64("schema_version")? as u32;
                    if schema_version != TRACE_SCHEMA_VERSION {
                        return Err(schema(
                            line,
                            &format!(
                                "unsupported schema_version {schema_version} \
                                 (this build reads {TRACE_SCHEMA_VERSION})"
                            ),
                        ));
                    }
                    let inputs = v
                        .get("inputs")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| schema(line, "header missing \"inputs\""))?
                        .iter()
                        .map(|i| {
                            i.as_u64()
                                .and_then(|u| u8::try_from(u).ok())
                                .ok_or_else(|| schema(line, "inputs must be bytes"))
                        })
                        .collect::<Result<Vec<u8>, _>>()?;
                    header = Some(ExecutionTrace {
                        schema_version,
                        protocol: field_str("protocol")?,
                        n: field_u64("n")? as usize,
                        r: field_u64("r")? as usize,
                        seed: field_u64("seed")?,
                        interpreter: field_str("interpreter")?,
                        inputs,
                        steps: Vec::new(),
                        decisions: Vec::new(),
                    });
                }
                "step" => {
                    if header.is_none() {
                        return Err(schema(line, "step before header"));
                    }
                    if footer.is_some() {
                        return Err(schema(line, "step after footer"));
                    }
                    let pid = v
                        .get("pid")
                        .and_then(Json::as_u64)
                        .and_then(|p| u32::try_from(p).ok())
                        .ok_or_else(|| schema(line, "step missing \"pid\""))?;
                    let coin = v
                        .get("coin")
                        .and_then(Json::as_u64)
                        .and_then(|c| u32::try_from(c).ok())
                        .ok_or_else(|| schema(line, "step missing \"coin\""))?;
                    steps.push((pid, coin));
                }
                "footer" => {
                    if footer.is_some() {
                        return Err(schema(line, "duplicate footer"));
                    }
                    let count = v
                        .get("steps")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| schema(line, "footer missing \"steps\""))?;
                    let decisions = v
                        .get("decisions")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| schema(line, "footer missing \"decisions\""))?
                        .iter()
                        .map(|d| match d {
                            Json::Null => Ok(None),
                            other => other
                                .as_u64()
                                .and_then(|u| u8::try_from(u).ok())
                                .map(Some)
                                .ok_or_else(|| schema(line, "decisions must be bytes or null")),
                        })
                        .collect::<Result<Vec<Option<u8>>, _>>()?;
                    footer = Some((count, decisions));
                }
                other => return Err(schema(line, &format!("unknown line type {other:?}"))),
            }
        }
        let mut trace = header.ok_or_else(|| schema(0, "missing header line"))?;
        let (count, decisions) = footer.ok_or_else(|| schema(0, "missing footer line"))?;
        if count != steps.len() {
            return Err(schema(
                0,
                &format!("footer claims {count} steps but file has {}", steps.len()),
            ));
        }
        trace.steps = steps;
        trace.decisions = decisions;
        Ok(trace)
    }

    /// Write the trace to `path` (truncating).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] with the path in the message.
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_jsonl())
            .map_err(|e| TraceError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Read and parse a trace from `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file is unreadable, otherwise the
    /// parse errors of [`ExecutionTrace::from_jsonl`].
    pub fn read_from(path: &Path) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TraceError::Io(format!("reading {}: {e}", path.display())))?;
        Self::from_jsonl(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionTrace {
        ExecutionTrace {
            schema_version: TRACE_SCHEMA_VERSION,
            protocol: "cas".to_string(),
            n: 2,
            r: 2,
            seed: u64::MAX - 7,
            interpreter: "runtime".to_string(),
            inputs: vec![0, 1],
            steps: vec![(0, 0), (1, 3), (0, 1), (1, 0)],
            decisions: vec![Some(0), None],
        }
    }

    #[test]
    fn witness_traces_claim_only_their_deciders() {
        let mut trace = sample();
        trace.interpreter = "witness".to_string();
        assert!(trace.decisions_match(&[Some(0), Some(1)]), "a None claim matches anything");
        assert!(!trace.decisions_match(&[Some(1), None]), "a claimed decider must match");
        trace.interpreter = "runtime".to_string();
        assert!(trace.decisions_match(&[Some(0), None]));
        assert!(!trace.decisions_match(&[Some(1), None]), "one flipped decision diverges");
        assert!(!trace.decisions_match(&[Some(0), Some(1)]), "runtime claims every process");
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let trace = sample();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 2 + trace.steps.len());
        let back = ExecutionTrace::from_jsonl(&text).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn empty_execution_round_trips() {
        let mut trace = sample();
        trace.steps.clear();
        trace.decisions = vec![None, None];
        let back = ExecutionTrace::from_jsonl(&trace.to_jsonl()).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join("randsync_obs_flight_test.jsonl");
        let trace = sample();
        trace.write_to(&path).expect("write");
        let back = ExecutionTrace::read_from(&path).expect("read");
        assert_eq!(back, trace);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_detected() {
        let trace = sample();
        let text = trace.to_jsonl();
        // Drop one step line but keep the footer: count mismatch.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(2);
        let err = ExecutionTrace::from_jsonl(&lines.join("\n")).expect_err("must fail");
        assert!(err.to_string().contains("footer claims"), "{err}");
        // Drop the footer entirely.
        let no_footer: Vec<&str> = text.lines().take(3).collect();
        let err = ExecutionTrace::from_jsonl(&no_footer.join("\n")).expect_err("must fail");
        assert!(err.to_string().contains("missing footer"), "{err}");
    }

    #[test]
    fn schema_violations_are_reported_with_line_numbers() {
        let cases = [
            ("{\"type\":\"step\",\"pid\":0,\"coin\":0}\n", "step before header"),
            ("{\"pid\":0}\n", "missing \"type\""),
            ("not json\n", "JSON error"),
        ];
        for (text, needle) in cases {
            let err = ExecutionTrace::from_jsonl(text).expect_err(text);
            assert!(err.to_string().contains(needle), "{err} !~ {needle}");
        }
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut text = sample().to_jsonl();
        text = text.replace("\"schema_version\":1", "\"schema_version\":999");
        let err = ExecutionTrace::from_jsonl(&text).expect_err("must fail");
        assert!(err.to_string().contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn seed_survives_at_u64_extremes() {
        let mut trace = sample();
        trace.seed = u64::MAX;
        let back = ExecutionTrace::from_jsonl(&trace.to_jsonl()).expect("parses");
        assert_eq!(back.seed, u64::MAX);
    }
}
