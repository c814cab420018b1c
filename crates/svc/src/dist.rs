//! Distributed frontier sharding over the JSONL wire protocol
//! (DESIGN.md §16).
//!
//! The explore engine's level merge talks to its seen-set through the
//! [`FrontierTransport`] seam: sorted probe batches and one sorted
//! insert batch per BFS level. This module stretches that seam across
//! processes:
//!
//! * **Shard side** — `FrontierSessions` lives inside every server
//!   and answers the four `frontier_*` wire frames *inline on the
//!   event loop* (never through the worker pool, so a busy pool can
//!   never deadlock a coordinator). Each open session is a
//!   [`LocalFrontier`] — the engine's own sorted seen-set store over a
//!   log of the rows it stores, behind checks that refuse a frame
//!   whose batch is malformed, unsorted or duplicated, or whose commit
//!   does not fit what is staged — keyed by a server-issued session id,
//!   so any number of coordinators can search through one shard
//!   concurrently. A session ends on `frontier_close` or when the
//!   connection that opened it closes, so a coordinator killed
//!   mid-search leaves nothing behind.
//! * **Coordinator side** — [`DistributedFrontier`] implements
//!   [`FrontierTransport`] over N shard connections. Shard `k` of `N`
//!   owns the fingerprint range `[k·2⁶⁴/N, (k+1)·2⁶⁴/N)`; because the
//!   engine's batches arrive sorted by hash, the split is a run of
//!   `partition_point` cuts and the per-shard replies concatenate back
//!   in the original order. The coordinator keeps the arena and the
//!   in-order merge, so *interning order — and therefore every
//!   verdict, valency class, and config count — is bit-identical to a
//!   single-node run*; only membership queries are remote.
//!
//! Wire frames (each a normal request, answered with `ok`/`error`):
//!
//! ```text
//! frontier_open    {stride}                   -> {session}
//! frontier_probe   {session, hashes, words}   -> {found}
//! frontier_commit  {session, indices}         -> {}
//! frontier_close   {session}                  -> {}
//! ```
//!
//! `hashes` (`u64`), `words`, `indices` and `found` (`u32`) are packed:
//! one lowercase hex string of the values' little-endian bytes. A byte
//! costs two digit-table reads to pack and two nibble-table reads to
//! unpack, and the JSON layer crosses a packed string 8 bytes per step;
//! `found` marks an absent key with `u32::MAX`.
//!
//! Inserts travel **by reference**, under the staging contract of
//! `randsync_model`'s `transport` module docs: each session and each
//! coordinator shard holds one [`StagedMisses`], a shard's commit frames
//! carry one index per miss it staged, and a key crosses the wire once,
//! in its probe. The coordinator's staging is about one level's misses,
//! 16 + 4·stride bytes each. A shard that predates `frontier_commit`
//! answers it with "unknown frontier frame": a typed transport error
//! that truncates the search, never a wrong count.
//!
//! Each batch is one exchange round, so each level makes one
//! concurrent fan-out per batch kind: the coordinator sends every chunk
//! to every shard before it reads any reply, so the shards work at the
//! same time, then collects the replies in shard and chunk order.
//! Transport failures surface as [`TransportError`]; the engine stops
//! at the level boundary and reports a truncated outcome — never a
//! wrong one.

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use randsync_model::{FrontierTransport, LocalFrontier, StagedMisses, TransportError};
use randsync_obs::Json;

use crate::client::Client;
use crate::wire::{code, error_frame, ok_frame, Request};

/// Keys per `frontier_probe` frame, and indices per `frontier_commit`
/// frame. Packed, a key costs 16 + 8·stride hex digits in a probe and 8
/// in a commit, so a frame stays under the wire's 64 MiB cap for any
/// stride up to 253 words while per-frame overhead stays amortized.
const MAX_KEYS_PER_FRAME: usize = 32_768;

/// The fingerprint shard that owns hash `h` among `n` shards: the
/// multiply-shift range split (monotone in `h`, so sorted batches
/// split into contiguous per-shard runs).
fn shard_of(h: u64, n: usize) -> usize {
    ((u128::from(h) * n as u128) >> 64) as usize
}

// ---------------------------------------------------------------------
// The packed batch codec, shared by both sides.
// ---------------------------------------------------------------------

/// A fixed-width unsigned value a packed batch field carries.
trait Packed: Copy {
    /// Hex digits per value: two per little-endian byte.
    const DIGITS: usize;
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

impl Packed for u32 {
    const DIGITS: usize = 8;
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
    fn from_u64(v: u64) -> u32 {
        v as u32
    }
}

impl Packed for u64 {
    const DIGITS: usize = 16;
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(v: u64) -> u64 {
        v
    }
}

/// The lowercase hex digits, by value.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Set in [`NIBBLE`] for a byte that is not a lowercase hex digit.
const NOT_HEX: u8 = 0x10;

/// The value of each byte as a lowercase hex digit, or [`NOT_HEX`].
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        table[HEX[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Pack values as one lowercase hex string of their little-endian
/// bytes, filling a buffer sized once from the [`HEX`] table.
fn pack<T: Packed>(values: &[T]) -> Json {
    let mut out = vec![0; values.len() * T::DIGITS];
    for (&v, digits) in values.iter().zip(out.chunks_exact_mut(T::DIGITS)) {
        for (&byte, pair) in v.to_u64().to_le_bytes().iter().zip(digits.chunks_exact_mut(2)) {
            pair.copy_from_slice(&[HEX[usize::from(byte >> 4)], HEX[usize::from(byte & 0xf)]]);
        }
    }
    Json::Str(String::from_utf8(out).expect("hex digits are ASCII"))
}

/// Unpack the field `field` of `obj` that [`pack`] wrote, refusing
/// anything it could not have written. Each byte's [`NIBBLE`] is ORed
/// into `bad`; only a field that raised [`NOT_HEX`] there is scanned
/// again, for the offset of its first bad byte.
fn unpack<T: Packed>(obj: &Json, field: &'static str) -> Result<Vec<T>, FrameError> {
    let hex = obj.get(field).and_then(Json::as_str).ok_or(FrameError::NotPacked(field))?;
    let hex = hex.as_bytes();
    if !hex.len().is_multiple_of(2) {
        return Err(FrameError::OddLength { field, len: hex.len() });
    }
    if !hex.len().is_multiple_of(T::DIGITS) {
        return Err(FrameError::Ragged { field, len: hex.len(), digits: T::DIGITS });
    }
    let mut bad = 0;
    let values = hex
        .chunks_exact(T::DIGITS)
        .map(|digits| {
            let mut v = 0u64;
            for (byte, pair) in digits.chunks_exact(2).enumerate() {
                let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
                bad |= hi | lo;
                v |= u64::from(hi << 4 | lo) << (8 * byte);
            }
            T::from_u64(v)
        })
        .collect();
    if bad & NOT_HEX != 0 {
        let at = hex.iter().position(|&c| NIBBLE[usize::from(c)] == NOT_HEX);
        return Err(FrameError::NotHex { field, at: at.expect("a byte raised the flag") });
    }
    Ok(values)
}

/// Why a shard refused a `frontier_*` frame. Every refusal is answered
/// with a `bad_request` error frame carrying its message, and leaves
/// the session as it was.
#[derive(Debug)]
enum FrameError {
    /// A scalar parameter is missing or not a non-negative integer.
    NotInteger(&'static str),
    /// A packed field is missing or not a string.
    NotPacked(&'static str),
    /// A packed field has an odd number of hex digits.
    OddLength { field: &'static str, len: usize },
    /// A packed field's digits are not a whole number of values.
    Ragged { field: &'static str, len: usize, digits: usize },
    /// A packed field holds a byte other than `0-9` or `a-f`.
    NotHex { field: &'static str, at: usize },
    /// No open session has this id (never opened, or closed).
    UnknownSession(u64),
    /// The store refused the frame: a batch of the wrong shape or not
    /// strictly ascending, or a commit that does not fit the staging.
    Store(TransportError),
    /// The frame names no frontier operation.
    UnknownFrame(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotInteger(key) => {
                write!(f, "parameter {key:?} must be a non-negative integer")
            }
            FrameError::NotPacked(key) => {
                write!(f, "parameter {key:?} must be a packed hex string")
            }
            FrameError::OddLength { field, len } => {
                write!(f, "parameter {field:?} has an odd number of hex digits ({len})")
            }
            FrameError::Ragged { field, len, digits } => write!(
                f,
                "parameter {field:?} has {len} hex digits, not a multiple of {digits} per value"
            ),
            FrameError::NotHex { field, at } => {
                write!(f, "parameter {field:?} has a non-lowercase-hex byte at offset {at}")
            }
            FrameError::UnknownSession(id) => write!(f, "unknown frontier session {id}"),
            FrameError::Store(e) => write!(f, "{e}"),
            FrameError::UnknownFrame(job) => write!(
                f,
                "unknown frontier frame {job:?} (frontier_open, frontier_probe, \
                 frontier_commit, frontier_close)"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Shard side: sessions hosted by the server's event loop.
// ---------------------------------------------------------------------

/// The frontier shard sessions a server hosts: session id → store.
///
/// A session belongs to the connection that opened it and ends with
/// that connection, so a coordinator that dies mid-search (and never
/// sends `frontier_close`) leaves no store resident on the shard.
#[derive(Debug, Default)]
pub(crate) struct FrontierSessions {
    inner: Mutex<Sessions>,
}

#[derive(Debug, Default)]
struct Sessions {
    next: u64,
    /// Open sessions: id → the opening connection's id and the store.
    open: HashMap<u64, (u64, LocalFrontier)>,
}

impl Sessions {
    fn get(&mut self, params: &Json) -> Result<&mut LocalFrontier, FrameError> {
        let id = get_u64(params, "session")?;
        self.open.get_mut(&id).map(|(_, store)| store).ok_or(FrameError::UnknownSession(id))
    }
}

/// Move the `svc.frontier.sessions` gauge by `delta` sessions opened
/// (or, negative, ended). It counts open sessions over every server in
/// the process, so each server adds and removes only its own.
fn count_sessions(delta: i64) {
    randsync_obs::global_metrics().gauge("svc.frontier.sessions").add(delta);
}

impl Drop for FrontierSessions {
    fn drop(&mut self) {
        let sessions = self.inner.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
        count_sessions(-(sessions.open.len() as i64));
    }
}

impl FrontierSessions {
    /// Answer one `frontier_*` request that arrived on connection
    /// `conn` with a complete response frame. When the frame carries a
    /// trace context and a sink is installed, the work runs under a
    /// span in the *coordinator's* causal tree — this is how a stalled
    /// shard becomes visible from outside.
    pub(crate) fn handle(&self, conn: u64, req: &Request) -> String {
        let _ctx = req
            .trace
            .map(|(t, s)| randsync_obs::push_context(randsync_obs::TraceContext::remote(t, s)));
        let _span = if randsync_obs::tracing_active() {
            Some(randsync_obs::span(&req.job, &[]))
        } else {
            None
        };
        match self.dispatch(conn, req) {
            Ok(result) => ok_frame(&req.id, &req.job, result),
            Err(e) => error_frame(&req.id, code::BAD_REQUEST, &e.to_string()),
        }
    }

    /// Drop every session connection `conn` opened: it has closed.
    pub(crate) fn connection_closed(&self, conn: u64) {
        let mut sessions = self.inner.lock().expect("frontier sessions poisoned");
        let before = sessions.open.len();
        sessions.open.retain(|_, (owner, _)| *owner != conn);
        let ended = before - sessions.open.len();
        if ended > 0 {
            count_sessions(-(ended as i64));
        }
    }

    fn dispatch(&self, conn: u64, req: &Request) -> Result<Json, FrameError> {
        let m = randsync_obs::global_metrics();
        let mut sessions = self.inner.lock().expect("frontier sessions poisoned");
        let params = &req.params;
        match req.job.as_str() {
            "frontier_open" => {
                let stride = params
                    .get("stride")
                    .and_then(Json::as_usize)
                    .ok_or(FrameError::NotInteger("stride"))?;
                let mut store = LocalFrontier::new();
                store.open(stride).map_err(FrameError::Store)?;
                sessions.next += 1;
                let id = sessions.next;
                sessions.open.insert(id, (conn, store));
                count_sessions(1);
                Ok(Json::Obj(vec![("session".to_string(), Json::Int(i128::from(id)))]))
            }
            "frontier_probe" => {
                let store = sessions.get(params)?;
                let hashes = unpack::<u64>(params, "hashes")?;
                let words = unpack::<u32>(params, "words")?;
                let found = store.probe_sorted(&hashes, &words).map_err(FrameError::Store)?;
                m.counter("svc.frontier.probes").inc();
                let found: Vec<u32> = found.iter().map(|slot| slot.unwrap_or(u32::MAX)).collect();
                Ok(Json::Obj(vec![("found".to_string(), pack(&found))]))
            }
            "frontier_commit" => {
                let store = sessions.get(params)?;
                let indices = unpack::<u32>(params, "indices")?;
                store.commit(&indices).map_err(FrameError::Store)?;
                m.counter("svc.frontier.commits").inc();
                Ok(Json::Obj(vec![]))
            }
            "frontier_close" => {
                let id = get_u64(params, "session")?;
                sessions.open.remove(&id).ok_or(FrameError::UnknownSession(id))?;
                count_sessions(-1);
                Ok(Json::Obj(vec![]))
            }
            other => Err(FrameError::UnknownFrame(other.to_string())),
        }
    }
}

fn get_u64(params: &Json, key: &'static str) -> Result<u64, FrameError> {
    params.get(key).and_then(Json::as_u64).ok_or(FrameError::NotInteger(key))
}

// ---------------------------------------------------------------------
// Coordinator side: the remote transport.
// ---------------------------------------------------------------------

/// One shard connection with its open session.
#[derive(Debug)]
struct Shard {
    addr: String,
    client: Client,
    session: Option<u64>,
    /// The misses the shard has staged since its last commit.
    staged: StagedMisses,
}

impl Shard {
    fn err(&self, e: impl std::fmt::Display) -> TransportError {
        TransportError::new(format!("frontier shard {}: {e}", self.addr))
    }

    fn session(&self) -> Result<u64, TransportError> {
        self.session.ok_or_else(|| self.err("no open session"))
    }

    fn request(&mut self, job: &str, params: Json) -> Result<Json, TransportError> {
        let reply = self.client.request(job, &params).map_err(|e| self.err(e))?;
        if !reply.ok {
            return Err(self.err(reply.body.render()));
        }
        Ok(reply.body)
    }
}

/// One frame of an exchange round, sent and not yet answered.
struct Flight {
    shard: usize,
    /// The frame's values: a range of the batch, or of the shard's
    /// staged misses.
    keys: Range<usize>,
    id: Json,
    sent: Option<Instant>,
}

/// Hoisted metric handles for the coordinator side. Every update
/// guards on [`randsync_obs::metrics_enabled`], so disabled cost on
/// the RPC path is one relaxed load + branch.
#[derive(Debug)]
struct DistMetrics {
    /// Per-frame `frontier_probe` round trip: from the frame's send to
    /// its reply being read.
    probe_us: randsync_obs::Histogram,
    /// Per-frame `frontier_commit` round trip, measured the same way.
    commit_us: randsync_obs::Histogram,
    /// `svc.dist.sent_digits.{probe,commit}`: packed hex digits sent
    /// per frame kind. Counted whether or not metrics are enabled (one
    /// add per frame): a deterministic proxy for the wire bytes.
    sent_digits: [randsync_obs::Counter; 2],
    /// Keys per wire frame (chunking granularity actually seen).
    chunk_keys: randsync_obs::Histogram,
    /// Probe rounds measured for slowest-shard attribution.
    rounds: randsync_obs::Counter,
    /// `svc.dist.slowest.shard<k>`: probe rounds in which shard `k`
    /// was the slowest — per-BFS-level stall attribution.
    slowest: Vec<randsync_obs::Counter>,
}

impl DistMetrics {
    fn new(shard_count: usize) -> DistMetrics {
        let m = randsync_obs::global_metrics();
        DistMetrics {
            probe_us: m.histogram("svc.dist.probe_us"),
            commit_us: m.histogram("svc.dist.commit_us"),
            sent_digits: [
                m.counter("svc.dist.sent_digits.probe"),
                m.counter("svc.dist.sent_digits.commit"),
            ],
            chunk_keys: m.histogram("svc.dist.chunk_keys"),
            rounds: m.counter("svc.dist.rounds"),
            slowest: (0..shard_count)
                .map(|k| m.counter(&format!("svc.dist.slowest.shard{k}")))
                .collect(),
        }
    }

    /// Credit the slowest shard of one round. Replies are read in
    /// shard order, so every shard before the slowest one had answered
    /// by the time the coordinator blocked on it, and every shard after
    /// it had a reply waiting: the slowest shard is the last one the
    /// coordinator had to block on.
    fn attribute_round(&self, blocked_on: &[bool]) {
        self.rounds.inc();
        let k = blocked_on.iter().rposition(|&b| b).unwrap_or(0);
        if let Some(c) = self.slowest.get(k) {
            c.inc();
        }
    }
}

/// A [`FrontierTransport`] that shards the seen-set across N server
/// processes by fingerprint range — see the module docs for the
/// protocol and the bit-identity argument.
#[derive(Debug)]
pub struct DistributedFrontier {
    shards: Vec<Shard>,
    stride: usize,
    metrics: DistMetrics,
}

impl DistributedFrontier {
    /// Connect to the shard servers, in ownership order: `addrs[k]`
    /// owns the `k`-th fingerprint range.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; rejects an empty address list.
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(
        addrs: &[A],
    ) -> std::io::Result<DistributedFrontier> {
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "distributed frontier needs at least one shard address",
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for addr in addrs {
            shards.push(Shard {
                addr: addr.to_string(),
                client: Client::connect(addr)?,
                session: None,
                staged: StagedMisses::default(),
            });
        }
        let metrics = DistMetrics::new(shards.len());
        Ok(DistributedFrontier { shards, stride: 0, metrics })
    }

    /// Number of shard connections.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous per-shard runs of a hash-sorted batch: for each
    /// shard in order, the half-open index range it owns.
    fn split_ranges(&self, hashes: &[u64]) -> Vec<Range<usize>> {
        let n = self.shards.len();
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0usize;
        for k in 0..n {
            let end = if k + 1 == n {
                hashes.len()
            } else {
                start + hashes[start..].partition_point(|&h| shard_of(h, n) <= k)
            };
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// One exchange round: send every chunk of every shard's run, then
    /// collect the replies in shard and chunk order, so their bodies
    /// come back in run order, each with its shard and value range.
    /// `runs[k]` is shard `k`'s range of the values, and `packed` builds
    /// a chunk's packed fields from its shard and range.
    ///
    /// The round reads the reply to every frame it sent, even after a
    /// failure, so no connection is left holding a stale reply; the
    /// first failure is then returned.
    fn round(
        &mut self,
        job: &str,
        runs: Vec<Range<usize>>,
        packed: impl Fn(usize, Range<usize>) -> Vec<(String, Json)>,
    ) -> Result<Vec<(usize, Range<usize>, Json)>, TransportError> {
        let probe = job == "frontier_probe";
        let sessions = self.shards.iter().map(Shard::session).collect::<Result<Vec<_>, _>>()?;
        let instrumented = randsync_obs::metrics_enabled();
        let mut first_err = None;
        let mut flights = Vec::new();
        let mut digits = 0;
        'send: for (k, run) in runs.into_iter().enumerate() {
            let shard = &mut self.shards[k];
            for lo in run.clone().step_by(MAX_KEYS_PER_FRAME) {
                let keys = lo..(lo + MAX_KEYS_PER_FRAME).min(run.end);
                let mut fields = vec![("session".to_string(), Json::Int(i128::from(sessions[k])))];
                fields.extend(packed(k, keys.clone()));
                let frame: usize = fields.iter().filter_map(|(_, v)| v.as_str()).map(str::len).sum();
                digits += frame;
                let sent = instrumented.then(Instant::now);
                match shard.client.send(job, &Json::Obj(fields)) {
                    Ok(id) => flights.push(Flight { shard: k, keys, id, sent }),
                    Err(e) => {
                        first_err = Some(shard.err(e));
                        break 'send;
                    }
                }
            }
        }
        self.metrics.sent_digits[usize::from(!probe)].add(digits as u64);

        let latency = if probe { &self.metrics.probe_us } else { &self.metrics.commit_us };
        let mut blocked_on = vec![false; self.shards.len()];
        let mut dead = vec![false; self.shards.len()];
        let mut bodies = Vec::with_capacity(flights.len());
        let sent_any = !flights.is_empty();
        for flight in flights {
            let k = flight.shard;
            if dead[k] {
                continue;
            }
            let shard = &mut self.shards[k];
            if instrumented && !shard.client.has_input() {
                blocked_on[k] = true;
            }
            match shard.client.wait(&flight.id, |_| {}) {
                Ok(reply) => {
                    if let Some(sent) = flight.sent {
                        latency.observe(sent.elapsed().as_micros() as u64);
                        self.metrics.chunk_keys.observe(flight.keys.len() as u64);
                    }
                    if reply.ok {
                        bodies.push((k, flight.keys, reply.body));
                    } else {
                        first_err.get_or_insert_with(|| shard.err(reply.body.render()));
                    }
                }
                Err(e) => {
                    // A broken connection answers nothing more this round.
                    dead[k] = true;
                    first_err.get_or_insert_with(|| shard.err(e));
                }
            }
        }
        if instrumented && probe && sent_any {
            self.metrics.attribute_round(&blocked_on);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(bodies),
        }
    }

    fn close_sessions(&mut self) -> Result<(), TransportError> {
        let mut first_err = None;
        for shard in &mut self.shards {
            if let Some(session) = shard.session.take() {
                let params =
                    Json::Obj(vec![("session".to_string(), Json::Int(i128::from(session)))]);
                if let Err(e) = shard.request("frontier_close", params) {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Engine error paths can skip `close()`; sessions must not leak on
/// the shards, so dropping the transport closes them best-effort.
impl Drop for DistributedFrontier {
    fn drop(&mut self) {
        let _ = self.close_sessions();
    }
}

impl FrontierTransport for DistributedFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        // A re-open (resume, or a retried search on one transport)
        // discards any prior sessions first.
        self.close_sessions()?;
        self.stride = stride;
        for shard in &mut self.shards {
            shard.staged = StagedMisses::new(stride);
            let params = Json::Obj(vec![("stride".to_string(), Json::Int(stride as i128))]);
            let body = shard.request("frontier_open", params)?;
            let session = body
                .get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| shard.err("malformed open reply"))?;
            shard.session = Some(session);
        }
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        let stride = self.stride;
        if stride == 0 || words.len() != hashes.len() * stride {
            return Err(TransportError::new("malformed probe batch"));
        }
        let runs = self.split_ranges(hashes);
        let bodies = self.round("frontier_probe", runs, |_, keys| {
            vec![
                ("hashes".to_string(), pack(&hashes[keys.clone()])),
                ("words".to_string(), pack(&words[keys.start * stride..keys.end * stride])),
            ]
        })?;
        let mut found = Vec::with_capacity(hashes.len());
        for (k, keys, body) in bodies {
            let shard = &mut self.shards[k];
            let slots = unpack::<u32>(&body, "found")
                .map_err(|e| shard.err(format!("malformed probe reply: {e}")))?;
            if slots.len() != keys.len() {
                return Err(shard.err("probe reply length mismatch"));
            }
            let from = found.len();
            found.extend(slots.into_iter().map(|idx| (idx != u32::MAX).then_some(idx)));
            // The shard staged the keys this frame found absent; so does
            // the coordinator, to name them in the commit.
            let (hashes, words) = (&hashes[keys.clone()], &words[keys.start * stride..keys.end * stride]);
            shard.staged.stage(hashes, words, &found[from..]);
        }
        Ok(found)
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        let stride = self.stride;
        if indices.len() != hashes.len() || words.len() != hashes.len() * stride {
            return Err(TransportError::new("malformed insert batch"));
        }
        let mut commits = Vec::with_capacity(self.shards.len());
        for (shard, run) in self.shards.iter().zip(self.split_ranges(hashes)) {
            let words = &words[run.start * stride..run.end * stride];
            let commit = shard.staged.name(&hashes[run.clone()], &indices[run], words);
            commits.push(commit.map_err(|e| shard.err(e))?);
        }
        // The insert ends the staging, on the shards as here.
        self.shards.iter_mut().for_each(|shard| shard.staged.clear());
        let runs = commits.iter().map(|c| 0..c.len()).collect();
        self.round("frontier_commit", runs, |k, r| {
            vec![("indices".to_string(), pack(&commits[k][r]))]
        })?;
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.close_sessions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Reply;
    use crate::{Server, ServerConfig};
    use randsync_model::SplitMix64;

    #[test]
    fn shard_ownership_is_monotone_and_covers_all_shards() {
        for n in 1..=5 {
            assert_eq!(shard_of(0, n), 0);
            assert_eq!(shard_of(u64::MAX, n), n - 1);
            let mut prev = 0;
            for h in (0..=u64::MAX).step_by(1 << 58) {
                let k = shard_of(h, n);
                assert!(k >= prev && k < n, "h={h} n={n} k={k}");
                prev = k;
            }
        }
    }

    #[test]
    fn packed_fields_are_little_endian_lowercase_hex_and_round_trip() {
        let field = |v: Json| Json::Obj(vec![("f".to_string(), v)]);
        assert_eq!(pack(&[1u32, u32::MAX]), Json::Str("01000000ffffffff".to_string()));
        assert_eq!(pack(&[0x0123_4567_89ab_cdef_u64]), Json::Str("efcdab8967452301".to_string()));
        assert_eq!(pack::<u32>(&[]), Json::Str(String::new()));
        let mut rng = SplitMix64::new(7);
        let wide: Vec<u64> = (0..64).map(|_| rng.next_u64()).chain([0, u64::MAX]).collect();
        let narrow: Vec<u32> = wide.iter().map(|&v| v as u32).collect();
        assert_eq!(unpack::<u64>(&field(pack(&wide)), "f").unwrap(), wide);
        assert_eq!(unpack::<u32>(&field(pack(&narrow)), "f").unwrap(), narrow);
    }

    /// The per-digit packer the table-driven `pack` replaced: the oracle
    /// its strings must match byte for byte.
    fn pack_per_digit<T: Packed>(values: &[T]) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(values.len() * T::DIGITS);
        for &v in values {
            let mut v = v.to_u64();
            for _ in 0..T::DIGITS / 2 {
                out.push(char::from(HEX[((v >> 4) & 0xf) as usize]));
                out.push(char::from(HEX[(v & 0xf) as usize]));
                v >>= 8;
            }
        }
        out
    }

    /// The per-digit unpacker the table-driven `unpack` replaced: the
    /// oracle for its values and its refusals.
    fn unpack_per_digit<T: Packed>(obj: &Json, field: &'static str) -> Result<Vec<T>, FrameError> {
        let hex = obj.get(field).and_then(Json::as_str).ok_or(FrameError::NotPacked(field))?;
        let hex = hex.as_bytes();
        if !hex.len().is_multiple_of(2) {
            return Err(FrameError::OddLength { field, len: hex.len() });
        }
        if !hex.len().is_multiple_of(T::DIGITS) {
            return Err(FrameError::Ragged { field, len: hex.len(), digits: T::DIGITS });
        }
        let nibble = |at: usize| match hex[at] {
            c @ b'0'..=b'9' => Ok(u64::from(c - b'0')),
            c @ b'a'..=b'f' => Ok(u64::from(c - b'a' + 10)),
            _ => Err(FrameError::NotHex { field, at }),
        };
        let mut values = Vec::with_capacity(hex.len() / T::DIGITS);
        for start in (0..hex.len()).step_by(T::DIGITS) {
            let mut v = 0u64;
            for byte in 0..T::DIGITS / 2 {
                let at = start + 2 * byte;
                v |= ((nibble(at)? << 4) | nibble(at + 1)?) << (8 * byte);
            }
            values.push(T::from_u64(v));
        }
        Ok(values)
    }

    /// `pack` and `unpack` against the per-digit oracles: random values
    /// at every length 0..=70, identical strings and round trips, and
    /// identical refusals of a truncated field and of a bad byte (`g`,
    /// `A`, or the two bytes of `é`) at each of the 16 digit positions
    /// of a `u64`, with the same offset.
    fn codec_matches_the_per_digit_oracle<T: Packed + PartialEq + std::fmt::Debug>(seed: u64) {
        let field = |hex: &str| Json::Obj(vec![("f".to_string(), Json::Str(hex.to_string()))]);
        let mut rng = SplitMix64::new(seed);
        for len in 0..=70 {
            let values: Vec<T> = (0..len).map(|_| T::from_u64(rng.next_u64())).collect();
            let hex = pack_per_digit(&values);
            assert_eq!(pack(&values), Json::Str(hex.clone()), "{len} values");
            assert_eq!(unpack::<T>(&field(&hex), "f").expect("round trip"), values);
            for cut in [1, 2, 3] {
                let short = field(&hex[..hex.len().saturating_sub(cut)]);
                let (got, want) = (unpack::<T>(&short, "f"), unpack_per_digit::<T>(&short, "f"));
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{len} values less {cut}");
            }
            // The 16 positions start at a random value that leaves room
            // for them, where the field has one.
            let starts = hex.len().saturating_sub(17) / T::DIGITS + 1;
            let start = T::DIGITS * rng.next_below(starts as u64) as usize;
            for at in start..start + 16 {
                for bad in ["g", "A", "é"] {
                    if at + bad.len() > hex.len() {
                        continue;
                    }
                    let mut spoiled = hex.clone();
                    spoiled.replace_range(at..at + bad.len(), bad);
                    let spoiled = field(&spoiled);
                    let got = unpack::<T>(&spoiled, "f");
                    let want = unpack_per_digit::<T>(&spoiled, "f");
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{bad:?} at {at}");
                    assert!(
                        matches!(got, Err(FrameError::NotHex { at: a, .. }) if a == at),
                        "{bad:?} at {at}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_table_driven_codec_matches_the_per_digit_oracle() {
        for seed in 0..8 {
            codec_matches_the_per_digit_oracle::<u32>(seed);
            codec_matches_the_per_digit_oracle::<u64>(seed);
        }
    }

    /// The packed spelling of `values`, as a JSON string literal.
    fn hex<T: Packed>(values: &[T]) -> String {
        pack(values).render()
    }

    fn status(reply: &Json) -> Option<&str> {
        reply.get("status").and_then(Json::as_str)
    }

    fn error_code(reply: &Json) -> Option<&str> {
        reply.get("error")?.get("code").and_then(Json::as_str)
    }

    fn found(reply: &Json) -> Vec<u32> {
        unpack(reply.get("result").expect("ok reply"), "found").expect("packed found")
    }

    #[test]
    fn frontier_sessions_answer_the_wire_protocol() {
        let sessions = FrontierSessions::default();
        let parse = |s: &str| randsync_obs::parse_json(s).unwrap();

        let open = parse(&sessions.handle(1, &Request {
            id: Json::Int(1),
            job: "frontier_open".to_string(),
            params: parse("{\"stride\": 2}"),
            trace: None,
        }));
        assert_eq!(status(&open), Some("ok"));
        let sid = open.get("result").unwrap().get("session").and_then(Json::as_u64).unwrap();

        // A probe stages the key it finds absent; a commit stores it
        // by reference.
        let miss = parse(&sessions.handle(1, &Request {
            id: Json::Int(2),
            job: "frontier_probe".to_string(),
            params: parse(&format!(
                "{{\"session\": {sid}, \"hashes\": {}, \"words\": {}}}",
                hex(&[9u64]),
                hex(&[1u32, 2])
            )),
            trace: None,
        }));
        assert_eq!(found(&miss), [u32::MAX]);
        let commit = parse(&sessions.handle(1, &Request {
            id: Json::Int(3),
            job: "frontier_commit".to_string(),
            params: parse(&format!("{{\"session\": {sid}, \"indices\": {}}}", hex(&[4u32]))),
            trace: None,
        }));
        assert_eq!(status(&commit), Some("ok"));

        let probe = parse(&sessions.handle(1, &Request {
            id: Json::Int(3),
            job: "frontier_probe".to_string(),
            params: parse(&format!(
                "{{\"session\": {sid}, \"hashes\": {}, \"words\": {}}}",
                hex(&[9u64, 9]),
                hex(&[1u32, 2, 3, 4])
            )),
            trace: None,
        }));
        assert_eq!(found(&probe), [4, u32::MAX]);

        let close = parse(&sessions.handle(1, &Request {
            id: Json::Int(4),
            job: "frontier_close".to_string(),
            params: parse(&format!("{{\"session\": {sid}}}")),
            trace: None,
        }));
        assert_eq!(status(&close), Some("ok"));

        // A closed (or never-opened) session is a clean client error.
        let stale = parse(&sessions.handle(1, &Request {
            id: Json::Int(5),
            job: "frontier_probe".to_string(),
            params: parse(&format!("{{\"session\": {sid}, \"hashes\": \"\", \"words\": \"\"}}")),
            trace: None,
        }));
        assert_eq!(status(&stale), Some("error"));
        assert_eq!(error_code(&stale), Some("bad_request"));
    }

    #[test]
    fn malformed_frontier_frames_are_rejected() {
        let sessions = FrontierSessions::default();
        let parse = |s: &str| randsync_obs::parse_json(s).unwrap();
        let send = |job: &str, params: &str| {
            parse(&sessions.handle(1, &Request {
                id: Json::Null,
                job: job.to_string(),
                params: parse(params),
                trace: None,
            }))
        };
        for (job, params) in [
            ("frontier_open", "{}"),
            ("frontier_open", "{\"stride\": 0}"),
            ("frontier_probe", "{\"hashes\": \"\", \"words\": \"\"}"),
            ("frontier_bogus", "{}"),
            // Inserts travel by reference now: the old frame is unknown.
            ("frontier_insert", "{}"),
        ] {
            assert_eq!(status(&send(job, params)), Some("error"), "{job} {params}");
        }

        // Malformed batches on an open session: each gets an error
        // frame, and the session stays usable afterwards.
        let open = send("frontier_open", "{\"stride\": 1}");
        let sid = open.get("result").unwrap().get("session").and_then(Json::as_u64).unwrap();
        let commit = |indices: &str| {
            send("frontier_commit", &format!("{{\"session\": {sid}, \"indices\": {indices}}}"))
        };
        let probe = |hashes: &str, words: &str| {
            send(
                "frontier_probe",
                &format!("{{\"session\": {sid}, \"hashes\": {hashes}, \"words\": {words}}}"),
            )
        };
        let refused = |reply: &Json, what: &str| {
            assert_eq!(status(reply), Some("error"), "{what}");
            assert_eq!(error_code(reply), Some("bad_request"), "{what}");
        };
        assert_eq!(found(&probe(&hex(&[5u64]), &hex(&[50u32]))), [u32::MAX]);
        assert_eq!(status(&commit(&hex(&[0u32]))), Some("ok"));
        // Unsorted, equal-hash descending and duplicated batches.
        for (hashes, words) in [([9u64, 2], [1u32, 1]), ([7, 7], [4, 3]), ([6, 6], [1, 1])] {
            refused(&probe(&hex(&hashes), &hex(&words)), &format!("probe {hashes:?} {words:?}"));
        }

        // Packed fields a packer could not have written.
        let one_hash = hex(&[2u64]);
        for (what, reply) in [
            ("odd-length hex", probe("\"020000000000000\"", "\"0\"")),
            ("non-hex character", probe("\"02000000000000g0\"", &hex(&[1u32]))),
            ("uppercase character", probe("\"0A00000000000000\"", &hex(&[1u32]))),
            ("partial u64 value", probe("\"0200000000000000ff\"", &hex(&[1u32]))),
            ("partial u32 value", probe(&one_hash, "\"0100\"")),
            ("words != hashes x stride", probe(&one_hash, &hex(&[1u32, 1]))),
            ("number array", probe("[2]", "[1]")),
            ("partial index", commit("\"01\"")),
            ("index array", commit("[1]")),
        ] {
            refused(&reply, what);
            // The session keeps serving: the stored key still answers.
            assert_eq!(found(&probe(&hex(&[5u64]), &hex(&[50u32]))), [0], "after {what}");
        }

        assert_eq!(found(&probe(&hex(&[2u64, 9]), &hex(&[1u32, 1]))), [u32::MAX, u32::MAX]);
        assert_eq!(status(&commit(&hex(&[1u32, 2]))), Some("ok"));
        let reply = probe(&hex(&[2u64, 5, 9, 9]), &hex(&[1u32, 50, 0, 1]));
        assert_eq!(found(&reply), [1, 0, u32::MAX, 2]);
    }

    #[test]
    fn commit_frames_that_do_not_fit_the_staging_are_rejected() {
        let sessions = FrontierSessions::default();
        let parse = |s: &str| randsync_obs::parse_json(s).unwrap();
        let send = |job: &str, params: &str| {
            parse(&sessions.handle(1, &Request {
                id: Json::Null,
                job: job.to_string(),
                params: parse(params),
                trace: None,
            }))
        };
        let open = send("frontier_open", "{\"stride\": 1}");
        let sid = open.get("result").unwrap().get("session").and_then(Json::as_u64).unwrap();
        let probe = |hashes: &[u64], words: &[u32]| {
            let (hashes, words) = (hex(hashes), hex(words));
            let params =
                format!("{{\"session\": {sid}, \"hashes\": {hashes}, \"words\": {words}}}");
            found(&send("frontier_probe", &params))
        };
        let commit = |indices: &[u32]| {
            let params = format!("{{\"session\": {sid}, \"indices\": {}}}", hex(indices));
            send("frontier_commit", &params)
        };
        let refused = |reply: &Json, what: &str| {
            assert_eq!(status(reply), Some("error"), "{what}");
            assert_eq!(error_code(reply), Some("bad_request"), "{what}");
        };
        const ABSENT: u32 = u32::MAX;

        refused(&commit(&[0]), "a commit with nothing staged");
        assert_eq!(probe(&[5, 6], &[50, 60]), [ABSENT, ABSENT]);
        refused(&commit(&[0, 1, 2]), "a wrong index count");
        // The refusals left the staging as it was: it still commits.
        assert_eq!(status(&commit(&[0, 1])), Some("ok"));
        assert_eq!(probe(&[5, 6], &[50, 60]), [0, 1]);
        refused(&commit(&[2]), "a second commit with no probe between");

        // Two probes stage one key twice: storing both is refused, and
        // the staging still stores one of them.
        assert_eq!(probe(&[7], &[70]), [ABSENT]);
        assert_eq!(probe(&[7], &[70]), [ABSENT]);
        refused(&commit(&[2, 3]), "a commit that stores one key twice");
        assert_eq!(probe(&[5, 6], &[50, 60]), [0, 1], "the refused commit stored nothing");
        assert_eq!(status(&commit(&[ABSENT, 2])), Some("ok"));
        assert_eq!(probe(&[5, 6, 7], &[50, 60, 70]), [0, 1, 2]);

        // Commit frames fill the staging in order; the last one stores.
        assert_eq!(probe(&[8, 9], &[80, 90]), [ABSENT, ABSENT]);
        assert_eq!(status(&commit(&[3])), Some("ok"));
        assert_eq!(status(&commit(&[4])), Some("ok"));
        assert_eq!(probe(&[8, 9], &[80, 90]), [3, 4]);

        let close = send("frontier_close", &format!("{{\"session\": {sid}}}"));
        assert_eq!(status(&close), Some("ok"));
        refused(&commit(&[0]), "a commit on a closed session");
    }

    /// An in-process shard server on an ephemeral loopback port.
    struct ShardServer {
        addr: String,
        thread: std::thread::JoinHandle<()>,
    }

    impl ShardServer {
        fn start() -> ShardServer {
            let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
            let addr = server.local_addr().expect("local addr").to_string();
            let thread = std::thread::spawn(move || server.run().expect("shard serves"));
            ShardServer { addr, thread }
        }

        fn stop(self) {
            Client::connect(&self.addr).expect("connect").shutdown().expect("shutdown");
            self.thread.join().expect("shard thread");
        }
    }

    #[test]
    fn a_closed_connection_ends_its_frontier_sessions() {
        let shard = ShardServer::start();
        let params = |s: &str| randsync_obs::parse_json(s).unwrap();
        let open = |client: &mut Client| {
            let reply = client.request("frontier_open", &params("{\"stride\": 1}")).unwrap();
            reply.body.get("session").and_then(Json::as_u64).expect("a session id")
        };
        // Stores the first of the two keys `probe` staged.
        let commit = |client: &mut Client, sid: u64| {
            let batch = format!("{{\"session\": {sid}, \"indices\": {}}}", hex(&[7u32, u32::MAX]));
            assert!(client.request("frontier_commit", &params(&batch)).unwrap().ok);
        };
        let probe = |client: &mut Client, sid: u64| {
            let batch = format!(
                "{{\"session\": {sid}, \"hashes\": {}, \"words\": {}}}",
                hex(&[5u64, 5]),
                hex(&[50u32, 51])
            );
            client.request("frontier_probe", &params(&batch)).unwrap()
        };

        // A coordinator opens a session, stores a key, and dies
        // without closing the session.
        let mut dying = Client::connect(&shard.addr).expect("connect");
        let sid = open(&mut dying);
        assert!(probe(&mut dying, sid).ok);
        commit(&mut dying, sid);
        drop(dying);

        // The session ends with its connection. The gauge counts the
        // open sessions of every server in this process, so it is read
        // until the other tests' sessions have closed as well.
        let mut client = Client::connect(&shard.addr).expect("connect");
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while probe(&mut client, sid).ok {
            assert!(Instant::now() < deadline, "session {sid} outlived its connection");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        loop {
            let metrics = client.metrics().expect("metrics");
            let sessions = metrics.get("svc.frontier.sessions").and_then(Json::as_u64);
            if sessions == Some(0) {
                break;
            }
            assert!(Instant::now() < deadline, "svc.frontier.sessions stayed at {sessions:?}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // A new session on the new connection starts empty and serves.
        let fresh = open(&mut client);
        assert_ne!(fresh, sid);
        let found = |reply: Reply| unpack::<u32>(&reply.body, "found").expect("packed found");
        assert_eq!(found(probe(&mut client, fresh)), [u32::MAX, u32::MAX]);
        commit(&mut client, fresh);
        assert_eq!(found(probe(&mut client, fresh)), [7, u32::MAX]);
        drop(client);
        shard.stop();
    }

    const STRIDE: usize = 2;

    /// Distinct keys in strictly ascending `(hash, words)` order, with
    /// runs of equal hashes, spread uniformly over the hash space.
    fn sorted_keys(count: usize, seed: u64) -> (Vec<u64>, Vec<u32>) {
        let mut rng = SplitMix64::new(seed);
        let mut keys: Vec<(u64, [u32; STRIDE])> = Vec::with_capacity(count);
        while keys.len() < count {
            let h = match keys.last() {
                Some(&(prev, _)) if keys.len().is_multiple_of(10) => prev,
                _ => rng.next_u64(),
            };
            keys.push((h, [rng.next_u64() as u32, rng.next_u64() as u32]));
        }
        keys.sort_unstable();
        keys.dedup();
        let hashes = keys.iter().map(|k| k.0).collect();
        let words = keys.iter().flat_map(|k| k.1).collect();
        (hashes, words)
    }

    /// The keys at the even positions of a sorted batch.
    fn evens(hashes: &[u64], words: &[u32]) -> (Vec<u64>, Vec<u32>) {
        let hashes = hashes.iter().copied().step_by(2).collect();
        let words = words.chunks(STRIDE).step_by(2).flat_map(|row| row.iter().copied()).collect();
        (hashes, words)
    }

    #[test]
    fn a_batch_of_several_frames_per_shard_matches_a_local_frontier() {
        let shards = [ShardServer::start(), ShardServer::start()];
        let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
        let mut remote = DistributedFrontier::connect(&addrs).expect("connect shards");
        let mut oracle = LocalFrontier::new();
        remote.open(STRIDE).unwrap();
        oracle.open(STRIDE).unwrap();

        let (hashes, words) = sorted_keys(2 * MAX_KEYS_PER_FRAME + 8_192, 11);
        for run in remote.split_ranges(&hashes) {
            assert!(run.len() > MAX_KEYS_PER_FRAME, "every shard gets several frames");
        }
        // Every key is staged; the insert stores half of them, so each
        // shard's commit spans several frames and leaves misses unstored.
        let none = vec![None; hashes.len()];
        assert_eq!(oracle.probe_sorted(&hashes, &words).unwrap(), none);
        assert_eq!(remote.probe_sorted(&hashes, &words).unwrap(), none);
        let (ins_hashes, ins_words) = evens(&hashes, &words);
        let indices: Vec<u32> = (0..ins_hashes.len() as u32).map(|i| 3 * i).collect();
        remote.insert_sorted(&ins_hashes, &indices, &ins_words).unwrap();
        oracle.insert_sorted(&ins_hashes, &indices, &ins_words).unwrap();
        // The insert ended the staging: a key no probe staged since is
        // refused before any frame is sent.
        let again = remote.insert_sorted(&ins_hashes[..1], &indices[..1], &ins_words[..STRIDE]);
        assert!(again.is_err(), "an unprobed insert is refused");

        let want = oracle.probe_sorted(&hashes, &words).unwrap();
        assert_eq!(remote.probe_sorted(&hashes, &words).unwrap(), want);
        assert_eq!(want.iter().filter(|f| f.is_some()).count(), ins_hashes.len());
        remote.close().unwrap();
        drop(remote);
        shards.into_iter().for_each(ShardServer::stop);
    }

    #[test]
    fn two_probe_rounds_before_one_insert_match_a_local_frontier() {
        let shards = [ShardServer::start(), ShardServer::start()];
        let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
        let mut remote = DistributedFrontier::connect(&addrs).expect("connect shards");
        let mut oracle = LocalFrontier::new();
        remote.open(STRIDE).unwrap();
        oracle.open(STRIDE).unwrap();
        let mut both: [&mut dyn FrontierTransport; 2] = [&mut remote, &mut oracle];
        // Key `(h, w)` has hash `h` sixteenths of the way up the hash
        // space (shard 1 owns `h` from 8 on), words `[w, w]` and index
        // `100h + w`.
        let batch = |keys: &[(u64, u32)]| -> (Vec<u64>, Vec<u32>, Vec<u32>) {
            let hashes = keys.iter().map(|&(h, _)| h * (u64::MAX / 16)).collect();
            let indices = keys.iter().map(|&(h, w)| 100 * h as u32 + w).collect();
            (hashes, indices, keys.iter().flat_map(|&(_, w)| [w, w]).collect())
        };
        let probe = |both: &mut [&mut dyn FrontierTransport; 2], keys: &[(u64, u32)]| {
            let (hashes, _, words) = batch(keys);
            let want = both[1].probe_sorted(&hashes, &words).unwrap();
            assert_eq!(both[0].probe_sorted(&hashes, &words).unwrap(), want, "probe {keys:?}");
            want
        };
        let insert = |both: &mut [&mut dyn FrontierTransport; 2], keys: &[(u64, u32)]| {
            let (hashes, indices, words) = batch(keys);
            both.iter_mut().for_each(|t| t.insert_sorted(&hashes, &indices, &words).unwrap());
        };
        assert_eq!(probe(&mut both, &[(9, 0)]), [None]);
        insert(&mut both, &[(9, 0)]);

        // Each shard's second round has keys before, between and after
        // its first round's, one hash tied with two first-round keys
        // and told apart by its words, and a stored key.
        let first = [(3, 1), (8, 1), (8, 3), (12, 0)];
        let second = [(1, 0), (8, 2), (9, 0), (10, 5), (15, 7), (15, 8)];
        assert_eq!(probe(&mut both, &first), [None; 4]);
        assert_eq!(probe(&mut both, &second), [None, None, Some(900), None, None, None]);
        // One insert names a subset of both rounds' misses.
        insert(&mut both, &[(1, 0), (3, 1), (8, 2), (8, 3), (15, 8)]);

        let mut all: Vec<(u64, u32)> = first.iter().chain(&second).copied().collect();
        all.sort_unstable();
        let found = probe(&mut both, &all);
        let stored: Vec<_> = all.iter().zip(found).filter_map(|(k, f)| f.map(|i| (*k, i))).collect();
        let want = [(1, 0), (3, 1), (8, 2), (8, 3), (9, 0), (15, 8)].map(|(h, w)| ((h, w), 100 * h as u32 + w));
        assert_eq!(stored, want);
        remote.close().unwrap();
        drop(remote);
        shards.into_iter().for_each(ShardServer::stop);
    }

    #[test]
    fn a_shard_error_mid_round_fails_the_call_and_leaves_no_stale_reply() {
        let shards = [ShardServer::start(), ShardServer::start()];
        let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
        let mut remote = DistributedFrontier::connect(&addrs).expect("connect shards");
        remote.open(STRIDE).unwrap();

        // Shard 0's first frame is unsorted, so its store refuses it
        // while shard 1's frames are still in flight.
        let (hashes, mut words) = sorted_keys(2 * MAX_KEYS_PER_FRAME + 8_192, 12);
        assert_eq!(shard_of(hashes[1], 2), 0);
        words.swap(0, STRIDE);
        let mut unsorted = hashes.clone();
        unsorted.swap(0, 1);
        let err = remote.probe_sorted(&unsorted, &words).expect_err("shard 0 refuses");
        assert!(err.0.contains(&shards[0].addr), "{err}");

        // The round read every reply it was owed: closing answers, and
        // each connection's next frame is the reply to its next request.
        remote.close().expect("sessions close");
        for shard in &mut remote.shards {
            let id = shard.client.send("metrics", &Json::Null).unwrap();
            let frame = shard.client.next_frame().unwrap();
            assert_eq!(frame.get("id"), Some(&id));
            assert_eq!(status(&frame), Some("ok"));
        }
        drop(remote);
        shards.into_iter().for_each(ShardServer::stop);
    }
}
