//! Distributed frontier sharding over the JSONL wire protocol
//! (DESIGN.md §16).
//!
//! The explore engine's level merge talks to its seen-set through the
//! [`FrontierTransport`] seam: one sorted probe batch and one sorted
//! insert batch per BFS level. This module stretches that seam across
//! processes:
//!
//! * **Shard side** — `FrontierSessions` lives inside every server
//!   and answers the four `frontier_*` wire frames *inline on the
//!   event loop* (never through the worker pool, so a busy pool can
//!   never deadlock a coordinator). Each open session is a
//!   [`LocalFrontier`] — the engine's own sorted seen-set store, behind
//!   checks that refuse a frame whose batch is malformed, unsorted,
//!   duplicated or repeats a stored key — keyed by a server-issued
//!   session id, so any number of coordinators can search through one
//!   shard concurrently.
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
//! frontier_open    {stride}                            -> {session}
//! frontier_probe   {session, hashes, words}            -> {found: [idx|null, ...]}
//! frontier_insert  {session, hashes, indices, words}   -> {}
//! frontier_close   {session}                           -> {}
//! ```
//!
//! Transport failures surface as [`TransportError`]; the engine stops
//! at the level boundary and reports a truncated outcome — never a
//! wrong one.

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::Mutex;
use std::time::Instant;

use randsync_model::{FrontierTransport, LocalFrontier, TransportError};
use randsync_obs::Json;

use crate::client::Client;
use crate::wire::{code, error_frame, ok_frame, Request};

/// Keys per `frontier_probe`/`frontier_insert` frame. Bounds frame
/// size (a key is ~40 bytes of JSON) far below the wire's 64 MiB frame
/// cap while keeping per-frame overhead amortized.
const MAX_KEYS_PER_FRAME: usize = 32_768;

/// The fingerprint shard that owns hash `h` among `n` shards: the
/// multiply-shift range split (monotone in `h`, so sorted batches
/// split into contiguous per-shard runs).
fn shard_of(h: u64, n: usize) -> usize {
    ((u128::from(h) * n as u128) >> 64) as usize
}

// ---------------------------------------------------------------------
// Shard side: sessions hosted by the server's event loop.
// ---------------------------------------------------------------------

/// The frontier shard sessions a server hosts: session id → store.
#[derive(Debug, Default)]
pub(crate) struct FrontierSessions {
    inner: Mutex<Sessions>,
}

#[derive(Debug, Default)]
struct Sessions {
    next: u64,
    open: HashMap<u64, LocalFrontier>,
}

impl FrontierSessions {
    /// Answer one `frontier_*` request with a complete response frame.
    /// When the frame carries a trace context and a sink is installed,
    /// the work runs under a span in the *coordinator's* causal tree —
    /// this is how a stalled shard becomes visible from outside.
    pub(crate) fn handle(&self, req: &Request) -> String {
        let _ctx = req
            .trace
            .map(|(t, s)| randsync_obs::push_context(randsync_obs::TraceContext::remote(t, s)));
        let _span = if randsync_obs::tracing_active() {
            Some(randsync_obs::span(&req.job, &[]))
        } else {
            None
        };
        match self.dispatch(req) {
            Ok(result) => ok_frame(&req.id, &req.job, result),
            Err(message) => error_frame(&req.id, code::BAD_REQUEST, &message),
        }
    }

    fn dispatch(&self, req: &Request) -> Result<Json, String> {
        let m = randsync_obs::global_metrics();
        let mut sessions = self.inner.lock().expect("frontier sessions poisoned");
        match req.job.as_str() {
            "frontier_open" => {
                let stride = get_usize(&req.params, "stride")?;
                let mut store = LocalFrontier::new();
                store.open(stride).map_err(|e| e.to_string())?;
                sessions.next += 1;
                let id = sessions.next;
                sessions.open.insert(id, store);
                m.gauge("svc.frontier.sessions").set(sessions.open.len() as i64);
                Ok(Json::Obj(vec![("session".to_string(), Json::Int(i128::from(id)))]))
            }
            "frontier_probe" => {
                let id = get_u64(&req.params, "session")?;
                let hashes = u64_array(&req.params, "hashes")?;
                let words = u32_array(&req.params, "words")?;
                let store = sessions
                    .open
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown frontier session {id}"))?;
                let found = store.probe_sorted(&hashes, &words).map_err(|e| e.to_string())?;
                m.counter("svc.frontier.probes").inc();
                Ok(Json::Obj(vec![(
                    "found".to_string(),
                    Json::Arr(
                        found
                            .iter()
                            .map(|slot| match slot {
                                Some(idx) => Json::Int(i128::from(*idx)),
                                None => Json::Null,
                            })
                            .collect(),
                    ),
                )]))
            }
            "frontier_insert" => {
                let id = get_u64(&req.params, "session")?;
                let hashes = u64_array(&req.params, "hashes")?;
                let indices = u32_array(&req.params, "indices")?;
                let words = u32_array(&req.params, "words")?;
                let store = sessions
                    .open
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown frontier session {id}"))?;
                store.insert_sorted(&hashes, &indices, &words).map_err(|e| e.to_string())?;
                m.counter("svc.frontier.inserts").inc();
                Ok(Json::Obj(vec![]))
            }
            "frontier_close" => {
                let id = get_u64(&req.params, "session")?;
                sessions
                    .open
                    .remove(&id)
                    .ok_or_else(|| format!("unknown frontier session {id}"))?;
                m.gauge("svc.frontier.sessions").set(sessions.open.len() as i64);
                Ok(Json::Obj(vec![]))
            }
            other => Err(format!(
                "unknown frontier frame {other:?} (frontier_open, frontier_probe, \
                 frontier_insert, frontier_close)"
            )),
        }
    }
}

fn get_usize(params: &Json, key: &str) -> Result<usize, String> {
    params
        .get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("parameter {key:?} must be a non-negative integer"))
}

fn get_u64(params: &Json, key: &str) -> Result<u64, String> {
    params
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("parameter {key:?} must be a non-negative integer"))
}

fn u64_array(params: &Json, key: &str) -> Result<Vec<u64>, String> {
    let arr = params
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("parameter {key:?} must be an array of integers"))?;
    arr.iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("parameter {key:?} holds a non-integer")))
        .collect()
}

fn u32_array(params: &Json, key: &str) -> Result<Vec<u32>, String> {
    let values = u64_array(params, key)?;
    values
        .into_iter()
        .map(|v| u32::try_from(v).map_err(|_| format!("parameter {key:?} overflows u32")))
        .collect()
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
}

impl Shard {
    fn request(&mut self, job: &str, params: Json) -> Result<Json, TransportError> {
        let err = |e: &dyn std::fmt::Display| {
            TransportError::new(format!("frontier shard {}: {e}", self.addr))
        };
        let reply = self.client.request(job, &params).map_err(|e| err(&e))?;
        if !reply.ok {
            return Err(err(&reply.body.render()));
        }
        Ok(reply.body)
    }
}

/// Hoisted metric handles for the coordinator side. Every update
/// guards on [`randsync_obs::metrics_enabled`], so disabled cost on
/// the RPC path is one relaxed load + branch.
#[derive(Debug)]
struct DistMetrics {
    /// Per-RPC `frontier_probe` round-trip latency.
    probe_us: randsync_obs::Histogram,
    /// Per-RPC `frontier_insert` round-trip latency.
    insert_us: randsync_obs::Histogram,
    /// Keys per wire frame (chunking granularity actually seen).
    chunk_keys: randsync_obs::Histogram,
    /// Exchange rounds measured for slowest-shard attribution.
    rounds: randsync_obs::Counter,
    /// `svc.dist.slowest.shard<k>`: rounds in which shard `k` was the
    /// slowest — per-BFS-level stall attribution.
    slowest: Vec<randsync_obs::Counter>,
}

impl DistMetrics {
    fn new(shard_count: usize) -> DistMetrics {
        let m = randsync_obs::global_metrics();
        DistMetrics {
            probe_us: m.histogram("svc.dist.probe_us"),
            insert_us: m.histogram("svc.dist.insert_us"),
            chunk_keys: m.histogram("svc.dist.chunk_keys"),
            rounds: m.counter("svc.dist.rounds"),
            slowest: (0..shard_count)
                .map(|k| m.counter(&format!("svc.dist.slowest.shard{k}")))
                .collect(),
        }
    }

    /// Credit the slowest shard of one exchange round.
    fn attribute_round(&self, per_shard_us: &[u64]) {
        let Some((k, total)) =
            per_shard_us.iter().enumerate().max_by_key(|&(_, &us)| us)
        else {
            return;
        };
        if *total == 0 {
            return;
        }
        self.rounds.inc();
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
    fn split_ranges(&self, hashes: &[u64]) -> Vec<std::ops::Range<usize>> {
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

fn int_array(values: impl Iterator<Item = i128>) -> Json {
    Json::Arr(values.map(Json::Int).collect())
}

impl FrontierTransport for DistributedFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        // A re-open (resume, or a retried search on one transport)
        // discards any prior sessions first.
        self.close_sessions()?;
        self.stride = stride;
        for shard in &mut self.shards {
            let params = Json::Obj(vec![("stride".to_string(), Json::Int(stride as i128))]);
            let body = shard.request("frontier_open", params)?;
            let session = body.get("session").and_then(Json::as_u64).ok_or_else(|| {
                TransportError::new(format!(
                    "frontier shard {}: malformed open reply",
                    shard.addr
                ))
            })?;
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
        let ranges = self.split_ranges(hashes);
        let instrumented = randsync_obs::metrics_enabled();
        let mut per_shard_us = vec![0u64; self.shards.len()];
        let mut found = Vec::with_capacity(hashes.len());
        for (k, range) in ranges.into_iter().enumerate() {
            let shard = &mut self.shards[k];
            let session = shard.session.ok_or_else(|| {
                TransportError::new(format!("frontier shard {}: no open session", shard.addr))
            })?;
            let mut at = range.start;
            while at < range.end {
                let hi = (at + MAX_KEYS_PER_FRAME).min(range.end);
                let params = Json::Obj(vec![
                    ("session".to_string(), Json::Int(i128::from(session))),
                    (
                        "hashes".to_string(),
                        int_array(hashes[at..hi].iter().map(|&h| i128::from(h))),
                    ),
                    (
                        "words".to_string(),
                        int_array(
                            words[at * stride..hi * stride].iter().map(|&w| i128::from(w)),
                        ),
                    ),
                ]);
                let rpc_started = if instrumented { Some(Instant::now()) } else { None };
                let body = shard.request("frontier_probe", params)?;
                if let Some(started) = rpc_started {
                    let us = started.elapsed().as_micros() as u64;
                    self.metrics.probe_us.observe(us);
                    self.metrics.chunk_keys.observe((hi - at) as u64);
                    per_shard_us[k] += us;
                }
                let slots = body.get("found").and_then(Json::as_arr).ok_or_else(|| {
                    TransportError::new(format!(
                        "frontier shard {}: malformed probe reply",
                        shard.addr
                    ))
                })?;
                if slots.len() != hi - at {
                    return Err(TransportError::new(format!(
                        "frontier shard {}: probe reply length mismatch",
                        shard.addr
                    )));
                }
                for slot in slots {
                    found.push(match slot {
                        Json::Null => None,
                        v => Some(v.as_u64().and_then(|u| u32::try_from(u).ok()).ok_or_else(
                            || {
                                TransportError::new(format!(
                                    "frontier shard {}: non-index probe slot",
                                    shard.addr
                                ))
                            },
                        )?),
                    });
                }
                at = hi;
            }
        }
        if instrumented {
            self.metrics.attribute_round(&per_shard_us);
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
        if stride == 0 || indices.len() != hashes.len() || words.len() != hashes.len() * stride
        {
            return Err(TransportError::new("malformed insert batch"));
        }
        let ranges = self.split_ranges(hashes);
        let instrumented = randsync_obs::metrics_enabled();
        for (k, range) in ranges.into_iter().enumerate() {
            let shard = &mut self.shards[k];
            let session = shard.session.ok_or_else(|| {
                TransportError::new(format!("frontier shard {}: no open session", shard.addr))
            })?;
            let mut at = range.start;
            while at < range.end {
                let hi = (at + MAX_KEYS_PER_FRAME).min(range.end);
                let params = Json::Obj(vec![
                    ("session".to_string(), Json::Int(i128::from(session))),
                    (
                        "hashes".to_string(),
                        int_array(hashes[at..hi].iter().map(|&h| i128::from(h))),
                    ),
                    (
                        "indices".to_string(),
                        int_array(indices[at..hi].iter().map(|&i| i128::from(i))),
                    ),
                    (
                        "words".to_string(),
                        int_array(
                            words[at * stride..hi * stride].iter().map(|&w| i128::from(w)),
                        ),
                    ),
                ]);
                let rpc_started = if instrumented { Some(Instant::now()) } else { None };
                shard.request("frontier_insert", params)?;
                if let Some(started) = rpc_started {
                    self.metrics.insert_us.observe(started.elapsed().as_micros() as u64);
                    self.metrics.chunk_keys.observe((hi - at) as u64);
                }
                at = hi;
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.close_sessions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn frontier_sessions_answer_the_wire_protocol() {
        let sessions = FrontierSessions::default();
        let parse = |s: &str| randsync_obs::parse_json(s).unwrap();

        let open = parse(&sessions.handle(&Request {
            id: Json::Int(1),
            job: "frontier_open".to_string(),
            params: parse("{\"stride\": 2}"),
            trace: None,
        }));
        assert_eq!(open.get("status").and_then(Json::as_str), Some("ok"));
        let sid = open.get("result").unwrap().get("session").and_then(Json::as_u64).unwrap();

        let insert = parse(&sessions.handle(&Request {
            id: Json::Int(2),
            job: "frontier_insert".to_string(),
            params: parse(&format!(
                "{{\"session\": {sid}, \"hashes\": [9], \"indices\": [4], \"words\": [1, 2]}}"
            )),
            trace: None,
        }));
        assert_eq!(insert.get("status").and_then(Json::as_str), Some("ok"));

        let probe = parse(&sessions.handle(&Request {
            id: Json::Int(3),
            job: "frontier_probe".to_string(),
            params: parse(&format!(
                "{{\"session\": {sid}, \"hashes\": [9, 9], \"words\": [1, 2, 3, 4]}}"
            )),
            trace: None,
        }));
        let found = probe.get("result").unwrap().get("found").and_then(Json::as_arr).unwrap();
        assert_eq!(found, &[Json::Int(4), Json::Null]);

        let close = parse(&sessions.handle(&Request {
            id: Json::Int(4),
            job: "frontier_close".to_string(),
            params: parse(&format!("{{\"session\": {sid}}}")),
            trace: None,
        }));
        assert_eq!(close.get("status").and_then(Json::as_str), Some("ok"));

        // A closed (or never-opened) session is a clean client error.
        let stale = parse(&sessions.handle(&Request {
            id: Json::Int(5),
            job: "frontier_probe".to_string(),
            params: parse(&format!("{{\"session\": {sid}, \"hashes\": [], \"words\": []}}")),
            trace: None,
        }));
        assert_eq!(stale.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            stale.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn malformed_frontier_frames_are_rejected() {
        let sessions = FrontierSessions::default();
        let parse = |s: &str| randsync_obs::parse_json(s).unwrap();
        let send = |job: &str, params: &str| {
            parse(&sessions.handle(&Request {
                id: Json::Null,
                job: job.to_string(),
                params: parse(params),
                trace: None,
            }))
        };
        let status = |reply: &Json| reply.get("status").and_then(Json::as_str).map(str::to_string);
        for (job, params) in [
            ("frontier_open", "{}"),
            ("frontier_open", "{\"stride\": 0}"),
            ("frontier_probe", "{\"hashes\": [], \"words\": []}"),
            ("frontier_bogus", "{}"),
        ] {
            assert_eq!(status(&send(job, params)).as_deref(), Some("error"), "{job} {params}");
        }

        // Unsorted and duplicated batches on an open session: each gets
        // an error frame, and the session stays usable afterwards.
        let open = send("frontier_open", "{\"stride\": 1}");
        let sid = open.get("result").unwrap().get("session").and_then(Json::as_u64).unwrap();
        let insert = |hashes: &str, indices: &str, words: &str| {
            send(
                "frontier_insert",
                &format!(
                    "{{\"session\": {sid}, \"hashes\": {hashes}, \"indices\": {indices}, \
                     \"words\": {words}}}"
                ),
            )
        };
        let probe = |hashes: &str, words: &str| {
            send(
                "frontier_probe",
                &format!("{{\"session\": {sid}, \"hashes\": {hashes}, \"words\": {words}}}"),
            )
        };
        assert_eq!(status(&insert("[5]", "[0]", "[50]")).as_deref(), Some("ok"));
        for (hashes, words) in [("[9, 2]", "[1, 1]"), ("[7, 7]", "[4, 3]"), ("[6, 6]", "[1, 1]")] {
            let reply = probe(hashes, words);
            assert_eq!(status(&reply).as_deref(), Some("error"), "probe {hashes} {words}");
            assert_eq!(
                reply.get("error").unwrap().get("code").and_then(Json::as_str),
                Some("bad_request")
            );
            let reply = insert(hashes, "[1, 2]", words);
            assert_eq!(status(&reply).as_deref(), Some("error"), "insert {hashes} {words}");
        }
        // A replayed insert of a stored key is refused as well.
        assert_eq!(status(&insert("[5]", "[3]", "[50]")).as_deref(), Some("error"));

        assert_eq!(status(&insert("[2, 9]", "[1, 2]", "[1, 1]")).as_deref(), Some("ok"));
        let found = probe("[2, 5, 9, 9]", "[1, 50, 0, 1]");
        let found = found.get("result").unwrap().get("found").and_then(Json::as_arr).unwrap();
        assert_eq!(found, &[Json::Int(1), Json::Int(0), Json::Null, Json::Int(2)]);
    }
}
