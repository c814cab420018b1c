//! The job server: a readiness event loop multiplexing every
//! connection, a bounded queue, a worker pool, progress routing, and
//! graceful drain.
//!
//! Threading model — the big change from the original
//! thread-per-connection design is that connections no longer own
//! threads:
//!
//! * the **event loop** ([`Server::run`], the caller's thread) drives
//!   the nonblocking listener *and every accepted connection* through
//!   one `poll` wait per iteration. Each connection is a small state
//!   machine (`Conn`): a [`FrameBuffer`] reassembling
//!   partial frames on the read side, and an explicit write buffer
//!   drained as the socket accepts bytes. Thousands of idle or slow
//!   connections cost table entries, not stacks. Control frames
//!   (`metrics`, `shutdown`), cache hits, request validation, and the
//!   `frontier_*` shard session frames are all answered inline on the
//!   loop; only real jobs travel to the pool —
//!   [`std::sync::mpsc::sync_channel`] *is* the bounded queue, and a
//!   failed `try_send` is the backpressure signal (`overloaded`);
//! * `workers` **worker threads** share the receiving end behind a
//!   mutex and execute jobs under a per-job wall-clock budget. Workers
//!   never touch sockets: they hand finished frames to the loop's
//!   outbox (`FrameSender`) keyed by connection id, and wake it
//!   through a loopback datagram socket (std has no pipe; a connected
//!   `UdpSocket` pair is the zero-dependency self-wake).
//!
//! Frame ordering is a loop-iteration argument: the `queued` progress
//! frame is appended to the connection's write buffer inline while its
//! request is being read, and a worker's `started` frame can only
//! arrive through the outbox, which is drained at the *top* of a later
//! iteration — so `queued` always precedes `started` on the wire.
//!
//! Shutdown is drain-then-exit: the `shutdown` control frame drops the
//! queue's sender, so workers finish everything already accepted and
//! exit. The loop keeps serving reads (new jobs are refused with
//! `shutting_down`) until every worker has exited — checked *before*
//! draining the outbox, so every frame a worker sent is already routed
//! when the check reads true — and every write buffer has flushed;
//! then [`Server::run`] joins the workers and returns. Every accepted
//! job gets its response frame.
//!
//! Progress streaming rides on the `obs` trace pipeline: the explorer
//! emits an `explore.level` event per BFS level *on the worker thread
//! running the search*, so a process-global [`TraceSink`] keyed by
//! [`ThreadId`] routes those events into the outbox as `progress`
//! frames for whichever connection the running job belongs to.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use randsync_obs::{Field, Json, TraceSink};

use crate::cache::{ResultsCache, DEFAULT_CACHE_CAPACITY};
use crate::dist::FrontierSessions;
use crate::job::{ExecContext, Job, JobError};
use crate::poll::{self, fd_of, PollEntry};
use crate::wire::{
    code, error_frame, ok_frame, progress_frame, FrameBuffer, Request, WIRE_SCHEMA_VERSION,
};

/// How long the drain phase keeps trying to flush response bytes to
/// clients that have stopped reading before giving up and exiting.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Write-buffer compaction threshold: consumed prefixes shorter than
/// this are kept (a cursor bump is cheaper than a memmove).
const WBUF_COMPACT_BYTES: usize = 64 * 1024;

/// Server sizing and budgets.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (0 = host parallelism, min 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `overloaded`.
    pub queue: usize,
    /// Per-job wall-clock budget, enforced cooperatively.
    pub job_budget: Duration,
    /// Results-cache capacity in entries.
    pub cache_capacity: usize,
    /// Directory for `explore` checkpoints (`None` = a pid-unique temp
    /// subdirectory). Process-global and fixed at first use, so only
    /// the first server bound in a process can set it.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Maximum simultaneously open connections; one more is accepted
    /// only to be told `overloaded` and closed.
    pub max_conns: usize,
    /// Addresses of frontier shard servers. When non-empty, `valency`,
    /// `explore`, and `resume` jobs run their dedup against these
    /// shards ([`crate::dist::DistributedFrontier`]) instead of
    /// in-process — results stay bit-identical by construction.
    pub frontier_workers: Vec<String>,
    /// When set, every trace event this process emits is also appended
    /// to this JSONL file (in addition to progress routing), so
    /// `randsync trace-tree` can stitch this process into cross-process
    /// causal trees.
    pub trace_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue: 64,
            job_budget: Duration::from_secs(120),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            checkpoint_dir: None,
            max_conns: 1024,
            frontier_workers: Vec::new(),
            trace_path: None,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// The worker-to-event-loop outbox: frames keyed by connection id,
/// plus the datagram self-wake that gets the loop out of its poll.
/// `depth` counts frames queued but not yet drained, for the
/// `svc.loop.outbox_depth` gauge.
#[derive(Clone, Debug)]
pub(crate) struct FrameSender {
    tx: Sender<(u64, String)>,
    waker: Arc<UdpSocket>,
    depth: Arc<AtomicUsize>,
}

impl FrameSender {
    /// Queue one frame for `conn` and wake the loop. Errors are
    /// swallowed: a vanished loop or connection must not take a worker
    /// down (matching the old per-connection writer's semantics).
    pub(crate) fn send(&self, conn: u64, frame: String) {
        if self.tx.send((conn, frame)).is_ok() {
            self.depth.fetch_add(1, Ordering::Relaxed);
            let _ = self.waker.send(&[1]);
        }
    }
}

/// One accepted job traveling from the event loop to a worker. `conn`
/// names the connection in the loop's table; by the time the response
/// comes back the connection may be gone, and the frame is dropped.
/// `trace` is the submitting client's trace context, installed on the
/// executing worker thread so the job's spans join the caller's tree.
#[derive(Debug)]
struct Ticket {
    id: Json,
    job: Job,
    conn: u64,
    trace: Option<(u64, u64)>,
}

/// Routes the explorer's per-level trace events, emitted on worker
/// threads, to the connection whose job is running there — and is
/// installed once per process, so any number of in-process servers
/// share it (routes are keyed by worker [`ThreadId`], which never
/// collides across servers).
#[derive(Debug, Default)]
struct ProgressRouter {
    routes: Mutex<HashMap<ThreadId, (Json, u64, FrameSender)>>,
}

impl ProgressRouter {
    fn global() -> &'static Arc<ProgressRouter> {
        static ROUTER: OnceLock<Arc<ProgressRouter>> = OnceLock::new();
        ROUTER.get_or_init(|| Arc::new(ProgressRouter::default()))
    }

    fn register(&self, id: Json, conn: u64, frames: FrameSender) {
        self.routes
            .lock()
            .expect("progress routes poisoned")
            .insert(std::thread::current().id(), (id, conn, frames));
    }

    fn deregister(&self) {
        self.routes.lock().expect("progress routes poisoned").remove(&std::thread::current().id());
    }
}

/// Trace event names the router forwards as progress frames: the
/// explorer's per-level report and the `watch` job's periodic
/// metrics-delta ticks. Everything else (span starts/ends, shard
/// events) stays in the trace pipeline.
const ROUTED_EVENTS: [&str; 2] = ["explore.level", "svc.watch"];

impl TraceSink for ProgressRouter {
    fn event(&self, name: &str, _timestamp_micros: u64, fields: &[(&str, Field)]) {
        if !ROUTED_EVENTS.contains(&name) {
            return;
        }
        let route = {
            let routes = self.routes.lock().expect("progress routes poisoned");
            routes.get(&std::thread::current().id()).cloned()
        };
        let Some((id, conn, frames)) = route else { return };
        let extra: Vec<(&str, Json)> = fields
            .iter()
            .map(|(k, v)| {
                let j = match v {
                    Field::U64(u) => Json::Int(i128::from(*u)),
                    Field::I64(i) => Json::Int(i128::from(*i)),
                    Field::F64(f) => Json::Float(*f),
                    Field::Str(s) => Json::Str(s.clone()),
                    Field::Bool(b) => Json::Bool(*b),
                };
                (*k, j)
            })
            .collect();
        frames.send(conn, progress_frame(&id, name, &extra));
    }
}

/// Hoisted handles for the event loop's own instrumentation. Every
/// update site guards on [`randsync_obs::metrics_enabled`] first, so
/// with metrics off the per-frame cost is one relaxed load + branch
/// (the `ops_svc_loop_metrics` bench pins this).
struct LoopMetrics {
    wakeups: randsync_obs::Counter,
    outbox_depth: randsync_obs::Gauge,
    wbuf_bytes: randsync_obs::Gauge,
    decode_us: randsync_obs::Histogram,
    dispatch_us: randsync_obs::Histogram,
    flush_us: randsync_obs::Histogram,
}

impl LoopMetrics {
    fn new(m: &randsync_obs::MetricsRegistry) -> LoopMetrics {
        LoopMetrics {
            wakeups: m.counter("svc.loop.wakeups"),
            outbox_depth: m.gauge("svc.loop.outbox_depth"),
            wbuf_bytes: m.gauge("svc.loop.wbuf_bytes"),
            decode_us: m.histogram("svc.loop.decode_us"),
            dispatch_us: m.histogram("svc.loop.dispatch_us"),
            flush_us: m.histogram("svc.loop.flush_us"),
        }
    }
}

/// Shared server state: the queue's sending end (taken on shutdown),
/// depth accounting, the results cache, and the frontier shard
/// sessions this server is hosting for remote coordinators.
#[derive(Debug)]
pub(crate) struct ServerState {
    shutting_down: AtomicBool,
    queue_tx: Mutex<Option<SyncSender<Ticket>>>,
    queue_depth: AtomicUsize,
    cache: ResultsCache,
    job_budget: Duration,
    frontier_workers: Vec<String>,
    pub(crate) frontier: FrontierSessions,
}

impl ServerState {
    fn set_depth_gauge(&self) {
        randsync_obs::global_metrics()
            .gauge("svc.queue.depth")
            .set(self.queue_depth.load(Ordering::SeqCst) as i64);
    }
}

/// One connection's state machine in the event loop: the partial-frame
/// read buffer, the pending write bytes, and lifecycle flags. The
/// `readable`/`writable` bits carry the last poll's verdict into the
/// next iteration's processing steps.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    closing: bool,
    readable: bool,
    writable: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            // Optimistic: the first iteration reads/flushes once and
            // the poll verdict takes over from there.
            readable: true,
            writable: true,
        }
    }

    /// Queue one frame line for writing.
    fn push_frame(&mut self, frame: &str) {
        self.wbuf.extend_from_slice(frame.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Write as much of the pending buffer as the socket accepts.
    ///
    /// # Errors
    ///
    /// A hard socket error; the connection should be dropped.
    fn try_flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "connection write returned zero",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > WBUF_COMPACT_BYTES {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }
}

/// A bound job server. [`Server::bind`] claims the address (so an
/// ephemeral `:0` port is known before serving starts);
/// [`Server::run`] serves until a `shutdown` control frame drains it.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    state: Arc<ServerState>,
    queue_rx: Receiver<Ticket>,
    frames: FrameSender,
    frame_rx: Receiver<(u64, String)>,
    waker_rx: UdpSocket,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7450"`, or port `0` for an
    /// ephemeral port) with the given sizing.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (TCP listener or the loopback
    /// self-wake socket pair).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        if let Some(dir) = &config.checkpoint_dir {
            crate::cache::set_checkpoint_dir(dir.clone());
        }
        let listener = TcpListener::bind(addr)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue.max(1));
        let (frame_tx, frame_rx) = std::sync::mpsc::channel();
        let waker_rx = UdpSocket::bind("127.0.0.1:0")?;
        waker_rx.set_nonblocking(true)?;
        let waker_tx = UdpSocket::bind("127.0.0.1:0")?;
        waker_tx.connect(waker_rx.local_addr()?)?;
        waker_tx.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            shutting_down: AtomicBool::new(false),
            queue_tx: Mutex::new(Some(tx)),
            queue_depth: AtomicUsize::new(0),
            cache: ResultsCache::new(config.cache_capacity),
            job_budget: config.job_budget,
            frontier_workers: config.frontier_workers.clone(),
            frontier: FrontierSessions::default(),
        });
        Ok(Server {
            listener,
            config,
            state,
            queue_rx: rx,
            frames: FrameSender {
                tx: frame_tx,
                waker: Arc::new(waker_tx),
                depth: Arc::new(AtomicUsize::new(0)),
            },
            frame_rx,
            waker_rx,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until shut down: run the event loop, dispatch jobs, then
    /// drain the queue and join the workers. Enables the global metrics
    /// registry and installs the process-wide progress router.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener or poll errors (transient accept and
    /// per-connection errors are tolerated).
    pub fn run(self) -> std::io::Result<()> {
        randsync_obs::set_metrics_enabled(true);
        let router: Arc<dyn TraceSink> = ProgressRouter::global().clone();
        match &self.config.trace_path {
            Some(path) => {
                let jsonl: Arc<dyn TraceSink> = Arc::new(randsync_obs::JsonlSink::create(path)?);
                randsync_obs::install_trace_sink(Arc::new(randsync_obs::FanoutSink::new(vec![
                    router, jsonl,
                ])));
            }
            None => randsync_obs::install_trace_sink(router),
        }
        self.listener.set_nonblocking(true)?;

        let workers = self.config.effective_workers().max(1);
        let m = randsync_obs::global_metrics();
        m.gauge("svc.workers").set(workers as i64);
        let lm = LoopMetrics::new(m);
        let rx = Arc::new(Mutex::new(self.queue_rx));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            let frames = self.frames.clone();
            handles.push(std::thread::spawn(move || worker_loop(&state, &rx, &frames)));
        }

        let max_conns = self.config.max_conns.max(1);
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn: u64 = 0;
        let mut drain_flush_since: Option<Instant> = None;

        loop {
            if randsync_obs::metrics_enabled() {
                lm.wakeups.inc();
            }
            let draining = self.state.shutting_down.load(Ordering::SeqCst);
            // Worker liveness is sampled BEFORE the outbox drain: a
            // worker's frames are sent before its thread returns, so
            // when this reads true, everything the workers will ever
            // send is already in the outbox and this iteration's drain
            // routes it. (The reverse order could exit with a response
            // frame still in flight.)
            let workers_done = draining && handles.iter().all(|h| h.is_finished());

            // Swallow wake datagrams first, outbox second: a wake sent
            // between the two drains just costs one spurious
            // iteration, whereas the reverse order could eat the wake
            // for a frame this iteration never saw.
            let mut wake = [0u8; 16];
            while self.waker_rx.recv(&mut wake).is_ok() {}
            while let Ok((cid, frame)) = self.frame_rx.try_recv() {
                self.frames.depth.fetch_sub(1, Ordering::Relaxed);
                if let Some(conn) = conns.get_mut(&cid) {
                    conn.push_frame(&frame);
                }
            }
            if randsync_obs::metrics_enabled() {
                lm.outbox_depth.set(self.frames.depth.load(Ordering::Relaxed) as i64);
            }

            // Accept — folded into the readiness loop; over the cap,
            // the socket is accepted just long enough to be told so.
            if !draining {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            m.counter("svc.connections").inc();
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            // Replies are latency-bound (frontier shard
                            // round trips especially); never Nagle them.
                            let _ = stream.set_nodelay(true);
                            next_conn += 1;
                            let mut conn = Conn::new(stream);
                            if conns.len() >= max_conns {
                                m.counter("svc.conns.rejected").inc();
                                conn.push_frame(&error_frame(
                                    &Json::Null,
                                    code::OVERLOADED,
                                    "connection limit reached; retry later",
                                ));
                                conn.closing = true;
                            } else {
                                m.counter("svc.conns.accepted").inc();
                            }
                            conns.insert(next_conn, conn);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }

            // Reads: pull everything each readable socket has, then
            // handle the completed frames. Responses produced inline
            // (control frames, cache hits, rejections, `queued`) are
            // appended straight to the connection's write buffer.
            let ids: Vec<u64> = conns.keys().copied().collect();
            for cid in ids {
                let Some(conn) = conns.get_mut(&cid) else { continue };
                if conn.closing || !conn.readable {
                    continue;
                }
                conn.readable = false;
                let mut lines = Vec::new();
                let mut buf = [0u8; 16384];
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            // Peer EOF: no more requests; pending
                            // responses still flush below.
                            conn.closing = true;
                            break;
                        }
                        Ok(n) => match conn.rbuf.push_bytes(&buf[..n]) {
                            Ok(frames) => lines.extend(frames),
                            Err(overflow) => {
                                conn.push_frame(&error_frame(
                                    &Json::Null,
                                    code::BAD_REQUEST,
                                    &overflow.to_string(),
                                ));
                                conn.closing = true;
                                break;
                            }
                        },
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.closing = true;
                            break;
                        }
                    }
                }
                let mut out = Vec::new();
                for line in &lines {
                    match line {
                        Ok(line) if line.trim().is_empty() => {}
                        Ok(line) => handle_line(&self.state, cid, line, &mut out, &lm),
                        Err(e) => out.push(error_frame(
                            &Json::Null,
                            code::BAD_REQUEST,
                            &format!("frame is not UTF-8: {e}"),
                        )),
                    }
                }
                for frame in &out {
                    conn.push_frame(frame);
                }
            }

            // Writes: flush whatever each socket accepts; drop dead
            // connections and completed `closing` ones.
            let mut buffered_bytes = 0i64;
            conns.retain(|&cid, conn| {
                conn.writable = false;
                let mut ok = true;
                if !conn.flushed() {
                    let flush_started =
                        if randsync_obs::metrics_enabled() { Some(Instant::now()) } else { None };
                    ok = conn.try_flush().is_ok();
                    if let Some(started) = flush_started {
                        lm.flush_us.observe(started.elapsed().as_micros() as u64);
                    }
                }
                let keep = ok && !(conn.closing && conn.flushed());
                if keep {
                    buffered_bytes += (conn.wbuf.len() - conn.wpos) as i64;
                } else {
                    // Frontier sessions end with the connection that
                    // opened them.
                    self.state.frontier.connection_closed(cid);
                }
                keep
            });
            m.gauge("svc.conns.open").set(conns.len() as i64);
            if randsync_obs::metrics_enabled() {
                lm.wbuf_bytes.set(buffered_bytes);
            }

            if draining && workers_done {
                let flushed = conns.values().all(Conn::flushed);
                let since = *drain_flush_since.get_or_insert_with(Instant::now);
                if flushed || since.elapsed() > DRAIN_FLUSH_GRACE {
                    break;
                }
            }

            // One poll across the listener, the waker, and every
            // connection. During the drain the timeout shortens so
            // worker exits are noticed promptly.
            let mut entries = Vec::with_capacity(conns.len() + 2);
            entries.push(PollEntry::new(fd_of(&self.waker_rx), true, false));
            if !draining {
                entries.push(PollEntry::new(fd_of(&self.listener), true, false));
            }
            let base = entries.len();
            let cids: Vec<u64> = conns.keys().copied().collect();
            for &cid in &cids {
                let conn = &conns[&cid];
                entries.push(PollEntry::new(
                    fd_of(&conn.stream),
                    !conn.closing,
                    !conn.flushed(),
                ));
            }
            let timeout = if draining {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(500)
            };
            poll::wait(&mut entries, timeout)?;
            for (i, &cid) in cids.iter().enumerate() {
                if let Some(conn) = conns.get_mut(&cid) {
                    conn.readable = entries[base + i].readable;
                    conn.writable = entries[base + i].writable;
                }
            }
        }

        for handle in handles {
            let _ = handle.join();
        }
        // The sink lives in a process-global slot that is never
        // dropped, so a buffered JSONL trace file would lose its tail
        // without this explicit flush. Flush-in-place, not clear: other
        // in-process servers (loopback tests) share the slot.
        randsync_obs::flush_trace_sink();
        Ok(())
    }
}

/// Dispatch one request line: control frames, frontier shard frames,
/// and rejections are answered inline (frames pushed to `out`); jobs
/// go to the queue. Decode and dispatch latency feed the
/// `svc.loop.decode_us` / `svc.loop.dispatch_us` histograms.
fn handle_line(
    state: &Arc<ServerState>,
    conn_id: u64,
    line: &str,
    out: &mut Vec<String>,
    lm: &LoopMetrics,
) {
    let instrumented = randsync_obs::metrics_enabled();
    let decode_started = if instrumented { Some(Instant::now()) } else { None };
    let parsed = Request::parse(line);
    if let Some(started) = decode_started {
        lm.decode_us.observe(started.elapsed().as_micros() as u64);
    }
    let req = match parsed {
        Ok(req) => req,
        Err(message) => {
            out.push(error_frame(&Json::Null, code::BAD_REQUEST, &message));
            return;
        }
    };
    let dispatch_started = if instrumented { Some(Instant::now()) } else { None };
    dispatch_request(state, conn_id, req, out);
    if let Some(started) = dispatch_started {
        lm.dispatch_us.observe(started.elapsed().as_micros() as u64);
    }
}

/// The dispatch half of [`handle_line`], once the frame has decoded.
fn dispatch_request(state: &Arc<ServerState>, conn_id: u64, req: Request, out: &mut Vec<String>) {
    match req.job.as_str() {
        "metrics" => {
            let snapshot = randsync_obs::global_metrics().snapshot();
            out.push(ok_frame(
                &req.id,
                "metrics",
                Json::Obj(vec![
                    (
                        "schema_version".to_string(),
                        Json::Int(i128::from(WIRE_SCHEMA_VERSION)),
                    ),
                    ("metrics".to_string(), snapshot.to_json()),
                ]),
            ));
        }
        "shutdown" => {
            state.shutting_down.store(true, Ordering::SeqCst);
            // Dropping the sender is the drain signal: workers finish
            // the queue, then their recv disconnects.
            drop(state.queue_tx.lock().expect("queue sender poisoned").take());
            let draining = state.queue_depth.load(Ordering::SeqCst);
            out.push(ok_frame(
                &req.id,
                "shutdown",
                Json::Obj(vec![("draining".to_string(), Json::Int(draining as i128))]),
            ));
        }
        // Frontier shard frames are answered on the event loop, never
        // queued: a coordinator blocks its level merge on these, and
        // routing them through the worker pool could deadlock a
        // cluster whose pools are all busy coordinating.
        name if name.starts_with("frontier_") => out.push(state.frontier.handle(conn_id, &req)),
        _ => submit_job(state, conn_id, req, out),
    }
}

/// Validate, cache-check, and enqueue one job request.
fn submit_job(state: &Arc<ServerState>, conn_id: u64, req: Request, out: &mut Vec<String>) {
    let m = randsync_obs::global_metrics();
    m.counter("svc.jobs.submitted").inc();
    let job = match Job::parse(&req.job, &req.params) {
        Ok(job) => job,
        Err(e) => {
            m.counter("svc.jobs.error").inc();
            out.push(error_frame(&req.id, e.code, &e.message));
            return;
        }
    };
    if job.cacheable() {
        if let Some(result) = state.cache.get(&job.cache_key()) {
            m.counter("svc.jobs.ok").inc();
            out.push(ok_frame(&req.id, job.kind(), result));
            return;
        }
    }
    let tx = state.queue_tx.lock().expect("queue sender poisoned").clone();
    let Some(tx) = tx else {
        m.counter("svc.jobs.error").inc();
        out.push(error_frame(&req.id, code::SHUTTING_DOWN, "server is draining"));
        return;
    };
    match tx.try_send(Ticket { id: req.id.clone(), job, conn: conn_id, trace: req.trace }) {
        Ok(()) => {
            state.queue_depth.fetch_add(1, Ordering::SeqCst);
            state.set_depth_gauge();
            out.push(progress_frame(&req.id, "queued", &[]));
        }
        Err(TrySendError::Full(_)) => {
            m.counter("svc.jobs.rejected").inc();
            out.push(error_frame(&req.id, code::OVERLOADED, "job queue is full; retry later"));
        }
        Err(TrySendError::Disconnected(_)) => {
            m.counter("svc.jobs.error").inc();
            out.push(error_frame(&req.id, code::SHUTTING_DOWN, "server is draining"));
        }
    }
}

/// Worker: pull tickets until the queue disconnects (shutdown drain),
/// executing each under the per-job budget with progress routing.
fn worker_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<Receiver<Ticket>>>, frames: &FrameSender) {
    loop {
        // Hold the receiver lock only for the handoff; contention is
        // one lock per job, not per byte of work.
        let ticket = {
            let rx = rx.lock().expect("queue receiver poisoned");
            rx.recv()
        };
        let Ok(ticket) = ticket else { break };
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        state.set_depth_gauge();
        execute_ticket(state, ticket, frames);
    }
}

fn execute_ticket(state: &Arc<ServerState>, ticket: Ticket, frames: &FrameSender) {
    let m = randsync_obs::global_metrics();
    let kind = ticket.job.kind();
    frames.send(ticket.conn, progress_frame(&ticket.id, "started", &[]));
    let router = ProgressRouter::global();
    router.register(ticket.id.clone(), ticket.conn, frames.clone());
    let started = Instant::now();
    // Rehydrate the submitting client's trace context on this worker
    // thread: the svc.job span (and every span under it, including
    // remote frontier RPCs) stitches into the caller's causal tree.
    let ctx_guard = ticket
        .trace
        .map(|(t, s)| randsync_obs::push_context(randsync_obs::TraceContext::remote(t, s)));
    let span = randsync_obs::span("svc.job", &[("kind", Field::Str(kind.to_string()))]);
    let ctx = ExecContext { frontier_workers: state.frontier_workers.clone() };
    let outcome = run_guarded(|| ticket.job.execute_ctx(started + state.job_budget, &ctx));
    drop(span);
    drop(ctx_guard);
    router.deregister();
    m.histogram(&format!("svc.job.micros.{kind}")).observe(started.elapsed().as_micros() as u64);
    match outcome {
        Ok(result) => {
            if ticket.job.cacheable() {
                state.cache.put(ticket.job.cache_key(), result.clone());
            }
            m.counter("svc.jobs.ok").inc();
            frames.send(ticket.conn, ok_frame(&ticket.id, kind, result));
        }
        Err(e) => {
            m.counter("svc.jobs.error").inc();
            if e.code == code::DEADLINE_EXCEEDED {
                m.counter("svc.jobs.deadline").inc();
            }
            frames.send(ticket.conn, error_frame(&ticket.id, e.code, &e.message));
        }
    }
}

/// Run one job, turning a panic into a [`code::JOB_FAILED`] error that
/// carries the panic message and counting it in `svc.jobs.panicked`. A
/// job that panics (a full disk under its spill tier, say) then costs
/// its own ticket only: the worker thread survives to deregister the
/// job's progress route, answer the client and take the next ticket.
fn run_guarded(job: impl FnOnce() -> Result<Json, JobError>) -> Result<Json, JobError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        randsync_obs::global_metrics().counter("svc.jobs.panicked").inc();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(JobError { code: code::JOB_FAILED, message: format!("job panicked: {message}") })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_becomes_a_job_failed_error() {
        let panicked = || randsync_obs::global_metrics().counter("svc.jobs.panicked").get();
        let before = panicked();
        let ok = run_guarded(|| Ok(Json::Int(7)));
        assert_eq!(ok.map(|j| j.render()).map_err(|e| e.message), Ok("7".to_string()));
        for (payload, shown) in [(None, "spill segment write failed"), (Some(3), "3 bytes left")] {
            let err = run_guarded(|| match payload {
                None => panic!("spill segment write failed"),
                Some(n) => panic!("{n} bytes left"),
            })
            .expect_err("the panic is caught");
            assert_eq!(err.code, code::JOB_FAILED);
            assert_eq!(err.message, format!("job panicked: {shown}"));
        }
        // Other tests in this process may panic jobs too.
        assert!(panicked() >= before + 2);
    }
}
