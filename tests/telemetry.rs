//! Telemetry-plane integration tests: cross-process trace stitching,
//! progress-frame routing isolation, the `watch` metrics feed, and the
//! soak monitor's verdicts.
//!
//! The metrics registry and trace-sink slot are process-global, so the
//! in-process tests assert deltas and frame shapes, never absolutes;
//! the trace-stitching test spawns the real binary so each role gets
//! its own process (and its own JSONL sink), exactly as in production.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use randsync::obs::Json;
use randsync::svc::job::Job;
use randsync::svc::soak::{run_soak, SoakConfig, ThresholdCatalog};
use randsync::svc::{Client, Server, ServerConfig};

/// Start an in-process server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

/// Spawn `randsync <args>` with piped stdout and return the child plus
/// the `listening on <addr>` address it printed.
fn spawn_listening(args: &[&str]) -> (Child, String) {
    let exe = env!("CARGO_BIN_EXE_randsync");
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("server prints its address").expect("stdout readable");
        if let Some(addr) = line.strip_prefix("randsync-svc listening on ") {
            break addr.trim().to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let exe = env!("CARGO_BIN_EXE_randsync");
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The tentpole acceptance path: a distributed job's spans — client
/// submit, coordinator `svc.job` + `explore.search`, and both workers'
/// `frontier_*` handlers — collected from four per-process JSONL sinks,
/// stitch into ONE causal tree under the client's root span.
#[test]
fn distributed_job_spans_stitch_across_three_server_processes() {
    let dir = std::env::temp_dir().join(format!("randsync-stitch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (w1_trace, w2_trace, coord_trace, client_trace) =
        (path("w1.jsonl"), path("w2.jsonl"), path("coord.jsonl"), path("client.jsonl"));

    let (mut w1, w1_addr) = spawn_listening(&["worker", "127.0.0.1:0", "--trace", &w1_trace]);
    let (mut w2, w2_addr) = spawn_listening(&["worker", "127.0.0.1:0", "--trace", &w2_trace]);
    let workers = format!("{w1_addr},{w2_addr}");
    let (mut coord, coord_addr) = spawn_listening(&[
        "serve",
        "127.0.0.1:0",
        "--workers-addrs",
        &workers,
        "--trace",
        &coord_trace,
    ]);

    let (stdout, stderr, ok) = run_cli(&[
        "submit",
        &coord_addr,
        "valency",
        "--trace",
        &client_trace,
        "protocol=cas",
    ]);
    assert!(ok, "distributed submit failed: {stderr}");
    // The sharded answer is the single-node answer, byte for byte.
    let params = obj(&[("protocol", Json::Str("cas".to_string()))]);
    let single = Job::parse("valency", &params)
        .expect("valid job")
        .execute(Instant::now() + Duration::from_secs(3600))
        .expect("job runs");
    assert_eq!(stdout.trim_end(), single.render(), "sharded valency diverged from single-node");

    // Drain-then-exit shutdown flushes each process's JSONL sink.
    for addr in [&coord_addr, &w1_addr, &w2_addr] {
        let (_, stderr, ok) = run_cli(&["shutdown", addr]);
        assert!(ok, "shutdown {addr} failed: {stderr}");
    }
    for child in [&mut coord, &mut w1, &mut w2] {
        assert!(child.wait().expect("child exits").success());
    }

    let (stdout, stderr, ok) =
        run_cli(&["trace-tree", &client_trace, &coord_trace, &w1_trace, &w2_trace]);
    assert!(ok, "trace-tree found orphans or no spans: {stderr}\n{stdout}");
    // One trace spanning all four processes, rooted at the client.
    assert_eq!(stdout.matches("trace ").count(), 1, "exactly one trace: {stdout}");
    assert!(stdout.contains("4 processes"), "{stdout}");
    assert!(stdout.contains("submit"), "{stdout}");
    assert!(stdout.contains("svc.job"), "{stdout}");
    assert!(stdout.contains("explore.search"), "{stdout}");
    assert!(stdout.contains("frontier_probe"), "{stdout}");
    // Both worker sinks contributed spans to the same tree.
    assert!(stdout.contains("w1.jsonl") && stdout.contains("w2.jsonl"), "{stdout}");

    // Withholding a worker's file orphans its sibling spans' ancestry
    // only if that worker produced spans under a parent we dropped —
    // dropping the COORDINATOR's file must orphan the workers' spans
    // and fail the command.
    let (_, stderr, ok) = run_cli(&["trace-tree", &client_trace, &w1_trace, &w2_trace]);
    assert!(!ok, "missing coordinator file must be detected");
    assert!(stderr.contains("orphan"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Progress frames are routed per-connection: two clients running
/// streaming jobs concurrently each see only frames carrying their own
/// request id — never a frame from the other connection's job.
#[test]
fn concurrent_connections_never_cross_route_progress() {
    let (addr, server) = start_server(ServerConfig { workers: 4, ..ServerConfig::default() });

    let run_one = move |tag: i128| {
        let mut client = Client::connect(addr).expect("connect");
        // Caller-chosen ids make cross-routing unambiguous: a frame
        // for the other connection's job would carry the other tag.
        let id = Json::Int(tag);
        let params = obj(&[("protocol", Json::Str("naive".to_string()))]);
        client.send_with_id(&id, "explore", &params).expect("send");
        let mut frames = Vec::new();
        loop {
            let frame = client.next_frame().expect("frame");
            let done = matches!(
                frame.get("status").and_then(Json::as_str),
                Some("ok") | Some("error")
            );
            frames.push(frame);
            if done {
                break;
            }
        }
        (tag, frames)
    };
    let a = thread::spawn(move || run_one(101));
    let b = thread::spawn(move || run_one(202));
    for handle in [a, b] {
        let (tag, frames) = handle.join().expect("client thread");
        assert!(
            frames.iter().any(|f| f.get("stage").and_then(Json::as_str)
                == Some("explore.level")),
            "streaming job produced no routed progress"
        );
        for frame in &frames {
            assert_eq!(
                frame.get("id"),
                Some(&Json::Int(tag)),
                "connection saw a frame that is not its own: {}",
                frame.render()
            );
        }
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// A client that vanishes mid-stream must not poison the server: its
/// job's progress frames are dropped on the floor and later clients on
/// fresh connections are served normally.
#[test]
fn disconnected_clients_frames_are_dropped_without_poisoning() {
    let (addr, server) = start_server(ServerConfig { workers: 2, ..ServerConfig::default() });

    {
        let mut doomed = Client::connect(addr).expect("connect");
        // A streaming job long enough to outlive the connection.
        let params = obj(&[
            ("interval_millis", Json::Int(50)),
            ("ticks", Json::Int(20)),
        ]);
        doomed.send("watch", &params).expect("send");
        // Drop without reading a single frame: the outbox fills, the
        // connection dies, the worker keeps emitting to a gone conn.
    }

    // The watch job above is still running on a worker. A new client
    // must get fast, correct service meanwhile and afterwards.
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        let reply = client
            .request("valency", &obj(&[("protocol", Json::Str("cas".to_string()))]))
            .expect("request");
        assert!(reply.ok, "server poisoned after client disconnect: {}", reply.body.render());
    }
    // Outlive the orphaned watch job, then prove the loop still serves.
    thread::sleep(Duration::from_millis(1200));
    let reply = client.request("protocols", &Json::Null).expect("request");
    assert!(reply.ok);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// The `watch` job streams per-tick metrics deltas as `svc.watch`
/// progress frames: each carries a tick number and a `delta` field
/// that decodes as a metrics snapshot.
#[test]
fn watch_job_streams_decodable_metrics_deltas() {
    let (addr, server) = start_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(addr).expect("connect");
    // Background traffic so deltas have something to show.
    let mut load = Client::connect(addr).expect("connect");
    let load_thread = thread::spawn(move || {
        for _ in 0..20 {
            let _ = load.request("protocols", &Json::Null);
        }
    });

    let params = obj(&[("interval_millis", Json::Int(40)), ("ticks", Json::Int(3))]);
    let id = client.send("watch", &params).expect("send");
    let reply = client.wait(&id, |_| {}).expect("reply");
    assert!(reply.ok, "{}", reply.body.render());
    assert_eq!(reply.body.get("ticks").and_then(Json::as_u64), Some(3));

    let watch_frames: Vec<&Json> = reply
        .progress
        .iter()
        .filter(|f| f.get("stage").and_then(Json::as_str) == Some("svc.watch"))
        .collect();
    assert_eq!(watch_frames.len(), 3, "one frame per tick");
    for (i, frame) in watch_frames.iter().enumerate() {
        assert_eq!(frame.get("tick").and_then(Json::as_u64), Some(i as u64));
        let delta_text = frame.get("delta").and_then(Json::as_str).expect("delta field");
        let delta_json = randsync::obs::parse_json(delta_text).expect("delta parses");
        let snap = randsync::obs::Snapshot::from_json(&delta_json).expect("delta decodes");
        assert!(!snap.is_empty(), "delta carries the server's metrics");
    }

    load_thread.join().expect("load thread");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// The soak monitor passes a healthy server under the default catalog
/// and fails the same server when the p99 ceiling is artificially
/// lowered — the two verdicts CI gates on.
#[test]
fn soak_passes_at_defaults_and_fails_with_lowered_p99_ceiling() {
    let (addr, server) = start_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let config = SoakConfig {
        duration: Duration::from_millis(900),
        inflight: 8,
        sample_interval: Duration::from_millis(100),
    };

    let report = run_soak(&addr.to_string(), &config, &ThresholdCatalog::baked())
        .expect("soak runs");
    assert!(report.passed(), "healthy server failed the soak: {}", report.render());
    assert!(report.jobs_ok > 0);
    assert!(report.samples.len() >= 3, "sampler produced a timeline");

    let mut tight = ThresholdCatalog::baked();
    tight.default_p99_ceiling_us = 1;
    tight.p99_ceiling_us.clear();
    let report = run_soak(&addr.to_string(), &config, &tight).expect("soak runs");
    assert!(!report.passed(), "1us ceiling must breach");
    assert!(report.violations.iter().any(|v| v.kind == "p99"), "{}", report.render());

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}
