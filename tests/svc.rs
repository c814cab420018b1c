//! Loopback integration tests for the verification job server: an
//! in-process [`Server`] on an ephemeral port, real TCP clients, and
//! the full job mix. Results over the wire are checked bit-identical
//! to direct library calls; backpressure, cache hits, and the
//! drain-then-exit shutdown are exercised deterministically.
//!
//! The metrics registry is process-global and these tests run in
//! parallel, so every metric assertion is a before/after *delta* on
//! one server's workload, never an absolute value.

use std::thread;
use std::time::{Duration, Instant};

use randsync::consensus::registry;
use randsync::model::runtime::Runtime;
use randsync::objects::bridge;
use randsync::obs::{ExecutionTrace, Json, TRACE_SCHEMA_VERSION};
use randsync::svc::job::Job;
use randsync::svc::{Client, Server, ServerConfig};

/// Start an in-process server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// A deadline far enough away that direct executions never hit it.
fn far() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// What the server must answer for `(kind, params)`: the direct
/// library call through the same job code, rendered.
fn direct(kind: &str, params: &Json) -> String {
    Job::parse(kind, params).expect("valid job").execute(far()).expect("job runs").render()
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

/// A recorded runtime execution of `cas`, as the JSONL payload a
/// `replay` job carries.
fn recorded_cas_trace() -> String {
    let entry = registry::find("cas").expect("cas registered");
    let protocol = entry.build_default();
    let inputs = entry.default_inputs.to_vec();
    let objects = bridge::instantiate_all(&protocol).expect("bridges");
    let (report, execution) = Runtime::new(7).run_traced(&protocol, &inputs, &objects);
    ExecutionTrace {
        schema_version: TRACE_SCHEMA_VERSION,
        protocol: entry.name.to_string(),
        n: entry.default_n,
        r: entry.default_r,
        seed: 7,
        interpreter: "runtime".to_string(),
        inputs,
        steps: execution.steps().iter().map(|s| (s.pid.index() as u32, s.coin)).collect(),
        decisions: report.decisions.clone(),
    }
    .to_jsonl()
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let (addr, server) = start_server(ServerConfig {
        workers: 4,
        queue: 32,
        ..ServerConfig::default()
    });

    // Deterministic jobs: the wire answer must equal the direct
    // library call byte for byte.
    let deterministic: Vec<(&str, Json)> = vec![
        ("valency", obj(&[("protocol", Json::Str("cas".to_string()))])),
        (
            "valency",
            obj(&[
                ("protocol", Json::Str("swap2".to_string())),
                ("canonical", Json::Bool(true)),
            ]),
        ),
        (
            "monte_carlo",
            obj(&[
                ("protocol", Json::Str("cas".to_string())),
                ("trials", Json::Int(60)),
                ("seed", Json::Int(3)),
                ("max_steps", Json::Int(1000)),
            ]),
        ),
        (
            "monte_carlo",
            obj(&[
                ("protocol", Json::Str("tas2".to_string())),
                ("trials", Json::Int(40)),
                ("max_steps", Json::Int(1000)),
            ]),
        ),
        ("protocols", Json::Null),
        ("verify_witness", obj(&[("protocol", Json::Str("naive".to_string()))])),
        ("verify_witness", obj(&[("protocol", Json::Str("tasrace".to_string()))])),
        ("replay", obj(&[("trace", Json::Str(recorded_cas_trace()))])),
    ];

    let mut handles = Vec::new();
    for (kind, params) in deterministic {
        let expected = direct(kind, &params);
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let reply = client.request(kind, &params).expect("request");
            assert!(reply.ok, "{kind} failed: {}", reply.body.render());
            assert_eq!(reply.body.render(), expected, "{kind} diverged from the library");
        }));
    }
    // A `run` job executes on live OS threads, so only its verdict is
    // deterministic — ninth concurrent client, structural asserts.
    handles.push(thread::spawn(move || {
        let params = obj(&[("protocol", Json::Str("walk-counter".to_string()))]);
        let mut client = Client::connect(addr).expect("connect");
        let reply = client.request("run", &params).expect("request");
        assert!(reply.ok, "run failed: {}", reply.body.render());
        for key in ["all_decided", "consistent", "valid"] {
            assert_eq!(reply.body.get(key), Some(&Json::Bool(true)), "{key}");
        }
    }));
    assert!(handles.len() >= 8, "the mix must keep at least 8 clients in flight");
    for handle in handles {
        handle.join().expect("client thread");
    }

    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    server.join().expect("server drains");
}

/// Pull frames for `id` until `stage` shows up (progress frames only).
fn await_stage(client: &mut Client, id: &Json, stage: &str) {
    loop {
        let frame = client.next_frame().expect("frame");
        if frame.get("id") == Some(id)
            && frame.get("stage").and_then(Json::as_str) == Some(stage)
        {
            return;
        }
    }
}

#[test]
fn full_queue_rejects_with_overloaded_instead_of_hanging() {
    // One worker, one queue slot: occupy the worker, fill the slot,
    // and the third job must bounce immediately.
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let long = obj(&[("millis", Json::Int(600))]);
    let id1 = client.send("sleep", &long).expect("send");
    await_stage(&mut client, &id1, "started"); // worker is now busy
    let id2 = client.send("sleep", &obj(&[("millis", Json::Int(10))])).expect("send");
    await_stage(&mut client, &id2, "queued"); // the one slot is now full

    let reply3 = client.request("sleep", &obj(&[("millis", Json::Int(10))])).expect("request");
    assert!(!reply3.ok, "third job must be rejected");
    assert_eq!(reply3.error_code(), Some("overloaded"));

    // The rejected job cost nothing: the first two still complete.
    let reply1 = client.wait(&id1, |_| {}).expect("wait");
    let reply2 = client.wait(&id2, |_| {}).expect("wait");
    assert!(reply1.ok && reply2.ok);

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn pipelined_replies_can_be_awaited_in_reverse_order() {
    // One worker runs the jobs back to back, so the first job's final
    // frame arrives before the second's. Waiting on the second first
    // must keep the first's reply for the later wait; the read timeout
    // turns a lost frame into a failure instead of a hang.
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut client =
        Client::connect_with_timeout(addr, Some(Duration::from_secs(5))).expect("connect");
    let id1 = client.send("sleep", &obj(&[("millis", Json::Int(20))])).expect("send");
    let id2 = client.send("sleep", &obj(&[("millis", Json::Int(20))])).expect("send");
    let reply2 = client.wait(&id2, |_| {}).expect("second reply");
    let reply1 = client.wait(&id1, |_| {}).expect("first reply, read before the second's");
    assert!(reply1.ok && reply2.ok);

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn shutdown_drains_in_flight_and_queued_jobs() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut worker_conn = Client::connect(addr).expect("connect");
    let id1 = worker_conn.send("sleep", &obj(&[("millis", Json::Int(300))])).expect("send");
    await_stage(&mut worker_conn, &id1, "started");
    let id2 = worker_conn.send("sleep", &obj(&[("millis", Json::Int(20))])).expect("send");
    await_stage(&mut worker_conn, &id2, "queued");

    // Shutdown from a second connection: one job running, one queued.
    let draining = Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    assert_eq!(draining, 1, "exactly the queued job is draining");

    // New work is refused while the drain runs...
    let rejected = worker_conn.request("sleep", &obj(&[("millis", Json::Int(5))])).expect("request");
    assert!(!rejected.ok);
    assert_eq!(rejected.error_code(), Some("shutting_down"));

    // ...but everything accepted earlier still completes.
    let reply1 = worker_conn.wait(&id1, |_| {}).expect("wait");
    let reply2 = worker_conn.wait(&id2, |_| {}).expect("wait");
    assert!(reply1.ok, "in-flight job finished: {}", reply1.body.render());
    assert!(reply2.ok, "queued job finished: {}", reply2.body.render());
    server.join().expect("server exits after the drain");
}

/// Read one counter out of a `metrics` control-frame snapshot.
fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot.get(name).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn truncated_explore_job_resumes_to_the_uninterrupted_outcome() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // The uninterrupted baseline, over the wire.
    let full = client
        .request("explore", &obj(&[("protocol", Json::Str("naive".to_string()))]))
        .expect("request");
    assert!(full.ok, "{}", full.body.render());
    assert_eq!(full.body.get("truncated"), Some(&Json::Bool(false)));
    assert_eq!(full.body.get("checkpoint"), Some(&Json::Null));

    // A depth-capped run truncates deterministically (no wall clock
    // involved), runs on the out-of-core tier, and must hand back a
    // committed checkpoint id.
    let cut = client
        .request(
            "explore",
            &obj(&[
                ("protocol", Json::Str("naive".to_string())),
                ("max_depth", Json::Int(2)),
                ("mem_budget", Json::Int(4096)),
            ]),
        )
        .expect("request");
    assert!(cut.ok, "{}", cut.body.render());
    assert_eq!(cut.body.get("truncated"), Some(&Json::Bool(true)));
    assert_eq!(cut.body.get("truncation_reason").and_then(Json::as_str), Some("depth-cap"));
    assert_eq!(
        cut.body.get("footprint").and_then(|f| f.get("spill_mode")),
        Some(&Json::Bool(true))
    );
    let ckpt =
        cut.body.get("checkpoint").and_then(Json::as_str).expect("checkpoint id").to_string();
    assert!(ckpt.starts_with("ckpt-"), "opaque store id, got {ckpt}");

    // Resuming that id must reach the uninterrupted outcome, bit for
    // bit on every deterministic field.
    let resumed = client
        .request("resume", &obj(&[("checkpoint", Json::Str(ckpt.clone()))]))
        .expect("request");
    assert!(resumed.ok, "{}", resumed.body.render());
    for key in
        ["configs", "raw_configs", "safe", "terminal_configs", "truncated", "arena_bytes"]
    {
        assert_eq!(resumed.body.get(key), full.body.get(key), "{key} diverged after resume");
    }
    assert_eq!(resumed.body.get("resumed_from").and_then(Json::as_str), Some(ckpt.as_str()));

    // Unknown checkpoint ids are a client error, not a crash.
    let bad = client
        .request("resume", &obj(&[("checkpoint", Json::Str("ckpt-999999".to_string()))]))
        .expect("request");
    assert!(!bad.ok, "unknown checkpoint must be rejected");

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn repeated_valency_requests_hit_the_results_cache() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let params = obj(&[
        ("protocol", Json::Str("fetchinc2".to_string())),
        ("canonical", Json::Bool(true)),
    ]);

    let before = client.metrics().expect("metrics");
    let first = client.request("valency", &params).expect("request");
    assert!(first.ok, "{}", first.body.render());
    let second = client.request("valency", &params).expect("request");
    let third = client.request("valency", &params).expect("request");
    let after = client.metrics().expect("metrics");

    // Identical canonical params ⇒ identical (cached) answers.
    assert_eq!(first.body.render(), second.body.render());
    assert_eq!(first.body.render(), third.body.render());
    // The registry is process-global and other tests run concurrently,
    // so assert the delta this workload guarantees, not an absolute.
    let hits = counter(&after, "svc.cache.hits") - counter(&before, "svc.cache.hits");
    assert!(hits >= 2, "two repeats must be served from the cache (saw {hits} hits)");

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}
