//! Distributed-equivalence integration tests: a coordinator server
//! whose `valency`/`explore` jobs run their frontier dedup against N
//! worker servers over loopback TCP must answer **byte-identically**
//! to a single-node run of the same job, for every N. The workers are
//! real [`Server`] instances — the `frontier_*` shard frames travel
//! the same JSONL wire protocol production uses.
//!
//! The metrics registry is process-global, so every metric assertion
//! is a before/after *delta*, never an absolute value.

use std::thread;
use std::time::{Duration, Instant};

use randsync::obs::Json;
use randsync::svc::job::Job;
use randsync::svc::{Client, Server, ServerConfig};

/// Start an in-process server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// What a single node must answer for `(kind, params)`: the direct
/// library call through the same job code, rendered. The direct call
/// runs with no frontier transport configured, so any divergence in
/// the distributed path shows up as a byte difference.
fn direct(kind: &str, params: &Json) -> Json {
    let deadline = Instant::now() + Duration::from_secs(3600);
    Job::parse(kind, params).expect("valid job").execute(deadline).expect("job runs")
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

/// Render a result with the storage-tier `footprint` object removed.
/// Its figures truthfully report *local* residency, and in
/// shared-frontier mode the seen-set lives on the workers — the same
/// convention the spill tier already follows. Every verdict, count,
/// witness, and total must still match byte for byte.
fn normalized(result: &Json) -> String {
    match result {
        Json::Obj(fields) => Json::Obj(
            fields.iter().filter(|(k, _)| k != "footprint").cloned().collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// The deterministic job mix every ensemble size must agree on:
/// valency envelopes and full explorations, raw, canonical and
/// partial-order reduced, sequential and multi-threaded expansion.
/// `phase` under reduction falls back on the cycle proviso (64 times
/// at its defaults), so its levels probe the shards twice before an
/// insert.
fn job_mix() -> Vec<(&'static str, Json)> {
    vec![
        ("valency", por_valency()),
        ("valency", obj(&[("protocol", Json::Str("phase".to_string())), ("por", Json::Bool(true))])),
        ("valency", obj(&[("protocol", Json::Str("cas".to_string()))])),
        (
            "valency",
            obj(&[
                ("protocol", Json::Str("swap2".to_string())),
                ("canonical", Json::Bool(true)),
            ]),
        ),
        ("explore", obj(&[("protocol", Json::Str("naive".to_string()))])),
        (
            "explore",
            obj(&[
                ("protocol", Json::Str("naive".to_string())),
                ("threads", Json::Int(2)),
            ]),
        ),
    ]
}

/// The reduced valency job of the mix: POR dedups through the shards
/// like every other search.
fn por_valency() -> Json {
    obj(&[("protocol", Json::Str("localcoin".to_string())), ("por", Json::Bool(true))])
}

/// Read one counter out of a `metrics` control-frame snapshot.
fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot.get(name).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn distributed_frontier_matches_single_node_bit_for_bit() {
    for n_workers in [1usize, 2, 3] {
        // N shard servers, then a coordinator pointed at them.
        let mut workers = Vec::new();
        let mut worker_addrs = Vec::new();
        for _ in 0..n_workers {
            let (addr, handle) = start_server(ServerConfig::default());
            worker_addrs.push(addr.to_string());
            workers.push((addr, handle));
        }
        let (coord_addr, coord) = start_server(ServerConfig {
            frontier_workers: worker_addrs,
            ..ServerConfig::default()
        });

        let mut client = Client::connect(coord_addr).expect("connect coordinator");
        let before = client.metrics().expect("metrics");
        for (kind, params) in job_mix() {
            let expected = direct(kind, &params);
            let job_before = client.metrics().expect("metrics");
            let reply = client.request(kind, &params).expect("request");
            assert!(reply.ok, "{kind} on {n_workers} workers failed: {}", reply.body.render());
            assert_eq!(
                normalized(&reply.body),
                normalized(&expected),
                "{kind} over {n_workers} workers diverged from single-node"
            );
            if params == por_valency() {
                let job_after = client.metrics().expect("metrics");
                let probes = counter(&job_after, "svc.frontier.probes")
                    - counter(&job_before, "svc.frontier.probes");
                assert!(probes > 0, "the POR job must probe the shards itself (saw {probes})");
            }
        }
        let after = client.metrics().expect("metrics");

        // The equivalence must not be vacuous: the dedup genuinely ran
        // over the wire. Every BFS level sends the owning shards probe
        // and commit batches (`svc.frontier.sessions` is a gauge of
        // *currently open* sessions, so it is back to zero here).
        let probes =
            counter(&after, "svc.frontier.probes") - counter(&before, "svc.frontier.probes");
        let commits =
            counter(&after, "svc.frontier.commits") - counter(&before, "svc.frontier.commits");
        assert!(
            probes >= job_mix().len() as u64,
            "every job must probe the shards at least once (saw {probes})"
        );
        assert!(commits > 0, "interned keys must travel to the shards (saw {commits})");

        client.shutdown().expect("shutdown coordinator");
        coord.join().expect("coordinator drains");
        for (addr, handle) in workers {
            Client::connect(addr).expect("connect worker").shutdown().expect("shutdown worker");
            handle.join().expect("worker drains");
        }
    }
}

#[test]
fn capped_and_resumed_searches_through_the_shards_match_single_node() {
    let naive = |limit: (&str, Json)| obj(&[("protocol", Json::Str("naive".to_string())), limit]);
    let configs = |result: &Json| result.get("configs").and_then(Json::as_u64).expect("configs");
    // A cap strictly between two levels' cumulative counts falls inside
    // a level, so the shards store a strict subset of its misses.
    let (lo, hi) = (
        configs(&direct("explore", &naive(("max_depth", Json::Int(3))))),
        configs(&direct("explore", &naive(("max_depth", Json::Int(4))))),
    );
    assert!(hi > lo + 1, "level 4 interns several configurations");
    let capped = naive(("max_configs", Json::Int(i128::from((lo + hi) / 2))));
    let capped_want = direct("explore", &capped);
    let reason = capped_want.get("truncation_reason").and_then(Json::as_str);
    assert_eq!(reason, Some("config-cap"), "{}", capped_want.render());

    for n_workers in [1usize, 2] {
        let workers: Vec<_> =
            (0..n_workers).map(|_| start_server(ServerConfig::default())).collect();
        let (coord_addr, coord) = start_server(ServerConfig {
            frontier_workers: workers.iter().map(|(addr, _)| addr.to_string()).collect(),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(coord_addr).expect("connect coordinator");

        let reply = client.request("explore", &capped).expect("request");
        assert!(reply.ok, "capped explore on {n_workers} workers failed: {}", reply.body.render());
        assert_eq!(
            normalized(&reply.body),
            normalized(&capped_want),
            "capped explore over {n_workers} workers diverged from single-node"
        );

        // A depth-capped search through the shards leaves a checkpoint;
        // resuming it rebuilds the shards' seen-set, probing each level
        // before inserting it.
        let cut = client.request("explore", &naive(("max_depth", Json::Int(3)))).expect("request");
        assert!(cut.ok, "{}", cut.body.render());
        let id = cut.body.get("checkpoint").and_then(Json::as_str).expect("a checkpoint id");
        let resume = obj(&[("checkpoint", Json::Str(id.to_string()))]);
        let reply = client.request("resume", &resume).expect("request");
        assert!(reply.ok, "resume on {n_workers} workers failed: {}", reply.body.render());
        assert_eq!(
            normalized(&reply.body),
            normalized(&direct("resume", &resume)),
            "resume over {n_workers} workers diverged from single-node"
        );
        assert_eq!(reply.body.get("truncated"), Some(&Json::Bool(false)));

        client.shutdown().expect("shutdown coordinator");
        coord.join().expect("coordinator drains");
        for (addr, handle) in workers {
            Client::connect(addr).expect("connect worker").shutdown().expect("shutdown worker");
            handle.join().expect("worker drains");
        }
    }
}

#[test]
fn distributed_valency_is_cached_like_local_valency() {
    // ExecContext is deliberately not part of the results-cache key:
    // the transport changes where the seen-set lives, never the
    // answer. Two identical requests hit the cache even though each
    // miss would open fresh shard sessions.
    let (worker_addr, worker) = start_server(ServerConfig::default());
    let (coord_addr, coord) = start_server(ServerConfig {
        frontier_workers: vec![worker_addr.to_string()],
        ..ServerConfig::default()
    });
    let mut client = Client::connect(coord_addr).expect("connect");
    let params = obj(&[("protocol", Json::Str("cas".to_string()))]);

    let before = client.metrics().expect("metrics");
    let first = client.request("valency", &params).expect("request");
    assert!(first.ok, "{}", first.body.render());
    let second = client.request("valency", &params).expect("request");
    let after = client.metrics().expect("metrics");

    assert_eq!(first.body.render(), second.body.render());
    let hits = counter(&after, "svc.cache.hits") - counter(&before, "svc.cache.hits");
    assert!(hits >= 1, "the repeat must be served from the cache (saw {hits} hits)");

    client.shutdown().expect("shutdown coordinator");
    coord.join().expect("coordinator drains");
    Client::connect(worker_addr).expect("connect worker").shutdown().expect("shutdown");
    worker.join().expect("worker drains");
}

#[test]
fn unreachable_frontier_workers_fail_the_job_cleanly() {
    // An address that refuses connections: bind, snapshot, drop.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let (addr, server) = start_server(ServerConfig {
        frontier_workers: vec![dead],
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // Transport-backed jobs fail with a diagnostic, not a hang or a
    // silent fall-back to a local answer.
    let reply = client
        .request("valency", &obj(&[("protocol", Json::Str("cas".to_string()))]))
        .expect("request");
    assert!(!reply.ok, "a dead shard must fail the job");
    assert_eq!(reply.error_code(), Some("job_failed"));
    let msg = reply.body.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("frontier"), "diagnostic names the frontier: {msg}");

    // Jobs that never touch the frontier seam are unaffected.
    let mc = client
        .request(
            "monte_carlo",
            &obj(&[
                ("protocol", Json::Str("cas".to_string())),
                ("trials", Json::Int(20)),
                ("seed", Json::Int(3)),
                ("max_steps", Json::Int(1000)),
            ]),
        )
        .expect("request");
    assert!(mc.ok, "{}", mc.body.render());

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}
