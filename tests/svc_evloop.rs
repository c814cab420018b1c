//! Event-loop integration tests: connection scalability without
//! thread-per-connection, the `max_conns` admission cap, and partial
//! frame reassembly over raw sockets. These pin the properties the
//! readiness-loop refactor exists for — a blocking-I/O server passes
//! none of them.
//!
//! The metrics registry is process-global, so metric assertions are
//! before/after *deltas*, never absolutes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use randsync::obs::Json;
use randsync::svc::{Client, Server, ServerConfig};

/// Start an in-process server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Threads in this process, from `/proc/self/status` (linux only).
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn hundreds_of_connections_share_a_handful_of_threads() {
    // Two worker threads, far more live connections: a
    // thread-per-connection server would need 300 threads (or refuse
    // service); the readiness loop multiplexes them all.
    const CONNS: usize = 300;
    let (addr, server) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let mut clients = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        clients.push(Client::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")));
    }
    // Every connection is open simultaneously and every one of them
    // gets served (control frames answer inline on the loop).
    for (i, client) in clients.iter_mut().enumerate() {
        let snapshot = client.metrics().unwrap_or_else(|e| panic!("metrics on #{i}: {e}"));
        assert!(snapshot.get("svc.connections").is_some(), "conn #{i} got a real snapshot");
    }

    // The whole test process — harness, server loop, 2 workers, and
    // all 300 held connections — stays far below one-thread-per-conn.
    #[cfg(target_os = "linux")]
    {
        let threads = process_threads();
        assert!(
            threads < CONNS / 4,
            "{CONNS} open connections must not cost {threads} threads"
        );
    }

    // The loop also survives all of them disconnecting at once.
    drop(clients);
    let mut last = Client::connect(addr).expect("connect after mass close");
    last.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn connections_over_the_cap_get_an_immediate_overloaded_frame() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        max_conns: 3,
        ..ServerConfig::default()
    });

    // Fill the cap, with a round trip on each so the server has
    // registered all three before the over-cap connection arrives.
    let mut in_cap = Vec::new();
    for _ in 0..3 {
        let mut c = Client::connect(addr).expect("connect");
        c.metrics().expect("metrics");
        in_cap.push(c);
    }
    let before = in_cap[0].metrics().expect("metrics");

    // The fourth connection is accepted just long enough to be told
    // why it cannot stay: an `overloaded` error frame, then EOF — not
    // a silent hang in some accept backlog.
    let mut rejected = Client::connect(addr).expect("tcp connect succeeds");
    let frame = rejected.next_frame().expect("rejection frame");
    assert_eq!(frame.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        frame.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("overloaded")
    );
    let eof = rejected.next_frame();
    assert!(eof.is_err(), "the server must close the over-cap connection");

    let after = in_cap[0].metrics().expect("metrics");
    let bounced = after.get("svc.conns.rejected").and_then(Json::as_u64).unwrap_or(0)
        - before.get("svc.conns.rejected").and_then(Json::as_u64).unwrap_or(0);
    assert!(bounced >= 1, "the rejection is observable (saw {bounced})");

    // Capacity is reclaimed: once one in-cap connection leaves, a new
    // one gets in (the loop notices the close on its next wakeup).
    drop(in_cap.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut reclaimed = loop {
        let mut c = Client::connect(addr).expect("connect");
        if c.metrics().is_ok() {
            break c;
        }
        assert!(Instant::now() < deadline, "freed capacity was never reclaimed");
        thread::sleep(Duration::from_millis(20));
    };

    // Shut down through the already-admitted connection — a fresh one
    // could race the loop reaping the two just-dropped sockets and be
    // bounced over-cap itself.
    drop(in_cap);
    reclaimed.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn partial_and_batched_frames_are_reassembled() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // One request dribbled in byte-sized writes: the loop must buffer
    // the partial line across poll wakeups and fire only on newline.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let request = b"{\"id\": 7, \"job\": \"metrics\", \"params\": null}\n";
    let (head, tail) = request.split_at(request.len() / 2);
    stream.write_all(head).expect("first half");
    stream.flush().expect("flush");
    thread::sleep(Duration::from_millis(100)); // let the loop see a frameless read
    for b in tail {
        stream.write_all(&[*b]).expect("dribble");
    }
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    let reply = randsync::obs::parse_json(line.trim()).expect("reply parses");
    assert_eq!(reply.get("id"), Some(&Json::Int(7)));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    // Two requests in a single write: both must be answered, in order.
    let batch = b"{\"id\": 8, \"job\": \"metrics\", \"params\": null}\n{\"id\": 9, \"job\": \"metrics\", \"params\": null}\n";
    stream.write_all(batch).expect("batched write");
    stream.flush().expect("flush");
    for expect_id in [8i128, 9] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let reply = randsync::obs::parse_json(line.trim()).expect("reply parses");
        assert_eq!(reply.get("id"), Some(&Json::Int(expect_id)));
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    }

    // A peer that half-closes after sending still gets its answer:
    // EOF with a pending reply must flush, not drop the connection.
    let mut half = TcpStream::connect(addr).expect("connect");
    half.write_all(b"{\"id\": 10, \"job\": \"metrics\", \"params\": null}\n").expect("write");
    half.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut buf = String::new();
    half.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    BufReader::new(&half).read_to_string(&mut buf).expect("drain to EOF");
    let reply = randsync::obs::parse_json(buf.trim()).expect("reply parses");
    assert_eq!(reply.get("id"), Some(&Json::Int(10)));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    drop(stream);
    let mut last = Client::connect(addr).expect("connect");
    last.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn a_frame_that_is_not_utf8_is_refused_and_the_connection_serves_on() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // A bad byte in the id, one inside a packed `hashes` field, then a
    // good frame on the same connection.
    stream
        .write_all(
            b"{\"id\":\"\xff\",\"job\":\"metrics\"}\n\
              {\"id\":2,\"job\":\"frontier_probe\",\"params\":{\"session\":1,\
              \"hashes\":\"0200\xff00000000000000\",\"words\":\"01000000\"}}\n\
              {\"id\":3,\"job\":\"metrics\"}\n",
        )
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for what in ["the id", "the hashes field"] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let reply = randsync::obs::parse_json(line.trim()).expect("reply parses");
        assert_eq!(reply.get("id"), Some(&Json::Null), "a bad byte in {what}: {line}");
        let error = reply.get("error").expect("an error frame");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_request"), "{what}");
        let message = error.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(message.contains("not UTF-8"), "a bad byte in {what}: {message}");
    }
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    let reply = randsync::obs::parse_json(line.trim()).expect("reply parses");
    assert_eq!(reply.get("id"), Some(&Json::Int(3)));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    drop(stream);
    let mut last = Client::connect(addr).expect("connect");
    last.shutdown().expect("shutdown");
    server.join().expect("server drains");
}
