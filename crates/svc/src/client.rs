//! A minimal blocking client for the job server, used by the CLI's
//! `submit`/`shutdown` subcommands and the loopback integration tests.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use randsync_obs::Json;

use crate::poll::{self, fd_of, PollEntry};
use crate::wire::Request;

/// A completed request: the final `ok`/`error` frame plus any
/// `progress` frames that preceded it.
#[derive(Clone, PartialEq, Debug)]
pub struct Reply {
    /// Whether the final frame's status was `ok`.
    pub ok: bool,
    /// `result` on success, the `error` object (`code`, `message`) on
    /// failure.
    pub body: Json,
    /// The `progress` frames seen for this request, in order.
    pub progress: Vec<Json>,
}

impl Reply {
    /// The error code, when this reply is an error.
    pub fn error_code(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            self.body.get("code").and_then(Json::as_str)
        }
    }
}

/// One connection to a job server. Requests are correlated by `id`, so
/// several may be pipelined before reading replies, and waited on in
/// any order.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i128,
    /// Frames [`Client::wait`] read for other requests, in arrival
    /// order; [`Client::next_frame`] and later waits drain them first.
    pending: VecDeque<Json>,
}

impl Client {
    /// The default idle deadline: generous, so a wedged server
    /// surfaces as an error rather than a hang, while long jobs that
    /// stream progress frames stay alive indefinitely.
    pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

    /// Connect to a server with the default idle deadline
    /// ([`Client::DEFAULT_IDLE_TIMEOUT`]).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Some(Client::DEFAULT_IDLE_TIMEOUT))
    }

    /// Connect with an explicit idle deadline: the longest silence
    /// tolerated between frames (`None` = wait forever). It is an
    /// *idle* deadline, not a total one — every frame the server sends
    /// (including `queued`/`started`/`explore.level` progress) resets
    /// it, so a slow job survives as long as it keeps reporting.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        idle: Option<Duration>,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(idle)?;
        // Frames are small and latency-bound (frontier probe/insert
        // round trips especially); never trade latency for batching.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { writer, reader: BufReader::new(stream), next_id: 0, pending: VecDeque::new() })
    }

    /// Send one request frame without waiting for its reply; returns
    /// the auto-assigned id to correlate the response with.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, job: &str, params: &Json) -> std::io::Result<Json> {
        self.next_id += 1;
        let id = Json::Int(self.next_id);
        self.send_with_id(&id, job, params)?;
        Ok(id)
    }

    /// Send one request frame with a caller-chosen id. If the calling
    /// thread has a current [`randsync_obs::TraceContext`] (an open
    /// span or an installed root), it rides along on the frame so the
    /// server's spans join the caller's causal tree.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_with_id(&mut self, id: &Json, job: &str, params: &Json) -> std::io::Result<()> {
        let trace = randsync_obs::current_context().map(|ctx| (ctx.trace_id, ctx.span_id));
        let mut line = Request::render_traced(id, job, params, trace);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Read the next frame from the server, whatever request it
    /// belongs to: first any frames an earlier [`Client::wait`] set
    /// aside, then the socket.
    ///
    /// # Errors
    ///
    /// I/O failure, closed connection, or an unparseable frame.
    pub fn next_frame(&mut self) -> std::io::Result<Json> {
        match self.pending.pop_front() {
            Some(frame) => Ok(frame),
            None => self.read_frame(),
        }
    }

    /// Whether input is already waiting: a frame an earlier
    /// [`Client::wait`] set aside, buffered bytes, or bytes on the
    /// socket. A read that starts when this is false blocks until the
    /// server answers.
    pub(crate) fn has_input(&self) -> bool {
        if !self.pending.is_empty() || !self.reader.buffer().is_empty() {
            return true;
        }
        let mut entry = [PollEntry::new(fd_of(self.reader.get_ref()), true, false)];
        poll::wait(&mut entry, Duration::ZERO).is_ok() && entry[0].readable
    }

    /// Read the next frame off the socket.
    fn read_frame(&mut self) -> std::io::Result<Json> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return randsync_obs::parse_json(line.trim()).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unparseable frame from server: {e}"),
                )
            });
        }
    }

    /// Read frames until the final `ok`/`error` frame for `id`,
    /// invoking `on_progress` for each `progress` frame on the way.
    /// Frames for other (pipelined) request ids are kept, in order, for
    /// later [`Client::wait`] or [`Client::next_frame`] calls.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::next_frame`] failures.
    pub fn wait(
        &mut self,
        id: &Json,
        mut on_progress: impl FnMut(&Json),
    ) -> std::io::Result<Reply> {
        let mut progress = Vec::new();
        let mut buffered = std::mem::take(&mut self.pending).into_iter();
        let reply = loop {
            let mut frame = match buffered.next() {
                Some(frame) => frame,
                None => match self.read_frame() {
                    Ok(frame) => frame,
                    Err(e) => break Err(e),
                },
            };
            if frame.get("id") != Some(id) {
                self.pending.push_back(frame);
                continue;
            }
            match frame.get("status").and_then(Json::as_str) {
                Some("progress") => {
                    on_progress(&frame);
                    progress.push(frame);
                }
                Some("ok") => {
                    let body = frame.remove("result").unwrap_or(Json::Null);
                    break Ok(Reply { ok: true, body, progress });
                }
                Some("error") => {
                    let body = frame.remove("error").unwrap_or(Json::Null);
                    break Ok(Reply { ok: false, body, progress });
                }
                _ => {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("frame without a known status: {}", frame.render()),
                    ));
                }
            }
        };
        // Frames behind the one that ended the wait keep their place.
        self.pending.extend(buffered);
        reply
    }

    /// Send one request and block for its reply.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::wait`] failures.
    pub fn request(&mut self, job: &str, params: &Json) -> std::io::Result<Reply> {
        let id = self.send(job, params)?;
        self.wait(&id, |_| {})
    }

    /// Fetch the server's metrics snapshot (the `metrics` control
    /// frame).
    ///
    /// # Errors
    ///
    /// I/O failure, or the server answered with an error frame.
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        let reply = self.request("metrics", &Json::Null)?;
        if !reply.ok {
            return Err(std::io::Error::other(format!(
                "metrics request failed: {}",
                reply.body.render()
            )));
        }
        Ok(reply.body.get("metrics").cloned().unwrap_or(Json::Null))
    }

    /// Ask the server to drain and exit (the `shutdown` control
    /// frame); returns the number of jobs still queued at that moment.
    ///
    /// # Errors
    ///
    /// I/O failure, or the server answered with an error frame.
    pub fn shutdown(&mut self) -> std::io::Result<u64> {
        let reply = self.request("shutdown", &Json::Null)?;
        if !reply.ok {
            return Err(std::io::Error::other(format!(
                "shutdown request failed: {}",
                reply.body.render()
            )));
        }
        Ok(reply.body.get("draining").and_then(Json::as_u64).unwrap_or(0))
    }
}
