//! The framed JSONL wire protocol (DESIGN.md §13).
//!
//! Every frame is one JSON object on one line, in both directions,
//! encoded and decoded with [`randsync_obs::json`] — the same
//! hand-rolled parser the flight recorder uses, so the server adds no
//! second encoding. Requests carry an `id` the server echoes verbatim
//! on every frame it emits for that request, which is what makes
//! pipelining many requests over one connection safe. A line that is
//! not UTF-8 is answered with a `bad_request`, never rewritten.
//!
//! ```text
//! request   {"id": <any>, "job": "<kind>", "params": {...}, "trace": {"t": <u64>, "s": <u64>}}
//! ok        {"id": <any>, "status": "ok", "job": "<kind>", "result": {...}}
//! error     {"id": <any>, "status": "error", "error": {"code": "...", "message": "..."}}
//! progress  {"id": <any>, "status": "progress", "stage": "...", ...}
//! ```
//!
//! The optional `trace` field propagates the caller's
//! [`randsync_obs::TraceContext`] (trace id `t`, open span id `s`, as
//! decimal u64s) so spans opened while serving the request — on this
//! server and on any worker it fans out to — stitch into the caller's
//! causal tree (DESIGN.md §17). Requests without it trace locally.

use std::str::Utf8Error;

use randsync_obs::Json;

/// Wire schema version, reported by the `metrics` control frame and
/// mixed into every cache key; bump on incompatible change.
pub const WIRE_SCHEMA_VERSION: u32 = 3;

/// Machine-readable error codes carried in `error.code`.
pub mod code {
    /// The frame was not a valid request object.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The `job` field named no known job kind.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// The `protocol` parameter named no registry entry.
    pub const UNKNOWN_PROTOCOL: &str = "unknown_protocol";
    /// The bounded job queue was full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining and accepts no new jobs.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The job exceeded its wall-clock budget and was cancelled.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The job ran but failed (bridge error, replay divergence, ...).
    pub const JOB_FAILED: &str = "job_failed";
}

/// One parsed request frame.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Caller-chosen correlation id, echoed verbatim on every response
    /// and progress frame (`Null` when absent).
    pub id: Json,
    /// The job kind (or control frame name).
    pub job: String,
    /// The job parameters (`Null` when absent).
    pub params: Json,
    /// The caller's trace context `(trace_id, span_id)`, when the
    /// frame carried one.
    pub trace: Option<(u64, u64)>,
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message when the line is not JSON, not an
    /// object, or lacks a string `job` field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut v = randsync_obs::parse_json(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let Json::Obj(_) = v else {
            return Err("request must be a JSON object".to_string());
        };
        let trace = v.get("trace").and_then(|t| {
            Some((t.get("t").and_then(Json::as_u64)?, t.get("s").and_then(Json::as_u64)?))
        });
        // Move the fields out: `params` can carry megabytes of batch.
        let Some(Json::Str(job)) = v.remove("job") else {
            return Err("request missing string \"job\" field".to_string());
        };
        let id = v.remove("id").unwrap_or(Json::Null);
        let params = v.remove("params").unwrap_or(Json::Null);
        Ok(Request { id, job, params, trace })
    }

    /// Render a request frame (the client side of [`Request::parse`]).
    pub fn render(id: &Json, job: &str, params: &Json) -> String {
        Request::render_traced(id, job, params, None)
    }

    /// Render a request frame carrying the caller's trace context.
    /// The params are rendered in place, never copied into a wrapper
    /// object first.
    pub fn render_traced(
        id: &Json,
        job: &str,
        params: &Json,
        trace: Option<(u64, u64)>,
    ) -> String {
        let mut out = String::from("{\"id\":");
        id.render_into(&mut out);
        out.push_str(",\"job\":");
        randsync_obs::json::write_escaped(job, &mut out);
        out.push_str(",\"params\":");
        params.render_into(&mut out);
        if let Some((t, s)) = trace {
            out.push_str(&format!(",\"trace\":{{\"t\":{t},\"s\":{s}}}"));
        }
        out.push('}');
        out
    }
}

/// Render an `ok` response frame.
pub fn ok_frame(id: &Json, job: &str, result: Json) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("status".to_string(), Json::Str("ok".to_string())),
        ("job".to_string(), Json::Str(job.to_string())),
        ("result".to_string(), result),
    ])
    .render()
}

/// Render an `error` response frame.
pub fn error_frame(id: &Json, code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("status".to_string(), Json::Str("error".to_string())),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::Str(code.to_string())),
                ("message".to_string(), Json::Str(message.to_string())),
            ]),
        ),
    ])
    .render()
}

/// Upper bound on one frame's size on the wire. A peer that streams an
/// unterminated line past this is protocol-broken (or hostile); the
/// reader reports [`FrameOverflow`] instead of buffering unboundedly.
/// Generous because `replay`/`verify_witness` params carry whole flight
/// traces inline.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// A peer exceeded [`MAX_FRAME_BYTES`] on a single frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameOverflow {
    /// Bytes accumulated for the unterminated frame when the cap hit.
    pub buffered: usize,
}

impl std::fmt::Display for FrameOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes ({} buffered)", self.buffered)
    }
}

impl std::error::Error for FrameOverflow {}

/// Incremental newline-delimited frame accumulator for nonblocking
/// reads: feed whatever bytes the socket produced, get back every
/// frame completed so far, keep the partial tail buffered for the next
/// readiness event. This is the partial-frame half of the event-loop
/// server — a frame split across any number of TCP segments is
/// reassembled here, and a frame that never terminates is bounded by
/// [`MAX_FRAME_BYTES`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// How far `buf` is known to hold no `\n`: each byte is scanned
    /// once, however many reads a frame arrives in.
    scanned: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Bytes buffered for the (not yet complete) current frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Append raw bytes and split off every completed frame, in order.
    /// A frame that is not UTF-8 comes back as its [`Utf8Error`], never
    /// rewritten: the server answers it with a `bad_request` and goes
    /// on to the next frame.
    ///
    /// # Errors
    ///
    /// [`FrameOverflow`] once the unterminated tail (or a single frame
    /// within `data`) exceeds [`MAX_FRAME_BYTES`]; the connection
    /// should be dropped — the buffer is left cleared.
    pub fn push_bytes(
        &mut self,
        data: &[u8],
    ) -> Result<Vec<Result<String, Utf8Error>>, FrameOverflow> {
        self.buf.extend_from_slice(data);
        let mut frames = Vec::new();
        let mut start = 0usize;
        while let Some(nl) = randsync_obs::json::scan(&self.buf[self.scanned..], [b'\n'], 0) {
            let end = self.scanned + nl;
            self.scanned = end + 1;
            let line = &self.buf[start..end];
            if line.len() > MAX_FRAME_BYTES {
                return Err(self.overflow(line.len()));
            }
            frames.push(std::str::from_utf8(line).map(str::to_owned));
            start = self.scanned;
        }
        self.buf.drain(..start);
        self.scanned = self.buf.len();
        if self.buf.len() > MAX_FRAME_BYTES {
            return Err(self.overflow(self.buf.len()));
        }
        Ok(frames)
    }

    /// Reset after an overflow so the teardown path starts clean.
    fn overflow(&mut self, buffered: usize) -> FrameOverflow {
        self.buf.clear();
        self.scanned = 0;
        FrameOverflow { buffered }
    }
}

/// Render a `progress` frame: a stage name plus extra fields.
pub fn progress_frame(id: &Json, stage: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("id".to_string(), id.clone()),
        ("status".to_string(), Json::Str("progress".to_string())),
        ("stage".to_string(), Json::Str(stage.to_string())),
    ];
    for (k, v) in extra {
        fields.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `data`, expecting no overflow and only UTF-8 frames.
    fn push(fb: &mut FrameBuffer, data: &[u8]) -> Vec<String> {
        let frames = fb.push_bytes(data).expect("no overflow");
        frames.into_iter().map(|f| f.expect("a UTF-8 frame")).collect()
    }

    #[test]
    fn request_round_trips_with_arbitrary_ids() {
        for id in [Json::Int(7), Json::Str("abc".to_string()), Json::Null] {
            let line = Request::render(&id, "valency", &Json::Obj(vec![]));
            let req = Request::parse(&line).expect("parses");
            assert_eq!(req.id, id);
            assert_eq!(req.job, "valency");
            assert_eq!(req.params, Json::Obj(vec![]));
            assert_eq!(req.trace, None);
        }
    }

    #[test]
    fn trace_context_round_trips_on_the_wire() {
        let line =
            Request::render_traced(&Json::Int(1), "explore", &Json::Null, Some((u64::MAX, 42)));
        let req = Request::parse(&line).expect("parses");
        assert_eq!(req.trace, Some((u64::MAX, 42)));
        // The in-place rendering is the object rendering, byte for byte.
        let object = Json::Obj(vec![
            ("id".to_string(), Json::Int(1)),
            ("job".to_string(), Json::Str("explore".to_string())),
            ("params".to_string(), Json::Null),
            (
                "trace".to_string(),
                Json::Obj(vec![
                    ("t".to_string(), Json::Int(i128::from(u64::MAX))),
                    ("s".to_string(), Json::Int(42)),
                ]),
            ),
        ]);
        assert_eq!(line, object.render());
        // A malformed trace field degrades to "no context", never an error.
        let req = Request::parse("{\"job\":\"x\",\"trace\":{\"t\":1}}").expect("parses");
        assert_eq!(req.trace, None);
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(Request::parse("not json").unwrap_err().contains("invalid JSON"));
        assert!(Request::parse("[1,2]").unwrap_err().contains("object"));
        assert!(Request::parse("{\"id\":1}").unwrap_err().contains("job"));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut fb = FrameBuffer::new();
        assert_eq!(push(&mut fb, b"{\"id\":1,"), Vec::<String>::new());
        assert_eq!(fb.pending_bytes(), 8);
        let frames = push(&mut fb, b"\"job\":\"metrics\"}\nnext");
        assert_eq!(frames, vec!["{\"id\":1,\"job\":\"metrics\"}".to_string()]);
        assert_eq!(fb.pending_bytes(), 4);
        assert_eq!(push(&mut fb, b"\n\n"), vec!["next".to_string(), String::new()]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buffer_yields_many_frames_from_one_read() {
        let mut fb = FrameBuffer::new();
        let frames = push(&mut fb, b"a\nb\nc\n");
        assert_eq!(frames, vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn frame_buffer_caps_unterminated_frames() {
        let mut fb = FrameBuffer::new();
        let chunk = vec![b'x'; MAX_FRAME_BYTES / 2 + 1];
        assert!(fb.push_bytes(&chunk).is_ok());
        let err = fb.push_bytes(&chunk).expect_err("cap must trip");
        assert!(err.buffered > MAX_FRAME_BYTES);
        // The buffer resets so the connection teardown path is clean.
        assert_eq!(fb.pending_bytes(), 0);
        assert_eq!(fb.scanned, 0);
        assert_eq!(push(&mut fb, b"ok\n"), vec!["ok".to_string()]);
    }

    /// A multi-MiB frame, then a short one, as the byte stream a
    /// socket would deliver.
    fn big_stream() -> (String, Vec<u8>) {
        let big: String = (0..3 << 20).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let mut stream = big.clone().into_bytes();
        stream.extend_from_slice(b"\ntail\n");
        (big, stream)
    }

    #[test]
    fn frame_buffer_reassembles_a_multi_mib_frame_from_16_kib_reads() {
        let (big, stream) = big_stream();
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for piece in stream.chunks(16 * 1024) {
            frames.extend(push(&mut fb, piece));
            // The scan never revisits bytes it has already passed.
            assert_eq!(fb.scanned, fb.pending_bytes());
        }
        assert_eq!(frames, vec![big, "tail".to_string()]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buffer_reassembles_a_multi_mib_frame_fed_byte_by_byte() {
        let (big, stream) = big_stream();
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for byte in stream.chunks(1) {
            frames.extend(push(&mut fb, byte));
        }
        assert_eq!(frames, vec![big, "tail".to_string()]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buffer_handles_a_newline_ending_a_read_and_frames_after_a_partial_one() {
        let mut fb = FrameBuffer::new();
        // The newline is the last byte of the read.
        assert_eq!(push(&mut fb, b"one\n"), vec!["one".to_string()]);
        assert_eq!(fb.pending_bytes(), 0);
        // A partial frame, then a read that completes it and carries
        // several more frames and a new partial tail.
        assert!(push(&mut fb, b"tw").is_empty());
        assert!(push(&mut fb, b"o-").is_empty());
        let frames = push(&mut fb, b"2\nthree\nfour\nfi");
        assert_eq!(frames, vec!["two-2".to_string(), "three".to_string(), "four".to_string()]);
        assert_eq!(fb.pending_bytes(), 2);
        assert_eq!(push(&mut fb, b"ve\n"), vec!["five".to_string()]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buffer_finds_a_newline_at_every_offset_of_a_read() {
        // Bytes next to `\n` (0x0a) in value, so a scan that compares
        // loosely would stop early.
        let filler = b"\x09\x0b\x1a\x7fx ";
        for lead in 0..=8 {
            for nl in 0..24 {
                let mut fb = FrameBuffer::new();
                let partial: Vec<u8> = filler.iter().copied().cycle().take(lead).collect();
                assert!(push(&mut fb, &partial).is_empty());
                let mut read: Vec<u8> =
                    filler.iter().copied().cycle().skip(lead).take(24).collect();
                read[nl] = b'\n';
                let mut frame = partial.clone();
                frame.extend_from_slice(&read[..nl]);
                let frame = String::from_utf8(frame).expect("ASCII");
                assert_eq!(push(&mut fb, &read), vec![frame], "lead {lead}, newline at {nl}");
                assert_eq!(fb.pending_bytes(), 23 - nl, "lead {lead}, newline at {nl}");
            }
        }
    }

    #[test]
    fn frames_that_are_not_utf8_come_back_as_errors_between_good_ones() {
        let mut fb = FrameBuffer::new();
        // A bad byte in the id, one inside a packed field, then a good
        // frame: each is judged alone.
        let stream = b"{\"id\":\"\xff\",\"job\":\"metrics\"}\n\
            {\"id\":2,\"job\":\"frontier_probe\",\"params\":{\"hashes\":\"0200\xc3000000000000\"}}\n\
            {\"id\":3,\"job\":\"metrics\"}\n";
        let frames = fb.push_bytes(stream).expect("no overflow");
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].as_ref().map_err(Utf8Error::valid_up_to), Err(7));
        assert_eq!(frames[1].as_ref().map_err(Utf8Error::valid_up_to), Err(55));
        assert_eq!(frames[2].as_deref(), Ok("{\"id\":3,\"job\":\"metrics\"}"));
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frames_are_single_line_and_echo_the_id() {
        let id = Json::Str("x\ny".to_string());
        for frame in [
            ok_frame(&id, "run", Json::Null),
            error_frame(&id, code::OVERLOADED, "queue full"),
            progress_frame(&id, "started", &[("depth", Json::Int(3))]),
        ] {
            assert!(!frame.contains('\n'), "{frame}");
            let v = randsync_obs::parse_json(&frame).expect("frame parses");
            assert_eq!(v.get("id").and_then(Json::as_str), Some("x\ny"));
        }
    }
}
