//! The line-delimited wire protocol between tuning clients and the
//! daemon.
//!
//! Every message is one ASCII header line terminated by `\n`, optionally
//! followed by one byte-length-prefixed UTF-8 payload (the length is the
//! last integer on the header line) terminated by `\n`. Floats travel as
//! the 16-hex-digit IEEE-754 bits of an `f64` — the same discipline as
//! the checkpoint and database formats — so `best_time` and
//! `tuning_cost_s` are **bit-exact** over the wire.
//!
//! # Requests
//!
//! | Variant | Wire form |
//! |---|---|
//! | [`Request::Ping`] | `ping\n` |
//! | [`Request::Tune`] | `tune <machine> <strategy> <trials> <priority> <len>\n<program text>\n` |
//! | [`Request::Query`] | `query <machine> <strategy> <len>\n<program text>\n` |
//! | [`Request::Stats`] | `stats\n` |
//! | [`Request::Shutdown`] | `shutdown\n` |
//!
//! `<machine>` is a short machine name (`gpu`, `arm`, `arm-v86`),
//! `<strategy>` a strategy name (`tensorir`, `ansor`, `amos`),
//! `<trials>` the measurement budget, `<priority>` 0–9 (9 served
//! first), and the payload is TVMScript-dialect program text. A
//! complete tune request on the wire:
//!
//! ```text
//! tune gpu tensorir 64 5 123
//! def mm(A: T.Buffer[(16, 16), "float16"], ...):
//!     ...
//! ```
//!
//! # Responses
//!
//! | Variant | Wire form |
//! |---|---|
//! | [`Response::Pong`] | `pong\n` |
//! | [`Response::Result`] | `result <source> <best_time> <trials> <cost> <len>\n<best program>\n` |
//! | [`Response::Miss`] | `miss\n` |
//! | [`Response::Stats`] | `stats <len>\n<json>\n` |
//! | [`Response::Rejected`] | `err <code> <len>\n<message>\n` |
//! | [`Response::Bye`] | `bye\n` |
//!
//! `<source>` is `warm` (served from the database: `trials` is 0 and
//! `cost` is 0.0 — this request paid nothing), `tuned` (a search ran for
//! this request; `trials`/`cost` are its accounting), or `dedup` (this
//! request joined an in-flight tune of the same fingerprint; the
//! accounting is the original tune's). A warm hit on the wire:
//!
//! ```text
//! result warm 3f2e147ae147ae14 0 0000000000000000 87
//! def mm(...):
//!     ...
//! ```
//!
//! `<code>` on a rejection is one of the [`RejectCode`] names; the
//! operator-facing meaning of each is tabulated in
//! `docs/OPERATIONS.md`.
//!
//! # Framing
//!
//! **One message is one write.** `write` assembles header, payload and
//! terminating newline in one buffer and hands it to its writer in a single
//! `write_all` — on the daemon's (unbuffered) Unix socket, one `write(2)`
//! and one wake-up of the peer per message, where a header formatted piece
//! by piece used to be up to 13. **Readers accept fragments.** Nothing on
//! the read side assumes a message arrives whole: the header is read up to
//! its newline and the payload up to its announced length through a
//! `BufRead`, however many `read`s that takes — a peer that writes in
//! pieces, or a payload larger than the socket buffer, decodes the same.
//! The daemon bounds the wait *between* fragments of one message (two
//! seconds), not the number of fragments.
//!
//! # Round-trip
//!
//! ```
//! use tir_serve::protocol::{Request, Response};
//!
//! let req = Request::Tune {
//!     machine: "gpu".into(),
//!     strategy: "tensorir".into(),
//!     trials: 64,
//!     priority: 5,
//!     func_text: "def f():\n    pass".into(),
//! };
//! let mut wire = Vec::new();
//! req.write(&mut wire).unwrap();
//! let back = Request::read(&mut wire.as_slice(), 1 << 20)
//!     .unwrap()          // no I/O error
//!     .unwrap()          // not EOF
//!     .unwrap();         // well-formed
//! assert_eq!(back, req);
//! ```

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use tir_autoschedule::database::{hex_f64, parse_hex_f64};

/// Default cap on payload size (program text), in bytes. Requests whose
/// payload exceeds the server's configured cap are rejected with
/// [`RejectCode::PayloadTooLarge`] before the payload is read.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// Why the server refused a request. Each code is one word on the wire;
/// see `docs/OPERATIONS.md` for the operator-facing troubleshooting
/// table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The pending-job queue is at capacity; retry later or lower the
    /// request rate.
    QueueFull,
    /// The program payload exceeds the server's size cap.
    PayloadTooLarge,
    /// The header line is malformed (unknown verb, missing fields,
    /// non-numeric counts).
    BadRequest,
    /// The machine name is not one the server knows.
    UnknownMachine,
    /// The strategy name is not one the server knows.
    UnknownStrategy,
    /// The program payload is not valid TVMScript-dialect text.
    ParseError,
    /// The priority is outside 0–9.
    BadPriority,
    /// The server is shutting down and no longer accepts tuning work.
    ShuttingDown,
    /// The tune ran but produced no valid program, or the worker failed
    /// internally.
    Internal,
}

impl RejectCode {
    /// The wire token for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::QueueFull => "queue_full",
            RejectCode::PayloadTooLarge => "payload_too_large",
            RejectCode::BadRequest => "bad_request",
            RejectCode::UnknownMachine => "unknown_machine",
            RejectCode::UnknownStrategy => "unknown_strategy",
            RejectCode::ParseError => "parse_error",
            RejectCode::BadPriority => "bad_priority",
            RejectCode::ShuttingDown => "shutting_down",
            RejectCode::Internal => "internal",
        }
    }

    /// Inverse of [`RejectCode::as_str`].
    pub fn from_token(tok: &str) -> Option<RejectCode> {
        Some(match tok {
            "queue_full" => RejectCode::QueueFull,
            "payload_too_large" => RejectCode::PayloadTooLarge,
            "bad_request" => RejectCode::BadRequest,
            "unknown_machine" => RejectCode::UnknownMachine,
            "unknown_strategy" => RejectCode::UnknownStrategy,
            "parse_error" => RejectCode::ParseError,
            "bad_priority" => RejectCode::BadPriority,
            "shutting_down" => RejectCode::ShuttingDown,
            "internal" => RejectCode::Internal,
            _ => return None,
        })
    }
}

/// Where a [`Response::Result`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Served straight from the persistent database; this request spent
    /// zero trials and zero tuning cost.
    Warm,
    /// A search ran for this request; the accounting fields are its
    /// cost.
    Tuned,
    /// This request joined an identical in-flight tune instead of
    /// re-tuning; the accounting fields are the original tune's.
    Dedup,
}

impl Source {
    /// The wire token for this source.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Warm => "warm",
            Source::Tuned => "tuned",
            Source::Dedup => "dedup",
        }
    }

    /// Inverse of [`Source::as_str`].
    pub fn from_token(tok: &str) -> Option<Source> {
        Some(match tok {
            "warm" => Source::Warm,
            "tuned" => Source::Tuned,
            "dedup" => Source::Dedup,
            _ => return None,
        })
    }
}

/// A parse-level rejection: the code plus a human-readable message.
pub type Reject = (RejectCode, String);

/// One client request. See the module docs for the wire forms.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Tune (or fetch the tuned record of) a workload.
    Tune {
        /// Short machine name (`gpu`, `arm`, `arm-v86`).
        machine: String,
        /// Strategy name (`tensorir`, `ansor`, `amos`).
        strategy: String,
        /// Measurement budget for the search.
        trials: usize,
        /// 0–9; higher priorities are dequeued first.
        priority: u8,
        /// Program text (TVMScript dialect).
        func_text: String,
    },
    /// Database probe: never tunes, answers `result warm …` or `miss`.
    Query {
        /// Short machine name.
        machine: String,
        /// Strategy name.
        strategy: String,
        /// Program text.
        func_text: String,
    },
    /// Server counters as a JSON blob.
    Stats,
    /// Graceful shutdown: drain queued work, persist, exit.
    Shutdown,
}

/// One server response. See the module docs for the wire forms.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// A tuned program (warm, freshly tuned, or deduplicated).
    Result {
        /// Where the answer came from.
        source: Source,
        /// Simulated time of the best program (bit-exact).
        best_time: f64,
        /// Trials this request paid for (0 on warm hits).
        trials: usize,
        /// Tuning cost this request paid for (0.0 on warm hits).
        tuning_cost_s: f64,
        /// The best program's text.
        func_text: String,
    },
    /// Query found no record.
    Miss,
    /// Counters snapshot.
    Stats {
        /// One inline JSON object of integer counters, keyed as
        /// `docs/OPERATIONS.md` tabulates them.
        json: String,
    },
    /// The request was refused.
    Rejected {
        /// Machine-readable reason.
        code: RejectCode,
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown acknowledged.
    Bye,
}

/// Reads one `\n`-terminated header line. `Ok(None)` on clean EOF.
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(Some(line))
}

/// Reads a `len`-byte payload plus its terminating newline.
///
/// The claimed length is trusted up to `PRESIZED` bytes — one allocation
/// for a program of ordinary size — and beyond that the buffer grows with
/// the bytes that actually arrive, so a frame promising 2^40 bytes and then
/// hanging up costs memory proportional to what the peer really sent, not
/// what the header advertised. The payload may arrive in any number of
/// fragments.
fn read_blob(r: &mut impl BufRead, len: usize) -> io::Result<Result<String, Reject>> {
    const PRESIZED: u64 = 16 << 10;
    let total = (len as u64).saturating_add(1); // payload + newline
    let mut buf = Vec::with_capacity(total.min(PRESIZED) as usize);
    r.by_ref().take(total).read_to_end(&mut buf)?;
    if buf.len() as u64 != total {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-payload",
        ));
    }
    if buf.pop() != Some(b'\n') {
        return Ok(Err((
            RejectCode::BadRequest,
            "payload not newline-terminated (bad length prefix?)".to_string(),
        )));
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Ok(s)),
        Err(_) => Ok(Err((
            RejectCode::BadRequest,
            "payload is not valid UTF-8".to_string(),
        ))),
    }
}

/// Assembles a message with a payload — `fields` and the payload's length
/// as the header line, the payload, a newline — and hands it to `w` in one
/// `write_all`: on a socket, one `write(2)`.
fn write_frame(w: &mut impl Write, fields: fmt::Arguments<'_>, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 96);
    writeln!(frame, "{fields} {}", payload.len())?;
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)
}

/// Parses and bounds-checks a payload length token.
fn parse_len(tok: &str, max_payload: usize) -> Result<usize, Reject> {
    let len: usize = tok.parse().map_err(|_| {
        (
            RejectCode::BadRequest,
            format!("bad payload length `{tok}`"),
        )
    })?;
    if len > max_payload {
        return Err((
            RejectCode::PayloadTooLarge,
            format!("payload of {len} bytes exceeds the {max_payload}-byte cap"),
        ));
    }
    Ok(len)
}

impl Request {
    /// Serializes the request to its wire form.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Request::Ping => w.write_all(b"ping\n"),
            Request::Stats => w.write_all(b"stats\n"),
            Request::Shutdown => w.write_all(b"shutdown\n"),
            Request::Tune {
                machine,
                strategy,
                trials,
                priority,
                func_text,
            } => write_frame(
                w,
                format_args!("tune {machine} {strategy} {trials} {priority}"),
                func_text,
            ),
            Request::Query {
                machine,
                strategy,
                func_text,
            } => write_frame(w, format_args!("query {machine} {strategy}"), func_text),
        }
    }

    /// Reads one request from the wire.
    ///
    /// Three-level result: the outer `Err` is an I/O failure on the
    /// connection, `Ok(None)` is clean EOF (client hung up between
    /// requests), `Ok(Some(Err(reject)))` is a malformed or oversized
    /// request the server should answer with [`Response::Rejected`],
    /// and `Ok(Some(Ok(req)))` is a well-formed request.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `r`, including an unexpected EOF in
    /// the middle of a message.
    pub fn read(
        r: &mut impl BufRead,
        max_payload: usize,
    ) -> io::Result<Option<Result<Request, Reject>>> {
        let Some(line) = read_line(r)? else {
            return Ok(None);
        };
        let toks: Vec<&str> = line.split_whitespace().collect();
        let reject = |msg: String| Ok(Some(Err((RejectCode::BadRequest, msg))));
        match toks.first().copied() {
            Some("ping") => Ok(Some(Ok(Request::Ping))),
            Some("stats") => Ok(Some(Ok(Request::Stats))),
            Some("shutdown") => Ok(Some(Ok(Request::Shutdown))),
            Some("tune") => {
                if toks.len() != 6 {
                    return reject(format!("tune expects 5 fields, got {}", toks.len() - 1));
                }
                let trials: usize = match toks[3].parse() {
                    Ok(t) => t,
                    Err(_) => return reject(format!("bad trials `{}`", toks[3])),
                };
                let priority: u8 = match toks[4].parse() {
                    Ok(p) if p <= 9 => p,
                    _ => {
                        return Ok(Some(Err((
                            RejectCode::BadPriority,
                            format!("priority `{}` is not in 0–9", toks[4]),
                        ))))
                    }
                };
                let len = match parse_len(toks[5], max_payload) {
                    Ok(l) => l,
                    Err(rej) => return Ok(Some(Err(rej))),
                };
                let func_text = match read_blob(r, len)? {
                    Ok(t) => t,
                    Err(rej) => return Ok(Some(Err(rej))),
                };
                Ok(Some(Ok(Request::Tune {
                    machine: toks[1].to_string(),
                    strategy: toks[2].to_string(),
                    trials,
                    priority,
                    func_text,
                })))
            }
            Some("query") => {
                if toks.len() != 4 {
                    return reject(format!("query expects 3 fields, got {}", toks.len() - 1));
                }
                let len = match parse_len(toks[3], max_payload) {
                    Ok(l) => l,
                    Err(rej) => return Ok(Some(Err(rej))),
                };
                let func_text = match read_blob(r, len)? {
                    Ok(t) => t,
                    Err(rej) => return Ok(Some(Err(rej))),
                };
                Ok(Some(Ok(Request::Query {
                    machine: toks[1].to_string(),
                    strategy: toks[2].to_string(),
                    func_text,
                })))
            }
            Some(verb) => reject(format!("unknown verb `{verb}`")),
            None => reject("empty request line".to_string()),
        }
    }
}

impl Response {
    /// Serializes the response to its wire form.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Response::Pong => w.write_all(b"pong\n"),
            Response::Miss => w.write_all(b"miss\n"),
            Response::Bye => w.write_all(b"bye\n"),
            Response::Result {
                source,
                best_time,
                trials,
                tuning_cost_s,
                func_text,
            } => write_frame(
                w,
                format_args!(
                    "result {} {} {trials} {}",
                    source.as_str(),
                    hex_f64(*best_time),
                    hex_f64(*tuning_cost_s)
                ),
                func_text,
            ),
            Response::Stats { json } => write_frame(w, format_args!("stats"), json),
            Response::Rejected { code, message } => {
                write_frame(w, format_args!("err {}", code.as_str()), message)
            }
        }
    }

    /// Reads one response from the wire. `Ok(None)` on clean EOF;
    /// `Ok(Some(Err(msg)))` when the bytes are not a well-formed
    /// response (a protocol bug or version skew, not an I/O failure).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `r`.
    pub fn read(r: &mut impl BufRead) -> io::Result<Option<Result<Response, String>>> {
        let Some(line) = read_line(r)? else {
            return Ok(None);
        };
        let toks: Vec<&str> = line.split_whitespace().collect();
        let malformed = |msg: String| Ok(Some(Err(msg)));
        match toks.first().copied() {
            Some("pong") => Ok(Some(Ok(Response::Pong))),
            Some("miss") => Ok(Some(Ok(Response::Miss))),
            Some("bye") => Ok(Some(Ok(Response::Bye))),
            Some("result") => {
                if toks.len() != 6 {
                    return malformed(format!("result expects 5 fields, got {}", toks.len() - 1));
                }
                let Some(source) = Source::from_token(toks[1]) else {
                    return malformed(format!("unknown result source `{}`", toks[1]));
                };
                let (Some(best_time), Ok(trials), Some(tuning_cost_s), Ok(len)) = (
                    parse_hex_f64(toks[2]),
                    toks[3].parse::<usize>(),
                    parse_hex_f64(toks[4]),
                    toks[5].parse::<usize>(),
                ) else {
                    return malformed(format!("malformed result header `{line}`"));
                };
                match read_blob(r, len)? {
                    Ok(func_text) => Ok(Some(Ok(Response::Result {
                        source,
                        best_time,
                        trials,
                        tuning_cost_s,
                        func_text,
                    }))),
                    Err((_, msg)) => malformed(msg),
                }
            }
            Some("stats") => {
                if toks.len() != 2 {
                    return malformed(format!("stats expects 1 field, got {}", toks.len() - 1));
                }
                let Ok(len) = toks[1].parse::<usize>() else {
                    return malformed(format!("bad stats length `{}`", toks[1]));
                };
                match read_blob(r, len)? {
                    Ok(json) => Ok(Some(Ok(Response::Stats { json }))),
                    Err((_, msg)) => malformed(msg),
                }
            }
            Some("err") => {
                if toks.len() != 3 {
                    return malformed(format!("err expects 2 fields, got {}", toks.len() - 1));
                }
                let Some(code) = RejectCode::from_token(toks[1]) else {
                    return malformed(format!("unknown reject code `{}`", toks[1]));
                };
                let Ok(len) = toks[2].parse::<usize>() else {
                    return malformed(format!("bad err length `{}`", toks[2]));
                };
                match read_blob(r, len)? {
                    Ok(message) => Ok(Some(Ok(Response::Rejected { code, message }))),
                    Err((_, msg)) => malformed(msg),
                }
            }
            Some(verb) => malformed(format!("unknown response verb `{verb}`")),
            None => malformed("empty response line".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        let back = Request::read(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .expect("not EOF")
            .expect("well-formed");
        assert_eq!(back, req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let back = Response::read(&mut wire.as_slice())
            .unwrap()
            .expect("not EOF")
            .expect("well-formed");
        assert_eq!(back, resp);
    }

    #[test]
    fn all_requests_round_trip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Tune {
            machine: "gpu".into(),
            strategy: "tensorir".into(),
            trials: 64,
            priority: 9,
            func_text: "def f():\n    pass\n".into(),
        });
        roundtrip_req(Request::Query {
            machine: "arm".into(),
            strategy: "ansor".into(),
            func_text: "multi\nline\npayload with spaces".into(),
        });
    }

    #[test]
    fn all_responses_round_trip_bit_exact() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Miss);
        roundtrip_resp(Response::Bye);
        roundtrip_resp(Response::Stats {
            json: "{\"a\": 1}".into(),
        });
        roundtrip_resp(Response::Rejected {
            code: RejectCode::QueueFull,
            message: "queue at capacity (64 pending)".into(),
        });
        // Float bit-exactness, including a subnormal and an infinity.
        for t in [1.25e-4, f64::INFINITY, 5e-324, 0.0] {
            let resp = Response::Result {
                source: Source::Warm,
                best_time: t,
                trials: 0,
                tuning_cost_s: 0.0,
                func_text: "def f():\n    pass".into(),
            };
            let mut wire = Vec::new();
            resp.write(&mut wire).unwrap();
            let Response::Result { best_time, .. } = Response::read(&mut wire.as_slice())
                .unwrap()
                .unwrap()
                .unwrap()
            else {
                panic!("wrong variant");
            };
            assert_eq!(best_time.to_bits(), t.to_bits());
        }
    }

    #[test]
    fn oversized_payload_is_rejected_before_reading() {
        let mut wire = Vec::new();
        Request::Tune {
            machine: "gpu".into(),
            strategy: "tensorir".into(),
            trials: 1,
            priority: 0,
            func_text: "x".repeat(100),
        }
        .write(&mut wire)
        .unwrap();
        let rej = Request::read(&mut wire.as_slice(), 10)
            .unwrap()
            .unwrap()
            .expect_err("must reject");
        assert_eq!(rej.0, RejectCode::PayloadTooLarge);
    }

    #[test]
    fn malformed_headers_are_rejections_not_errors() {
        for bad in [
            "frobnicate\n",
            "tune gpu\n",
            "tune gpu tensorir x 0 0\n",
            "\n",
        ] {
            let out = Request::read(&mut bad.as_bytes(), DEFAULT_MAX_PAYLOAD)
                .unwrap()
                .unwrap();
            assert!(out.is_err(), "`{bad}` must be rejected");
        }
        // Bad priority gets its dedicated code.
        let bad = "tune gpu tensorir 8 12 0\n\n";
        let (code, _) = Request::read(&mut bad.as_bytes(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(code, RejectCode::BadPriority);
    }

    #[test]
    fn eof_is_none() {
        assert!(Request::read(&mut "".as_bytes(), 10).unwrap().is_none());
        assert!(Response::read(&mut "".as_bytes()).unwrap().is_none());
    }

    #[test]
    fn advertised_payload_length_is_not_trusted() {
        // A header claiming a terabyte payload followed by three real
        // bytes must fail as a truncated message, not allocate a
        // terabyte (fuzz-found abort).
        let tb = 1u64 << 40;
        for input in [
            format!("stats {tb}\nhi\n"),
            format!("err queue_full {tb}\nhi\n"),
            format!("result warm {:016x} 0 {:016x} {tb}\nhi\n", 0u64, 0u64),
        ] {
            let err = Response::read(&mut input.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "`{input}`");
        }
        // The degenerate length that would overflow `len + 1`.
        let max = format!("stats {}\nhi\n", usize::MAX);
        assert!(Response::read(&mut max.as_bytes()).is_err());
    }
}
