//! Golden wire bytes of every `Request` and `Response` variant.
//!
//! `tests/golden/protocol_frames.bin` is the concatenation of the frames
//! below, written on the commit *before* the protocol's hex-float helpers
//! were replaced by the database's: a byte of drift in either direction
//! (encode, or decode → re-encode) fails here.
//!
//! Regenerate (only when the wire format is *meant* to change) with
//! `cargo test -p tir-serve --test protocol_golden -- --ignored`.

use std::io::{self, BufReader, Read, Write};

use tir_serve::protocol::{RejectCode, Request, Response, Source, DEFAULT_MAX_PAYLOAD};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/protocol_frames.bin"
);
const PROGRAM: &str = "def f():\n    pass";
const REJECT_CODES: [RejectCode; 9] = [
    RejectCode::QueueFull,
    RejectCode::PayloadTooLarge,
    RejectCode::BadRequest,
    RejectCode::UnknownMachine,
    RejectCode::UnknownStrategy,
    RejectCode::ParseError,
    RejectCode::BadPriority,
    RejectCode::ShuttingDown,
    RejectCode::Internal,
];

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Tune {
            machine: "gpu".into(),
            strategy: "tensorir".into(),
            trials: 64,
            priority: 5,
            func_text: PROGRAM.into(),
        },
        Request::Query {
            machine: "arm-v86".into(),
            strategy: "ansor".into(),
            func_text: PROGRAM.into(),
        },
        Request::Stats,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    // One `Result` per source, with floats whose bits matter: a warm hit's
    // exact zero, a subnormal, an infinity and a negative zero.
    let result = |source, best_time, trials, tuning_cost_s| Response::Result {
        source,
        best_time,
        trials,
        tuning_cost_s,
        func_text: PROGRAM.into(),
    };
    vec![
        Response::Pong,
        result(Source::Warm, 1.25e-4, 0, 0.0),
        result(Source::Tuned, f64::from_bits(1), 64, 12.0625),
        result(Source::Dedup, f64::INFINITY, 7, -0.0),
        Response::Miss,
        Response::Stats {
            json: "{\"requests\": 3}".into(),
        },
        Response::Bye,
    ]
    .into_iter()
    .chain(REJECT_CODES.map(|code| Response::Rejected {
        code,
        message: format!("refused: {}", code.as_str()),
    }))
    .collect()
}

/// Every variant, requests first, written to `out`.
fn write_every_variant(out: &mut impl Write) {
    for r in requests() {
        r.write(out).expect("write request");
    }
    for r in responses() {
        r.write(out).expect("write response");
    }
}

fn wire() -> Vec<u8> {
    let mut out = Vec::new();
    write_every_variant(&mut out);
    out
}

#[test]
fn every_variant_encodes_to_the_golden_bytes() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden");
    assert_eq!(
        String::from_utf8_lossy(&wire()),
        String::from_utf8_lossy(&golden)
    );
}

#[test]
fn the_golden_bytes_decode_to_every_variant_and_back() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden");
    let mut r = golden.as_slice();
    let mut back = Vec::new();
    for want in requests() {
        let got = Request::read(&mut r, DEFAULT_MAX_PAYLOAD)
            .expect("no I/O error")
            .expect("not EOF")
            .expect("well-formed");
        assert_eq!(got, want);
        got.write(&mut back).expect("write");
    }
    for want in responses() {
        let got = Response::read(&mut r)
            .expect("no I/O error")
            .expect("not EOF")
            .expect("well-formed");
        // `PartialEq` on f64 equates 0.0 and -0.0; the re-encoded bytes
        // below do not.
        assert_eq!(got, want);
        got.write(&mut back).expect("write");
    }
    assert!(r.is_empty(), "golden file has trailing bytes");
    assert_eq!(back, golden, "decode → encode must be identity");
}

/// A writer that takes at most `limit` bytes per call and counts the calls.
struct Trickle {
    limit: usize,
    calls: usize,
    bytes: Vec<u8>,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        let n = buf.len().min(self.limit);
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reader that hands out at most `limit` bytes per call.
struct Fragments<'a>(&'a [u8], usize);

impl Read for Fragments<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.1).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// One message is one `write` on the writer it is given — on a socket, one
/// `write(2)`, where a header formatted piece by piece followed by payload
/// and newline used to be 3 to 13.
#[test]
fn every_variant_is_written_with_one_call() {
    let mut calls = Vec::new();
    let mut sink = Trickle {
        limit: usize::MAX,
        calls: 0,
        bytes: Vec::new(),
    };
    for r in requests() {
        r.write(&mut sink).expect("write request");
        calls.push(std::mem::take(&mut sink.calls));
    }
    for r in responses() {
        r.write(&mut sink).expect("write response");
        calls.push(std::mem::take(&mut sink.calls));
    }
    assert_eq!(calls, vec![1; requests().len() + responses().len()]);
    assert_eq!(sink.bytes, std::fs::read(GOLDEN_PATH).expect("golden"));
}

/// A writer that accepts 7 bytes at a time still gets every byte, in order.
#[test]
fn a_writer_that_takes_seven_bytes_a_call_receives_the_golden_bytes() {
    let mut sink = Trickle {
        limit: 7,
        calls: 0,
        bytes: Vec::new(),
    };
    write_every_variant(&mut sink);
    let golden = std::fs::read(GOLDEN_PATH).expect("golden");
    assert_eq!(sink.bytes, golden);
    assert!(sink.calls >= golden.len() / 7);
}

/// Readers never assumed one message per `read`: the golden bytes arriving
/// one, three or 4 096 at a time decode to the same messages.
#[test]
fn frames_arriving_in_fragments_decode_alike() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden");
    for limit in [1, 3, 4096] {
        let mut r = BufReader::with_capacity(5, Fragments(&golden, limit));
        for want in requests() {
            let got = Request::read(&mut r, DEFAULT_MAX_PAYLOAD).expect("no I/O error");
            assert_eq!(got, Some(Ok(want)), "{limit} bytes a read");
        }
        for want in responses() {
            let got = Response::read(&mut r).expect("no I/O error");
            assert_eq!(got, Some(Ok(want)), "{limit} bytes a read");
        }
        assert!(matches!(Response::read(&mut r), Ok(None)));
    }
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    std::fs::write(GOLDEN_PATH, wire()).expect("write golden file");
}
