//! Golden wire bytes of every `Request` and `Response` variant.
//!
//! `tests/golden/protocol_frames.bin` is the concatenation of the frames
//! below, written on the commit *before* the protocol's hex-float helpers
//! were replaced by the database's: a byte of drift in either direction
//! (encode, or decode → re-encode) fails here.
//!
//! Regenerate (only when the wire format is *meant* to change) with
//! `cargo test -p tir-serve --test protocol_golden -- --ignored`.

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

fn wire() -> Vec<u8> {
    let mut out = Vec::new();
    for r in requests() {
        r.write(&mut out).expect("write request");
    }
    for r in responses() {
        r.write(&mut out).expect("write response");
    }
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

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    std::fs::write(GOLDEN_PATH, wire()).expect("write golden file");
}
