//! Generation-granularity checkpoint/resume for tuning runs: the
//! measurement log.
//!
//! Long tuning runs get killed — out-of-memory, preemption, operator
//! Ctrl-C — and restarting from scratch wastes the measurement budget
//! spent so far. [`crate::search::tune_with`] is a pure function of its
//! options and of what its measurements returned, so those returns are all
//! a checkpoint holds: one file per tune, and per generation of each of
//! its sketches, in the order the tune ran them and in batch-rank order
//! within one, the structural
//! hash of every candidate sent to the farm and its [`MeasureOutcome`]. A
//! resumed run starts from nothing and runs the search itself, taking each
//! outcome from the log for as long as the log names the candidate being
//! asked about. Dedup set, elites, cache, quarantine, cost model, history
//! and counters are rebuilt by the code an uninterrupted run executes, so
//! the result is **bit-identical** by construction; a log that stops
//! fitting (other `population`, changed sketch, edited file) is used up to
//! its first mismatch — still true measurements — and dropped from there.
//!
//! # Format
//!
//! The file is a journal in the framing of [`crate::journal`]: a header
//! line, then one `entry <len> <fnv1a64>` frame for the context line and
//! one per generation.
//!
//! ```text
//! tir-autoschedule-checkpoint v4
//! entry <len> <fnv1a64>
//! context <seed> <len> <machine name> <len> <sketch name> [<len> <sketch name> ...]
//! entry <len> <fnv1a64>
//! generation <jobs>
//! <hash> ok|reject|timeout|crash|corrupt <value> <cost_s> <retries>
//! ...
//! ```
//!
//! `<hash>`, `<value>` and `<cost_s>` are 16 hex digits; `<value>` is the
//! bits of the reading (`ok`) or of the runner's limit (`timeout`), the
//! readings taken (`corrupt`), else zero. Error messages are not stored:
//! the search never reads them. The context line names the tune's seed,
//! its machine and every sketch it searches, in order, and must be the
//! resuming run's own.
//!
//! Each generation is one append and one fsync through
//! [`crate::fault_io::JournalIo`]. A crash mid-append tears at most the
//! last frame, and a torn tail keeps every whole generation before it.
//! A missing, foreign-context, older-version or mid-damaged file means a
//! fresh start, written whole by [`crate::fault_io::JournalIo::replace`].

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::database::parse_hex_f64;
use crate::fault_io::JournalIo;
use crate::journal::{frame_into, read_frames};
use crate::measure::{MeasureError, MeasureOutcome};

/// Magic + version header; bump the version on any format change.
const HEADER: &str = "tir-autoschedule-checkpoint v4";
/// Stands in for the error message of a replayed failure.
const REPLAYED: &str = "replayed from the checkpoint";

/// The measurements of one generation, in batch-rank order.
type Generation = Vec<(u64, MeasureOutcome)>;

/// The measurement log of one tuning run: what a previous run left in the
/// checkpoint file, handed back one generation at a time, and what this
/// run measures, appended after each generation the file does not hold.
pub(crate) struct MeasureLog {
    io: Box<dyn JournalIo>,
    path: PathBuf,
    /// The header and the context frame: how this tune's file begins.
    prefix: String,
    /// Generations of the file not yet replayed, each with the offset its
    /// frame ends at.
    pending: VecDeque<(Generation, usize)>,
    /// Where the frame of a generation [`MeasureLog::replay`] answered in
    /// full ends, until [`MeasureLog::record`] is handed that generation.
    replayed: Option<usize>,
    /// Generations answered entirely from the file.
    replayed_generations: u64,
    /// Bytes of the file that hold this run's log; 0 until a fresh start
    /// writes its first generation.
    saved: usize,
    /// Whether the file may hold bytes past `saved`.
    stale_tail: bool,
    /// What is not yet durably written: the frames of generations, after
    /// the header and context frame on a fresh start.
    unsaved: String,
}

impl MeasureLog {
    /// Opens the log at `path`, through `io`, for the tune identified by
    /// `seed`, `machine` and `sketches`. A missing, foreign-context,
    /// older-version or mid-damaged file yields an empty log: the run
    /// starts fresh.
    pub(crate) fn open(
        mut io: Box<dyn JournalIo>,
        path: &Path,
        seed: u64,
        machine: &str,
        sketches: &[&str],
    ) -> MeasureLog {
        // Names are length-prefixed; the whole line must match the file's
        // byte for byte, so nothing in a name can forge a context.
        let mut context = format!("context {seed} {} {machine}", machine.len());
        for sketch in sketches {
            let _ = write!(context, " {} {sketch}", sketch.len());
        }
        context.push('\n');
        let mut prefix = format!("{HEADER}\n");
        frame_into(&mut prefix, &context);
        let bytes = (io.read(path).ok().flatten())
            .filter(|bytes| bytes.starts_with(prefix.as_bytes()))
            .unwrap_or_default();
        let mut pending = VecDeque::new();
        let read = read_frames("checkpoint", HEADER, &bytes, |payload, end| {
            if end > prefix.len() {
                let generation = decode(payload).ok_or("malformed generation")?;
                pending.push_back((generation, end));
            }
            Ok(())
        });
        let saved = match read {
            Ok(_) if !bytes.is_empty() => prefix.len(),
            _ => {
                pending.clear();
                0
            }
        };
        MeasureLog {
            io,
            path: path.to_path_buf(),
            prefix,
            pending,
            replayed: None,
            replayed_generations: 0,
            saved,
            stale_tail: bytes.len() != saved,
            unsaved: String::new(),
        }
    }

    /// Outcomes the file holds for the next generation, whose jobs have
    /// the structural hashes `jobs` in rank order: one per job up to the
    /// first job the file does not name. The caller measures the rest. A
    /// generation the file does not answer in full ends the replay — what
    /// the file holds beyond it belongs to a different trajectory.
    pub(crate) fn replay(&mut self, jobs: &[u64]) -> Vec<MeasureOutcome> {
        let Some((recorded, end)) = self.pending.pop_front() else {
            return Vec::new();
        };
        let matching = recorded
            .iter()
            .zip(jobs)
            .take_while(|((hash, _), job)| hash == *job)
            .count();
        if matching == jobs.len() && matching == recorded.len() {
            self.replayed_generations += 1;
            self.replayed = Some(end);
        } else {
            self.pending.clear();
        }
        recorded
            .into_iter()
            .take(matching)
            .map(|(_, outcome)| outcome)
            .collect()
    }

    /// How many generations [`MeasureLog::replay`] answered in full.
    pub(crate) fn replayed_generations(&self) -> u64 {
        self.replayed_generations
    }

    /// Logs one generation — every job's hash and outcome in rank order,
    /// replayed or measured. A generation the file already holds (a replay
    /// in progress) writes nothing. Otherwise its frame is appended and
    /// fsynced, after cutting the file back to this run's log; a fresh
    /// start writes the file whole instead.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; the frame is kept and written with the
    /// next generation's. The search treats a failed save as
    /// "resumability lost", never as a tuning failure.
    pub(crate) fn record(&mut self, jobs: &[u64], outcomes: &[MeasureOutcome]) -> io::Result<()> {
        if let Some(end) = self.replayed.take() {
            self.saved = end;
            return Ok(());
        }
        // Sized for retry counts below 10 000: one allocation.
        let mut payload = String::with_capacity(24 + 64 * jobs.len());
        let _ = writeln!(payload, "generation {}", jobs.len());
        for (hash, outcome) in jobs.iter().zip(outcomes) {
            let (kind, value) = match &outcome.reading {
                Ok(t) => ("ok", t.to_bits()),
                Err(MeasureError::CompileReject(_)) => ("reject", 0),
                Err(MeasureError::Timeout { limit_s }) => ("timeout", limit_s.to_bits()),
                Err(MeasureError::RunnerCrash(_)) => ("crash", 0),
                Err(MeasureError::CorruptReading { readings }) => ("corrupt", *readings as u64),
            };
            let cost_s = outcome.cost_s.to_bits();
            let retries = outcome.retries;
            let _ = writeln!(
                payload,
                "{hash:016x} {kind} {value:016x} {cost_s:016x} {retries}"
            );
        }
        if self.saved == 0 && self.unsaved.is_empty() {
            self.unsaved.push_str(&self.prefix);
        }
        frame_into(&mut self.unsaved, &payload);
        if self.saved == 0 {
            self.io.replace(&self.path, self.unsaved.as_bytes())?;
        } else {
            if self.stale_tail {
                self.io.truncate(&self.path, self.saved as u64)?;
            }
            self.stale_tail = true;
            self.io.append(&self.path, self.unsaved.as_bytes())?;
            self.io.crash_point("checkpoint.pre_fsync")?;
            self.io.fsync(&self.path)?;
            self.io.crash_point("checkpoint.post_fsync")?;
        }
        self.saved += self.unsaved.len();
        self.stale_tail = false;
        self.unsaved.clear();
        Ok(())
    }
}

/// Decodes one generation frame's payload; `None` on any malformation.
fn decode(payload: &str) -> Option<Generation> {
    let mut lines = payload.lines();
    let jobs: usize = lines.next()?.strip_prefix("generation ")?.parse().ok()?;
    let generation: Option<Generation> = lines.map(decode_entry).collect();
    generation.filter(|generation| generation.len() == jobs)
}

fn decode_entry(line: &str) -> Option<(u64, MeasureOutcome)> {
    let fields: Vec<&str> = line.split(' ').collect();
    let &[hash, kind, value, cost_s, retries] = fields.as_slice() else {
        return None;
    };
    let value = u64::from_str_radix(value, 16).ok()?;
    let reading = match kind {
        "ok" => Ok(f64::from_bits(value)),
        "reject" => Err(MeasureError::CompileReject(REPLAYED.to_string())),
        "timeout" => Err(MeasureError::Timeout {
            limit_s: f64::from_bits(value),
        }),
        "crash" => Err(MeasureError::RunnerCrash(REPLAYED.to_string())),
        "corrupt" => Err(MeasureError::CorruptReading {
            readings: usize::try_from(value).ok()?,
        }),
        _ => return None,
    };
    let outcome = MeasureOutcome {
        reading,
        cost_s: parse_hex_f64(cost_s)?,
        retries: retries.parse().ok()?,
    };
    Some((u64::from_str_radix(hash, 16).ok()?, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_io::{DiskIo, FaultIo, FaultSpec};
    use crate::journal::CHECKPOINT_CRASH_POINTS;

    const MACHINE: &str = "SimGPU (RTX-3080-class)";
    const SKETCH: &str = "gpu-tensor[wmma_16x16x16_f16]";

    /// A file name in a fresh directory of the test's own.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().expect("tmp() nests the file"));
    }

    /// `payload` as one frame.
    fn frame(payload: &str) -> String {
        let mut framed = String::new();
        frame_into(&mut framed, payload);
        framed
    }

    /// The log at `path` of the tune [`sample`] belongs to.
    fn open(path: &Path) -> MeasureLog {
        MeasureLog::open(Box::new(DiskIo), path, 42, MACHINE, &[SKETCH])
    }

    /// Three generations covering every outcome kind and the floats whose
    /// bits matter (an infinity, a negative zero); the last one is empty.
    fn sample() -> Vec<(Vec<u64>, Vec<MeasureOutcome>)> {
        let outcome = |reading, cost_s, retries| MeasureOutcome {
            reading,
            cost_s,
            retries,
        };
        let reject = MeasureError::CompileReject(REPLAYED.to_string());
        let crash = MeasureError::RunnerCrash(REPLAYED.to_string());
        vec![
            (
                vec![0xDEAD, 7, u64::MAX],
                vec![
                    outcome(Ok(1.25e-4), 12.0625, 0),
                    outcome(Err(reject), 0.5, 0),
                    outcome(Err(MeasureError::Timeout { limit_s: 10.0 }), -0.0, 3),
                ],
            ),
            (
                vec![1, 2, 3],
                vec![
                    outcome(Err(crash), 1.0, 9),
                    outcome(Err(MeasureError::CorruptReading { readings: 5 }), 2.0, 4),
                    outcome(Ok(f64::INFINITY), 0.25, 1),
                ],
            ),
            (vec![], vec![]),
        ]
    }

    /// A file holding [`sample`], its bytes, and the offsets its
    /// generation frames end at.
    fn written(name: &str) -> (PathBuf, Vec<u8>, Vec<usize>) {
        let path = tmp(name);
        let mut log = open(&path);
        for (jobs, outcomes) in sample() {
            log.record(&jobs, &outcomes).expect("save");
        }
        let bytes = std::fs::read(&path).expect("written");
        let ends = open(&path).pending.iter().map(|&(_, end)| end).collect();
        (path, bytes, ends)
    }

    /// Every field of an outcome, floats as bits.
    fn bits(o: &MeasureOutcome) -> (Result<u64, MeasureError>, u64, u64) {
        let reading = o.reading.clone().map(f64::to_bits);
        (reading, o.cost_s.to_bits(), o.retries)
    }

    #[test]
    fn a_recorded_log_replays_bit_exactly() {
        let (path, before, ends) = written("roundtrip.ckpt");
        assert_eq!(ends.last(), Some(&before.len()), "three whole frames");
        let mut log = open(&path);
        for (jobs, outcomes) in sample() {
            let replayed = log.replay(&jobs);
            assert_eq!(
                replayed.iter().map(bits).collect::<Vec<_>>(),
                outcomes.iter().map(bits).collect::<Vec<_>>()
            );
            log.record(&jobs, &replayed).expect("record");
        }
        assert_eq!(log.replayed_generations(), 3);
        assert!(log.replay(&[1]).is_empty(), "the log is exhausted");
        // Replaying writes nothing: the file is as it was.
        assert_eq!(std::fs::read(&path).expect("still there"), before);
        cleanup(&path);
    }

    #[test]
    fn a_diverging_generation_keeps_its_matching_prefix_and_drops_the_rest() {
        let (path, ..) = written("diverge.ckpt");
        // A different job, fewer jobs than recorded, more jobs than
        // recorded: the matching prefix comes back, nothing afterwards.
        for (jobs, matching) in [
            (&[0xDEAD, 8, u64::MAX][..], 1),
            (&[0xDEAD, 7][..], 2),
            (&[0xDEAD, 7, u64::MAX, 9][..], 3),
        ] {
            let mut log = open(&path);
            assert_eq!(log.replay(jobs).len(), matching);
            assert!(log.replay(&[1, 2, 3]).is_empty());
            assert_eq!(log.replayed_generations(), 0);
        }
        cleanup(&path);
    }

    #[test]
    fn a_kill_during_replay_loses_nothing_and_a_divergence_cuts_the_file_back() {
        let (path, before, ends) = written("mid-replay.ckpt");
        let mut log = open(&path);
        let (jobs, _) = &sample()[0];
        let first = log.replay(jobs);
        log.record(jobs, &first).expect("record");
        assert_eq!(std::fs::read(&path).expect("untouched"), before);
        // The next generation measures something the file never saw: the
        // file keeps the first generation and gains this one's frame.
        assert!(log.replay(&[99]).is_empty());
        log.record(&[99], &first[..1]).expect("record");
        let after = std::fs::read(&path).expect("written");
        assert_eq!(after[..ends[0]], before[..ends[0]]);
        assert!(after.len() < before.len());
        let mut reopened = open(&path);
        assert_eq!(reopened.replay(jobs).len(), 3);
        assert_eq!(reopened.replay(&[99]).len(), 1);
        assert!(reopened.replay(&[1, 2, 3]).is_empty());
        cleanup(&path);
    }

    #[test]
    fn damaged_older_or_foreign_files_start_fresh() {
        let (path, bytes, ends) = written("fresh.ckpt");
        let full = String::from_utf8(bytes.clone()).expect("text");
        let prefix = open(&path).prefix;
        // A frame that checks out, holding a malformed generation, between
        // the first generation and the rest.
        let (_, first) = full[prefix.len()..ends[0]]
            .split_once('\n')
            .expect("framed");
        let inserted = |payload: String| {
            format!(
                "{}{}{}",
                &full[..ends[0]],
                frame(&payload),
                &full[ends[0]..]
            )
        };
        let mut flipped = bytes.clone();
        flipped[ends[0] - 10] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("still text");
        for (what, text) in [
            ("empty file", String::new()),
            ("not a checkpoint", "not a checkpoint".to_string()),
            ("older version", full.replacen(" v4\n", " v3\n", 1)),
            ("torn inside the header", full[..10].to_string()),
            (
                "torn inside the context",
                full[..prefix.len() - 3].to_string(),
            ),
            ("a bit flip before the last frame", flipped),
            (
                "unknown outcome kind",
                inserted(first.replacen(" ok ", " fine ", 1)),
            ),
            (
                "non-numeric count",
                inserted(first.replacen("n 3", "n x", 1)),
            ),
            (
                "count past the entries",
                inserted(first.replacen("n 3", "n 4", 1)),
            ),
        ] {
            std::fs::write(&path, text).expect("write");
            let mut log = open(&path);
            assert!(log.replay(&[0xDEAD, 7, u64::MAX]).is_empty(), "{what}");
            // The fresh start writes the whole file anew.
            for (jobs, outcomes) in sample() {
                log.record(&jobs, &outcomes).expect("record");
            }
            assert_eq!(std::fs::read(&path).expect("rewritten"), bytes, "{what}");
        }
        cleanup(&path);
    }

    #[test]
    fn a_torn_tail_keeps_every_whole_generation() {
        let (path, bytes, ends) = written("torn.ckpt");
        let prefix = open(&path).prefix.len();
        let full = String::from_utf8(bytes.clone()).expect("text");
        // A torn append whose bit flip lowered the last frame's length
        // digits: the frame ends, damaged, before the file does.
        let last = &full[ends[1]..];
        let len = last.len() - last.find('\n').expect("framed") - 1;
        let shortened = format!("entry {} ", len - 1);
        let shortened = last.replacen(&format!("entry {len} "), &shortened, 1);
        let mut tails = vec![
            (format!("{full}extra\n"), 3),
            (format!("{full}{}", frame("generation x\n")), 3),
            (format!("{}{shortened}", &full[..ends[1]]), 2),
        ];
        for cut in prefix..bytes.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            tails.push((full[..cut].to_string(), whole));
        }
        for (text, whole) in tails {
            std::fs::write(&path, &text).expect("write");
            let mut log = open(&path);
            // A resumed run replays the whole generations and measures the
            // rest; the file ends up as an uninterrupted run left it.
            for (jobs, outcomes) in sample() {
                let replayed = log.replay(&jobs);
                let outcomes = if replayed.len() == jobs.len() {
                    replayed
                } else {
                    outcomes
                };
                log.record(&jobs, &outcomes).expect("record");
            }
            let at = text.len();
            assert_eq!(log.replayed_generations(), whole as u64, "cut at {at}");
            if whole < 3 {
                assert_eq!(std::fs::read(&path).expect("read"), bytes, "cut at {at}");
            }
        }
        cleanup(&path);
    }

    #[test]
    fn context_mismatch_refuses_to_resume() {
        let (path, ..) = written("context.ckpt");
        let replays = |path: &Path, seed, machine, sketches: &[&str]| {
            !MeasureLog::open(Box::new(DiskIo), path, seed, machine, sketches)
                .replay(&[0xDEAD, 7, u64::MAX])
                .is_empty()
        };
        assert!(replays(&path, 42, MACHINE, &[SKETCH]));
        assert!(!replays(&path, 43, MACHINE, &[SKETCH]));
        assert!(!replays(&path, 42, "SimARM", &[SKETCH]));
        assert!(!replays(&path, 42, MACHINE, &["other-sketch"]));
        // A tune over more sketches, or the same ones in another order,
        // is another tune.
        assert!(!replays(&path, 42, MACHINE, &[SKETCH, "gpu-scalar"]));
        assert!(!replays(&path, 42, MACHINE, &["gpu-scalar", SKETCH]));
        assert!(!replays(&path, 42, MACHINE, &[]));
        let missing = path.with_file_name("missing.ckpt");
        assert!(!replays(&missing, 42, MACHINE, &[SKETCH]));
        cleanup(&path);
    }

    /// A checkpointed tune's generations, re-recorded through [`FaultIo`]
    /// and crashed at every checkpoint crash point and inside every
    /// append: a tune resumed from what is left on disk equals the
    /// uninterrupted one and resumes from exactly the generations that
    /// were fsynced.
    #[test]
    fn a_resume_after_a_fault_io_crash_anywhere_in_the_log_is_bit_identical() {
        use crate::measure::SimMeasurer;
        use crate::search::{tune_with, TuneOptions, TuneResult};
        use crate::sketch::SketchRule;
        use crate::sketch_gpu::GpuTensorSketch;
        use tir_exec::machine::Machine;

        let func = tir::builder::matmul_func("mm", 128, 128, 128, tir::DataType::float16());
        let reg = tir_tensorize::builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").expect("wmma");
        let sketch = GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch");
        let machine = Machine::sim_gpu();
        let path = tmp("chaos.ckpt");
        let opts = TuneOptions {
            trials: 32,
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let tune = || tune_with(&[&sketch], &machine, &opts, &SimMeasurer);
        // Every field but the one a resume sets, floats bit-exactly.
        let fields = |r: &TuneResult| {
            let rest = TuneResult {
                best: None,
                resumed_from_generation: None,
                ..r.clone()
            };
            (r.best.as_ref().map(|f| f.to_string()), format!("{rest:?}"))
        };
        let uninterrupted = fields(&tune());
        let names = [sketch.name()];
        let open =
            |io: Box<dyn JournalIo>| MeasureLog::open(io, &path, opts.seed, &machine.name, &names);
        let original = std::fs::read(&path).expect("checkpoint written");
        let (generations, ends): (Vec<Generation>, Vec<usize>) =
            open(Box::new(DiskIo)).pending.into_iter().unzip();
        assert!(generations.len() >= 3, "a tune of several appends");
        // Re-records the generations until the crash fires; returns how
        // many of them are on disk after it, or `None` when it never fired.
        let crash = |spec: FaultSpec, post_fsync: bool| -> Option<u64> {
            let _ = std::fs::remove_file(&path);
            let mut log = open(Box::new(FaultIo::new(spec)));
            let (done, _) = (generations.iter().enumerate()).find(|(_, generation)| {
                let (jobs, outcomes): (Vec<u64>, Vec<MeasureOutcome>) =
                    generation.iter().cloned().unzip();
                log.record(&jobs, &outcomes).is_err()
            })?;
            // A short write may still have carried the whole frame.
            let whole = std::fs::read(&path).expect("crash state") == original[..ends[done]];
            Some(done as u64 + u64::from(post_fsync || whole))
        };
        let resumes = |on_disk: u64, what: &str| {
            let r = tune();
            let want = Some(on_disk).filter(|&g| g > 0);
            assert_eq!(r.resumed_from_generation, want, "{what}");
            assert!(
                fields(&r) == uninterrupted,
                "{what}: differs from the uninterrupted tune"
            );
        };
        let appends = generations.len() - 1;
        for point in CHECKPOINT_CRASH_POINTS {
            let post_fsync = *point == "checkpoint.post_fsync";
            let fired = (0..)
                .map_while(|n| Some((n, crash(FaultSpec::crash_at(point, n, 7), post_fsync)?)))
                .inspect(|&(n, on_disk)| resumes(on_disk, &format!("{point}#{n}")))
                .count();
            assert_eq!(fired, appends, "{point} fires once per append");
        }
        for seed in [1, 2, 3] {
            let ops = 0..2 * generations.len() as u64;
            let fired = (ops.filter_map(|op| {
                let spec = FaultSpec {
                    seed,
                    crash_in_append: Some(op),
                    ..Default::default()
                };
                Some((op, crash(spec, false)?))
            }))
            .inspect(|&(op, on_disk)| resumes(on_disk, &format!("append op {op} seed {seed}")))
            .count();
            assert_eq!(fired, appends, "seed {seed}: one crash inside each append");
        }
        cleanup(&path);
    }
}
