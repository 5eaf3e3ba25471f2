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
//! ```text
//! tir-autoschedule-checkpoint v3
//! context <seed> <len> <machine name> <len> <sketch name> [<len> <sketch name> ...]
//! generation <jobs>
//! <hash> ok|reject|timeout|crash|corrupt <value> <cost_s> <retries>
//! ...
//! end
//! ```
//!
//! `<hash>`, `<value>` and `<cost_s>` are 16 hex digits; `<value>` is the
//! bits of the reading (`ok`) or of the runner's limit (`timeout`), the
//! readings taken (`corrupt`), else zero. Error messages are not stored:
//! the search never reads them. The context line names the tune's seed,
//! its machine and every sketch it searches, in order, and must be the
//! resuming run's own; `end` detects truncation; the file is rewritten
//! atomically ([`atomic_write`]) after every generation, and anything
//! malformed, mismatched or of another version means a fresh start.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::database::{hex_f64, parse_hex_f64};
use crate::measure::{MeasureError, MeasureOutcome};

/// Magic + version header; bump the version on any format change.
const HEADER: &str = "tir-autoschedule-checkpoint v3";
/// Truncation sentinel, the file's last line.
const END: &str = "end\n";
/// Stands in for the error message of a replayed failure.
const REPLAYED: &str = "replayed from the checkpoint";

/// The measurements of one generation, in batch-rank order.
type Generation = Vec<(u64, MeasureOutcome)>;

/// The measurement log of one tuning run: what a previous run left in the
/// checkpoint file, handed back one generation at a time, and what this
/// run has measured (or replayed) so far, written back after each.
pub(crate) struct MeasureLog {
    path: PathBuf,
    /// The file's text as found, without the sentinel; empty when there
    /// was no usable file.
    found: String,
    /// Generations of `found` not yet replayed.
    pending: VecDeque<Generation>,
    /// Generations answered entirely from the file.
    replayed_generations: u64,
    /// This run's log so far, without the sentinel.
    text: String,
}

impl MeasureLog {
    /// Opens the log at `path` for the tune identified by `seed`,
    /// `machine` and `sketches`. A missing, malformed, truncated,
    /// older-version or foreign-context file yields an empty log: the run
    /// starts fresh.
    pub(crate) fn open(path: &Path, seed: u64, machine: &str, sketches: &[&str]) -> MeasureLog {
        // Names are length-prefixed; the whole line must match the file's
        // byte for byte, so nothing in a name can forge a context.
        let mut text = format!("{HEADER}\ncontext {seed} {} {machine}", machine.len());
        for sketch in sketches {
            let _ = write!(text, " {} {sketch}", sketch.len());
        }
        text.push('\n');
        let (found, pending) = std::fs::read_to_string(path)
            .ok()
            .and_then(|mut file| {
                file.truncate(file.strip_suffix(END)?.len());
                let pending = decode(file.strip_prefix(&text)?)?;
                Some((file, pending))
            })
            .unwrap_or_default();
        MeasureLog {
            path: path.to_path_buf(),
            found,
            pending,
            replayed_generations: 0,
            text,
        }
    }

    /// Outcomes the file holds for the next generation, whose jobs have
    /// the structural hashes `jobs` in rank order: one per job up to the
    /// first job the file does not name. The caller measures the rest. A
    /// generation the file does not answer in full ends the replay — what
    /// the file holds beyond it belongs to a different trajectory.
    pub(crate) fn replay(&mut self, jobs: &[u64]) -> Vec<MeasureOutcome> {
        let Some(recorded) = self.pending.pop_front() else {
            return Vec::new();
        };
        let matching = recorded
            .iter()
            .zip(jobs)
            .take_while(|((hash, _), job)| hash == *job)
            .count();
        if matching == jobs.len() && matching == recorded.len() {
            self.replayed_generations += 1;
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

    /// Appends one generation — every job's hash and outcome in rank
    /// order, replayed or measured — and rewrites the file, unless the
    /// file already begins with everything recorded so far (a replay in
    /// progress: the file still knows more than this run).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the search treats a failed save as
    /// "resumability lost", never as a tuning failure.
    pub(crate) fn record(
        &mut self,
        jobs: &[u64],
        outcomes: &[MeasureOutcome],
    ) -> std::io::Result<()> {
        let _ = writeln!(self.text, "generation {}", jobs.len());
        for (hash, outcome) in jobs.iter().zip(outcomes) {
            let (kind, value) = match &outcome.reading {
                Ok(t) => ("ok", t.to_bits()),
                Err(MeasureError::CompileReject(_)) => ("reject", 0),
                Err(MeasureError::Timeout { limit_s }) => ("timeout", limit_s.to_bits()),
                Err(MeasureError::RunnerCrash(_)) => ("crash", 0),
                Err(MeasureError::CorruptReading { readings }) => ("corrupt", *readings as u64),
            };
            let _ = writeln!(
                self.text,
                "{hash:016x} {kind} {value:016x} {} {}",
                hex_f64(outcome.cost_s),
                outcome.retries
            );
        }
        if self.found.starts_with(&self.text) {
            return Ok(());
        }
        self.text.push_str(END);
        let written = atomic_write(&self.path, self.text.as_bytes());
        self.text.truncate(self.text.len() - END.len());
        written
    }
}

/// Decodes the generations between the context line and the sentinel;
/// `None` on any malformation.
fn decode(body: &str) -> Option<VecDeque<Generation>> {
    let mut lines = body.lines();
    let mut generations = VecDeque::new();
    while let Some(line) = lines.next() {
        let jobs: usize = line.strip_prefix("generation ")?.parse().ok()?;
        let generation: Option<Generation> =
            (0..jobs).map(|_| decode_entry(lines.next()?)).collect();
        generations.push_back(generation?);
    }
    Some(generations)
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

/// Writes `bytes` to `path` atomically: they land in a sibling temp file
/// first (`<path>.<ext>.tmp`), are fsync'd, and only then renamed over the
/// destination. On POSIX filesystems the rename is atomic, so readers —
/// and a process killed at any instant — see either the complete old file
/// or the complete new file, never a truncated mix. This is the shared
/// persistence discipline of the checkpoint, the on-disk
/// [`crate::database::TuningDatabase`] and
/// [`crate::fault_io::DiskIo`]'s snapshot replacement.
///
/// # Errors
///
/// Propagates filesystem errors (temp-file creation, write, fsync, or
/// rename). The temp file may be left behind on failure; the
/// destination is never touched until the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut ext = path
        .extension()
        .map(|e| e.to_os_string())
        .unwrap_or_default();
    ext.push(".tmp");
    let tmp = path.with_extension(ext);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A file holding [`sample`], and its bytes.
    fn written(name: &str) -> (PathBuf, Vec<u8>) {
        let path = tmp(name);
        let mut log = MeasureLog::open(&path, 42, MACHINE, &[SKETCH]);
        for (jobs, outcomes) in sample() {
            log.record(&jobs, &outcomes).expect("save");
        }
        let bytes = std::fs::read(&path).expect("written");
        (path, bytes)
    }

    /// Every field of an outcome, floats as bits.
    fn bits(o: &MeasureOutcome) -> (Result<u64, MeasureError>, u64, u64) {
        let reading = o.reading.clone().map(f64::to_bits);
        (reading, o.cost_s.to_bits(), o.retries)
    }

    #[test]
    fn a_recorded_log_replays_bit_exactly() {
        let (path, before) = written("roundtrip.ckpt");
        let mut log = MeasureLog::open(&path, 42, MACHINE, &[SKETCH]);
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
        // Replaying re-encodes the same bytes and leaves the file alone.
        assert_eq!(std::fs::read(&path).expect("still there"), before);
        cleanup(&path);
    }

    #[test]
    fn a_diverging_generation_keeps_its_matching_prefix_and_drops_the_rest() {
        let (path, _) = written("diverge.ckpt");
        // A different job, fewer jobs than recorded, more jobs than
        // recorded: the matching prefix comes back, nothing afterwards.
        for (jobs, matching) in [
            (&[0xDEAD, 8, u64::MAX][..], 1),
            (&[0xDEAD, 7][..], 2),
            (&[0xDEAD, 7, u64::MAX, 9][..], 3),
        ] {
            let mut log = MeasureLog::open(&path, 42, MACHINE, &[SKETCH]);
            assert_eq!(log.replay(jobs).len(), matching);
            assert!(log.replay(&[1, 2, 3]).is_empty());
            assert_eq!(log.replayed_generations(), 0);
        }
        cleanup(&path);
    }

    #[test]
    fn a_kill_during_replay_loses_nothing_and_a_divergence_rewrites() {
        let (path, before) = written("mid-replay.ckpt");
        let mut log = MeasureLog::open(&path, 42, MACHINE, &[SKETCH]);
        let (jobs, _) = &sample()[0];
        let first = log.replay(jobs);
        log.record(jobs, &first).expect("record");
        assert_eq!(std::fs::read(&path).expect("untouched"), before);
        // The next generation measures something the file never saw.
        assert!(log.replay(&[99]).is_empty());
        log.record(&[99], &first[..1]).expect("record");
        let mut reopened = MeasureLog::open(&path, 42, MACHINE, &[SKETCH]);
        assert_eq!(reopened.replay(jobs).len(), 3);
        assert_eq!(reopened.replay(&[99]).len(), 1);
        assert!(reopened.replay(&[1, 2, 3]).is_empty());
        cleanup(&path);
    }

    #[test]
    fn truncated_corrupt_or_old_files_are_ignored() {
        let (path, bytes) = written("corrupt.ckpt");
        let full = String::from_utf8(bytes).expect("text");
        let older = full.replacen(" v3\n", " v2\n", 1);
        let extra = format!("{full}extra\n");
        let bad_kind = full.replacen(" ok ", " fine ", 1);
        let bad_count = full.replacen("generation 3", "generation x", 1);
        let short_generation = full.replacen("generation 3", "generation 4", 1);
        for (what, text) in [
            ("sentinel dropped", &full[..full.len() - END.len()]),
            ("chopped mid-structure", &full[..full.len() / 2]),
            ("not a checkpoint", "not a checkpoint"),
            ("older version", &older),
            ("trailing garbage", &extra),
            ("unknown outcome kind", &bad_kind),
            ("non-numeric count", &bad_count),
            ("count past the entries", &short_generation),
        ] {
            std::fs::write(&path, text).expect("write");
            let mut log = MeasureLog::open(&path, 42, MACHINE, &[SKETCH]);
            assert!(log.replay(&[0xDEAD, 7, u64::MAX]).is_empty(), "{what}");
        }
        cleanup(&path);
    }

    #[test]
    fn context_mismatch_refuses_to_resume() {
        let (path, _) = written("context.ckpt");
        let replays = |path: &Path, seed, machine, sketches: &[&str]| {
            !MeasureLog::open(path, seed, machine, sketches)
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
}
