//! Generation-granularity checkpoint/resume for tuning runs.
//!
//! Long tuning runs get killed — out-of-memory, preemption, operator
//! Ctrl-C — and restarting from scratch wastes the whole measurement
//! budget spent so far. [`crate::search::tune_with`] can persist its
//! complete coordinator state after every generation and resume from it:
//! a killed-and-resumed run produces the **bit-identical** best program,
//! history, and accounting as an uninterrupted one, because everything
//! the search trajectory depends on is either in the checkpoint or
//! derived deterministically from `(seed, generation, slot)`.
//!
//! # Format
//!
//! A hand-rolled, line-oriented text format (no serde dependency). Every
//! `f64` is stored as the hex of its IEEE-754 bits so round-trips are
//! bit-exact (including infinities). Decision vectors serialize as
//! `a,b|c` (groups joined by `|`, values by `,`; `-` for an empty
//! vector). The file starts with a magic+version line, carries a context
//! line (`seed`, machine, sketch) that must match the resuming run, and
//! ends with an `end` sentinel so truncated files are detected. Files
//! are written atomically (temp file + rename), and any malformed or
//! mismatched checkpoint is ignored — the run starts fresh rather than
//! resuming from garbage.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;

use crate::sketch::Decision;

/// Magic + version header; bump the version on any format change.
const HEADER: &str = "tir-autoschedule-checkpoint v1";

/// Complete coordinator state of a tuning run at a generation boundary.
///
/// Everything [`crate::search::tune_with`] needs to continue as if it had
/// never stopped. The best program itself is not stored: its *decision
/// vector* is, and the sketch deterministically re-materializes the
/// bit-identical program on resume.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneCheckpoint {
    /// Search seed — must match the resuming run's `TuneOptions::seed`.
    pub seed: u64,
    /// Machine name the run was tuning for.
    pub machine: String,
    /// Sketch name the run was tuning.
    pub sketch: String,
    /// Next generation to execute.
    pub generation: u64,
    /// `TuneResult::trials_measured` so far.
    pub trials_measured: usize,
    /// `TuneResult::invalid_filtered` so far: invalid candidates among
    /// those the generations run so far materialized, not among all they
    /// proposed.
    pub invalid_filtered: usize,
    /// `TuneResult::wasted_measurements` so far.
    pub wasted_measurements: usize,
    /// `TuneResult::failed_measurements` so far.
    pub failed_measurements: usize,
    /// `TuneResult::retries` so far.
    pub retries: u64,
    /// `TuneResult::cache_hits` so far.
    pub cache_hits: usize,
    /// `TuneResult::quarantined` so far.
    pub quarantined: usize,
    /// Best measured time (bit-exact; `inf` before any success).
    pub best_time: f64,
    /// Accumulated simulated tuning cost (bit-exact).
    pub tuning_cost_s: f64,
    /// Best-so-far after each measurement.
    pub history: Vec<f64>,
    /// Decision vector of the best program, if any.
    pub best_decisions: Option<Vec<Decision>>,
    /// Elite pool in coordinator order: `(decisions, measured time)`.
    pub elites: Vec<(Vec<Decision>, f64)>,
    /// Every decision vector ever proposed (dedup set).
    pub seen: Vec<Vec<Decision>>,
    /// Measurement cache: `(structural hash, features, time)`.
    pub cache: Vec<(u64, Vec<f64>, f64)>,
    /// Structural hashes of quarantined candidates.
    pub quarantine: Vec<u64>,
    /// Cost-model training set in insertion order: `(features, target)`.
    /// Order matters — the GBDT refit is only deterministic if the
    /// samples come back exactly as they were accumulated.
    pub model_samples: Vec<(Vec<f64>, f64)>,
}

fn push_f64(out: &mut String, v: f64) {
    out.push_str(&format!("{:016x}", v.to_bits()));
}

fn push_decisions(out: &mut String, d: &[Decision]) {
    if d.is_empty() {
        out.push('-');
        return;
    }
    for (i, group) in d.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        if group.is_empty() {
            out.push('_');
            continue;
        }
        for (j, v) in group.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
    }
}

/// Encodes a checkpoint to its textual form.
pub fn encode(ck: &TuneCheckpoint) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    // Context line: identifies the run this state belongs to. Machine
    // and sketch names are whitespace-escaped by their length prefix.
    out.push_str(&format!(
        "context {} {} {} {} {}\n",
        ck.seed,
        ck.machine.len(),
        ck.machine,
        ck.sketch.len(),
        ck.sketch
    ));
    out.push_str(&format!(
        "counts {} {} {} {} {} {} {} {}\n",
        ck.generation,
        ck.trials_measured,
        ck.invalid_filtered,
        ck.wasted_measurements,
        ck.failed_measurements,
        ck.retries,
        ck.cache_hits,
        ck.quarantined
    ));
    out.push_str("best_time ");
    push_f64(&mut out, ck.best_time);
    out.push_str("\ntuning_cost_s ");
    push_f64(&mut out, ck.tuning_cost_s);
    out.push_str(&format!("\nhistory {}", ck.history.len()));
    for h in &ck.history {
        out.push(' ');
        push_f64(&mut out, *h);
    }
    out.push_str("\nbest ");
    match &ck.best_decisions {
        None => out.push('0'),
        Some(d) => {
            out.push_str("1 ");
            push_decisions(&mut out, d);
        }
    }
    out.push_str(&format!("\nelites {}\n", ck.elites.len()));
    for (d, t) in &ck.elites {
        out.push_str("e ");
        push_f64(&mut out, *t);
        out.push(' ');
        push_decisions(&mut out, d);
        out.push('\n');
    }
    out.push_str(&format!("seen {}\n", ck.seen.len()));
    for d in &ck.seen {
        out.push_str("s ");
        push_decisions(&mut out, d);
        out.push('\n');
    }
    out.push_str(&format!("cache {}\n", ck.cache.len()));
    for (hash, features, t) in &ck.cache {
        out.push_str(&format!("c {hash} "));
        push_f64(&mut out, *t);
        out.push_str(&format!(" {}", features.len()));
        for f in features {
            out.push(' ');
            push_f64(&mut out, *f);
        }
        out.push('\n');
    }
    out.push_str(&format!("quarantine {}", ck.quarantine.len()));
    for q in &ck.quarantine {
        out.push_str(&format!(" {q}"));
    }
    out.push_str(&format!("\nmodel {}\n", ck.model_samples.len()));
    for (features, target) in &ck.model_samples {
        out.push_str("m ");
        push_f64(&mut out, *target);
        out.push_str(&format!(" {}", features.len()));
        for f in features {
            out.push(' ');
            push_f64(&mut out, *f);
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Token stream over the encoded form; every reader returns `None` on
/// any malformation so `decode` degrades to "no checkpoint".
struct Tokens<'a> {
    toks: VecDeque<&'a str>,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Tokens {
            toks: text.split_whitespace().collect(),
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.toks.pop_front()
    }

    fn expect(&mut self, word: &str) -> Option<()> {
        (self.next()? == word).then_some(())
    }

    fn u64(&mut self) -> Option<u64> {
        self.next()?.parse().ok()
    }

    fn usize(&mut self) -> Option<usize> {
        self.next()?.parse().ok()
    }

    fn f64(&mut self) -> Option<f64> {
        let bits = u64::from_str_radix(self.next()?, 16).ok()?;
        Some(f64::from_bits(bits))
    }

    fn sized_str(&mut self) -> Option<String> {
        // Length-prefixed: tokens are consumed and rejoined with single
        // spaces until the prefix is satisfied, so names with interior
        // spaces (e.g. "SimGPU (RTX-3080-class)") round-trip. Runs of
        // whitespace collapse to one space — fine for the machine/sketch
        // names we store, which never contain them. An empty name emits
        // no token at all (invisible to whitespace splitting), so
        // consume nothing.
        let len = self.usize()?;
        let mut s = String::new();
        while s.len() < len {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(self.next()?);
        }
        (s.len() == len).then_some(s)
    }

    fn decisions(&mut self) -> Option<Vec<Decision>> {
        let tok = self.next()?;
        if tok == "-" {
            return Some(Vec::new());
        }
        let mut out = Vec::new();
        for group in tok.split('|') {
            if group == "_" {
                out.push(Vec::new());
                continue;
            }
            let mut g = Vec::new();
            for v in group.split(',') {
                g.push(v.parse().ok()?);
            }
            out.push(g);
        }
        Some(out)
    }

    fn f64_vec(&mut self) -> Option<Vec<f64>> {
        let n = self.usize()?;
        (0..n).map(|_| self.f64()).collect()
    }
}

/// Decodes a checkpoint from its textual form. Returns `None` on any
/// malformation (wrong header, truncation, parse failure).
pub fn decode(text: &str) -> Option<TuneCheckpoint> {
    let mut ck = TuneCheckpoint::default();
    let body = text.strip_prefix(HEADER)?;
    let mut t = Tokens::new(body);
    t.expect("context")?;
    ck.seed = t.u64()?;
    ck.machine = t.sized_str()?;
    ck.sketch = t.sized_str()?;
    t.expect("counts")?;
    ck.generation = t.u64()?;
    ck.trials_measured = t.usize()?;
    ck.invalid_filtered = t.usize()?;
    ck.wasted_measurements = t.usize()?;
    ck.failed_measurements = t.usize()?;
    ck.retries = t.u64()?;
    ck.cache_hits = t.usize()?;
    ck.quarantined = t.usize()?;
    t.expect("best_time")?;
    ck.best_time = t.f64()?;
    t.expect("tuning_cost_s")?;
    ck.tuning_cost_s = t.f64()?;
    t.expect("history")?;
    ck.history = t.f64_vec()?;
    t.expect("best")?;
    ck.best_decisions = match t.next()? {
        "0" => None,
        "1" => Some(t.decisions()?),
        _ => return None,
    };
    t.expect("elites")?;
    let n = t.usize()?;
    for _ in 0..n {
        t.expect("e")?;
        let time = t.f64()?;
        let d = t.decisions()?;
        ck.elites.push((d, time));
    }
    t.expect("seen")?;
    let n = t.usize()?;
    for _ in 0..n {
        t.expect("s")?;
        ck.seen.push(t.decisions()?);
    }
    t.expect("cache")?;
    let n = t.usize()?;
    for _ in 0..n {
        t.expect("c")?;
        let hash = t.u64()?;
        let time = t.f64()?;
        let features = t.f64_vec()?;
        ck.cache.push((hash, features, time));
    }
    t.expect("quarantine")?;
    let n = t.usize()?;
    for _ in 0..n {
        ck.quarantine.push(t.u64()?);
    }
    t.expect("model")?;
    let n = t.usize()?;
    for _ in 0..n {
        t.expect("m")?;
        let target = t.f64()?;
        let features = t.f64_vec()?;
        ck.model_samples.push((features, target));
    }
    // The sentinel detects truncation; trailing garbage is rejected too.
    t.expect("end")?;
    t.next().is_none().then_some(ck)
}

/// Writes `text` to `path` atomically: the bytes land in a sibling
/// temp file first (`<path>.<ext>.tmp`), are fsync'd, and only then
/// renamed over the destination. On POSIX filesystems the rename is
/// atomic, so readers — and a process killed at any instant — see
/// either the complete old file or the complete new file, never a
/// truncated mix. This is the shared persistence discipline of the
/// checkpoint store and the on-disk [`crate::database::TuningDatabase`].
///
/// # Errors
///
/// Propagates filesystem errors (temp-file creation, write, fsync, or
/// rename). The temp file may be left behind on failure; the
/// destination is never touched until the rename.
pub fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    let mut ext = path
        .extension()
        .map(|e| e.to_os_string())
        .unwrap_or_default();
    ext.push(".tmp");
    let tmp = path.with_extension(ext);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Writes a checkpoint atomically (temp file + rename via
/// [`atomic_write`]), so a crash mid-write can never leave a truncated
/// checkpoint behind.
///
/// # Errors
///
/// Propagates filesystem errors; the search treats a failed save as
/// "resumability lost", never as a tuning failure.
pub fn save(path: &Path, ck: &TuneCheckpoint) -> std::io::Result<()> {
    atomic_write(path, &encode(ck))
}

/// Loads a checkpoint if `path` holds a valid one matching the resuming
/// run (`seed`, machine, sketch). Any mismatch, parse failure, or
/// missing file yields `None` — the run starts fresh.
pub fn load(path: &Path, seed: u64, machine: &str, sketch: &str) -> Option<TuneCheckpoint> {
    let text = std::fs::read_to_string(path).ok()?;
    let ck = decode(&text)?;
    (ck.seed == seed && ck.machine == machine && ck.sketch == sketch).then_some(ck)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneCheckpoint {
        TuneCheckpoint {
            seed: 42,
            machine: "SimGPU".into(),
            sketch: "gpu-tensor[wmma_16x16x16_f16]".into(),
            generation: 3,
            trials_measured: 17,
            invalid_filtered: 4,
            wasted_measurements: 1,
            failed_measurements: 2,
            retries: 9,
            cache_hits: 5,
            quarantined: 2,
            best_time: 1.25e-4,
            tuning_cost_s: 12.0625,
            history: vec![f64::INFINITY, 3.0e-4, 1.25e-4],
            best_decisions: Some(vec![vec![4, 2, 16], vec![2]]),
            elites: vec![
                (vec![vec![4, 2, 16], vec![2]], 1.25e-4),
                (vec![vec![8, 1, 16], vec![4]], 3.0e-4),
            ],
            seen: vec![vec![vec![4, 2, 16], vec![2]], vec![], vec![vec![-1]]],
            cache: vec![(0xDEAD, vec![1.0, 0.5, -2.25], 1.25e-4)],
            quarantine: vec![0xBEEF, 7],
            model_samples: vec![(vec![1.0, 0.5], 8.99), (vec![0.0], -1.5)],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let decoded = decode(&encode(&ck)).expect("decodes");
        assert_eq!(decoded, ck);
        // Bit-exactness of the floats specifically (PartialEq on f64
        // would also pass for -0.0 vs 0.0).
        assert_eq!(decoded.best_time.to_bits(), ck.best_time.to_bits());
        assert_eq!(
            decoded.history[0].to_bits(),
            f64::INFINITY.to_bits(),
            "infinity must survive"
        );
    }

    #[test]
    fn names_with_spaces_roundtrip() {
        // The real SimGPU machine name contains spaces; the length
        // prefix must span all of its tokens.
        let ck = TuneCheckpoint {
            machine: "SimGPU (RTX-3080-class)".into(),
            sketch: "gpu-tensor[wmma_16x16x16_f16]".into(),
            best_time: f64::INFINITY,
            ..Default::default()
        };
        assert_eq!(decode(&encode(&ck)), Some(ck));
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let ck = TuneCheckpoint {
            best_time: f64::INFINITY,
            ..Default::default()
        };
        assert_eq!(decode(&encode(&ck)), Some(ck));
    }

    #[test]
    fn truncated_or_corrupt_text_is_rejected() {
        let full = encode(&sample());
        // Drop the sentinel.
        let truncated = &full[..full.len() - 4];
        assert_eq!(decode(truncated), None);
        // Chop mid-structure.
        assert_eq!(decode(&full[..full.len() / 2]), None);
        // Wrong header.
        assert_eq!(decode("not a checkpoint"), None);
        // Trailing garbage.
        assert_eq!(decode(&format!("{full}\nextra")), None);
        // Bit-flip a count into a non-number.
        let corrupt = full.replacen("counts 3", "counts x", 1);
        assert_eq!(decode(&corrupt), None);
    }

    #[test]
    fn context_mismatch_refuses_to_resume() {
        let dir = std::env::temp_dir().join(format!("tir-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.ckpt");
        let ck = sample();
        save(&path, &ck).expect("save");
        assert_eq!(
            load(&path, 42, "SimGPU", "gpu-tensor[wmma_16x16x16_f16]"),
            Some(ck)
        );
        assert_eq!(
            load(&path, 43, "SimGPU", "gpu-tensor[wmma_16x16x16_f16]"),
            None
        );
        assert_eq!(
            load(&path, 42, "SimARM", "gpu-tensor[wmma_16x16x16_f16]"),
            None
        );
        assert_eq!(load(&path, 42, "SimGPU", "other-sketch"), None);
        assert_eq!(load(&dir.join("missing.ckpt"), 42, "SimGPU", "x"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
