//! The machine-speed probe: a fixed piece of work owned by the benchmark,
//! timed between repetitions, so that a wall-clock measurement can be
//! stated at the speed of a quiet machine.
//!
//! This box is a two-core guest of a shared host. For minutes at a time
//! everything on it runs 15–35% slower (every phase of a workload by the
//! same share, see the README), which is more than the 25% the driver lets
//! a metric's median move between two sets of runs. The program under
//! test cannot tell such a period from a regression; a fixed computation run
//! in the same seconds can. Each repetition is therefore timed between two
//! runs of [`run`], and its wall-clock divided by
//! `mean(probe before, probe after) / REFERENCE_S` ([`SpeedMeter::lap`]).
//! On a quiet machine that factor is 1 and nothing changes.
//!
//! The probe is no part of the program, so a change to the program cannot
//! change the work it does. (It shares the process's allocator: inside a
//! run it reads 1.07–1.21 where it reads 1.0 alone, depending on the heap
//! the workload leaves behind, so a change to how the program allocates can
//! move a gated metric by a fraction of that — small against a 25% bound,
//! and `machine_slowdown` is printed so it shows.) It does what the
//! program does all day, in miniature — builds trees of boxed nodes, rewrites
//! them, prints them and looks the text up in a hash map — because a busy
//! neighbour slows different kinds of code by different shares, and a probe
//! helps only as far as it slows down with the code it stands for. Measured
//! over 48 runs on a noisy afternoon (README, "Steadiness on this box"), this
//! probe took the run-to-run spread of `wall_s` from 10% to 1.9% on
//! `tune_ops`, 6% to 1.7% on `compile_models`, 16% to 4% on `serve_session`
//! and 4% to 2% on `oracles`; a tight `f64` dispatch loop tried beside it
//! swung three times as far as any workload and helped none of them.

use std::collections::HashMap;
use std::fmt::Write;
use std::time::Instant;

/// Median time of [`run`] on the box the benchmark was written on, with
/// nothing else running (two-core Firecracker guest, release build).
pub const REFERENCE_S: f64 = 0.0152;

enum Node {
    Leaf(u64),
    Add(Box<Node>, Box<Node>),
    Mul(Box<Node>, Box<Node>),
    Neg(Box<Node>),
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn build(s: &mut u64, depth: u32) -> Node {
    let r = xorshift(s);
    if depth == 0 || r % 7 == 0 {
        return Node::Leaf(r % 97);
    }
    let mut child = || Box::new(build(s, depth - 1));
    match r % 3 {
        0 => Node::Add(child(), child()),
        1 => Node::Mul(child(), child()),
        _ => Node::Neg(child()),
    }
}

fn simplify(n: Node) -> Node {
    match n {
        Node::Add(a, b) => match (simplify(*a), simplify(*b)) {
            (Node::Leaf(0), x) | (x, Node::Leaf(0)) => x,
            (Node::Leaf(x), Node::Leaf(y)) => Node::Leaf((x + y) % 97),
            (x, y) => Node::Add(Box::new(x), Box::new(y)),
        },
        Node::Mul(a, b) => match (simplify(*a), simplify(*b)) {
            (Node::Leaf(1), x) | (x, Node::Leaf(1)) => x,
            (Node::Leaf(x), Node::Leaf(y)) => Node::Leaf((x * y) % 97),
            (x, y) => Node::Mul(Box::new(x), Box::new(y)),
        },
        Node::Neg(a) => match simplify(*a) {
            Node::Neg(x) => *x,
            x => Node::Neg(Box::new(x)),
        },
        leaf => leaf,
    }
}

fn print(n: &Node, out: &mut String) {
    match n {
        Node::Leaf(v) => {
            let _ = write!(out, "{v}");
        }
        Node::Add(a, b) => {
            out.push('(');
            print(a, out);
            out.push_str(" + ");
            print(b, out);
            out.push(')');
        }
        Node::Mul(a, b) => {
            print(a, out);
            out.push_str(" * ");
            print(b, out);
        }
        Node::Neg(a) => {
            out.push('-');
            print(a, out);
        }
    }
}

/// Build, rewrite, print, intern: [`TREES`] seeded expression trees.
fn trees() -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15_u64;
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut chars = 0;
    for _ in 0..TREES {
        let tree = simplify(build(&mut s, 12));
        let mut text = String::new();
        print(&tree, &mut text);
        chars += text.len() as u64;
        *seen.entry(text).or_default() += 1;
    }
    chars + seen.len() as u64
}

const TREES: usize = 1000;

/// Runs the probe once and returns its wall-clock in seconds.
pub fn run() -> f64 {
    let t = Instant::now();
    std::hint::black_box(trees());
    t.elapsed().as_secs_f64()
}

/// Times the probe at the boundaries of the intervals a workload measures.
pub struct SpeedMeter {
    last: f64,
}

impl SpeedMeter {
    /// Runs the probe: the start of the first interval.
    pub fn start() -> SpeedMeter {
        // Once unmeasured, so the first timed probe finds its code and the
        // allocator's free lists as warm as every later one does.
        run();
        SpeedMeter { last: run() }
    }

    /// Ends an interval and starts the next: runs the probe and returns how
    /// much slower than the reference machine this one was over the
    /// interval (1.0 = reference speed), from the probes at its two ends.
    pub fn lap(&mut self) -> f64 {
        let now = run();
        let slowdown = (self.last + now) / 2.0 / REFERENCE_S;
        self.last = now;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(trees(), trees());
        // The rewrites fire and the texts are not all alike.
        assert!(trees() > TREES as u64);
    }

    #[test]
    fn a_lap_is_the_mean_of_its_two_probes_over_the_reference() {
        let mut meter = SpeedMeter {
            last: REFERENCE_S * 1.5,
        };
        let slowdown = meter.lap();
        let expected = (REFERENCE_S * 1.5 + meter.last) / 2.0 / REFERENCE_S;
        assert!((slowdown - expected).abs() < 1e-12);
        assert!(slowdown > 0.75);
    }
}
