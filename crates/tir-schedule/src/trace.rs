//! Schedule traces: a replayable record of applied primitives.
//!
//! A trace is human-readable provenance for a scheduled function (the
//! examples print it) and the input of [`replay`](crate::replay::replay).
//! The evolutionary search (§4.4) does not go through it: it mutates a
//! sketch's decision vector and re-applies the sketch to the workload.

use std::fmt;

/// One argument of a trace step.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceArg {
    /// Integer argument.
    Int(i64),
    /// Integer list (e.g. split factors).
    Ints(Vec<i64>),
    /// String argument (block names, scopes, intrinsic names).
    Str(String),
}

impl fmt::Display for TraceArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceArg::Int(v) => write!(f, "{v}"),
            TraceArg::Ints(v) => write!(f, "{v:?}"),
            TraceArg::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for TraceArg {
    fn from(v: i64) -> Self {
        TraceArg::Int(v)
    }
}
impl From<&str> for TraceArg {
    fn from(v: &str) -> Self {
        TraceArg::Str(v.to_string())
    }
}
impl From<String> for TraceArg {
    fn from(v: String) -> Self {
        TraceArg::Str(v)
    }
}
impl From<Vec<i64>> for TraceArg {
    fn from(v: Vec<i64>) -> Self {
        TraceArg::Ints(v)
    }
}

/// One recorded primitive application.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceStep {
    /// Primitive name (e.g. `"split"`).
    pub primitive: &'static str,
    /// Arguments in call order.
    pub args: Vec<TraceArg>,
}

impl TraceStep {
    /// Creates a step.
    pub fn new(primitive: &'static str, args: Vec<TraceArg>) -> Self {
        TraceStep { primitive, args }
    }
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.primitive)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// The full record of primitives applied to a schedule.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Trace {
    steps: Vec<TraceStep>,
}

impl Trace {
    /// Appends a step.
    pub fn push(&mut self, step: TraceStep) {
        self.steps.push(step);
    }

    /// The recorded steps in application order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of steps recorded.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no primitive has been applied.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_formats() {
        let mut t = Trace::default();
        t.push(TraceStep::new(
            "split",
            vec!["i".into(), vec![16i64, 4].into()],
        ));
        t.push(TraceStep::new("vectorize", vec!["i_1".into()]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_string(), "split(\"i\", [16, 4])\nvectorize(\"i_1\")\n");
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.to_string(), "");
    }
}
