//! Trace replay: re-applying a recorded primitive sequence to a fresh
//! program.
//!
//! Loop variables are addressed by *name* during replay; split/fuse derive
//! their new names deterministically from their inputs, so a trace
//! recorded on one build of a workload applies to any alpha-equivalent
//! build. Nothing in the tuner calls it — the search re-applies a sketch
//! with a mutated decision vector, and the tuning database stores the best
//! program itself — so today replay is an independent second route to a
//! scheduled program: replaying a schedule's trace on the original
//! workload must reproduce its `structural_hash`.
//!
//! Replay covers every §3.2 primitive the [`Schedule`] records. Compound
//! rewrites (`auto_tensorize`'s canonical-form replacement) are not single
//! primitives; traces recorded *after* such a rewrite replay on the
//! rewritten program, not the original workload.

use tir::{AnnValue, MemScope, PrimFunc, ThreadTag};

use crate::schedule::{LoopRef, Result, Schedule, ScheduleError};
use crate::trace::{Trace, TraceArg, TraceStep};

fn arg_str(step: &TraceStep, idx: usize) -> Result<&str> {
    match step.args.get(idx) {
        Some(TraceArg::Str(s)) => Ok(s),
        other => Err(ScheduleError::Precondition(format!(
            "trace step {} argument {idx}: expected string, got {other:?}",
            step.primitive
        ))),
    }
}

fn arg_ints(step: &TraceStep, idx: usize) -> Result<&[i64]> {
    match step.args.get(idx) {
        Some(TraceArg::Ints(v)) => Ok(v),
        other => Err(ScheduleError::Precondition(format!(
            "trace step {} argument {idx}: expected int list, got {other:?}",
            step.primitive
        ))),
    }
}

fn arg_ann(step: &TraceStep, idx: usize) -> AnnValue {
    match step.args.get(idx) {
        Some(TraceArg::Int(v)) => AnnValue::Int(*v),
        Some(TraceArg::Str(s)) => AnnValue::Str(s.clone()),
        _ => AnnValue::Int(0),
    }
}

impl Schedule {
    fn loop_by_name(&self, name: &str) -> Result<LoopRef> {
        self.find_loop_by_name(name)
            .ok_or_else(|| ScheduleError::LoopNotFound(name.to_string()))
    }

    /// Applies one recorded step.
    ///
    /// # Errors
    ///
    /// Fails when the step references names that do not exist or the
    /// primitive's preconditions fail on this program.
    pub fn apply_trace_step(&mut self, step: &TraceStep) -> Result<()> {
        match step.primitive {
            "split" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                let factors = arg_ints(step, 1)?.to_vec();
                self.split(&l, &factors)?;
            }
            "fuse" => {
                let loops: Vec<LoopRef> = step
                    .args
                    .iter()
                    .map(|a| match a {
                        TraceArg::Str(s) => self.loop_by_name(s),
                        other => Err(ScheduleError::Precondition(format!(
                            "fuse argument: expected loop name, got {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                self.fuse(&loops)?;
            }
            "reorder" => {
                let loops: Vec<LoopRef> = step
                    .args
                    .iter()
                    .map(|a| match a {
                        TraceArg::Str(s) => self.loop_by_name(s),
                        other => Err(ScheduleError::Precondition(format!(
                            "reorder argument: expected loop name, got {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                self.reorder(&loops)?;
            }
            "parallel" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                self.parallel(&l)?;
            }
            "vectorize" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                self.vectorize(&l)?;
            }
            "unroll" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                self.unroll(&l)?;
            }
            "bind" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                let tag = ThreadTag::from_name(arg_str(step, 1)?).ok_or_else(|| {
                    ScheduleError::Precondition("bind: unknown thread tag".into())
                })?;
                self.bind(&l, tag)?;
            }
            "annotate" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                let key = arg_str(step, 1)?.to_string();
                self.annotate(&l, &key, arg_ann(step, 2))?;
            }
            "annotate_block" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                let key = arg_str(step, 1)?.to_string();
                self.annotate_block(&b, &key, arg_ann(step, 2))?;
            }
            "compute_at" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                let l = self.loop_by_name(arg_str(step, 1)?)?;
                self.compute_at(&b, &l)?;
            }
            "reverse_compute_at" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                let l = self.loop_by_name(arg_str(step, 1)?)?;
                self.reverse_compute_at(&b, &l)?;
            }
            "compute_inline" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                self.compute_inline(&b)?;
            }
            "reverse_compute_inline" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                self.reverse_compute_inline(&b)?;
            }
            "cache_read" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                let buf = self.find_buffer(arg_str(step, 1)?).ok_or_else(|| {
                    ScheduleError::Precondition("cache_read: unknown buffer".into())
                })?;
                let scope = MemScope::from_name(arg_str(step, 2)?);
                let at = arg_str(step, 3)?;
                let at_loop = if at.is_empty() {
                    None
                } else {
                    Some(self.loop_by_name(at)?)
                };
                self.cache_read(&b, &buf, scope, at_loop.as_ref())?;
            }
            "cache_write" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                let scope = MemScope::from_name(arg_str(step, 1)?);
                let at = arg_str(step, 2)?;
                let at_loop = if at.is_empty() {
                    None
                } else {
                    Some(self.loop_by_name(at)?)
                };
                self.cache_write(&b, scope, at_loop.as_ref())?;
            }
            "blockize" => {
                let l = self.loop_by_name(arg_str(step, 0)?)?;
                self.blockize(&l)?;
            }
            "decompose_reduction" => {
                let b = self.get_block(arg_str(step, 0)?)?;
                let l = self.loop_by_name(arg_str(step, 1)?)?;
                self.decompose_reduction(&b, &l)?;
            }
            "merge_reduction" => {
                let init = self.get_block(arg_str(step, 0)?)?;
                let update = self.get_block(arg_str(step, 1)?)?;
                self.merge_reduction(&init, &update)?;
            }
            other => {
                return Err(ScheduleError::Precondition(format!(
                    "unknown primitive in trace: {other}"
                )))
            }
        }
        Ok(())
    }
}

/// Replays a full trace on a fresh function.
///
/// # Errors
///
/// Fails on the first step whose preconditions do not hold.
pub fn replay(func: PrimFunc, trace: &Trace) -> Result<Schedule> {
    let mut sch = Schedule::new(func);
    for step in trace.steps() {
        sch.apply_trace_step(step)?;
    }
    Ok(sch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::structural::func_structural_eq;
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    fn mm() -> PrimFunc {
        matmul_func("mm", 16, 16, 16, DataType::float32())
    }

    #[test]
    fn replay_reproduces_a_full_schedule() {
        // Record a rich schedule touching most primitives.
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").unwrap();
        let loops = sch.get_loops(&block).unwrap();
        let i = sch.split(&loops[0], &[4, 4]).unwrap();
        let j = sch.split(&loops[1], &[4, 4]).unwrap();
        sch.reorder(&[i[0].clone(), j[0].clone(), i[1].clone(), j[1].clone()])
            .unwrap();
        let bid = sch.fuse(&[i[0].clone(), j[0].clone()]).unwrap();
        sch.bind(&bid, ThreadTag::BlockIdxX).unwrap();
        sch.bind(&i[1], ThreadTag::ThreadIdxX).unwrap();
        let a = sch.func().param("A").unwrap().clone();
        sch.cache_read(&block, &a, MemScope::Shared, Some(&j[1]))
            .unwrap();
        sch.cache_write(&block, MemScope::Local, Some(&j[1]))
            .unwrap();
        sch.decompose_reduction(&block, &loops[2]).unwrap();
        sch.annotate_block(&block, "custom", AnnValue::Int(7))
            .unwrap();

        // Replay on a *fresh* alpha-equivalent function.
        let replayed = replay(mm(), sch.trace()).expect("replay");
        assert!(
            func_structural_eq(sch.func(), replayed.func()),
            "--- recorded ---\n{}\n--- replayed ---\n{}",
            sch.func(),
            replayed.func()
        );
        assert_same_semantics(sch.func(), replayed.func(), 1, 0.0);
    }

    #[test]
    fn replay_fails_cleanly_on_missing_names() {
        let mut trace = Trace::default();
        trace.push(TraceStep::new(
            "split",
            vec!["no_such_loop".into(), vec![2i64, 8].into()],
        ));
        let err = replay(mm(), &trace).unwrap_err();
        assert!(matches!(err, ScheduleError::LoopNotFound(_)), "{err}");
    }

    #[test]
    fn replay_rejects_unknown_primitives() {
        let mut trace = Trace::default();
        trace.push(TraceStep::new("frobnicate", vec![]));
        let err = replay(mm(), &trace).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
    }

    #[test]
    fn decompose_merge_replays() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").unwrap();
        let loops = sch.get_loops(&block).unwrap();
        let init = sch.decompose_reduction(&block, &loops[2]).unwrap();
        sch.merge_reduction(&init, &block).unwrap();
        let replayed = replay(mm(), sch.trace()).expect("replay");
        assert!(func_structural_eq(sch.func(), replayed.func()));
    }
}
