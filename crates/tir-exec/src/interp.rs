//! A complete interpreter for TensorIR programs.
//!
//! The interpreter executes programs exactly as written — loops (of every
//! kind, including thread bindings) run sequentially, block predicates are
//! honoured, reduction `init` statements fire on the first reduction
//! iteration, and stores quantize through the destination buffer's dtype.
//! It is the correctness oracle of this repository: every scheduling
//! transformation must leave interpreter output unchanged.
//!
//! The tree-walker reads `Stmt`/`Expr` directly, with no lowering and no
//! pre-pass beyond the [`tir::well_formed()`] check every executor makes at
//! entry, so that it stays the one implementation independent of the
//! bytecode compiler it checks. It keys what it holds by id — variables by
//! [`Var::id`] on a lexical stack, buffers by [`Buffer::id`] — and folds
//! each access into a row-major offset while it evaluates the indices: a
//! step allocates nothing.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

use tir::expr::IdHasher;
use tir::simplify::{floor_div_i64, floor_mod_i64};
use tir::{BinOp, BlockRealize, Buffer, Expr, IterKind, PrimFunc, Stmt, Var, WellFormedError};

use crate::tensor::{quantize, round_i64, Tensor};

/// An execution failure.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// The program is not well-formed ([`tir::well_formed()`]); no executor
    /// runs it.
    Malformed(WellFormedError),
    /// Argument count or shape/dtype mismatch against the function params.
    BadArguments(String),
    /// A call to an intrinsic the interpreter does not know.
    UnknownIntrinsic(String),
    /// A load from a buffer that was never allocated (neither a parameter,
    /// nor in any `alloc_buffers`, nor previously stored to).
    UnboundBuffer(String),
    /// Division by zero in index arithmetic.
    DivisionByZero,
    /// The step budget was exhausted (runaway program guard).
    OutOfFuel,
    /// A buffer access fell outside the buffer's storage (sanitizer mode).
    OutOfBounds(String),
    /// Two iterations of a parallel loop made conflicting accesses to the
    /// same element (sanitizer mode).
    DataRace(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Malformed(e) => write!(f, "{e}"),
            ExecError::BadArguments(s) => write!(f, "bad arguments: {s}"),
            ExecError::UnknownIntrinsic(s) => write!(f, "unknown intrinsic: {s}"),
            ExecError::UnboundBuffer(s) => write!(f, "load from unallocated buffer: {s}"),
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::OutOfFuel => write!(f, "execution step budget exhausted"),
            ExecError::OutOfBounds(s) => write!(f, "out-of-bounds access: {s}"),
            ExecError::DataRace(s) => write!(f, "data race: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

type Result<T> = std::result::Result<T, ExecError>;

/// The default step budget of both execution backends.
pub(crate) const DEFAULT_FUEL: u64 = 2_000_000_000;

/// A pure math intrinsic, resolved from its name at compile time so both
/// backends evaluate the exact same code path per call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MathFn {
    Exp,
    Log,
    Sqrt,
    Rsqrt,
    Tanh,
    Sigmoid,
    Erf,
    Abs,
    Floor,
    Ceil,
    Round,
    Pow,
    Fma,
}

impl MathFn {
    /// The most arguments any intrinsic reads.
    const ARITY: usize = 3;

    /// Resolves an intrinsic name, `None` if unknown.
    pub(crate) fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "exp" => MathFn::Exp,
            "log" => MathFn::Log,
            "sqrt" => MathFn::Sqrt,
            "rsqrt" => MathFn::Rsqrt,
            "tanh" => MathFn::Tanh,
            "sigmoid" => MathFn::Sigmoid,
            "erf" => MathFn::Erf,
            "abs" => MathFn::Abs,
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            "round" => MathFn::Round,
            "pow" => MathFn::Pow,
            "fma" => MathFn::Fma,
            _ => return None,
        })
    }

    /// Applies the intrinsic; missing arguments default to `0.0`.
    pub(crate) fn eval(self, args: &[f64]) -> f64 {
        let a = |i: usize| args.get(i).copied().unwrap_or(0.0);
        match self {
            MathFn::Exp => a(0).exp(),
            MathFn::Log => a(0).ln(),
            MathFn::Sqrt => a(0).sqrt(),
            MathFn::Rsqrt => 1.0 / a(0).sqrt(),
            MathFn::Tanh => a(0).tanh(),
            MathFn::Sigmoid => 1.0 / (1.0 + (-a(0)).exp()),
            MathFn::Erf => erf(a(0)),
            MathFn::Abs => a(0).abs(),
            MathFn::Floor => a(0).floor(),
            MathFn::Ceil => a(0).ceil(),
            MathFn::Round => a(0).round(),
            MathFn::Pow => a(0).powf(a(1)),
            MathFn::Fma => a(0) * a(1) + a(2),
        }
    }
}

/// Abramowitz–Stegun rational approximation of erf (max error ~1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// The interpreter state: buffer storage plus the variable environment.
pub struct Interpreter {
    /// Tensor storage, keyed by [`Buffer::id`].
    buffers: HashMap<usize, Tensor, BuildHasherDefault<IdHasher>>,
    /// The lexical environment: one `(Var::id, value)` entry per enclosing
    /// binder, innermost last. A loop pushes its entry once and updates it
    /// in place; a block pushes its iterators and truncates on exit.
    env: Vec<(usize, f64)>,
    /// Step budget (one step per store/eval executed).
    fuel: u64,
    steps: u64,
}

impl Interpreter {
    fn new(fuel: u64) -> Self {
        Interpreter {
            buffers: HashMap::default(),
            env: Vec::new(),
            fuel,
            steps: 0,
        }
    }

    fn lookup(&self, var: &Var) -> f64 {
        let id = var.id();
        let (_, value) = (self.env.iter().rev().find(|(bound, _)| *bound == id))
            .expect("a well-formed program reads a variable only where it is bound");
        *value
    }

    fn tick(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.fuel {
            Err(ExecError::OutOfFuel)
        } else {
            Ok(())
        }
    }

    fn eval(&self, e: &Expr) -> Result<f64> {
        Ok(match e {
            Expr::Int(v, _) => *v as f64,
            Expr::Float(v, _) => *v,
            Expr::Str(_) => 0.0,
            Expr::Var(v) => self.lookup(v),
            Expr::Cast(dt, v) => {
                let x = self.eval(v)?;
                if dt.is_int() || dt.is_bool() {
                    quantize(x.trunc(), *dt)
                } else {
                    quantize(x, *dt)
                }
            }
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.eval(a)?, self.eval(b)?);
                let int_op = || a.dtype().is_int() && b.dtype().is_int();
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if int_op() {
                            if y == 0.0 {
                                return Err(ExecError::DivisionByZero);
                            }
                            (x as i64 / y as i64) as f64
                        } else {
                            x / y
                        }
                    }
                    BinOp::FloorDiv => {
                        if y == 0.0 {
                            return Err(ExecError::DivisionByZero);
                        }
                        if int_op() {
                            floor_div_i64(x as i64, y as i64) as f64
                        } else {
                            (x / y).floor()
                        }
                    }
                    BinOp::FloorMod => {
                        if y == 0.0 {
                            return Err(ExecError::DivisionByZero);
                        }
                        if int_op() {
                            floor_mod_i64(x as i64, y as i64) as f64
                        } else {
                            x - (x / y).floor() * y
                        }
                    }
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::And => ((x != 0.0) && (y != 0.0)) as i64 as f64,
                    BinOp::Or => ((x != 0.0) || (y != 0.0)) as i64 as f64,
                }
            }
            Expr::Cmp(op, a, b) => {
                let (x, y) = (self.eval(a)?, self.eval(b)?);
                op.apply(x, y) as i64 as f64
            }
            Expr::Not(v) => (self.eval(v)? == 0.0) as i64 as f64,
            Expr::Select { cond, then, other } => {
                if self.eval(cond)? != 0.0 {
                    self.eval(then)?
                } else {
                    self.eval(other)?
                }
            }
            Expr::Load { buffer, indices } => {
                // Indices first: their errors come before `UnboundBuffer`.
                let (off, in_bounds) = self.offset(buffer, indices)?;
                let t = self
                    .buffers
                    .get(&buffer.id())
                    .ok_or_else(|| ExecError::UnboundBuffer(buffer.name().to_string()))?;
                debug_assert!(in_bounds, "index out of bounds of buffer {}", buffer.name());
                t.get_flat(off as usize)
            }
            Expr::Call { name, args, .. } => {
                // Every argument is evaluated, for its errors; missing ones
                // read as zero, as `MathFn::eval` defaults them.
                let mut vals = [0.0; MathFn::ARITY];
                for (k, a) in args.iter().enumerate() {
                    let x = self.eval(a)?;
                    if let Some(slot) = vals.get_mut(k) {
                        *slot = x;
                    }
                }
                MathFn::from_name(name)
                    .ok_or_else(|| ExecError::UnknownIntrinsic(name.clone()))?
                    .eval(&vals)
            }
        })
    }

    /// Evaluates `indices` in order, folding them into a row-major offset
    /// of `buffer` as [`Tensor`] lays it out; the flag says whether every
    /// index is inside its dimension and the rank is the buffer's. An access
    /// outside is asserted in debug builds only, as [`Tensor::get`] does,
    /// and the flat data bound still holds.
    fn offset(&self, buffer: &Buffer, indices: &[Expr]) -> Result<(i64, bool)> {
        let shape = buffer.shape();
        let (mut off, mut in_bounds) = (0i64, indices.len() == shape.len());
        for (k, e) in indices.iter().enumerate() {
            let idx = round_i64(self.eval(e)?);
            if let Some(&dim) = shape.get(k) {
                off = off * dim + idx;
                in_bounds &= (0..dim).contains(&idx);
            }
        }
        Ok((off, in_bounds))
    }

    /// Executes one statement.
    fn exec(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.tick()?;
                let (off, in_bounds) = self.offset(buffer, indices)?;
                let v = self.eval(value)?;
                debug_assert!(in_bounds, "index out of bounds of buffer {}", buffer.name());
                self.buffers
                    .entry(buffer.id())
                    .or_insert_with(|| Tensor::zeros(buffer.dtype(), buffer.shape()))
                    .set_flat(off as usize, v);
                Ok(())
            }
            Stmt::Eval(e) => {
                self.tick()?;
                let _ = self.eval(e)?;
                Ok(())
            }
            Stmt::Seq(v) => {
                for st in v {
                    self.exec(st)?;
                }
                Ok(())
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)? != 0.0 {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(())
                }
            }
            Stmt::For(f) => {
                let extent = round_i64(self.eval(&f.extent)?);
                let slot = self.env.len();
                self.env.push((f.var.id(), 0.0));
                for i in 0..extent {
                    self.env[slot].1 = i as f64;
                    self.exec(&f.body)?;
                }
                self.env.truncate(slot);
                Ok(())
            }
            Stmt::BlockRealize(br) => self.exec_block_realize(br),
        }
    }

    fn exec_block_realize(&mut self, br: &BlockRealize) -> Result<()> {
        if self.eval(&br.predicate)? == 0.0 {
            return Ok(());
        }
        let block = &br.block;
        // Bind block iterators to their realized values, one at a time.
        let base = self.env.len();
        let mut reduce_at_start = true;
        for (iv, value) in block.iter_vars.iter().zip(&br.iter_values) {
            let v = self.eval(value)?;
            if iv.kind == IterKind::Reduce && v != 0.0 {
                reduce_at_start = false;
            }
            self.env.push((iv.var.id(), v));
        }
        for b in &block.alloc_buffers {
            // A fresh allocation per entry of the allocating block.
            self.buffers
                .insert(b.id(), Tensor::zeros(b.dtype(), b.shape()));
        }
        if let (Some(init), true) = (&block.init, reduce_at_start) {
            self.exec(init)?;
        }
        self.exec(&block.body)?;
        self.env.truncate(base);
        Ok(())
    }

    /// Runs a function on positional tensor arguments (one per parameter,
    /// including outputs) and returns the final value of every parameter.
    ///
    /// Executes on the default backend: the program is compiled once into
    /// register bytecode and run on the VM ([`ExecBackend::Vm`]). Semantics
    /// are bit-identical between backends.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadArguments`] on arity/shape/dtype mismatch and
    /// propagates any execution failure.
    pub fn run(func: &PrimFunc, args: Vec<Tensor>) -> Result<Vec<Tensor>> {
        Ok(run_with(func, args, ExecBackend::default(), None)?.outputs)
    }
}

/// Validates argument count against the parameter list.
pub(crate) fn check_arity(name: &str, params: &[Buffer], args: &[Tensor]) -> Result<()> {
    if args.len() != params.len() {
        return Err(ExecError::BadArguments(format!(
            "{} expects {} arguments, got {}",
            name,
            params.len(),
            args.len()
        )));
    }
    Ok(())
}

/// Validates one argument tensor against its parameter buffer.
pub(crate) fn check_arg(buffer: &Buffer, t: &Tensor) -> Result<()> {
    if t.shape() != buffer.shape() || t.dtype() != buffer.dtype() {
        return Err(ExecError::BadArguments(format!(
            "param {} expects {:?} {}, got {:?} {}",
            buffer.name(),
            buffer.shape(),
            buffer.dtype(),
            t.shape(),
            t.dtype()
        )));
    }
    Ok(())
}

/// Which execution engine runs a [`PrimFunc`].
///
/// Both backends implement the exact same semantics — identical outputs
/// bit-for-bit, identical [`ExecError`]s, identical step counts — which the
/// `vm_differential` suite enforces (on the compiler's unoptimized output
/// too). The optimized VM is the fast default; the tree-walker is the
/// simple reference the bytecode is checked against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecBackend {
    /// Compile once to register bytecode, run the optimizer pipeline
    /// (peephole fusion + lane batching, see [`crate::opt`]), then
    /// execute on the VM.
    #[default]
    Vm,
    /// The original tree-walking evaluator (reference semantics).
    TreeWalk,
}

/// The result of a successful execution: final parameter tensors plus the
/// number of store/eval steps it took.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Final value of every parameter, in signature order.
    pub outputs: Vec<Tensor>,
    /// Store/eval steps executed (the fuel metric).
    pub steps: u64,
}

/// Runs a function on an explicit backend with an optional fuel budget
/// (`None` = the default budget), returning outputs and the step count.
///
/// This is the instrumented entry point behind [`Interpreter::run`]; the
/// differential test harness and the microbenches use it to pit the two
/// backends against each other.
///
/// # Errors
///
/// Returns [`ExecError::Malformed`] for a program that is not well-formed,
/// on every backend; [`ExecError::BadArguments`] on arity/shape/dtype
/// mismatch; and propagates any execution failure.
pub fn run_with(
    func: &PrimFunc,
    args: Vec<Tensor>,
    backend: ExecBackend,
    fuel: Option<u64>,
) -> Result<RunOutcome> {
    let fuel = fuel.unwrap_or(DEFAULT_FUEL);
    match backend {
        ExecBackend::Vm => crate::opt::compile_optimized(func)?.run_with_fuel(args, fuel),
        ExecBackend::TreeWalk => tree_walk_run(func, args, fuel),
    }
}

/// Runs a function under the dynamic sanitizer: every access is bounds
/// checked, and conflicting accesses to one element from two different
/// iterations of any parallel loop raise [`ExecError::DataRace`]. This is
/// the differential oracle the static analyzer in `tir-analysis` is
/// measured against — both sides exempt buffers touched by blocks carrying
/// a [`tir::RELAXING_ANNOTATIONS`] annotation.
///
/// Sanitized execution always uses the bytecode VM (race tracking rides on
/// its loop metadata) and runs the same *optimized* bytecode
/// [`run_with`]`(ExecBackend::Vm)` does: every fused op and every lane of a
/// batched loop replays its constituent accesses through the shadow-memory
/// hooks in the unfused order, and the optimizer never adds or deletes a
/// load or store, so the verdict is the one unoptimized bytecode gets —
/// `tests/sanitizer_equivalence.rs` holds that on every differential
/// corpus.
///
/// # Errors
///
/// Returns [`ExecError::Malformed`] for a program that is not well-formed,
/// [`ExecError::BadArguments`] on arity/shape/dtype mismatch,
/// [`ExecError::OutOfBounds`]/[`ExecError::DataRace`] on a violation, and
/// propagates any other execution failure.
pub fn run_sanitized(func: &PrimFunc, args: Vec<Tensor>, fuel: Option<u64>) -> Result<RunOutcome> {
    let fuel = fuel.unwrap_or(DEFAULT_FUEL);
    crate::opt::compile_optimized(func)?.run_sanitized(args, fuel)
}

/// The tree-walking backend of [`run_with`].
fn tree_walk_run(func: &PrimFunc, args: Vec<Tensor>, fuel: u64) -> Result<RunOutcome> {
    tir::well_formed(func).map_err(ExecError::Malformed)?;
    check_arity(&func.name, &func.params, &args)?;
    let mut interp = Interpreter::new(fuel);
    for (p, t) in func.params.iter().zip(args) {
        check_arg(p, &t)?;
        interp.buffers.insert(p.id(), t);
    }
    interp.exec(&func.body)?;
    let outputs = func
        .params
        .iter()
        .map(|p| (interp.buffers.remove(&p.id())).expect("well-formed parameters are distinct"))
        .collect();
    Ok(RunOutcome {
        outputs,
        steps: interp.steps,
    })
}

/// Runs `func` on deterministic random inputs (zeros for the last
/// `num_outputs` parameters) and returns all parameter tensors after
/// execution. The standard harness for semantic-equivalence tests.
///
/// # Errors
///
/// Propagates interpreter failures.
pub fn run_on_random_inputs(func: &PrimFunc, num_outputs: usize, seed: u64) -> Result<Vec<Tensor>> {
    let n = func.params.len();
    let args: Vec<Tensor> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i + num_outputs >= n {
                Tensor::zeros(p.dtype(), p.shape())
            } else {
                Tensor::random(p.dtype(), p.shape(), seed.wrapping_add(i as u64))
            }
        })
        .collect();
    Interpreter::run(func, args)
}

/// Asserts that two functions with identical signatures produce identical
/// outputs on deterministic random inputs. Panics with a diff summary
/// otherwise. The workhorse assertion for schedule-correctness tests.
///
/// # Panics
///
/// Panics if execution fails or outputs differ beyond `tol`.
pub fn assert_same_semantics(a: &PrimFunc, b: &PrimFunc, num_outputs: usize, tol: f64) {
    let run = |f: &PrimFunc, inputs: &[Tensor]| -> Vec<Tensor> {
        Interpreter::run(f, inputs.to_vec())
            .unwrap_or_else(|e| panic!("execution of {} failed: {e}\n{f}", f.name))
    };
    assert_eq!(
        a.params.len(),
        b.params.len(),
        "parameter count mismatch between {} and {}",
        a.name,
        b.name
    );
    let n = a.params.len();
    let inputs: Vec<Tensor> = a
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i + num_outputs >= n {
                Tensor::zeros(p.dtype(), p.shape())
            } else {
                Tensor::random(p.dtype(), p.shape(), 1234 + i as u64)
            }
        })
        .collect();
    let out_a = run(a, &inputs);
    let out_b = run(b, &inputs);
    for (i, (x, y)) in out_a.iter().zip(&out_b).enumerate() {
        assert!(
            x.allclose(y, tol),
            "output {} of {} and {} differ (max abs diff {}):\n--- a ---\n{}\n--- b ---\n{}",
            i,
            a.name,
            b.name,
            x.max_abs_diff(y),
            a,
            b
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::{compute, matmul_func};
    use tir::DataType;

    #[test]
    fn runs_matmul() {
        let f = matmul_func("mm", 4, 4, 4, DataType::float32());
        let a = Tensor::from_fn(DataType::float32(), &[4, 4], |i| i as f64);
        let b = Tensor::from_fn(DataType::float32(), &[4, 4], |i| (i % 3) as f64);
        let c = Tensor::zeros(DataType::float32(), &[4, 4]);
        let out = Interpreter::run(&f, vec![a.clone(), b.clone(), c]).expect("run");
        // Reference computation.
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += a.get(&[i, k]) * b.get(&[k, j]);
                }
                assert_eq!(out[2].get(&[i, j]), acc);
            }
        }
    }

    #[test]
    fn elementwise_with_intrinsic() {
        let a = Buffer::new("A", DataType::float32(), vec![8]);
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let body = compute("B", &b, |iv| Expr::Call {
            name: "exp".into(),
            args: vec![a.load(vec![Expr::from(&iv[0])])],
            dtype: DataType::float32(),
        });
        let f = PrimFunc::new("f", vec![a, b], body);
        let input = Tensor::from_fn(DataType::float32(), &[8], |i| i as f64 * 0.1);
        let zero = Tensor::zeros(DataType::float32(), &[8]);
        let out = Interpreter::run(&f, vec![input.clone(), zero]).expect("run");
        for i in 0..8 {
            let expect = quantize(input.get(&[i]).exp(), DataType::float32());
            assert!((out[1].get(&[i]) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn predicate_skips_instances() {
        // Store only where v < 3 via the realize predicate.
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let i = Var::int("i");
        let v = Var::int("v");
        let body = Stmt::store(b.clone(), vec![Expr::from(&v)], Expr::f32(1.0));
        let block = Block::new(
            "B",
            vec![tir::IterVar::spatial(v.clone(), 8)],
            vec![],
            vec![b.full_region()],
            body,
        );
        let realize =
            BlockRealize::with_predicate(vec![Expr::from(&i)], Expr::from(&i).lt(3), block);
        let f = PrimFunc::new(
            "f",
            vec![b],
            Stmt::BlockRealize(Box::new(realize)).in_loop(i, 8),
        );
        let out =
            Interpreter::run(&f, vec![Tensor::zeros(DataType::float32(), &[8])]).expect("run");
        let written: f64 = out[0].data().iter().sum();
        assert_eq!(written, 3.0);
    }

    #[test]
    fn init_fires_on_first_reduction_iteration() {
        // C starts pre-filled with garbage; init must reset it.
        let f = matmul_func("mm", 2, 2, 2, DataType::float32());
        let a = Tensor::from_fn(DataType::float32(), &[2, 2], |_| 1.0);
        let b = Tensor::from_fn(DataType::float32(), &[2, 2], |_| 1.0);
        let garbage = Tensor::from_fn(DataType::float32(), &[2, 2], |_| 999.0);
        let out = Interpreter::run(&f, vec![a, b, garbage]).expect("run");
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(out[2].get(&[i, j]), 2.0);
            }
        }
    }

    #[test]
    fn fuel_guard() {
        let f = matmul_func("mm", 8, 8, 8, DataType::float32());
        let args: Vec<Tensor> = f
            .params
            .iter()
            .map(|p| Tensor::zeros(p.dtype(), p.shape()))
            .collect();
        let err = run_with(&f, args, ExecBackend::TreeWalk, Some(10)).unwrap_err();
        assert!(matches!(err, ExecError::OutOfFuel));
    }

    #[test]
    fn bad_arguments_rejected() {
        let f = matmul_func("mm", 4, 4, 4, DataType::float32());
        let err = Interpreter::run(&f, vec![]).unwrap_err();
        assert!(matches!(err, ExecError::BadArguments(_)));
        let wrong = Tensor::zeros(DataType::float32(), &[3, 3]);
        let ok = Tensor::zeros(DataType::float32(), &[4, 4]);
        let err = Interpreter::run(&f, vec![wrong, ok.clone(), ok.clone()]).unwrap_err();
        assert!(matches!(err, ExecError::BadArguments(_)));
    }

    #[test]
    fn f16_matmul_quantizes() {
        let f = matmul_func("mm16", 4, 4, 4, DataType::float16());
        let out = run_on_random_inputs(&f, 1, 7).expect("run");
        // All outputs must be f16-representable.
        for v in out[2].data() {
            assert_eq!(quantize(*v, DataType::float16()), *v);
        }
    }

    #[test]
    fn same_semantics_passes_on_identical_funcs() {
        let f = matmul_func("mm", 4, 4, 4, DataType::float32());
        let g = matmul_func("mm2", 4, 4, 4, DataType::float32());
        assert_same_semantics(&f, &g, 1, 1e-12);
    }

    use tir::{Block, BlockRealize, Buffer};
}
