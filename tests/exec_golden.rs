//! Golden outcomes of the tree-walking executor: the gate for any change to
//! `crates/tir-exec/src/interp.rs`.
//!
//! The tree-walker is the reference the two bytecode executors answer to
//! (`vm_differential`), so nothing else can tell when it moves. Every
//! program below runs twice on seeded inputs: on
//! `run_with(.., ExecBackend::TreeWalk, ..)` and on `run_sanitized`. A line
//! is the label, the executor, then either `ok <FNV-1a of the output f64
//! bits> <steps>` or `err <the ExecError>`; no program makes either panic.
//!
//! The programs: every program of `tests/corpus` (operator families,
//! random and GPU pipelines, the illegal mutants), programs that are not
//! well-formed (`tir::well_formed`; each names in `MALFORMED` the rule it
//! breaks, and every executor refuses it), and *seams*: loads from
//! never-stored buffers, integer `/`, `//` and `%` by zero in an index, fuel
//! budgets that run out mid-block, out-of-bounds stores and loads, a rank-9
//! buffer, and one store per expression form and intrinsic. An
//! out-of-bounds program runs on the sanitizer only: on the walker it
//! panics with a message that differs between debug and release.
//!
//! The file was written by the walker that keyed its environment by
//! `HashMap<Var, f64>` and bound variables dynamically; it is the oracle
//! the walker is held to. Regenerate (only when execution is *meant* to
//! change) with `cargo test --test exec_golden -- --ignored`.

mod corpus;

use std::panic::{catch_unwind, AssertUnwindSafe};

use corpus::golden::{self, fnv1a};

use tir::builder::{compute, matmul_func};
use tir::{
    well_formed, BinOp, Block, BlockRealize, Buffer, DataType, Expr, IterVar, PrimFunc, Stmt, Var,
};
use tir_analysis::{validate, ValidationError};
use tir_exec::{
    compile, compile_optimized, run_sanitized, run_with, ExecBackend, ExecError, RunOutcome, Tensor,
};

const GOLDEN: &str = include_str!("golden/exec_outcomes.txt");

struct Case {
    label: String,
    func: PrimFunc,
    seed: u64,
    fuel: Option<u64>,
    /// Out of bounds: the walker panics (differently per build).
    sanitizer_only: bool,
}

fn case(label: impl Into<String>, func: PrimFunc, seed: u64) -> Case {
    Case {
        label: label.into(),
        func,
        seed,
        fuel: None,
        sanitizer_only: false,
    }
}

fn f32_buffer(name: &str, shape: &[i64]) -> Buffer {
    Buffer::new(name, DataType::float32(), shape.to_vec())
}

fn at(vars: &[&Var]) -> Vec<Expr> {
    vars.iter().map(|v| Expr::from(*v)).collect()
}

fn realize(values: Vec<Expr>, block: Block) -> Stmt {
    Stmt::BlockRealize(Box::new(BlockRealize::new(values, block)))
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call {
        name: name.into(),
        args,
        dtype: DataType::float32(),
    }
}

fn div(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    Expr::Bin(BinOp::Div, Box::new(a.into()), Box::new(b.into()))
}

/// `for i in 0..n: B[i] = value(i)` over an `n`-element `B` and input `A`.
fn elementwise(name: &str, n: i64, value: impl Fn(&Buffer, &Var) -> Expr) -> PrimFunc {
    let (a, b, i) = (f32_buffer("A", &[n]), f32_buffer("B", &[n]), Var::int("i"));
    let body = Stmt::store(b.clone(), at(&[&i]), value(&a, &i)).in_loop(i, n);
    PrimFunc::new(name, vec![a, b], body)
}

/// Malformed programs, and the corners of the executors' semantics.
fn seam_cases() -> Vec<Case> {
    let mut out = Vec::new();
    let f32_ = DataType::float32();
    {
        // The same variable bound by two nested loops.
        let (b, i) = (f32_buffer("B", &[4]), Var::int("i"));
        let body = Stmt::store(b.clone(), at(&[&i]), Expr::f32(1.0))
            .in_loop(i.clone(), 4)
            .in_loop(i, 4);
        out.push(case(
            "seam: shadowed binding",
            PrimFunc::new("shadow", vec![b], body),
            1,
        ));
    }
    {
        // One buffer passed twice.
        let (a, i) = (f32_buffer("A", &[4]), Var::int("i"));
        let body =
            Stmt::store(a.clone(), at(&[&i]), a.load(at(&[&i])) + Expr::f32(1.0)).in_loop(i, 4);
        out.push(case(
            "seam: duplicate param",
            PrimFunc::new("dup", vec![a.clone(), a], body),
            2,
        ));
    }
    {
        // for i: { for i: B[i] = 1; B[i] = 2 } — the read after the inner
        // loop is where a dynamic and a lexical scope disagree.
        let (b, i) = (f32_buffer("B", &[4]), Var::int("i"));
        let inner = Stmt::store(b.clone(), at(&[&i]), Expr::f32(1.0)).in_loop(i.clone(), 2);
        let after = Stmt::store(b.clone(), at(&[&i]), Expr::f32(2.0));
        let body = Stmt::seq(vec![inner, after]).in_loop(i, 4);
        out.push(case(
            "seam: read after the shadowing inner loop",
            PrimFunc::new("unbound_after", vec![b], body),
            3,
        ));
    }
    {
        // A block iterator named by the loop variable it shadows.
        let (b, c, i) = (f32_buffer("B", &[8]), f32_buffer("C", &[4]), Var::int("i"));
        let inner = Block::new(
            "S",
            vec![IterVar::spatial(i.clone(), 8)],
            vec![],
            vec![b.full_region()],
            Stmt::store(b.clone(), at(&[&i]), Expr::from(&i).cast(f32_)),
        );
        let after = Stmt::store(c.clone(), at(&[&i]), Expr::from(&i).cast(f32_));
        let body = Stmt::seq(vec![realize(vec![Expr::from(&i) * 2], inner), after]).in_loop(i, 4);
        out.push(case(
            "seam: block iterator shadows a loop variable",
            PrimFunc::new("block_shadow", vec![b, c], body),
            4,
        ));
    }
    {
        // One block binds v twice, and v is read after the block.
        let (b, c, i, v) = (
            f32_buffer("B", &[8]),
            f32_buffer("C", &[4]),
            Var::int("i"),
            Var::int("v"),
        );
        let inner = Block::new(
            "T",
            vec![
                IterVar::spatial(v.clone(), 8),
                IterVar::spatial(v.clone(), 8),
            ],
            vec![],
            vec![b.full_region()],
            Stmt::store(b.clone(), at(&[&v]), Expr::f32(1.0)),
        );
        let twice = realize(vec![Expr::from(&i), Expr::from(&i) + 4], inner);
        let after = Stmt::store(c.clone(), at(&[&i]), Expr::from(&v).cast(f32_));
        let body = Stmt::seq(vec![twice, after]).in_loop(i, 4);
        out.push(case(
            "seam: one iterator bound twice by one block",
            PrimFunc::new("bound_twice", vec![b, c], body),
            5,
        ));
    }
    let phantom = f32_buffer("P", &[4]);
    out.push(case(
        "seam: load from a never-stored buffer",
        elementwise("phantom", 4, |_, i| phantom.load(at(&[i]))),
        6,
    ));
    {
        // T is neither a parameter nor allocated: the first store allocates.
        let (b, t, i) = (f32_buffer("B", &[4]), f32_buffer("T", &[4]), Var::int("i"));
        let fill = Stmt::store(t.clone(), at(&[&i]), Expr::from(&i).cast(f32_));
        let read = Stmt::store(b.clone(), at(&[&i]), t.load(at(&[&i])) * Expr::f32(3.0));
        let body = Stmt::seq(vec![fill, read]).in_loop(i, 4);
        out.push(case(
            "seam: load after a store to an unallocated buffer",
            PrimFunc::new("lazy", vec![b], body),
            7,
        ));
    }
    type Op = fn(Expr, Expr) -> Expr;
    let int_ops: [(&str, Op); 3] = [
        ("/", |a, b| div(a, b)),
        ("//", |a, b| a.floor_div(b)),
        ("%", |a, b| a.floor_mod(b)),
    ];
    for (symbol, op) in int_ops {
        out.push(case(
            format!("seam: integer {symbol} by zero in an index"),
            elementwise("div0", 4, |a, i| {
                a.load(vec![op(Expr::from(i), Expr::int(0))])
            }),
            8,
        ));
        out.push(case(
            format!("seam: integer {symbol} by zero in an index of a never-stored buffer"),
            elementwise("div0_phantom", 4, |_, i| {
                phantom.load(vec![op(Expr::from(i), Expr::int(0))])
            }),
            8,
        ));
        out.push(case(
            format!("seam: float {symbol} by zero"),
            elementwise("fdiv0", 4, |a, i| op(a.load(at(&[i])), Expr::f32(0.0))),
            8,
        ));
    }
    let mm = matmul_func("mm", 8, 8, 8, f32_);
    for fuel in [0, 1, 2, 3, 7, 64, 575, 576, 577] {
        out.push(Case {
            fuel: Some(fuel),
            ..case(format!("seam: matmul 8 on fuel {fuel}"), mm.clone(), 9)
        });
    }
    {
        // Off the end and before the start, storing and loading.
        type Access = fn(&Buffer, &Buffer, &Var) -> Stmt;
        let oob: [(&str, Access); 3] = [
            ("store one past the end", |a, b, i| {
                Stmt::store(b.clone(), vec![Expr::from(i) + 1], a.load(at(&[i])))
            }),
            ("load one past the end", |a, b, i| {
                Stmt::store(b.clone(), at(&[i]), a.load(vec![Expr::from(i) + 1]))
            }),
            ("load before the start", |a, b, i| {
                Stmt::store(b.clone(), at(&[i]), a.load(vec![Expr::from(i) - 2]))
            }),
        ];
        for (what, stmt) in oob {
            let (a, b, i) = (f32_buffer("A", &[4]), f32_buffer("B", &[4]), Var::int("i"));
            let body = stmt(&a, &b, &i).in_loop(i, 4);
            out.push(Case {
                sanitizer_only: true,
                ..case(
                    format!("seam: checked {what}"),
                    PrimFunc::new("oob", vec![a, b], body),
                    10,
                )
            });
        }
    }
    {
        let shape = [2, 1, 3, 1, 2, 1, 1, 2, 1];
        let (a, b) = (f32_buffer("A", &shape), f32_buffer("B", &shape));
        let body = compute("B", &b, |iv| {
            let idx: Vec<Expr> = iv.iter().map(Expr::from).collect();
            a.load(idx) * Expr::f32(2.0) + Expr::from(&iv[2]).cast(f32_)
        });
        out.push(case(
            "seam: rank-9 buffer",
            PrimFunc::new("rank9", vec![a.clone(), b.clone()], body),
            11,
        ));
        let (i, j) = (Var::int("i"), Var::int("j"));
        let mut idx = vec![Expr::int(0); 9];
        idx[2] = Expr::from(&i);
        idx[7] = Expr::from(&j) + 1;
        let body = Stmt::store(b.clone(), idx.clone(), a.load(idx)).in_loops(vec![(i, 3), (j, 2)]);
        out.push(Case {
            sanitizer_only: true,
            ..case(
                "seam: checked rank-9 store one past the end",
                PrimFunc::new("rank9_oob", vec![a, b], body),
                11,
            )
        });
    }
    out.extend(expression_cases());
    out.extend(block_cases());
    out
}

/// One store per expression form and intrinsic, each over `i in 0..8` and
/// a seeded `A` in `[-1, 1)`.
fn expression_cases() -> Vec<Case> {
    let f32_ = DataType::float32();
    let (i8_, i32_, u8_) = (DataType::int8(), DataType::int32(), DataType::uint8());
    let centred = |i: &Var| Expr::from(i) - 3;
    type Form = (&'static str, fn(&Buffer, &Var) -> Expr);
    let forms: Vec<Form> = vec![
        ("int /", |_, i| {
            div(Expr::from(i) - 3, 2).cast(DataType::float32())
        }),
        ("int //", |_, i| {
            (Expr::from(i) - 3).floor_div(2).cast(DataType::float32())
        }),
        ("int %", |_, i| {
            (Expr::from(i) - 3).floor_mod(3).cast(DataType::float32())
        }),
        ("float /", |a, i| div(a.load(at(&[i])), Expr::f32(0.3))),
        ("float //", |a, i| {
            a.load(at(&[i])).floor_div(Expr::f32(0.3))
        }),
        ("float %", |a, i| a.load(at(&[i])).floor_mod(Expr::f32(0.3))),
        ("min max", |a, i| {
            a.load(at(&[i])).min(Expr::f32(0.25)).max(Expr::f32(-0.25))
        }),
        ("and or not", |a, i| {
            let pos = Expr::f32(0.0).lt(a.load(at(&[i])));
            let odd = Expr::from(i).floor_mod(2).eq_(1);
            let both = pos.clone().and(odd.clone());
            let either = Expr::Not(Box::new(pos.or(odd)));
            (both.cast(DataType::float32()) * Expr::f32(2.0)) + either.cast(DataType::float32())
        }),
        ("comparisons", |a, i| {
            use tir::CmpOp::*;
            let x = || a.load(at(&[i]));
            [Eq, Ne, Lt, Le, Gt, Ge]
                .into_iter()
                .enumerate()
                .map(|(k, op)| x().cmp(op, Expr::f32(0.0)).cast(DataType::float32()) * (1 << k))
                .fold(Expr::f32(0.0), |acc, e| acc + e)
        }),
        ("select", |a, i| {
            Expr::select(
                Expr::from(i).lt(4),
                a.load(at(&[i])),
                Expr::f32(-1.0) * a.load(at(&[i])),
            )
        }),
        ("cast through int8", |a, i| {
            (a.load(at(&[i])) * Expr::f32(300.0))
                .cast(DataType::int8())
                .cast(DataType::float32())
        }),
        ("cast through uint8", |a, i| {
            (a.load(at(&[i])) * Expr::f32(300.0))
                .cast(DataType::uint8())
                .cast(DataType::float32())
        }),
        ("cast through f16", |a, i| {
            (a.load(at(&[i])) * Expr::f32(1000.1))
                .cast(DataType::float16())
                .cast(DataType::float32())
        }),
        ("cast through bool", |a, i| {
            a.load(at(&[i]))
                .cast(DataType::bool())
                .cast(DataType::float32())
        }),
        ("string argument", |a, i| {
            call(
                "fma",
                vec![Expr::Str("x".into()), a.load(at(&[i])), Expr::f32(0.5)],
            )
        }),
        ("fma with four arguments", |a, i| {
            call(
                "fma",
                vec![
                    a.load(at(&[i])),
                    Expr::f32(2.0),
                    Expr::f32(0.5),
                    Expr::f32(9.0),
                ],
            )
        }),
        ("pow with one argument", |a, i| {
            call("pow", vec![a.load(at(&[i]))])
        }),
        ("unknown intrinsic", |a, i| {
            call("bogus", vec![a.load(at(&[i]))])
        }),
        ("unknown intrinsic of an unbound variable", |_, _| {
            call("bogus", vec![Expr::from(&Var::int("free"))])
        }),
    ];
    let mut out: Vec<Case> = (forms.into_iter())
        .map(|(label, form)| case(format!("expr: {label}"), elementwise("expr", 8, form), 0xe0))
        .collect();
    for name in [
        "exp", "log", "sqrt", "rsqrt", "tanh", "sigmoid", "erf", "abs", "floor", "ceil", "round",
        "pow", "fma",
    ] {
        out.push(case(
            format!("expr: {name}"),
            elementwise(name, 8, |a, i| {
                let x = a.load(at(&[i])) * Expr::f32(3.0);
                call(name, vec![x.clone(), x.clone() * Expr::f32(0.5), x])
            }),
            0xe1,
        ));
    }
    // Stores quantize through the destination dtype.
    for (label, dtype) in [("int8", i8_), ("int32", i32_), ("uint8", u8_)] {
        let (a, b, i) = (
            f32_buffer("A", &[8]),
            Buffer::new("B", dtype, vec![8]),
            Var::int("i"),
        );
        let body = Stmt::store(
            b.clone(),
            at(&[&i]),
            a.load(at(&[&i])) * Expr::f32(200.0) + centred(&i).cast(f32_),
        )
        .in_loop(i, 8);
        out.push(case(
            format!("expr: store into {label}"),
            PrimFunc::new("quantize", vec![a, b], body),
            0xe2,
        ));
    }
    out
}

/// Loops, conditionals and blocks: extents, predicates, reduction inits,
/// per-entry allocations, evaluate statements.
fn block_cases() -> Vec<Case> {
    let f32_ = DataType::float32();
    let mut out = Vec::new();
    for (label, extent) in [
        ("a rounded float extent", Expr::Float(2.6, f32_)),
        ("a negative extent", Expr::int(-3)),
        (
            "an extent of an unbound variable",
            Expr::from(&Var::int("unbound")),
        ),
    ] {
        let (b, i) = (f32_buffer("B", &[4]), Var::int("i"));
        let body = Stmt::store(b.clone(), at(&[&i]), Expr::f32(5.0)).in_loop(i, extent);
        out.push(case(
            format!("loop: {label}"),
            PrimFunc::new("extent", vec![b], body),
            0xf0,
        ));
    }
    {
        // for i: for j in 0..i: B[i] += 1
        let (b, i, j) = (f32_buffer("B", &[5]), Var::int("i"), Var::int("j"));
        let body = Stmt::store(b.clone(), at(&[&i]), b.load(at(&[&i])) + Expr::f32(1.0))
            .in_loop(j, Expr::from(&i))
            .in_loop(i, 5);
        out.push(case(
            "loop: triangular",
            PrimFunc::new("tri", vec![b], body),
            0xf1,
        ));
    }
    {
        let (a, b, i) = (f32_buffer("A", &[6]), f32_buffer("B", &[6]), Var::int("i"));
        let body = Stmt::IfThenElse {
            cond: Expr::from(&i).floor_mod(3).eq_(0),
            then_branch: Box::new(Stmt::store(b.clone(), at(&[&i]), a.load(at(&[&i])))),
            else_branch: Some(Box::new(Stmt::Eval(call("exp", vec![Expr::f32(1.0)])))),
        }
        .in_loop(i, 6);
        out.push(case(
            "if: with an else of evaluates",
            PrimFunc::new("ifelse", vec![a, b], body),
            0xf2,
        ));
        let (b, i) = (f32_buffer("B", &[6]), Var::int("i"));
        let body = Stmt::Seq(vec![
            Stmt::store(b.clone(), at(&[&i]), Expr::f32(1.0)),
            Stmt::Eval(call("nope", vec![])),
        ])
        .in_loop(i, 6);
        out.push(case(
            "stmt: evaluate of an unknown intrinsic",
            PrimFunc::new("eval_bad", vec![b], body),
            0xf2,
        ));
    }
    {
        // B[v] = 1 where i < 3, through the realize predicate.
        let (b, i, v) = (f32_buffer("B", &[8]), Var::int("i"), Var::int("v"));
        let block = Block::new(
            "B",
            vec![IterVar::spatial(v.clone(), 8)],
            vec![],
            vec![b.full_region()],
            Stmt::store(b.clone(), at(&[&v]), Expr::f32(1.0)),
        );
        let r = BlockRealize::with_predicate(at(&[&i]), Expr::from(&i).lt(3), block);
        let body = Stmt::BlockRealize(Box::new(r)).in_loop(i, 8);
        out.push(case(
            "block: predicate",
            PrimFunc::new("pred", vec![b], body),
            0xf3,
        ));
    }
    {
        // O[vi] = sum_k A[vi, vk], the reduction bound in reverse: the
        // init fires where vk is 0, the last k.
        let (a, o) = (f32_buffer("A", &[4, 6]), f32_buffer("O", &[4]));
        let (i, k, vi, vk) = (Var::int("i"), Var::int("k"), Var::int("vi"), Var::int("vk"));
        let mut block = Block::new(
            "R",
            vec![
                IterVar::spatial(vi.clone(), 4),
                IterVar::reduce(vk.clone(), 6),
            ],
            vec![a.full_region()],
            vec![o.full_region()],
            Stmt::store(
                o.clone(),
                at(&[&vi]),
                o.load(at(&[&vi])) + a.load(at(&[&vi, &vk])),
            ),
        );
        block.init = Some(Box::new(Stmt::store(o.clone(), at(&[&vi]), Expr::f32(0.5))));
        let nest =
            realize(vec![Expr::from(&i), 5 - Expr::from(&k)], block).in_loops(vec![(i, 4), (k, 6)]);
        out.push(case(
            "block: reduction bound in reverse",
            PrimFunc::new("rev", vec![a, o], nest),
            0xf4,
        ));
    }
    {
        // A block allocating T inside a loop: T is zero on every entry, so
        // B[i] = A[i] + A[i], not a running sum.
        let (a, b, t) = (
            f32_buffer("A", &[6]),
            f32_buffer("B", &[6]),
            f32_buffer("T", &[1]),
        );
        let (i, vi) = (Var::int("i"), Var::int("vi"));
        let zero = vec![Expr::int(0)];
        let acc = Stmt::store(
            t.clone(),
            zero.clone(),
            t.load(zero.clone()) + a.load(at(&[&vi])),
        );
        let mut block = Block::new(
            "S",
            vec![IterVar::spatial(vi.clone(), 6)],
            vec![a.full_region()],
            vec![b.full_region()],
            Stmt::seq(vec![
                acc.clone(),
                acc,
                Stmt::store(b.clone(), at(&[&vi]), t.load(zero)),
            ]),
        );
        block.alloc_buffers.push(t);
        let body = realize(at(&[&i]), block).in_loop(i, 6);
        out.push(case(
            "block: allocation per entry",
            PrimFunc::new("scratch", vec![a, b], body),
            0xf5,
        ));
    }
    out
}

/// Every program the suite runs.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (n, (func, seed)) in corpus::workload_families().into_iter().enumerate() {
        out.push(case(format!("family {n} {}", func.name), func, seed));
    }
    for (c, func) in (0u64..).zip(corpus::random_pipelines(112)) {
        out.push(case(format!("random pipeline {c}"), func, 0xace + c));
    }
    for (v, func) in (0u64..).zip(corpus::gpu_pipelines()) {
        out.push(case(format!("gpu pipeline {v}"), func, 0xca0 + v));
    }
    for (label, func, seed) in corpus::illegal_mutants() {
        out.push(Case {
            sanitizer_only: label.starts_with("store-index-shift"),
            ..case(format!("illegal {label}"), func, seed)
        });
    }
    out.extend(seam_cases());
    out
}

/// FNV-1a over the bits of every output element, in parameter order.
fn fnv_bits(outputs: &[Tensor]) -> u64 {
    fnv1a((outputs.iter().flat_map(Tensor::data)).flat_map(|v| v.to_bits().to_le_bytes()))
}

fn outcome(run: impl FnOnce() -> Result<RunOutcome, tir_exec::ExecError>) -> String {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(o)) => format!("ok {:016x} {}", fnv_bits(&o.outputs), o.steps),
        Ok(Err(e)) => format!("err {e}"),
        Err(payload) => {
            let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            format!("panic {message}")
        }
    }
}

/// The programs that are not well-formed, and the rule each breaks (the
/// `Debug` name of its `WellFormedError`). Every other program is.
const MALFORMED: [(&str, &str); 7] = [
    ("seam: shadowed binding", "ShadowedBinding"),
    ("seam: duplicate param", "DuplicateParam"),
    (
        "seam: read after the shadowing inner loop",
        "ShadowedBinding",
    ),
    (
        "seam: block iterator shadows a loop variable",
        "ShadowedBinding",
    ),
    (
        "seam: one iterator bound twice by one block",
        "RepeatedIterator",
    ),
    (
        "expr: unknown intrinsic of an unbound variable",
        "UnboundVar",
    ),
    ("loop: an extent of an unbound variable", "UnboundVar"),
];

fn golden_text() -> String {
    let mut out = String::new();
    let mut malformed = 0;
    for c in cases() {
        let rule = MALFORMED.iter().find(|(label, _)| *label == c.label);
        match (well_formed(&c.func), rule) {
            (Ok(()), None) => {}
            (Err(e), Some((_, kind))) if format!("{e:?}").starts_with(kind) => malformed += 1,
            (verdict, _) => panic!("{}: well_formed says {verdict:?}", c.label),
        }
        let args = corpus::seeded_args(&c.func, c.seed);
        if !c.sanitizer_only {
            let line = outcome(|| run_with(&c.func, args.clone(), ExecBackend::TreeWalk, c.fuel));
            out.push_str(&format!("{} / treewalk -> {line}\n", c.label));
        }
        let line = outcome(|| run_sanitized(&c.func, args, c.fuel));
        out.push_str(&format!("{} / sanitized -> {line}\n", c.label));
    }
    assert_eq!(malformed, MALFORMED.len());
    out
}

#[test]
fn outcomes_match_golden() {
    golden::assert_matches_golden(GOLDEN, &golden_text(), "run outcomes");
    for outcome in [" -> ok ", " -> err ", " -> err malformed program: "] {
        assert!(GOLDEN.contains(outcome), "no line{outcome}");
    }
    assert!(!GOLDEN.contains(" -> panic "), "an executor panics");
}

/// A program that is not well-formed has no meaning, so every entry point
/// refuses it with the same verdict before running or analysing anything:
/// both backends of `run_with`, `run_sanitized`, both compilers and
/// the verifier. One program per rule it can break; the duplicate
/// parameter used to make the tree-walker panic, and the shadowed bindings
/// used to run on a fallback.
#[test]
fn malformed_programs_are_refused_everywhere() {
    let mut kinds: Vec<&str> = MALFORMED.iter().map(|(_, kind)| *kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 4, "every rule is broken by some program");
    let mut refused_programs = 0;
    for c in seam_cases() {
        if !MALFORMED.iter().any(|(label, _)| *label == c.label) {
            continue;
        }
        let e = well_formed(&c.func).expect_err(&c.label);
        let refused = |verdict: Result<RunOutcome, ExecError>| matches!(verdict, Err(ExecError::Malformed(got)) if got == e);
        let args = corpus::seeded_args(&c.func, c.seed);
        for backend in [ExecBackend::Vm, ExecBackend::TreeWalk] {
            let verdict = run_with(&c.func, args.clone(), backend, None);
            assert!(refused(verdict), "{} on {backend:?}", c.label);
        }
        assert!(refused(run_sanitized(&c.func, args, None)), "{}", c.label);
        assert!(matches!(compile(&c.func), Err(ExecError::Malformed(got)) if got == e));
        assert!(matches!(compile_optimized(&c.func), Err(ExecError::Malformed(got)) if got == e));
        let errors = validate(&c.func).expect_err(&c.label);
        assert_eq!(errors[0], ValidationError::Malformed(e), "{}", c.label);
        refused_programs += 1;
    }
    assert_eq!(refused_programs, MALFORMED.len());
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/exec_outcomes.txt"
    );
    golden::rewrite(path, &golden_text());
}
