//! Golden diagnostics of the static verifier: the gate for any change to
//! `tir-analysis`.
//!
//! `tests/golden/analysis_diagnostics.txt` holds one line per program: a
//! label, then — for each of `validate`, `check_bounds`, `check_races`,
//! `check_scopes` and `analyze` — the number of diagnostics and the FNV-1a
//! hash of their `Display` texts joined in order. Variant, payload, wording
//! and order of every diagnostic are therefore pinned without the file
//! holding a program. It was written while the crate still ran one tree
//! walker per check, so it is the oracle the single walk is held to; the
//! old walkers are not kept beside it.
//!
//! The programs: every program of `tests/corpus/mod.rs` (operator
//! instances, 112 + 12 scheduled variants, the nine illegal mutants), the racy split-k matmul of `sanitizer_equivalence`,
//! every `Ok` program of the 1 280 `sketch_apply` vectors, the hand-built
//! programs of the `tir-analysis` unit tests, the `C_local` false reject
//! recorded in EXPERIMENTS.md, and programs built for the places where the
//! checks used to walk differently (a loop of non-constant extent, guards,
//! accesses in bindings and predicates, a shadowed variable). All of them
//! are well-formed (`tir::well_formed`) except the two in `MALFORMED`.
//!
//! In a debug build the walk also asserts at its end that its scope is
//! empty again — every loop, binding, block and interval refinement undone
//! — so running this suite in debug checks that on every program here.
//!
//! Regenerate (only when a verdict or a wording is *meant* to change) with
//! `cargo test --test analysis_golden -- --ignored`.

mod corpus;

use std::sync::OnceLock;

use corpus::golden::{self, fnv1a};

use tir::builder::{compute, matmul_func};
use tir::{
    well_formed, AnnValue, Block, BlockRealize, Buffer, BufferRegion, CmpOp, DataType, Expr, For,
    ForKind, IterVar, MemScope, PrimFunc, Stmt, ThreadTag, Var,
};
use tir_analysis::validate::check_loop_nests;
use tir_analysis::{analyze, check_bounds, check_races, check_scopes, validate, ValidationError};
use tir_autoschedule::{build_sketches, Strategy};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_schedule::Schedule;
use tir_tensorize::builtin_registry;
use tir_workloads::bench_suite;

const GOLDEN: &str = include_str!("golden/analysis_diagnostics.txt");

/// The five diagnostics lists of one program, in the order of a golden line.
fn diagnostics(func: &PrimFunc) -> [Vec<ValidationError>; 5] {
    [
        validate(func).err().unwrap_or_default(),
        check_bounds(func),
        check_races(func),
        check_scopes(func),
        analyze(func),
    ]
}

fn golden_line(label: &str, func: &PrimFunc) -> String {
    let mut line = label.to_string();
    let names = ["validate", "bounds", "races", "scopes", "analyze"];
    for (name, errors) in names.iter().zip(diagnostics(func)) {
        let texts: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        let hash = fnv1a(texts.join("\n").bytes());
        line.push_str(&format!(" | {name} {} {hash:016x}", errors.len()));
    }
    line
}

fn thread_loop(var: &Var, extent: i64, tag: ThreadTag, body: Stmt) -> Stmt {
    let kind = ForKind::ThreadBinding(tag);
    Stmt::For(Box::new(For::with_kind(var.clone(), extent, kind, body)))
}

fn parallel_loop(var: &Var, extent: i64, body: Stmt) -> Stmt {
    Stmt::For(Box::new(For::with_kind(
        var.clone(),
        extent,
        ForKind::Parallel,
        body,
    )))
}

fn f32_buffer(name: &str, shape: &[i64]) -> Buffer {
    Buffer::new(name, DataType::float32(), shape.to_vec())
}

/// A block `name` storing `out[v] = 0` for one spatial iterator `v`.
fn store_block(name: &str, out: &Buffer, extent: i64) -> Block {
    let v = Var::int("v");
    let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
    let iter_vars = vec![IterVar::spatial(v, extent)];
    Block::new(name, iter_vars, vec![], vec![out.full_region()], body)
}

fn realize(values: Vec<Expr>, block: Block) -> Stmt {
    Stmt::BlockRealize(Box::new(BlockRealize::new(values, block)))
}

/// Calls `f` on every statement below the root block, outermost first.
fn edit(func: &mut PrimFunc, f: &mut dyn FnMut(&mut Stmt)) {
    fn walk(s: &mut Stmt, f: &mut dyn FnMut(&mut Stmt)) {
        f(s);
        s.children_mut().for_each(|child| walk(child, f));
    }
    walk(&mut func.root_block_mut().expect("root block").body, f);
}

/// The shared-memory copy of `cooperative_fetch_check`: `S_copy` loops over
/// `ax` inside a `threadIdx.x` loop of 32 it does not consume, claiming a
/// cooperative group of `claim` threads if given.
fn cooperative_copy(claim: Option<i64>) -> PrimFunc {
    let shared = Buffer::with_scope("S", DataType::float32(), vec![8], MemScope::Shared);
    let a = f32_buffer("A", &[8]);
    let (t, ax, v) = (Var::int("t"), Var::int("ax"), Var::int("v"));
    let body = Stmt::store(
        shared.clone(),
        vec![Expr::from(&v)],
        a.load(vec![Expr::from(&v)]),
    );
    let mut block = Block::new(
        "S_copy",
        vec![IterVar::spatial(v.clone(), 8)],
        vec![BufferRegion::point(a.clone(), vec![Expr::from(&v)])],
        vec![BufferRegion::point(shared, vec![Expr::from(&v)])],
        body,
    );
    if let Some(claim) = claim {
        (block.annotations).insert("tir.cooperative".into(), AnnValue::Int(claim));
    }
    let inner = realize(vec![Expr::from(&ax)], block).in_loop(ax, 8);
    let nest = thread_loop(&t, 32, ThreadTag::ThreadIdxX, inner);
    PrimFunc::new("f", vec![a], nest)
}

/// The programs of the `tir-analysis` unit tests, rejected and accepted.
fn unit_test_programs() -> Vec<(&'static str, PrimFunc)> {
    let mut out: Vec<(&'static str, PrimFunc)> = Vec::new();

    // validate.rs
    {
        let (i, v1, v2) = (Var::int("i"), Var::int("v1"), Var::int("v2"));
        let o = f32_buffer("O", &[16]);
        let body = Stmt::store(o.clone(), vec![Expr::from(&v1)], Expr::f32(0.0));
        let iters = vec![IterVar::spatial(v1, 16), IterVar::spatial(v2, 32)];
        let block = Block::new("b", iters, vec![], vec![o.full_region()], body);
        let nest = realize(vec![Expr::from(&i), Expr::from(&i) * 2], block).in_loop(i, 16);
        out.push(("dependent bindings", PrimFunc::new("f", vec![o], nest)));
    }
    {
        let (i, v1, v2) = (Var::int("i"), Var::int("v1"), Var::int("v2"));
        let o = f32_buffer("O", &[16]);
        let index = Expr::from(&v1) * 4 + Expr::from(&v2);
        let body = Stmt::store(o.clone(), vec![index], Expr::f32(0.0));
        let iters = vec![IterVar::spatial(v1, 4), IterVar::spatial(v2, 4)];
        let block = Block::new("b", iters, vec![], vec![o.full_region()], body);
        let values = vec![Expr::from(&i).floor_div(4), Expr::from(&i).floor_mod(4)];
        let nest = realize(values, block).in_loop(i, 16);
        out.push(("split bindings", PrimFunc::new("f", vec![o], nest)));
    }
    {
        let o = f32_buffer("O", &[16]);
        let unbound = Expr::from(&Var::int("unbound"));
        let nest = realize(vec![unbound], store_block("b", &o, 16)).in_loop(Var::int("i"), 16);
        out.push((
            "binding to an unbound variable",
            PrimFunc::new("f", vec![o], nest),
        ));
    }
    {
        let o = f32_buffer("O", &[1]);
        let (k, vk) = (Var::int("k"), Var::int("vk"));
        let update = o.load(vec![Expr::int(0)]) + Expr::f32(1.0);
        let body = Stmt::store(o.clone(), vec![Expr::int(0)], update);
        let iters = vec![IterVar::reduce(vk, 8)];
        let block = Block::new("b", iters, vec![], vec![o.full_region()], body);
        let nest = parallel_loop(&k, 8, realize(vec![Expr::from(&k)], block));
        out.push((
            "reduction on a parallel loop",
            PrimFunc::new("f", vec![o], nest),
        ));
    }
    {
        let o = f32_buffer("O", &[4]);
        let (t0, t1) = (Var::int("t0"), Var::int("t1"));
        let value = Expr::from(&t0) * 2 + Expr::from(&t1);
        let inner = realize(vec![value], store_block("b", &o, 4));
        let inner = thread_loop(&t1, 2, ThreadTag::ThreadIdxX, inner);
        let nest = thread_loop(&t0, 2, ThreadTag::ThreadIdxX, inner);
        out.push(("threadIdx.x bound twice", PrimFunc::new("f", vec![o], nest)));
    }
    {
        let o = f32_buffer("O", &[2048]);
        let t = Var::int("t");
        let inner = realize(vec![Expr::from(&t)], store_block("b", &o, 2048));
        let nest = thread_loop(&t, 2048, ThreadTag::ThreadIdxX, inner);
        out.push(("launch limit", PrimFunc::new("f", vec![o], nest)));
    }
    for guarded in [true, false] {
        // v = i0 * 8 + i1 sweeps 32 points of a 30-wide domain.
        let o = f32_buffer("O", &[30]);
        let (i0, i1) = (Var::int("i0"), Var::int("i1"));
        let binding = Expr::from(&i0) * 8 + Expr::from(&i1);
        let predicate = if guarded {
            binding.clone().lt(30)
        } else {
            Expr::true_()
        };
        let br = BlockRealize::with_predicate(vec![binding], predicate, store_block("b", &o, 30));
        let nest = Stmt::BlockRealize(Box::new(br)).in_loops(vec![(i0, 4), (i1, 8)]);
        let label = if guarded {
            "guarded partial tile"
        } else {
            "unguarded partial tile"
        };
        out.push((label, PrimFunc::new("f", vec![o], nest)));
    }
    {
        // B written only on [0, 4) but read on [0, 8).
        let (a, b, c) = (
            f32_buffer("A", &[8]),
            f32_buffer("B", &[8]),
            f32_buffer("C", &[8]),
        );
        let (i, vi) = (Var::int("i"), Var::int("vi"));
        let at = vec![Expr::from(&vi)];
        let copy = Stmt::store(b.clone(), at.clone(), a.load(at.clone()));
        let wb = Block::new(
            "B",
            vec![IterVar::spatial(vi, 4)],
            vec![BufferRegion::point(a.clone(), at.clone())],
            vec![BufferRegion::point(b.clone(), at)],
            copy,
        );
        let producer = realize(vec![Expr::from(&i)], wb).in_loop(i, 4);
        let consumer = compute("C", &c, |iv| b.load(vec![Expr::from(&iv[0])]));
        let body = Stmt::seq(vec![producer, consumer]);
        out.push(("partial producer", PrimFunc::new("f", vec![a, c], body)));
    }
    out.push(("cooperative copy, no claim", cooperative_copy(None)));
    out.push(("cooperative copy, claims 32", cooperative_copy(Some(32))));
    out.push(("cooperative copy, claims 64", cooperative_copy(Some(64))));
    for atomic in [false, true] {
        let mut func = matmul_func("mm", 8, 8, 8, DataType::float32());
        edit(&mut func, &mut |s| match s {
            Stmt::For(l) if matches!(l.body, Stmt::BlockRealize(_)) => l.kind = ForKind::Parallel,
            Stmt::BlockRealize(br) if atomic && br.block.name == "C" => {
                (br.block.annotations).insert("tir.atomic".into(), AnnValue::Int(1));
            }
            _ => {}
        });
        let label = if atomic {
            "atomic parallel reduction"
        } else {
            "parallel reduction"
        };
        out.push((label, func));
    }
    for broken in [false, true] {
        // An inner block bound through its parent's iterator, the parent's
        // loop split in two; then the parent's binding alone is broken.
        let o = f32_buffer("O", &[16]);
        let (i0, i1, j, vo) = (
            Var::int("i0"),
            Var::int("i1"),
            Var::int("j"),
            Var::int("vo"),
        );
        let inner_value = Expr::from(&vo) * 4 + Expr::from(&j);
        let inner = realize(vec![inner_value], store_block("inner", &o, 16)).in_loop(j, 4);
        let iters = vec![IterVar::spatial(vo, 4)];
        let outer = Block::new("outer", iters, vec![], vec![o.full_region()], inner);
        let scale = if broken { 2 } else { 1 };
        let outer_value = Expr::from(&i0) * 2 + Expr::from(&i1) * scale;
        let nest = realize(vec![outer_value], outer).in_loops(vec![(i0, 2), (i1, 2)]);
        let label = if broken {
            "nested block, parent binding broken"
        } else {
            "nested block under a split parent"
        };
        out.push((label, PrimFunc::new("f", vec![o], nest)));
    }

    // bounds.rs
    {
        let o = f32_buffer("O", &[16]);
        let i = Var::int("i");
        let body = Stmt::store(o.clone(), vec![Expr::from(&i) + 1], Expr::f32(0.0));
        out.push((
            "shifted store",
            PrimFunc::new("f", vec![o], body.in_loop(i, 16)),
        ));
    }
    {
        let (a, o) = (f32_buffer("A", &[16]), f32_buffer("O", &[16]));
        let i = Var::int("i");
        let value = a.load(vec![Expr::from(&i) - 1]);
        let body = Stmt::store(o.clone(), vec![Expr::from(&i)], value);
        out.push((
            "negative load",
            PrimFunc::new("f", vec![a, o], body.in_loop(i, 16)),
        ));
    }
    {
        // O[i] = select(i >= 1, A[i - 1], 0): the guarded load is fine.
        let (a, o) = (f32_buffer("A", &[16]), f32_buffer("O", &[16]));
        let i = Var::int("i");
        let guarded = Expr::select(
            Expr::from(&i).cmp(CmpOp::Ge, 1),
            a.load(vec![Expr::from(&i) - 1]),
            Expr::f32(0.0),
        );
        let body = Stmt::store(o.clone(), vec![Expr::from(&i)], guarded);
        out.push((
            "select guard",
            PrimFunc::new("f", vec![a, o], body.in_loop(i, 16)),
        ));
    }
    {
        // A miniature of the T2D zero-padding block.
        let (a, p) = (f32_buffer("A", &[8]), f32_buffer("P", &[12]));
        let i = Var::int("i");
        let y = Expr::from(&i) - 3;
        let cond = (y.clone().cmp(CmpOp::Ge, 0))
            .and(y.clone().lt(8))
            .and(y.clone().floor_mod(2).eq_(0));
        let value = Expr::select(cond, a.load(vec![y.floor_div(1)]), Expr::f32(0.0));
        let body = Stmt::store(p.clone(), vec![Expr::from(&i)], value);
        let mut f = PrimFunc::new("f", vec![a], body.in_loop(i, 12));
        f.root_block_mut().expect("root").alloc_buffers.push(p);
        out.push(("padding guard", f));
    }

    // racecheck.rs
    for (label, kind, shift) in [
        ("parallel store", ForKind::Parallel, 0),
        ("vectorized shifted store", ForKind::Vectorized, 1),
    ] {
        let o = f32_buffer("O", &[17]);
        let i = Var::int("i");
        let body = Stmt::store(o.clone(), vec![Expr::from(&i) + shift], Expr::f32(0.0));
        let nest = Stmt::For(Box::new(For::with_kind(i, 16, kind, body)));
        out.push((label, PrimFunc::new("f", vec![o], nest)));
    }
    {
        // parallel i: O[0] += 1 — all iterations write one cell.
        let o = f32_buffer("O", &[1]);
        let update = o.load(vec![Expr::int(0)]) + Expr::f32(1.0);
        let body = Stmt::store(o.clone(), vec![Expr::int(0)], update);
        let nest = parallel_loop(&Var::int("i"), 8, body);
        out.push(("bare parallel reduction", PrimFunc::new("f", vec![o], nest)));
    }
    {
        // parallel i: O[i] = O[i + 1] — neighbour communication races.
        let o = f32_buffer("O", &[17]);
        let i = Var::int("i");
        let value = o.load(vec![Expr::from(&i) + 1]);
        let body = Stmt::store(o.clone(), vec![Expr::from(&i)], value);
        let nest = parallel_loop(&i, 16, body);
        out.push(("neighbour read", PrimFunc::new("f", vec![o], nest)));
    }
    for (label, width) in [("disjoint stripes", 4), ("overlapping stripes", 5)] {
        // parallel io: for ii in 0..width: O[io * 4 + ii]
        let o = f32_buffer("O", &[69]);
        let (io, ii) = (Var::int("io"), Var::int("ii"));
        let index = Expr::from(&io) * 4 + Expr::from(&ii);
        let body = Stmt::store(o.clone(), vec![index], Expr::f32(0.0)).in_loop(ii, width);
        out.push((
            label,
            PrimFunc::new("f", vec![o], parallel_loop(&io, 16, body)),
        ));
    }
    {
        let o = f32_buffer("O", &[1]);
        let (i, vk) = (Var::int("i"), Var::int("vk"));
        let update = o.load(vec![Expr::int(0)]) + Expr::f32(1.0);
        let body = Stmt::store(o.clone(), vec![Expr::int(0)], update);
        let region = vec![o.full_region()];
        let iters = vec![IterVar::reduce(vk, 8)];
        let mut block = Block::new("b", iters, region.clone(), region, body);
        (block.annotations).insert("tir.atomic".into(), AnnValue::Int(1));
        let nest = parallel_loop(&i, 8, realize(vec![Expr::from(&i)], block));
        out.push(("atomic block", PrimFunc::new("f", vec![o], nest)));
    }
    {
        // S written under one blockIdx loop and read outside it.
        let s = Buffer::with_scope("S", DataType::float32(), vec![8], MemScope::Shared);
        let o = f32_buffer("O", &[8]);
        let (b, i) = (Var::int("b"), Var::int("i"));
        let write = Stmt::store(s.clone(), vec![Expr::from(&b)], Expr::f32(1.0));
        let write = thread_loop(&b, 8, ThreadTag::BlockIdxX, write);
        let value = s.load(vec![Expr::from(&i)]);
        let read = Stmt::store(o.clone(), vec![Expr::from(&i)], value).in_loop(i, 8);
        let mut f = PrimFunc::new("f", vec![o], Stmt::seq(vec![write, read]));
        f.root_block_mut().expect("root").alloc_buffers.push(s);
        out.push(("shared across blockIdx", f));
    }
    out
}

/// A triangular nest: the `j` loop's extent is `i + 1`. Loop-nest
/// validation reports it and looks no further; everything below it is
/// there for the other checks to find — dependent bindings (which
/// loop-nest validation must *not* report), a store all iterations of a
/// parallel loop share, a load one past the end, a `local` buffer touched
/// inside and outside a thread loop.
fn non_constant_extent() -> PrimFunc {
    let (o, s) = (f32_buffer("O", &[8]), f32_buffer("S", &[4]));
    let l = Buffer::with_scope("L", DataType::float32(), vec![1], MemScope::Local);
    let (i, j, p, t) = (Var::int("i"), Var::int("j"), Var::int("p"), Var::int("t"));
    let (v1, v2) = (Var::int("v1"), Var::int("v2"));
    let value = s.load(vec![Expr::from(&v1) + 1]);
    let body = Stmt::store(o.clone(), vec![Expr::from(&j)], value);
    let iters = vec![IterVar::spatial(v1, 4), IterVar::spatial(v2, 8)];
    let block = Block::new("b", iters, vec![], vec![o.full_region()], body);
    let racy = realize(vec![Expr::from(&p), Expr::from(&p) * 2], block);
    let zero = vec![Expr::int(0)];
    let inside = Stmt::store(l.clone(), zero.clone(), Expr::f32(1.0));
    let outside = Stmt::store(l.clone(), zero, Expr::f32(2.0));
    let body = Stmt::seq(vec![
        parallel_loop(&p, 4, racy),
        thread_loop(&t, 2, ThreadTag::ThreadIdxX, inside),
        outside,
    ]);
    let triangle = Stmt::For(Box::new(For::serial(j, Expr::from(&i) + 1, body)));
    let mut f = PrimFunc::new("triangle", vec![s, o], triangle.in_loop(i, 8));
    f.root_block_mut().expect("root").alloc_buffers.push(l);
    f
}

/// Programs for what the four walkers did differently: which expressions
/// each read (binding values, predicates, `if` conditions), and how each
/// restored a variable bound twice.
fn seam_programs() -> Vec<(&'static str, PrimFunc)> {
    let mut out = vec![("non-constant extent", non_constant_extent())];
    {
        // `if i >= 1 and T[i] > 0: O[i] = A[i - 1] else: O[i] = A[i - 1]`:
        // only the `then` branch is refined, and the condition reads `T`.
        let (a, t, o) = (
            f32_buffer("A", &[8]),
            f32_buffer("T", &[4]),
            f32_buffer("O", &[8]),
        );
        let i = Var::int("i");
        let at = vec![Expr::from(&i)];
        let store = Stmt::store(o.clone(), at.clone(), a.load(vec![Expr::from(&i) - 1]));
        let cond = (Expr::from(&i).cmp(CmpOp::Ge, 1)).and(t.load(at).cmp(CmpOp::Gt, 0));
        let branch = Stmt::IfThenElse {
            cond,
            then_branch: Box::new(store.clone()),
            else_branch: Some(Box::new(store)),
        };
        let nest = parallel_loop(&i, 8, branch);
        out.push(("if guard", PrimFunc::new("f", vec![a, t, o], nest)));
    }
    {
        // Loads outside a block body, under a parallel loop. The binding
        // value reads `Q[(i + 1) % 8]` (times zero, so it stays affine)
        // while the body writes `Q[v]`: the cover check reads binding
        // values and the race proof does not. The predicate reads `N`,
        // which nobody writes: the race proof reads predicates and the
        // cover check does not. The bounds check reads both.
        let (q, n) = (f32_buffer("Q", &[8]), f32_buffer("N", &[4]));
        let (i, v) = (Var::int("i"), Var::int("v"));
        let body = Stmt::store(q.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let iters = vec![IterVar::spatial(v, 8)];
        let block = Block::new("b", iters, vec![], vec![q.full_region()], body);
        let neighbour = q.load(vec![(Expr::from(&i) + 1).floor_mod(8)]);
        let value = Expr::from(&i) + neighbour * Expr::int(0);
        let predicate = n.load(vec![Expr::from(&i) + 4]).cmp(CmpOp::Gt, 0);
        let br = BlockRealize::with_predicate(vec![value], predicate, block);
        let nest = parallel_loop(&i, 8, Stmt::BlockRealize(Box::new(br)));
        let mut f = PrimFunc::new("f", vec![], nest);
        f.root_block_mut()
            .expect("root")
            .alloc_buffers
            .extend([q, n]);
        out.push(("loads in a binding and a predicate", f));
    }
    {
        // `i` bound by two nested loops, then used after the inner one
        // closed: the outer range must be back.
        let o = f32_buffer("O", &[8]);
        let i = Var::int("i");
        let at = vec![Expr::from(&i)];
        let inner = Stmt::store(o.clone(), at.clone(), Expr::f32(0.0)).in_loop(i.clone(), 16);
        let after = Stmt::store(o.clone(), at, Expr::f32(1.0));
        let nest = Stmt::seq(vec![inner, after]).in_loop(i, 8);
        out.push(("shadowed loop variable", PrimFunc::new("f", vec![o], nest)));
    }
    {
        // A reduction with an `init`, its predicate refining the loop the
        // body indexes with, and an `Eval` that loads out of range.
        let (a, o) = (f32_buffer("A", &[6]), f32_buffer("O", &[1]));
        let (k, vk) = (Var::int("k"), Var::int("vk"));
        let zero = vec![Expr::int(0)];
        let update = o.load(zero.clone()) + a.load(vec![Expr::from(&k)]);
        let body = Stmt::seq(vec![
            Stmt::store(o.clone(), zero.clone(), update),
            Stmt::Eval(a.load(vec![Expr::from(&vk) + 6])),
        ]);
        let iters = vec![IterVar::reduce(vk, 6)];
        let mut block = Block::new("sum", iters, vec![], vec![o.full_region()], body);
        block.init = Some(Box::new(Stmt::store(o.clone(), zero, Expr::f32(0.0))));
        let br = BlockRealize::with_predicate(vec![Expr::from(&k)], Expr::from(&k).lt(6), block);
        let nest = Stmt::BlockRealize(Box::new(br)).in_loop(k, 8);
        out.push((
            "predicate refines a loop",
            PrimFunc::new("f", vec![a, o], nest),
        ));
    }
    out
}

/// EXPERIMENTS.md "Known deviations": the register-accumulation
/// `cache_write` under a serial step of 2, a legal program `validate`
/// rejects with `RegionCover` on `C_local`.
fn c_local_reproduction() -> PrimFunc {
    let mut sch = Schedule::new(matmul_func("mm", 64, 64, 64, DataType::float16()));
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    let fused = sch.fuse(&loops[..2]).unwrap();
    let parts = sch.split(&fused, &[-1, 32, 2]).unwrap();
    sch.bind(&parts[0], ThreadTag::BlockIdxX).unwrap();
    sch.bind(&parts[1], ThreadTag::ThreadIdxX).unwrap();
    sch.cache_write(&block, MemScope::Local, Some(&parts[1]))
        .unwrap();
    sch.into_func()
}

/// A matmul whose reduction loop is split and whose outer half is parallel
/// (`sanitizer_equivalence::race_in_a_forwarded_nest_is_convicted_on_both`).
fn racy_split_k() -> PrimFunc {
    let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    let k = sch.split(&loops[2], &[2, -1]).unwrap();
    sch.parallel(&k[0]).unwrap();
    sch.into_func()
}

/// Every `Ok` program of the `sketch_apply` golden vectors (the loops of
/// `tir-autoschedule/tests/sketch_apply_golden.rs`).
fn sketch_programs(out: &mut Vec<(String, PrimFunc)>) {
    let reg = builtin_registry();
    let targets = [
        ("sim_gpu", Machine::sim_gpu(), DataType::float16()),
        ("sim_arm", Machine::sim_arm(), DataType::int8()),
    ];
    for (machine_name, machine, dtype) in &targets {
        for case in bench_suite(*dtype) {
            for sketch in build_sketches(&case.func, machine, &reg, Strategy::TensorIr) {
                for seed in 0..40 {
                    let decisions = sketch.sample(&mut StdRng::seed_from_u64(seed));
                    if let Ok(func) = sketch.apply(&decisions) {
                        let kind = case.kind.label();
                        let label = format!("{machine_name} {kind} {} {seed}", sketch.name());
                        out.push((label, func));
                    }
                }
            }
        }
    }
}

/// The whole corpus, labelled, built once per test binary.
fn programs() -> &'static [(String, PrimFunc)] {
    static PROGRAMS: OnceLock<Vec<(String, PrimFunc)>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let mut out: Vec<(String, PrimFunc)> = Vec::new();
        for (n, (func, _)) in corpus::workload_families().into_iter().enumerate() {
            out.push((format!("family {n} {}", func.name), func));
        }
        for (case, func) in corpus::random_pipelines(112).into_iter().enumerate() {
            out.push((format!("variant {case}"), func));
        }
        for (v, func) in corpus::gpu_pipelines().into_iter().enumerate() {
            out.push((format!("gpu variant {v}"), func));
        }
        for (label, func, _) in corpus::illegal_mutants() {
            out.push((format!("mutant {label}"), func));
        }
        out.push(("racy split-k".into(), racy_split_k()));
        out.push(("C_local reproduction".into(), c_local_reproduction()));
        for (label, func) in unit_test_programs().into_iter().chain(seam_programs()) {
            out.push((format!("hand-built: {label}"), func));
        }
        sketch_programs(&mut out);
        out
    })
}

/// The programs that are not well-formed, and the rule each breaks (the
/// `Debug` name of its `WellFormedError`). Every other program is.
const MALFORMED: [(&str, &str); 2] = [
    ("hand-built: binding to an unbound variable", "UnboundVar"),
    ("hand-built: shadowed loop variable", "ShadowedBinding"),
];

fn golden_text() -> String {
    let mut out = String::new();
    let mut malformed = 0;
    for (label, func) in programs() {
        let rule = MALFORMED.iter().find(|(l, _)| l == label);
        match (well_formed(func), rule) {
            (Ok(()), None) => {}
            (Err(e), Some((_, kind))) if format!("{e:?}").starts_with(kind) => malformed += 1,
            (verdict, _) => panic!("{label}: well_formed says {verdict:?}"),
        }
        out.push_str(&golden_line(label, func));
        out.push('\n');
    }
    assert_eq!(malformed, MALFORMED.len());
    out
}

#[test]
fn diagnostics_match_golden() {
    golden::assert_matches_golden(GOLDEN, &golden_text(), "programs' diagnostics");
    let rejected = |line: &&str| !line.contains("analyze 0 ");
    let (lines, rejects) = (
        GOLDEN.lines().count(),
        GOLDEN.lines().filter(rejected).count(),
    );
    assert!(
        lines > 1_000 && rejects > 30,
        "{lines} programs, {rejects} rejected: the file would not notice a lost diagnostic"
    );
}

/// `analyze` is one walk feeding five checks; each check alone is the same
/// walk feeding one. The lists must concatenate, in `analyze`'s order.
#[test]
fn analyze_is_the_concatenation_of_its_checks() {
    for (label, func) in programs() {
        let [validated, bounds, races, scopes, analyzed] = diagnostics(func);
        let parts = [validated, bounds, races, scopes].concat();
        assert_eq!(analyzed, parts, "{label}:\n{func}");
    }
}

/// Loop-nest validation stops at a loop of non-constant extent; the other
/// checks keep going below it.
#[test]
fn non_constant_extent_stops_loop_nest_validation_only() {
    let func = non_constant_extent();
    let nests = check_loop_nests(&func);
    assert!(
        matches!(&nests[..], [ValidationError::NonConstantExtent { loop_var }] if loop_var == "j"),
        "{nests:?}"
    );
    let block_b = |e: &ValidationError| match e {
        ValidationError::OutOfBounds { block, buffer, .. } => block == "b" && buffer == "S",
        ValidationError::WriteRace { block, buffer, .. } => block == "b" && buffer == "O",
        _ => false,
    };
    assert!(check_bounds(&func).iter().any(block_b));
    let races = check_races(&func);
    assert!(races.iter().any(block_b), "{races:?}");
    let scopes = check_scopes(&func);
    assert!(
        matches!(&scopes[..], [ValidationError::ScopeViolation { buffer, .. }] if buffer == "L"),
        "{scopes:?}"
    );
}

/// ROADMAP item 2(a) is still open: the reproduction must keep reading
/// `RegionCover` until that item decides otherwise.
#[test]
fn c_local_reproduction_still_reads_region_cover() {
    let errors = validate(&c_local_reproduction()).expect_err("a known false reject");
    assert!(
        matches!(&errors[..], [ValidationError::RegionCover { buffer }] if buffer == "C_local"),
        "{errors:?}"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/analysis_diagnostics.txt"
    );
    golden::rewrite(path, &golden_text());
}
