//! Golden outcomes of the schedule primitives: the gate for any change to
//! `tir-schedule` (and to the statement traversals of `tir` it stands on).
//!
//! `tests/golden/schedule_outcomes.txt` holds one line per (program,
//! primitive call). The calls are not hand-picked: for every program they
//! are enumerated from the loops, blocks and buffers the program has —
//! `split` of every loop by `[2,-1]`, `[-1,3]` and `[4,4]`; `fuse` and
//! `reorder` of every adjacent pair; the five loop annotations on every
//! loop; `cache_read` of every buffer a block reads at the root and at
//! every loop, `cache_write` likewise; `compute_at`/`reverse_compute_at` of
//! every block at every loop; both inlines of every block; `blockize` of
//! every loop; `decompose_reduction` of every block at every loop and the
//! `merge_reduction` back — with one loop and one block of another
//! function among them, so that every primitive is also seen refusing a
//! reference that does not resolve. A line is the call, then either
//! `ok <FNV-1a of the printed program> <FNV-1a of the printed trace>` and
//! what the analyzer makes of the result (`valid`, or `invalid` and the
//! hash of the rejection), or `err <the ScheduleError>`. After every `err`
//! the program text, its structural hash and the trace length are asserted
//! to be what they were: the strong failure guarantee, per call. Every
//! program, every replayed step and every `ok` outcome is asserted to be
//! well-formed (`tir::well_formed`).
//!
//! The programs: every family of `corpus::workload_families`, two-block
//! pipelines and fused epilogue groups (for the compute-location
//! primitives), the base schedules `auto_tensorize` hands the wmma and sdot
//! sketches, every step of `corpus::random_pipelines` and
//! `corpus::gpu_pipelines` replayed from its trace (and the call set on a
//! few of the finished ones), and hand-built *seam* programs where the
//! hand-written descents this file was recorded on took different
//! children: a block below an `if`, a loop nest and a block inside an
//! `init`, two blocks of one name. The file was written by those descents,
//! which are gone; it is the oracle `Stmt::children` is held to.
//!
//! Regenerate (only when a primitive is *meant* to build a different
//! program or word an error differently) with
//! `cargo test --test schedule_golden -- --ignored`.

mod corpus;

use corpus::golden::{self, fnv1a};

use tir::builder::{compute, matmul_func};
use tir::structural::{func_structural_eq, structural_hash};
use tir::visit::{find_block, ExprVisitor, StmtVisitor};
use tir::{
    well_formed, AnnValue, Block, BlockRealize, Buffer, BufferRegion, DataType, Expr, IterVar,
    MemScope, PrimFunc, Stmt, ThreadTag, Var,
};
use tir_autoschedule::{build_sketches, Strategy};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_schedule::{BlockRef, LoopRef, Schedule, ScheduleError};
use tir_tensorize::{auto_tensorize, builtin_registry};
use tir_workloads::{bench_suite, fuse_epilogue, ops, Epilogue, OpKind};

const GOLDEN: &str = include_str!("golden/schedule_outcomes.txt");

/// The primitives `Schedule::apply_trace_step` knows.
const PRIMITIVES: [&str; 18] = [
    "split",
    "fuse",
    "reorder",
    "parallel",
    "vectorize",
    "unroll",
    "bind",
    "annotate",
    "annotate_block",
    "compute_at",
    "reverse_compute_at",
    "compute_inline",
    "reverse_compute_inline",
    "cache_read",
    "cache_write",
    "blockize",
    "decompose_reduction",
    "merge_reduction",
];

fn f32_buffer(name: &str, shape: &[i64]) -> Buffer {
    Buffer::new(name, DataType::float32(), shape.to_vec())
}

fn realize(values: Vec<Expr>, block: Block) -> Stmt {
    Stmt::BlockRealize(Box::new(BlockRealize::new(values, block)))
}

// ---------------------------------------------------------------- programs

/// B = A + 1; C = exp(B): Fig. 4's pipeline.
fn add_exp() -> PrimFunc {
    let (a, b, c) = (
        f32_buffer("A", &[16, 16]),
        f32_buffer("B", &[16, 16]),
        f32_buffer("C", &[16, 16]),
    );
    let at = |iv: &[Var]| iv.iter().map(Expr::from).collect::<Vec<_>>();
    let s1 = compute("B", &b, |iv| a.load(at(iv)) + Expr::f32(1.0));
    let s2 = compute("C", &c, |iv| Expr::Call {
        name: "exp".into(),
        args: vec![b.load(at(iv))],
        dtype: DataType::float32(),
    });
    let mut f = PrimFunc::new("add_exp", vec![a, c], Stmt::seq(vec![s1, s2]));
    f.root_block_mut().expect("root").alloc_buffers.push(b);
    f
}

/// Matmul followed by ReLU: a reduction producer with a spatial consumer.
fn matmul_relu() -> PrimFunc {
    let base = matmul_func("mm", 16, 16, 16, DataType::float32());
    let c = base.params[2].clone();
    let d = f32_buffer("D", &[16, 16]);
    let relu = compute("D", &d, |iv| {
        c.load(iv.iter().map(Expr::from).collect())
            .max(Expr::f32(0.0))
    });
    let mm_body = (*base.root_block().expect("root").body).clone();
    let mut f = PrimFunc::new(
        "matmul_relu",
        vec![base.params[0].clone(), base.params[1].clone(), d],
        Stmt::seq(vec![mm_body, relu]),
    );
    f.root_block_mut().expect("root").alloc_buffers.push(c);
    f
}

/// The seam programs: hand-built trees on which the fifteen hand-written
/// descents `tir` and `tir-schedule` had before `Stmt::children` did not
/// agree about what a statement's children are.
fn seam_programs() -> Vec<(&'static str, PrimFunc)> {
    let mut out = Vec::new();
    let var = |name: &str| Var::int(name);
    let row_sum_update = |o: &Buffer, a: &Buffer, vi: &Var, vk: &Var| {
        let at = vec![Expr::from(vi)];
        let update = o.load(at.clone()) + a.load(vec![Expr::from(vi), Expr::from(vk)]);
        Stmt::store(o.clone(), at, update)
    };
    {
        // for i: if i < 8: block W, which allocates T, holds the producer P
        // of T and its consumer Q.
        let (a, o, t) = (
            f32_buffer("A", &[8, 8]),
            f32_buffer("O", &[8, 8]),
            f32_buffer("T", &[8]),
        );
        let (i, vi) = (var("i"), var("vi"));
        let row = |v: &Var| vec![Expr::from(&vi), Expr::from(v)];
        let p = compute("P", &t, |iv| a.load(row(&iv[0])) + Expr::f32(1.0));
        let (vq, jq) = (var("vq"), var("jq"));
        let q_body = Stmt::store(
            o.clone(),
            row(&vq),
            Expr::Call {
                name: "exp".into(),
                args: vec![t.load(vec![Expr::from(&vq)])],
                dtype: DataType::float32(),
            },
        );
        let q = Block::new(
            "Q",
            vec![IterVar::spatial(vq.clone(), 8)],
            vec![BufferRegion::point(t.clone(), vec![Expr::from(&vq)])],
            vec![BufferRegion::point(o.clone(), row(&vq))],
            q_body,
        );
        let q = realize(vec![Expr::from(&jq)], q).in_loop(jq, 8);
        let whole_row = |b: &Buffer| {
            let mut r = b.full_region();
            r.region[0] = tir::RangeExpr::new(Expr::from(&vi), 1);
            r
        };
        let mut w = Block::new(
            "W",
            vec![IterVar::spatial(vi.clone(), 8)],
            vec![whole_row(&a)],
            vec![whole_row(&o)],
            Stmt::seq(vec![p, q]),
        );
        w.alloc_buffers.push(t);
        let guarded = Stmt::IfThenElse {
            cond: Expr::from(&i).lt(8),
            then_branch: Box::new(realize(vec![Expr::from(&i)], w)),
            else_branch: None,
        };
        out.push((
            "a block that allocates, below an if",
            PrimFunc::new("f", vec![a, o], guarded.in_loop(i, 8)),
        ));
    }
    {
        // O[vi] += A[vi, vk], initialised by a two-deep loop nest that also
        // clears a scratch row: loops inside an `init`.
        let (a, o, s) = (
            f32_buffer("A", &[4, 8]),
            f32_buffer("O", &[4]),
            f32_buffer("S", &[4, 4]),
        );
        let (i, k, vi, vk) = (var("i"), var("k"), var("vi"), var("vk"));
        let (z0, z1) = (var("z0"), var("z1"));
        let clear = Stmt::store(
            s.clone(),
            vec![Expr::from(&vi), Expr::from(&z0) * 2 + Expr::from(&z1)],
            Expr::f32(0.0),
        )
        .in_loops(vec![(z0, 2), (z1, 2)]);
        let zero = Stmt::store(o.clone(), vec![Expr::from(&vi)], Expr::f32(0.0));
        let mut r = Block::new(
            "R",
            vec![
                IterVar::spatial(vi.clone(), 4),
                IterVar::reduce(vk.clone(), 8),
            ],
            vec![BufferRegion::point(
                a.clone(),
                vec![Expr::from(&vi), Expr::from(&vk)],
            )],
            vec![BufferRegion::point(o.clone(), vec![Expr::from(&vi)])],
            row_sum_update(&o, &a, &vi, &vk),
        );
        r.init = Some(Box::new(Stmt::seq(vec![clear, zero])));
        let nest = realize(vec![Expr::from(&i), Expr::from(&k)], r).in_loops(vec![(i, 4), (k, 8)]);
        let mut f = PrimFunc::new("f", vec![a, o], nest);
        f.root_block_mut().expect("root").alloc_buffers.push(s);
        out.push(("a loop nest inside an init", f));
    }
    for beside_an_empty_loop in [false, true] {
        // The same row sum, initialised by a block of its own, Z, inside
        // the `init`; then once more beside a loop that holds nothing, which
        // a `prune_empty` that runs shows by removing it.
        let (a, o) = (f32_buffer("A", &[4, 8]), f32_buffer("O", &[4]));
        let (i, k, vi, vk, vz) = (var("i"), var("k"), var("vi"), var("vk"), var("vz"));
        let z = Block::new(
            "Z",
            vec![IterVar::spatial(vz.clone(), 4)],
            vec![],
            vec![BufferRegion::point(o.clone(), vec![Expr::from(&vz)])],
            Stmt::store(o.clone(), vec![Expr::from(&vz)], Expr::f32(0.0)),
        );
        let mut r = Block::new(
            "R",
            vec![
                IterVar::spatial(vi.clone(), 4),
                IterVar::reduce(vk.clone(), 8),
            ],
            vec![BufferRegion::point(
                a.clone(),
                vec![Expr::from(&vi), Expr::from(&vk)],
            )],
            vec![BufferRegion::point(o.clone(), vec![Expr::from(&vi)])],
            row_sum_update(&o, &a, &vi, &vk),
        );
        r.init = Some(Box::new(realize(vec![Expr::from(&vi)], z)));
        let nest = realize(vec![Expr::from(&i), Expr::from(&k)], r).in_loops(vec![(i, 4), (k, 8)]);
        let (label, body) = if beside_an_empty_loop {
            let hollow = Stmt::Seq(vec![]).in_loop(var("hollow"), 2);
            (
                "a block inside an init, beside an empty loop",
                Stmt::Seq(vec![hollow, nest]),
            )
        } else {
            ("a block inside an init", nest)
        };
        out.push((label, PrimFunc::new("f", vec![a, o], body)));
    }
    {
        // Two blocks named X: the first fills T, the second reads it.
        let (a, t, o) = (
            f32_buffer("A", &[8]),
            f32_buffer("T", &[8]),
            f32_buffer("O", &[8]),
        );
        let first = compute("X", &t, |iv| {
            a.load(vec![Expr::from(&iv[0])]) + Expr::f32(1.0)
        });
        let second = compute("X", &o, |iv| {
            t.load(vec![Expr::from(&iv[0])]) * Expr::f32(2.0)
        });
        let mut f = PrimFunc::new("f", vec![a, o], Stmt::seq(vec![first, second]));
        f.root_block_mut().expect("root").alloc_buffers.push(t);
        out.push(("two blocks of one name", f));
    }
    out
}

struct Program {
    label: String,
    base: Schedule,
    seam: bool,
}

fn program(label: impl Into<String>, func: PrimFunc) -> Program {
    Program {
        label: label.into(),
        base: Schedule::new(func),
        seam: false,
    }
}

/// The unscheduled matmul a pipeline of `tests/corpus` started from (its
/// parameters say which).
fn pipeline_origin(scheduled: &PrimFunc) -> PrimFunc {
    let a = &scheduled.params[0];
    let n = a.shape()[0];
    matmul_func("mm", n, n, n, a.dtype())
}

/// The pipelines of `tests/corpus` whose every step is replayed, with the
/// label of each.
fn pipelines() -> Vec<(String, Schedule)> {
    let random = (corpus::random_pipeline_schedules(48).into_iter())
        .enumerate()
        .map(|(case, sch)| (format!("random pipeline {case}"), sch));
    let gpu = (corpus::gpu_pipeline_schedules().into_iter())
        .enumerate()
        .map(|(v, sch)| (format!("gpu pipeline {v}"), sch));
    random.chain(gpu).collect()
}

/// Every program the call set is enumerated on.
fn programs() -> Vec<Program> {
    let mut out = Vec::new();
    for (n, (func, _)) in corpus::workload_families().into_iter().enumerate() {
        out.push(program(format!("family {n} {}", func.name), func));
    }
    out.push(program("add_exp", add_exp()));
    out.push(program("matmul_relu", matmul_relu()));
    {
        // Fig. 6: the consumer's rows tiled, so a producer can move into a
        // tile; the matmul's rows tiled for the epilogue likewise.
        let mut sch = Schedule::new(add_exp());
        let loops = sch.get_loops(&sch.get_block("C").unwrap()).unwrap();
        sch.split(&loops[0], &[4, 4]).unwrap();
        out.push(program("add_exp, C tiled", sch.into_func()));
        let mut sch = Schedule::new(matmul_relu());
        let loops = sch.get_loops(&sch.get_block("C").unwrap()).unwrap();
        sch.split(&loops[0], &[4, 4]).unwrap();
        out.push(program("matmul_relu, C tiled", sch.into_func()));
    }
    let f32 = DataType::float32();
    let gmm = ops::gmm(8, 8, 8, f32, f32);
    let c2d = ops::c2d(1, 6, 6, 4, 4, 3, 3, 1, f32);
    for (label, anchor, steps) in [
        (
            "gmm+bias+relu",
            &gmm,
            &[Epilogue::BiasAdd, Epilogue::Relu][..],
        ),
        ("gmm+gelu", &gmm, &[Epilogue::Gelu][..]),
        (
            "c2d+add+relu",
            &c2d,
            &[Epilogue::AddInput, Epilogue::Relu][..],
        ),
    ] {
        let fused = fuse_epilogue(anchor, steps, label);
        out.push(program(format!("fused {label}"), fused));
    }
    let reg = builtin_registry();
    for (intrin, dtype) in [
        ("wmma_16x16x16_f16", DataType::float16()),
        ("sdot_4x4x4_i8", DataType::int8()),
    ] {
        let case = (bench_suite(dtype).into_iter())
            .find(|c| c.kind == OpKind::GMM)
            .expect("GMM in the suite");
        let intrin = reg.get(intrin).expect("builtin intrinsic");
        let tensorized = auto_tensorize(&case.func, "C", intrin).expect("GMM tensorizes");
        out.push(Program {
            label: format!("tensorized GMM {}", intrin.name),
            base: tensorized.schedule,
            seam: false,
        });
    }
    // Finished pipelines, each distinct program once.
    let mut seen = Vec::new();
    for (label, sch) in pipelines() {
        let picked = match label.split_once(' ') {
            Some(("gpu", rest)) => ["pipeline 0", "pipeline 5", "pipeline 11"].contains(&rest),
            _ => seen.len() < 8,
        };
        let hash = structural_hash(sch.func());
        if picked && !seen.contains(&hash) {
            seen.push(hash);
            out.push(program(format!("finished {label}"), sch.into_func()));
        }
    }
    for (label, func) in seam_programs() {
        out.push(Program {
            seam: true,
            ..program(format!("seam: {label}"), func)
        });
    }
    out
}

// ------------------------------------------------------------------- calls

/// Where a program can be scheduled: its loops in pre-order, each labelled
/// `name#position`, and its blocks, outer-first — found through the lookups
/// a user has (`block_names`, `get_loops`, `find_loop_by_name`), so that a
/// lookup that changed its mind shows as a changed call set.
struct Sites {
    loops: Vec<(String, LoopRef)>,
    blocks: Vec<BlockRef>,
}

fn sites(sch: &Schedule) -> Sites {
    struct LoopVars(Vec<Var>);
    impl ExprVisitor for LoopVars {}
    impl StmtVisitor for LoopVars {
        fn visit_stmt(&mut self, s: &Stmt) {
            if let Stmt::For(f) = s {
                self.0.push(f.var.clone());
            }
            self.walk_stmt(s);
        }
    }
    let mut blocks: Vec<BlockRef> = Vec::new();
    for name in sch.block_names() {
        let block = sch.get_block(&name).expect("a name block_names gave");
        if !blocks.contains(&block) {
            blocks.push(block);
        }
    }
    let mut vars = LoopVars(Vec::new());
    vars.visit_stmt(&sch.func().body);
    let mut reachable: Vec<LoopRef> = (blocks.iter())
        .flat_map(|b| sch.get_loops(b).expect("loops of a block that exists"))
        .collect();
    reachable.extend(
        vars.0
            .iter()
            .filter_map(|v| sch.find_loop_by_name(v.name())),
    );
    let loops = (vars.0.iter().enumerate())
        .filter_map(|(n, v)| {
            let l = reachable.iter().find(|l| l.var() == v)?;
            Some((format!("{}#{n}", v.name()), l.clone()))
        })
        .collect();
    Sites { loops, blocks }
}

type Call = Box<dyn Fn(&mut Schedule) -> Result<(), ScheduleError>>;

struct CallSite {
    label: String,
    run: Call,
    /// A second call, made on the result of the first when that succeeded.
    then: Option<(String, Call)>,
}

/// A loop and a block of a function no program here contains.
fn ghosts() -> (LoopRef, BlockRef) {
    let sch = Schedule::new(PrimFunc::new(
        "elsewhere",
        vec![],
        compute("ghost", &f32_buffer("G", &[4]), |_| Expr::f32(0.0)),
    ));
    let block = sch.get_block("ghost").expect("ghost block");
    let l = sch.get_loops(&block).expect("ghost loops")[0].clone();
    (l, block)
}

type OnLoop = fn(&mut Schedule, &LoopRef) -> Result<(), ScheduleError>;
type OnBlock = fn(&mut Schedule, &BlockRef) -> Result<(), ScheduleError>;
type OnBlockAtLoop = fn(&mut Schedule, &BlockRef, &LoopRef) -> Result<(), ScheduleError>;

/// Primitive, what the label says after the loop, and the call.
const ON_A_LOOP: [(&str, &str, OnLoop); 6] = [
    ("parallel", "", |s, l| s.parallel(l)),
    ("vectorize", "", |s, l| s.vectorize(l)),
    ("unroll", "", |s, l| s.unroll(l)),
    ("bind", " threadIdx.x", |s, l| {
        s.bind(l, ThreadTag::ThreadIdxX)
    }),
    ("annotate", "", |s, l| {
        s.annotate(l, "pragma", AnnValue::Int(1))
    }),
    ("blockize", "", |s, l| s.blockize(l).map(drop)),
];
const ON_A_BLOCK: [(&str, OnBlock); 3] = [
    ("annotate_block", |s, b| {
        s.annotate_block(b, "note", AnnValue::Str("x".into()))
    }),
    ("compute_inline", |s, b| s.compute_inline(b)),
    ("reverse_compute_inline", |s, b| s.reverse_compute_inline(b)),
];
const ON_A_BLOCK_AT_A_LOOP: [(&str, OnBlockAtLoop); 2] = [
    ("compute_at", |s, b, l| s.compute_at(b, l)),
    ("reverse_compute_at", |s, b, l| s.reverse_compute_at(b, l)),
];

/// The calls that take one loop, one block, or a block and a loop, over
/// the given sites. The root block is asked everything a block can be asked
/// at the root, and left out of the block × loop products: it reads and
/// writes nothing, so each of those would be the same refusal again.
fn site_calls(
    sch: &Schedule,
    loops: &[(String, LoopRef)],
    blocks: &[BlockRef],
    out: &mut Vec<CallSite>,
) {
    let mut push = |label: String, run: Call| {
        let then = None;
        out.push(CallSite { label, run, then })
    };
    for (name, l) in loops {
        for factors in [[2, -1], [-1, 3], [4, 4]] {
            let l = l.clone();
            push(
                format!("split {name} {factors:?}"),
                Box::new(move |s| s.split(&l, &factors).map(drop)),
            );
        }
        for (primitive, argument, call) in ON_A_LOOP {
            let l = l.clone();
            push(
                format!("{primitive} {name}{argument}"),
                Box::new(move |s| call(s, &l)),
            );
        }
    }
    for b in blocks {
        let name = b.name().to_string();
        let of = || b.clone();
        for (primitive, call) in ON_A_BLOCK {
            let b = of();
            push(
                format!("{primitive} {name}"),
                Box::new(move |s| call(s, &b)),
            );
        }
        let below_root: &[(String, LoopRef)] = if name == "root" { &[] } else { loops };
        let attach_points = std::iter::once(("root", None)).chain(
            below_root
                .iter()
                .map(|(n, l)| (n.as_str(), Some(l.clone()))),
        );
        let mut read: Vec<Buffer> = Vec::new();
        if let Some(br) = find_block(&sch.func().body, &name) {
            for r in &br.block.reads {
                if !read.contains(&r.buffer) {
                    read.push(r.buffer.clone());
                }
            }
        }
        for (at, at_loop) in attach_points {
            for buffer in &read {
                let (b, buffer, at_loop) = (of(), buffer.clone(), at_loop.clone());
                push(
                    format!("cache_read {name} {} {at}", buffer.name()),
                    Box::new(move |s| {
                        s.cache_read(&b, &buffer, MemScope::Shared, at_loop.as_ref())
                            .map(drop)
                    }),
                );
            }
            let (b, at_loop) = (of(), at_loop.clone());
            push(
                format!("cache_write {name} {at}"),
                Box::new(move |s| {
                    s.cache_write(&b, MemScope::Local, at_loop.as_ref())
                        .map(drop)
                }),
            );
        }
        if read.is_empty() {
            // A block that reads nothing is still asked, once.
            let (b, buffer) = (of(), f32_buffer("nothing", &[1]));
            push(
                format!("cache_read {name} nothing root"),
                Box::new(move |s| s.cache_read(&b, &buffer, MemScope::Shared, None).map(drop)),
            );
        }
        for (at, l) in below_root {
            for (primitive, call) in ON_A_BLOCK_AT_A_LOOP {
                let (b, l) = (of(), l.clone());
                push(
                    format!("{primitive} {name} {at}"),
                    Box::new(move |s| call(s, &b, &l)),
                );
            }
        }
    }
    for b in blocks.iter().filter(|b| b.name() != "root") {
        for (at, l) in loops {
            let (name, init_name) = (b.name().to_string(), format!("{}_init", b.name()));
            let (b1, b2, l) = (b.clone(), b.clone(), l.clone());
            out.push(CallSite {
                label: format!("decompose_reduction {name} {at}"),
                run: Box::new(move |s| s.decompose_reduction(&b1, &l).map(drop)),
                then: Some((
                    format!("merge_reduction {init_name} {name}"),
                    Box::new(move |s| {
                        let init = s.get_block(&init_name)?;
                        s.merge_reduction(&init, &b2)
                    }),
                )),
            });
        }
    }
}

/// The call set of one program (see the module docs).
fn calls(sch: &Schedule, sites: &Sites) -> Vec<CallSite> {
    let (ghost_loop, ghost_block) = ghosts();
    let (ghost_loop, ghost_block) = ([("ghost".to_string(), ghost_loop)], [ghost_block]);
    let mut out = Vec::new();
    site_calls(sch, &sites.loops, &sites.blocks, &mut out);
    // Every primitive once more, on references that do not resolve.
    site_calls(sch, &ghost_loop, &ghost_block, &mut out);
    // Adjacent pairs, the last of them with a ghost.
    let mut push = |label: String, run: Call| {
        let then = None;
        out.push(CallSite { label, run, then })
    };
    let loops = [&sites.loops[..], &ghost_loop[..]].concat();
    for pair in loops.windows(2) {
        let names = format!("{} {}", pair[0].0, pair[1].0);
        let refs = [pair[0].1.clone(), pair[1].1.clone()];
        let swapped = [pair[1].1.clone(), pair[0].1.clone()];
        push(
            format!("fuse {names}"),
            Box::new(move |s| s.fuse(&refs).map(drop)),
        );
        push(
            format!("reorder {names}"),
            Box::new(move |s| s.reorder(&swapped)),
        );
    }
    let blocks = [&sites.blocks[..], &ghost_block[..]].concat();
    for pair in blocks.windows(2) {
        let (init, update) = (pair[0].clone(), pair[1].clone());
        push(
            format!("merge_reduction {} {}", init.name(), update.name()),
            Box::new(move |s| s.merge_reduction(&init, &update)),
        );
    }
    out
}

// ---------------------------------------------------------------- outcomes

fn state(sch: &Schedule) -> (String, u64, usize) {
    (
        sch.func().to_string(),
        structural_hash(sch.func()),
        sch.trace().len(),
    )
}

/// What the statement tree must never hold, for the descents that skipped
/// an `init` or an `if` to have agreed with the ones that did not: a loop
/// or a block inside an `init`, or a block below an `if`.
fn nests_where_the_descents_disagreed(func: &PrimFunc) -> bool {
    #[derive(Default)]
    struct Shape {
        inits: usize,
        ifs: usize,
        found: bool,
    }
    impl ExprVisitor for Shape {}
    impl StmtVisitor for Shape {
        fn visit_stmt(&mut self, s: &Stmt) {
            match s {
                Stmt::For(_) => self.found |= self.inits > 0,
                Stmt::BlockRealize(_) => self.found |= self.inits > 0 || self.ifs > 0,
                _ => {}
            }
            self.ifs += usize::from(matches!(s, Stmt::IfThenElse { .. }));
            self.walk_stmt(s);
            self.ifs -= usize::from(matches!(s, Stmt::IfThenElse { .. }));
        }
        fn visit_block(&mut self, b: &Block) {
            if let Some(init) = &b.init {
                self.inits += 1;
                self.visit_stmt(init);
                self.inits -= 1;
            }
            self.visit_stmt(&b.body);
        }
    }
    let mut shape = Shape::default();
    shape.visit_stmt(&func.body);
    shape.found
}

/// Runs `call` on a copy of `base` and, when it succeeds, asks the analyzer
/// about the result; returns the golden outcome and the scheduled copy. An
/// `Err` must leave the copy as `base` was.
fn outcome(
    program: &Program,
    base: &Schedule,
    before: &(String, u64, usize),
    call: &Call,
) -> (String, Option<Schedule>) {
    let mut sch = base.clone();
    let text = match call(&mut sch) {
        Err(e) => {
            assert!(
                state(&sch) == *before,
                "{}: failed with `{e}` but changed the schedule:\n{}",
                program.label,
                sch.func()
            );
            return (format!("err {e}").replace('\n', "\\n"), None);
        }
        Ok(()) => sch.func().to_string(),
    };
    assert_eq!(
        well_formed(sch.func()),
        Ok(()),
        "{}:\n{text}",
        program.label
    );
    assert!(
        program.seam || !nests_where_the_descents_disagreed(sch.func()),
        "{}: a primitive built a loop or block inside an init, or a block below an if:\n{text}",
        program.label
    );
    assert_eq!(
        sch.trace().len(),
        before.2 + 1,
        "{}: a call is one primitive",
        program.label
    );
    let hashes = (fnv1a(text.bytes()), fnv1a(sch.trace().to_string().bytes()));
    let verdict = match sch.verify() {
        Ok(()) => "valid".to_string(),
        Err(e) => format!("invalid {:016x}", fnv1a(e.to_string().bytes())),
    };
    let line = format!("ok {:016x} {:016x} {verdict}", hashes.0, hashes.1);
    (line, Some(sch))
}

fn golden_text() -> String {
    let mut out = String::new();
    for (label, recorded) in pipelines() {
        out.push_str(&format!("== every step of {label}\n"));
        let mut sch = Schedule::new(pipeline_origin(recorded.func()));
        for step in recorded.trace().steps() {
            sch.apply_trace_step(step).expect("a recorded step replays");
            assert_eq!(well_formed(sch.func()), Ok(()), "{label}: {step}");
            let hashes = (
                fnv1a(sch.func().to_string().bytes()),
                fnv1a(sch.trace().to_string().bytes()),
            );
            out.push_str(&format!(
                "{step} -> ok {:016x} {:016x}\n",
                hashes.0, hashes.1
            ));
        }
        assert!(func_structural_eq(sch.func(), recorded.func()), "{label}");
    }
    for program in programs() {
        assert!(
            program.seam || !nests_where_the_descents_disagreed(program.base.func()),
            "{}",
            program.label
        );
        assert_eq!(
            well_formed(program.base.func()),
            Ok(()),
            "{}",
            program.label
        );
        out.push_str(&format!("== {}\n", program.label));
        let before = state(&program.base);
        for site in calls(&program.base, &sites(&program.base)) {
            let (line, scheduled) = outcome(&program, &program.base, &before, &site.run);
            out.push_str(&format!("{} -> {line}\n", site.label));
            if let (Some(scheduled), Some((label, then))) = (scheduled, &site.then) {
                let (line, _) = outcome(&program, &scheduled, &state(&scheduled), then);
                out.push_str(&format!("{label} -> {line}\n"));
            }
        }
    }
    out
}

#[test]
fn outcomes_match_golden() {
    golden::assert_matches_golden(GOLDEN, &golden_text(), "primitive outcomes");
    for primitive in PRIMITIVES {
        let seen = |outcome: &str| {
            let prefix = format!("{primitive} ");
            (GOLDEN.lines()).any(|l| l.starts_with(&prefix) && l.contains(outcome))
        };
        assert!(
            seen(" -> ok ") && seen(" -> err "),
            "{primitive} needs a line that succeeds and one that fails"
        );
    }
}

/// The sentence the disagreeing descents were safe by: no program the
/// builders, primitives and sketches produce nests a loop or a block in an
/// `init`, or a block below an `if` (the outcomes of this file's calls are
/// checked as they are made).
#[test]
fn only_seam_programs_nest_where_the_descents_disagreed() {
    for (label, func) in seam_programs() {
        let plain = label == "two blocks of one name";
        assert_eq!(nests_where_the_descents_disagreed(&func), !plain, "{label}");
    }
    let mut programs: Vec<(String, PrimFunc)> = Vec::new();
    for (n, (func, _)) in corpus::workload_families().into_iter().enumerate() {
        programs.push((format!("family {n}"), func));
    }
    let pipelines = (corpus::random_pipelines(112).into_iter()).chain(corpus::gpu_pipelines());
    for (n, func) in pipelines.enumerate() {
        programs.push((format!("pipeline {n}"), func));
    }
    for (label, func, _) in corpus::illegal_mutants() {
        programs.push((label, func));
    }
    let reg = builtin_registry();
    let targets = [
        (Machine::sim_gpu(), DataType::float16()),
        (Machine::sim_arm(), DataType::int8()),
    ];
    let mut vectors = 0;
    for (machine, dtype) in &targets {
        for case in bench_suite(*dtype) {
            for sketch in build_sketches(&case.func, machine, &reg, Strategy::TensorIr) {
                for seed in 0..40 {
                    vectors += 1;
                    let decisions = sketch.sample(&mut StdRng::seed_from_u64(seed));
                    if let Ok(func) = sketch.apply(&decisions) {
                        programs.push((format!("{} {seed}", sketch.name()), func));
                    }
                }
            }
        }
    }
    assert_eq!(vectors, 1_280, "the vectors of sketch_apply.txt");
    for (label, func) in &programs {
        assert!(
            !nests_where_the_descents_disagreed(func),
            "{label}:\n{func}"
        );
    }
}

/// `Stmt::children` against what already existed, on every program here
/// and every pipeline and mutant of `tests/corpus`: `children_mut` yields
/// the same statements; their pre-order is the order in which the default
/// `StmtVisitor::walk_stmt` reaches statements, so the two cannot drift
/// apart silently; `find` returns the first match in that order and calls
/// its predicate on nothing after it.
#[test]
fn children_agree_with_the_default_walk_and_find_stops_at_its_match() {
    fn same_children(s: &mut Stmt) {
        let shared: Vec<*const Stmt> = s.children().map(|c| c as *const Stmt).collect();
        let unique: Vec<*const Stmt> = s.children_mut().map(|c| c as *const Stmt).collect();
        assert_eq!(shared, unique);
        s.children_mut().for_each(same_children);
    }
    fn pre_order<'a>(s: &'a Stmt, out: &mut Vec<&'a Stmt>) {
        out.push(s);
        s.children().for_each(|c| pre_order(c, out));
    }
    struct Visited(Vec<*const Stmt>);
    impl ExprVisitor for Visited {}
    impl StmtVisitor for Visited {
        fn visit_stmt(&mut self, s: &Stmt) {
            self.0.push(s);
            self.walk_stmt(s);
        }
    }
    let mut funcs: Vec<PrimFunc> = (programs().into_iter())
        .map(|p| p.base.into_func())
        .collect();
    funcs.extend(corpus::random_pipelines(112));
    funcs.extend(corpus::gpu_pipelines());
    funcs.extend(corpus::illegal_mutants().into_iter().map(|(_, f, _)| f));
    let mut statements = 0;
    for func in &funcs {
        let mut copy = Stmt::clone(&func.body);
        same_children(&mut copy);

        let mut order = Vec::new();
        pre_order(&func.body, &mut order);
        let mut visited = Visited(Vec::new());
        visited.visit_stmt(&func.body);
        let addresses: Vec<*const Stmt> = order.iter().map(|s| *s as *const Stmt).collect();
        assert_eq!(visited.0, addresses, "{func}");

        for (k, target) in order.iter().enumerate() {
            let mut calls = 0;
            let found = func.body.find(&mut |s| {
                calls += 1;
                std::ptr::eq(s, *target)
            });
            assert!(found.is_some_and(|f| std::ptr::eq(f, *target)));
            assert_eq!(calls, k + 1, "find looked past its match in\n{func}");
        }
        statements += order.len();
    }
    assert!(statements > 1_500, "{statements} statements");
}

/// Of two blocks of one name `find_block` answers the first in pre-order,
/// as it did when it visited the rest of the tree as well.
#[test]
fn find_block_answers_the_first_of_two_blocks_of_one_name() {
    let (_, func) = (seam_programs().into_iter())
        .find(|(label, _)| *label == "two blocks of one name")
        .expect("the seam program");
    let x = find_block(&func.body, "X").expect("X");
    assert_eq!(x.block.writes[0].buffer.name(), "T");
    let sch = Schedule::new(func);
    let loops = sch.get_loops(&sch.get_block("X").unwrap()).unwrap();
    assert_eq!(sch.blocks_under_loop(&loops[0]).unwrap(), ["X"]);
    assert_eq!(sch.block_names(), ["root", "X", "X"]);
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/schedule_outcomes.txt"
    );
    golden::rewrite(path, &golden_text());
}
