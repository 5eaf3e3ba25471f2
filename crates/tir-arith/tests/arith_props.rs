//! Property tests for the arithmetic substrate: iterator-map detection
//! agrees with brute-force evaluation on exhaustively composed split/fuse
//! bindings, rejects dependent ones, and interval analysis is sound.
//!
//! Originally written with `proptest`; rewritten as exhaustive sweeps over
//! the same parameter ranges so the workspace builds with no external
//! dependencies (the ranges are small enough to enumerate completely,
//! which is strictly stronger than sampling).

use tir::simplify::{floor_div_i64, floor_mod_i64};
use tir::{BinOp, Expr, Var, VarMap};
use tir_arith::bound::{bound_of, IntBound};
use tir_arith::iter_map::{detect_iter_map, detect_iter_map_with, eval_iter_sum, CoverMode};

/// Little-int expression evaluator for soundness checks.
fn eval(e: &Expr, env: &VarMap<i64>) -> Option<i64> {
    Some(match e {
        Expr::Int(v, _) => *v,
        Expr::Var(v) => *env.get(v)?,
        Expr::Bin(op, a, b) => {
            let (x, y) = (eval(a, env)?, eval(b, env)?);
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::FloorDiv => {
                    if y == 0 {
                        return None;
                    }
                    floor_div_i64(x, y)
                }
                BinOp::FloorMod => {
                    if y == 0 {
                        return None;
                    }
                    floor_mod_i64(x, y)
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => ((x != 0) && (y != 0)) as i64,
                BinOp::Or => ((x != 0) || (y != 0)) as i64,
                BinOp::Div => {
                    if y == 0 {
                        return None;
                    }
                    x / y
                }
            }
        }
        Expr::Cmp(op, a, b) => op.apply(eval(a, env)?, eval(b, env)?) as i64,
        Expr::Not(v) => (eval(v, env)? == 0) as i64,
        Expr::Select { cond, then, other } => {
            if eval(cond, env)? != 0 {
                eval(then, env)?
            } else {
                eval(other, env)?
            }
        }
        _ => return None,
    })
}

/// Fuse-then-split at a radix-aligned cut is always detected, with extents
/// matching and normalized sums evaluating exactly like the source
/// expressions over the whole domain.
#[test]
fn fuse_split_detected_and_exact() {
    for e1 in 2i64..6 {
        for e2 in 2i64..6 {
            for e3 in 2i64..5 {
                let (i, j, k) = (Var::int("i"), Var::int("j"), Var::int("k"));
                let fused = (Expr::from(&i) * e2 + Expr::from(&j)) * e3 + Expr::from(&k);
                let total = e1 * e2 * e3;
                // Radix-aligned cuts: divisors of e3, then e3 * divisors
                // of e2, ...
                let mut cuts = vec![1i64];
                for d in 1..=e3 {
                    if e3 % d == 0 {
                        cuts.push(d);
                    }
                }
                for d in 1..=e2 {
                    if e2 % d == 0 {
                        cuts.push(e3 * d);
                    }
                }
                cuts.sort_unstable();
                cuts.dedup();
                for &c in &cuts {
                    let bindings = vec![fused.clone().floor_div(c), fused.clone().floor_mod(c)];
                    let dom = vec![(i.clone(), e1), (j.clone(), e2), (k.clone(), e3)];
                    let map =
                        detect_iter_map(&bindings, &dom).unwrap_or_else(|e| panic!("cut {c}: {e}"));
                    assert_eq!(map.extents[0] * map.extents[1], total);
                    for iv in 0..e1 {
                        for jv in 0..e2 {
                            for kv in 0..e3 {
                                let env: VarMap<i64> =
                                    [(i.clone(), iv), (j.clone(), jv), (k.clone(), kv)]
                                        .into_iter()
                                        .collect();
                                let f = (iv * e2 + jv) * e3 + kv;
                                assert_eq!(eval_iter_sum(&map.sums[0], &env), f / c);
                                assert_eq!(eval_iter_sum(&map.sums[1], &env), f % c);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Reusing an iterator across bindings is always rejected.
#[test]
fn duplicated_iterators_rejected() {
    for e1 in 2i64..8 {
        for scale in 1i64..4 {
            let i = Var::int("i");
            let bindings = vec![Expr::from(&i), Expr::from(&i) * scale];
            assert!(detect_iter_map(&bindings, &[(i.clone(), e1)]).is_err());
        }
    }
}

/// Interval analysis is sound: the bound always contains the value at
/// every point of the domain.
#[test]
fn bound_of_is_sound() {
    for a in -4i64..8 {
        for b in 1i64..6 {
            for c in 1i64..9 {
                let (vx, vy) = (Var::int("x"), Var::int("y"));
                // Expression combining the tricky operators.
                let e = (Expr::from(&vx) * a + Expr::from(&vy))
                    .floor_div(b)
                    .floor_mod(c)
                    .max(Expr::from(&vy) - 3)
                    .min(Expr::from(&vx) + a);
                let bounds: VarMap<IntBound> = [
                    (vx.clone(), IntBound::new(0, 15)),
                    (vy.clone(), IntBound::new(0, 7)),
                ]
                .into_iter()
                .collect();
                let bound = bound_of(&e, &bounds);
                for x in 0i64..16 {
                    for y in 0i64..8 {
                        let env: VarMap<i64> =
                            [(vx.clone(), x), (vy.clone(), y)].into_iter().collect();
                        let v = eval(&e, &env).expect("no division by zero here");
                        assert!(
                            bound.min <= v && v <= bound.max,
                            "value {} outside [{}, {}] for {}",
                            v,
                            bound.min,
                            bound.max,
                            e
                        );
                    }
                }
            }
        }
    }
}

/// The simplifier never changes the value of an expression.
#[test]
fn simplify_preserves_value() {
    for c1 in -5i64..10 {
        for c2 in 1i64..7 {
            for c3 in 1i64..5 {
                let (vx, vy) = (Var::int("x"), Var::int("y"));
                let candidates = [
                    (Expr::from(&vx) * c2 + c1).floor_div(c2),
                    (Expr::from(&vx) * c2 + Expr::from(&vy)).floor_mod(c2),
                    (Expr::from(&vx) + c1) + c2,
                    (Expr::from(&vx) * c2) * c3,
                    ((Expr::from(&vx) + Expr::from(&vy)) - Expr::from(&vx)) * c3,
                    Expr::from(&vx).min(Expr::from(&vy)).max(c1),
                    Expr::select(
                        Expr::from(&vx).lt(c2),
                        Expr::from(&vy) + c1,
                        Expr::from(&vx) - c1,
                    ),
                ];
                for e in candidates {
                    let simplified = tir::simplify::simplified(e.clone());
                    for x in (0i64..12).step_by(3) {
                        for y in (0i64..12).step_by(3) {
                            let env: VarMap<i64> =
                                [(vx.clone(), x), (vy.clone(), y)].into_iter().collect();
                            let before = eval(&e, &env);
                            let after = eval(&simplified, &env);
                            assert_eq!(before, after, "{} vs {}", e, simplified);
                        }
                    }
                }
            }
        }
    }
}

/// What the sweep below hands the detector over one domain: every loop
/// variable `v`, `v // c` and `v % c`, affine forms `a·v + b`, each fuse
/// `x · e_y + y` and `x · 2 + y` of two loops, and `//` and `%` of every
/// fuse, for `c` in {2, 3, 4, 8}. Each is simplified, as the validator
/// simplifies every binding before detection.
fn binding_pool(dom: &[(Var, i64)]) -> Vec<Expr> {
    let mut pool = Vec::new();
    for (v, _) in dom {
        let v = Expr::from(v);
        pool.push(v.clone());
        for c in [2, 3, 4] {
            pool.push(v.clone().floor_div(c));
            pool.push(v.clone().floor_mod(c));
        }
        for (a, b) in [(1, 1), (2, 0), (2, 1)] {
            pool.push(v.clone() * a + b);
        }
    }
    for (x, _) in dom {
        for (y, ey) in dom {
            if x == y {
                continue;
            }
            for m in [*ey, 2] {
                let fused = Expr::from(x) * m + Expr::from(y);
                for c in [2, 4, 8] {
                    pool.push(fused.clone().floor_div(c));
                    pool.push(fused.clone().floor_mod(c));
                }
                pool.push(fused);
            }
        }
    }
    (pool.into_iter()).map(tir::simplify::simplified).collect()
}

/// Every assignment of the loop variables of `dom`.
fn domain_points(dom: &[(Var, i64)]) -> Vec<VarMap<i64>> {
    let mut points = vec![VarMap::default()];
    for (v, extent) in dom {
        points = (points.into_iter())
            .flat_map(|p| {
                (0..*extent).map(move |x| {
                    let mut p = p.clone();
                    p.insert(v.clone(), x);
                    p
                })
            })
            .collect();
    }
    points
}

/// What an `Ok` from the detector promises, checked by evaluating the
/// bindings at every point of the domain: binding `i` takes exactly the
/// values `[0, extents[i])`, and under [`CoverMode::Full`] the bindings
/// map the domain one to one onto the box of those extents.
fn assert_promise_holds(bindings: &[Expr], dom: &[(Var, i64)], extents: &[i64], mode: CoverMode) {
    let points = domain_points(dom);
    let tuples: Vec<Vec<i64>> = (points.iter())
        .map(|p| (bindings.iter().map(|b| eval(b, p).expect("evaluates"))).collect())
        .collect();
    let shown = || format!("{bindings:?} over {dom:?} ({mode:?})");
    for (at, extent) in extents.iter().enumerate() {
        let mut image: Vec<i64> = tuples.iter().map(|t| t[at]).collect();
        image.sort_unstable();
        image.dedup();
        assert_eq!(
            image,
            (0..*extent).collect::<Vec<_>>(),
            "image of binding {at}: {}",
            shown()
        );
    }
    if mode == CoverMode::Full {
        let mut distinct = tuples.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), tuples.len(), "not injective: {}", shown());
        assert_eq!(
            extents.iter().product::<i64>(),
            tuples.len() as i64,
            "{}",
            shown()
        );
    }
}

/// Number of detections the sweep makes and the FNV-1a of their outcomes,
/// one line each (`ok <extents>` or `err <message>`), recorded on the
/// detector that built a vector per visited node.
const SWEEP_GOLDEN: (usize, u64) = (80_664, 0x2b67_1db8_d990_fa94);

/// Brute-force oracle for iterator-map detection: on two and three loops
/// of extent at most 8, every binding of [`binding_pool`] alone and every
/// ordered pair of them, in both cover modes. An `Ok` must keep the promise
/// [`assert_promise_holds`] checks, and every outcome, extents or error
/// text, must be the one recorded in [`SWEEP_GOLDEN`].
#[test]
fn detection_keeps_its_promise_on_a_brute_force_sweep() {
    let (i, j, k) = (Var::int("i"), Var::int("j"), Var::int("k"));
    let domains: [&[i64]; 8] = [
        &[4, 4],
        &[8, 2],
        &[2, 8],
        &[6, 4],
        &[1, 4],
        &[3, 8],
        &[2, 4, 2],
        &[4, 1, 3],
    ];
    let (mut count, mut hash) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for extents in domains {
        let dom: Vec<(Var, i64)> = [&i, &j, &k]
            .into_iter()
            .cloned()
            .zip(extents.iter().copied())
            .collect();
        let pool = binding_pool(&dom);
        let singles = pool.iter().map(|b| vec![b.clone()]);
        let pairs = (pool.iter()).flat_map(|a| pool.iter().map(|b| vec![a.clone(), b.clone()]));
        for bindings in singles.chain(pairs) {
            for mode in [CoverMode::Full, CoverMode::OverlapOnly] {
                let loops = dom.iter().map(|(v, extent)| (v, *extent));
                let outcome = match detect_iter_map_with(&bindings, loops, mode) {
                    Ok(extents) => {
                        assert_promise_holds(&bindings, &dom, &extents, mode);
                        format!("ok {extents:?}\n")
                    }
                    Err(e) => format!("err {e}\n"),
                };
                for byte in outcome.bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
                count += 1;
            }
        }
    }
    assert_eq!((count, hash), SWEEP_GOLDEN, "the detector's outcomes moved");
}
