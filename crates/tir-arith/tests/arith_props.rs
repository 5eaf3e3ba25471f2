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
use tir_arith::iter_map::{detect_iter_map, eval_iter_sum};

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
