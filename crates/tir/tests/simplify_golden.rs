//! Golden `simplify` and `subst` outputs: the bit-identity gate for changes
//! to how the IR passes (`tir::simplify`, `tir::visit::subst_*`) traverse
//! trees.
//!
//! `tests/golden/simplify.txt` records, for 2 400 seeded random index
//! expressions of the shapes `split`/`fuse`/`blockize`/`required_region`
//! generate: the printed input, the printed `simplify` result and its
//! dtype, and the printed `simplify(subst(input))` under a split-and-zero
//! substitution. The file was generated on the commit *before* the mutators
//! were rewritten to work in place; a mismatch means a pass now builds a
//! different tree (a rule lost, or fired in a different order).
//!
//! The value tests are independent of the file: the original, simplified
//! and substituted expressions must agree at 8 random integer points each,
//! under floor division semantics.
//!
//! Regenerate (only when an intended change alters simplifier output) with
//! `cargo test -p tir --test simplify_golden -- --ignored`.

use tir::simplify::{floor_div_i64, floor_mod_i64, is_simplified, simplified};
use tir::visit::substituted;
use tir::{BinOp, CmpOp, DataType, Expr, Var, VarMap};
use tir_rand::rngs::StdRng;
use tir_rand::{RngExt, SeedableRng};

const CASES: usize = 2400;
const POINTS: usize = 8;
const GOLDEN: &str = include_str!("golden/simplify.txt");

fn simplify(e: &Expr) -> Expr {
    simplified(e.clone())
}

fn subst(e: &Expr, map: &VarMap<Expr>) -> Expr {
    substituted(e.clone(), map)
}

/// What `split` and `blockize` substitute: `i` becomes `j * 4 + k`, `l`
/// becomes zero (simultaneously: the `j`, `k` brought in stay).
fn split_and_zero(vars: &[Var]) -> VarMap<Expr> {
    let split = Expr::from(&vars[1]) * 4 + Expr::from(&vars[2]);
    [(vars[0].clone(), split), (vars[3].clone(), Expr::int(0))]
        .into_iter()
        .collect()
}

struct Gen {
    rng: StdRng,
    vars: Vec<Var>,
}

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    fn var(&mut self) -> Expr {
        let k = self.pick(self.vars.len());
        Expr::from(&self.vars[k])
    }

    fn small_const(&mut self) -> i64 {
        const POOL: [i64; 12] = [0, 0, 1, 1, 2, 3, 4, 8, 16, 32, -1, -3];
        POOL[self.pick(POOL.len())]
    }

    /// A tile size: what split factors and fused extents look like.
    fn factor(&mut self) -> i64 {
        const POOL: [i64; 8] = [1, 2, 4, 4, 8, 16, 3, 7];
        POOL[self.pick(POOL.len())]
    }

    fn leaf(&mut self) -> Expr {
        if self.pick(10) < 6 {
            self.var()
        } else {
            Expr::int(self.small_const())
        }
    }

    /// An integer-valued expression nested at most `depth` deep.
    fn int_expr(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        let a = self.int_expr(depth - 1);
        let shallow = self.pick(depth);
        match self.pick(24) {
            0 | 1 => a + self.int_expr(shallow),
            2 => a - self.int_expr(shallow),
            3 => a * self.small_const(),
            4 => a * self.int_expr(shallow),
            5 => a.floor_div(self.factor()),
            6 => a.floor_mod(self.factor()),
            7 => a.min(self.int_expr(shallow)),
            8 => a.max(self.int_expr(shallow)),
            // split: v = outer * f + inner, then its guard and its inverse.
            9 | 10 => a * self.factor() + self.int_expr(shallow),
            11 => {
                let f = self.factor();
                (a * f + self.int_expr(shallow)).floor_div(f)
            }
            12 => {
                let f = self.factor();
                (a * f + self.int_expr(shallow)).floor_mod(f)
            }
            // fuse: l_k = fused // div % extent.
            13 => a.floor_div(self.factor()).floor_mod(self.factor()),
            // (x * c1) // c2 and (x * c1) % c2.
            14 => (a * self.factor()).floor_div(self.factor()),
            15 => (a * self.factor()).floor_mod(self.factor()),
            // Constant chains and slice extents.
            16 => (a + self.small_const()) + self.small_const(),
            17 => (a * self.small_const()) * self.small_const(),
            18 => {
                let b = self.int_expr(shallow);
                (a.clone() + b) - a
            }
            19 => a.clone() - a,
            // blockize / required_region: a variable substituted by zero.
            20 => Expr::int(0) * self.factor() + a,
            21 => {
                let cond = self.bool_expr(shallow);
                Expr::select(cond, a, self.int_expr(shallow))
            }
            22 => {
                let dt = [DataType::int32(), DataType::int64()][self.pick(2)];
                Expr::Cast(dt, Box::new(a))
            }
            // Rare: a divisor the simplifier must leave alone.
            _ => {
                let c = [0, -2, 5][self.pick(3)];
                if self.pick(2) == 0 {
                    a.floor_div(c)
                } else {
                    a.floor_mod(c)
                }
            }
        }
    }

    /// A boolean-valued expression (predicates, select conditions).
    fn bool_expr(&mut self, depth: usize) -> Expr {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        if depth == 0 || self.pick(10) < 6 {
            let a = self.int_expr(depth.saturating_sub(1));
            let op = OPS[self.pick(OPS.len())];
            return match self.pick(4) {
                // The partial-tile guard `value < extent`.
                0 => a.lt(self.factor() * 8),
                1 => a.clone().cmp(op, a),
                _ => a.cmp(op, self.int_expr(depth.saturating_sub(1))),
            };
        }
        let a = self.bool_expr(depth - 1);
        match self.pick(6) {
            0 | 1 => a.and(self.bool_expr(depth - 1)),
            2 => a.or(self.bool_expr(depth - 1)),
            3 => Expr::Not(Box::new(a)),
            4 => Expr::true_().and(a),
            _ => a.or(Expr::bool(self.pick(2) == 0)),
        }
    }
}

/// The corpus: a pure function of the seed below.
fn corpus() -> (Vec<Var>, Vec<Expr>) {
    let vars: Vec<Var> = ["i", "j", "k", "l"].into_iter().map(Var::int).collect();
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(0x51e9_11f7),
        vars: vars.clone(),
    };
    let exprs = (0..CASES)
        .map(|n| {
            let depth = 1 + n % 6;
            if n % 4 == 3 {
                gen.bool_expr(depth.min(5))
            } else {
                gen.int_expr(depth)
            }
        })
        .collect();
    (vars, exprs)
}

fn golden_text() -> String {
    let (vars, exprs) = corpus();
    let map = split_and_zero(&vars);
    let mut out = String::new();
    for e in &exprs {
        let s = simplify(e);
        let substituted = simplify(&subst(e, &map));
        out.push_str(&format!("{e} => {s} :: {} | {substituted}\n", s.dtype()));
    }
    out
}

#[test]
fn simplify_outputs_match_golden() {
    let now = golden_text();
    assert_eq!(GOLDEN.lines().count(), CASES);
    assert_eq!(now.lines().count(), CASES);
    let mismatches: Vec<String> = GOLDEN
        .lines()
        .zip(now.lines())
        .enumerate()
        .filter(|(_, (want, got))| want != got)
        .map(|(n, (want, got))| format!("  #{n}\n  want {want}\n   got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {CASES} simplify outcomes differ from the golden file:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(10)].join("\n")
    );
    let changed = GOLDEN
        .lines()
        .filter(|l| {
            let (input, rest) = l.split_once(" => ").expect("golden line");
            !rest.starts_with(&format!("{input} :: "))
        })
        .count();
    assert!(
        changed > CASES / 3,
        "only {changed} golden inputs are simplified at all; the set would not notice a lost rule"
    );
}

/// Evaluates an integer/boolean expression; `None` where it is undefined
/// (division by zero) or overflows. `select` evaluates only the arm taken.
fn eval(e: &Expr, env: &VarMap<i64>) -> Option<i64> {
    Some(match e {
        Expr::Int(v, _) => *v,
        Expr::Var(v) => env[v],
        Expr::Cast(_, v) => eval(v, env)?,
        Expr::Not(v) => (eval(v, env)? == 0) as i64,
        Expr::Cmp(op, a, b) => op.apply(eval(a, env)?, eval(b, env)?) as i64,
        Expr::Select { cond, then, other } => {
            if eval(cond, env)? != 0 {
                eval(then, env)?
            } else {
                eval(other, env)?
            }
        }
        Expr::Bin(op, a, b) => {
            let (x, y) = (eval(a, env)?, eval(b, env)?);
            match op {
                BinOp::Add => x.checked_add(y)?,
                BinOp::Sub => x.checked_sub(y)?,
                BinOp::Mul => x.checked_mul(y)?,
                BinOp::FloorDiv if y != 0 => floor_div_i64(x, y),
                BinOp::FloorMod if y != 0 => floor_mod_i64(x, y),
                BinOp::FloorDiv | BinOp::FloorMod => return None,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => (x != 0 && y != 0) as i64,
                BinOp::Or => (x != 0 || y != 0) as i64,
                BinOp::Div => unreachable!("the generator builds no true division"),
            }
        }
        other => unreachable!("the generator builds no {other:?}"),
    })
}

#[test]
fn simplify_and_subst_preserve_values() {
    let (vars, exprs) = corpus();
    let map = split_and_zero(&vars);
    let mut rng = StdRng::seed_from_u64(0xe7a1);
    let mut compared = 0usize;
    for (n, e) in exprs.iter().enumerate() {
        let s = simplify(e);
        let substituted = subst(e, &map);
        for _ in 0..POINTS {
            let env: VarMap<i64> = vars
                .iter()
                .map(|v| (v.clone(), rng.random_range(-9i64..40)))
                .collect();
            // `subst(e)` at `env` is `e` where the replaced variables take
            // the values of their replacements.
            let mut composed = env.clone();
            for (v, to) in &map {
                composed.insert(v.clone(), eval(to, &env).expect("replacements are total"));
            }
            if let Some(want) = eval(e, &composed) {
                assert_eq!(
                    eval(&substituted, &env),
                    Some(want),
                    "#{n}: `{e}` substituted to `{substituted}` disagrees at {env:?}"
                );
            }
            let Some(want) = eval(e, &env) else { continue };
            compared += 1;
            assert_eq!(
                eval(&s, &env),
                Some(want),
                "#{n}: `{e}` simplified to `{s}` disagrees at {env:?}"
            );
        }
    }
    assert!(
        compared > CASES * POINTS * 3 / 4,
        "only {compared} points were defined; the check is mostly vacuous"
    );
}

/// Callers hand already-simplified expressions on without simplifying them
/// again (`detect_iter_map_with`, the validator's predicate check): a second
/// pass must find nothing to do.
#[test]
fn simplify_is_idempotent() {
    let (_, exprs) = corpus();
    for (n, e) in exprs.iter().enumerate() {
        let once = simplify(e);
        assert_eq!(simplify(&once), once, "#{n}: `{e}`");
    }
}

/// `is_simplified` is exactly "simplification changes nothing": callers
/// borrow an expression it accepts instead of simplifying a copy, so a
/// false "yes" would hand them an unsimplified expression.
#[test]
fn is_simplified_answers_whether_simplify_changes_anything() {
    let (_, exprs) = corpus();
    let mut settled = 0;
    for (n, e) in exprs.iter().enumerate() {
        let once = simplify(e);
        assert_eq!(is_simplified(e), once == *e, "#{n}: `{e}`");
        assert!(is_simplified(&once), "#{n}: `{e}` simplified to `{once}`");
        settled += usize::from(once == *e);
    }
    assert!(
        settled > 0 && settled < exprs.len(),
        "{settled} of {}",
        exprs.len()
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/simplify.txt");
    std::fs::write(path, golden_text()).expect("write golden file");
}
