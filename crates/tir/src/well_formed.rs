//! Well-formedness: the one rule a program must satisfy to have a meaning.
//!
//! Every variable is bound once on every path from the root, and read only
//! where a binder encloses it; every parameter is a distinct buffer. The
//! scope follows execution order, as the executors bind:
//!
//! * a loop's variable is in scope in its body, not in its extent;
//! * a block's iterators are bound one at a time, so each is visible to the
//!   later binding values, to the `init` and to the body — not to the
//!   predicate, which is evaluated before any of them;
//! * read/write regions and annotations are never evaluated, so they are
//!   not checked.
//!
//! Programs enter the system through the parser, the verifier and the
//! executors; each of them calls [`well_formed`] once and refuses what it
//! rejects, so nothing downstream copes with a second meaning.

use std::fmt;

use crate::visit::{ExprVisitor, StmtVisitor};
use crate::{Expr, PrimFunc, Stmt, Var};

/// Why a program is not well-formed: the first violation in execution
/// order, parameters first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WellFormedError {
    /// The same buffer appears twice in the parameter list.
    DuplicateParam(String),
    /// A variable is bound by a binder nested in another binder of it.
    ShadowedBinding(String),
    /// One block (the first name) lists an iterator (the second) twice.
    RepeatedIterator(String, String),
    /// A variable is evaluated where no binder encloses it.
    UnboundVar(String),
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("malformed program: ")?;
        match self {
            Self::DuplicateParam(b) => write!(f, "buffer {b} appears twice in the parameter list"),
            Self::ShadowedBinding(v) => write!(f, "variable {v} is bound by two nested binders"),
            Self::RepeatedIterator(b, v) => write!(f, "block {b} lists iterator {v} twice"),
            Self::UnboundVar(v) => write!(f, "variable {v} is read where it is not bound"),
        }
    }
}

impl std::error::Error for WellFormedError {}

/// Checks that `func` is well-formed (see the [module docs](self)).
///
/// # Errors
///
/// Returns the first violation found.
pub fn well_formed(func: &PrimFunc) -> Result<(), WellFormedError> {
    for (k, p) in func.params.iter().enumerate() {
        if func.params[..k].contains(p) {
            return Err(WellFormedError::DuplicateParam(p.name().to_string()));
        }
    }
    let mut scope = Scope::default();
    scope.vars.reserve(64);
    scope.visit_stmt(&func.body);
    scope.error.map_or(Ok(()), Err)
}

/// The walk: what is in scope, and the first violation met. It walks on
/// after a violation, which costs nothing on the programs that have none.
#[derive(Default)]
struct Scope {
    /// Ids of the variables in scope, innermost last.
    vars: Vec<usize>,
    error: Option<WellFormedError>,
}

impl Scope {
    fn fail(&mut self, e: WellFormedError) {
        self.error.get_or_insert(e);
    }

    /// Brings `var` into scope for the binder whose variables start at
    /// `own` in the stack; `block` names that binder if it is a block.
    fn bind(&mut self, var: &Var, own: usize, block: &str) {
        let name = || var.name().to_string();
        match self.vars.iter().rposition(|&id| id == var.id()) {
            Some(at) if at >= own => {
                self.fail(WellFormedError::RepeatedIterator(block.to_string(), name()));
            }
            Some(_) => self.fail(WellFormedError::ShadowedBinding(name())),
            None => {}
        }
        self.vars.push(var.id());
    }
}

impl ExprVisitor for Scope {
    fn visit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Var(v) if !self.vars.contains(&v.id()) => {
                self.fail(WellFormedError::UnboundVar(v.name().to_string()));
            }
            _ => self.walk_expr(e),
        }
    }
}

impl StmtVisitor for Scope {
    fn visit_stmt(&mut self, s: &Stmt) {
        let own = self.vars.len();
        match s {
            Stmt::For(f) => {
                self.visit_expr(&f.extent);
                self.bind(&f.var, own, "");
                self.visit_stmt(&f.body);
            }
            Stmt::BlockRealize(br) => {
                self.visit_expr(&br.predicate);
                for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
                    self.visit_expr(value);
                    self.bind(&iv.var, own, &br.block.name);
                }
                self.visit_block(&br.block);
            }
            _ => self.walk_stmt(s),
        }
        self.vars.truncate(own);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::dtype::DataType;
    use crate::stmt::{Block, BlockRealize, IterVar};
    use crate::AnnValue;

    fn buffer(name: &str) -> Buffer {
        Buffer::new(name, DataType::float32(), vec![8])
    }

    fn store(b: &Buffer, at: &Var) -> Stmt {
        Stmt::store(b.clone(), vec![Expr::from(at)], Expr::f32(1.0))
    }

    fn realize(values: Vec<Expr>, predicate: Expr, block: Block) -> Stmt {
        Stmt::BlockRealize(Box::new(BlockRealize::with_predicate(
            values, predicate, block,
        )))
    }

    fn check(body: Stmt) -> Result<(), WellFormedError> {
        well_formed(&PrimFunc::new("f", vec![buffer("B")], body))
    }

    fn unbound(name: &str) -> Result<(), WellFormedError> {
        Err(WellFormedError::UnboundVar(name.into()))
    }

    #[test]
    fn nested_and_sibling_loops() {
        let (b, i, j) = (buffer("B"), Var::int("i"), Var::int("j"));
        let nest = store(&b, &j).in_loop(j.clone(), 8).in_loop(i.clone(), 8);
        assert_eq!(check(nest), Ok(()));
        // One variable for two loops side by side: one binder per path.
        let twice = Stmt::seq(vec![
            store(&b, &i).in_loop(i.clone(), 8),
            store(&b, &i).in_loop(i.clone(), 8),
        ]);
        assert_eq!(check(twice), Ok(()));
        let shadowed = store(&b, &i).in_loop(i.clone(), 4).in_loop(i.clone(), 8);
        assert_eq!(
            check(shadowed),
            Err(WellFormedError::ShadowedBinding("i".into()))
        );
    }

    #[test]
    fn a_loop_variable_is_bound_in_its_body_only() {
        let (b, i) = (buffer("B"), Var::int("i"));
        let own_extent = store(&b, &i).in_loop(i.clone(), Expr::from(&i));
        assert_eq!(check(own_extent), unbound("i"));
        let after = Stmt::seq(vec![store(&b, &i).in_loop(i.clone(), 8), store(&b, &i)]);
        assert_eq!(check(after), unbound("i"));
    }

    #[test]
    fn block_iterators_bind_one_at_a_time() {
        let (b, i) = (buffer("B"), Var::int("i"));
        let (u, v) = (Var::int("u"), Var::int("v"));
        let block = |body: Stmt| {
            let iters = vec![
                IterVar::spatial(u.clone(), 8),
                IterVar::spatial(v.clone(), 8),
            ];
            Block::new("T", iters, vec![], vec![b.full_region()], body)
        };
        let at_i = Expr::from(&i);
        // Later values, the init and the body see earlier iterators.
        let mut reads_both = block(store(&b, &v));
        reads_both.init = Some(Box::new(store(&b, &u)));
        let nest = realize(
            vec![at_i.clone(), Expr::from(&u)],
            Expr::true_(),
            reads_both,
        );
        assert_eq!(check(nest.in_loop(i.clone(), 8)), Ok(()));
        // An earlier value does not see a later iterator.
        let ahead = realize(
            vec![Expr::from(&v), at_i.clone()],
            Expr::true_(),
            block(store(&b, &u)),
        );
        assert_eq!(check(ahead.in_loop(i.clone(), 8)), unbound("v"));
        // The predicate is evaluated before any iterator is bound.
        let guard = Expr::from(&u).lt(4);
        let predicated = realize(vec![at_i.clone(), at_i], guard, block(store(&b, &u)));
        assert_eq!(check(predicated.in_loop(i, 8)), unbound("u"));
    }

    #[test]
    fn regions_and_annotations_are_not_evaluated() {
        let (b, i, v, free) = (buffer("B"), Var::int("i"), Var::int("v"), Var::int("free"));
        let region = crate::BufferRegion::point(b.clone(), vec![Expr::from(&free)]);
        let mut block = Block::new(
            "T",
            vec![IterVar::spatial(v.clone(), 8)],
            vec![region.clone()],
            vec![region],
            store(&b, &v),
        );
        block
            .annotations
            .insert("note".into(), AnnValue::Str("free".into()));
        let nest = realize(vec![Expr::from(&i)], Expr::true_(), block).in_loop(i, 8);
        assert_eq!(check(nest), Ok(()));
    }

    #[test]
    fn block_iterators_shadowing_and_repeated() {
        let (b, i, v) = (buffer("B"), Var::int("i"), Var::int("v"));
        let block = |iters: Vec<IterVar>| Block::new("T", iters, vec![], vec![], store(&b, &v));
        let at_i = || Expr::from(&i);
        let shadows = realize(
            vec![at_i()],
            Expr::true_(),
            block(vec![IterVar::spatial(i.clone(), 8)]),
        );
        assert_eq!(
            check(shadows.in_loop(i.clone(), 8)),
            Err(WellFormedError::ShadowedBinding("i".into()))
        );
        let twice = vec![
            IterVar::spatial(v.clone(), 8),
            IterVar::spatial(v.clone(), 8),
        ];
        let repeated = realize(vec![at_i(), at_i()], Expr::true_(), block(twice));
        assert_eq!(
            check(repeated.in_loop(i.clone(), 8)),
            Err(WellFormedError::RepeatedIterator("T".into(), "v".into()))
        );
        // A loop inside a block may not rebind one of its iterators either.
        let once = vec![IterVar::spatial(v.clone(), 8)];
        let inner = store(&b, &v).in_loop(v.clone(), 2);
        let looped = Block::new("L", once, vec![], vec![], inner);
        let nest = realize(vec![at_i()], Expr::true_(), looped).in_loop(i.clone(), 8);
        assert_eq!(
            check(nest),
            Err(WellFormedError::ShadowedBinding("v".into()))
        );
    }

    #[test]
    fn a_repeated_parameter_is_refused_first() {
        let (b, free) = (buffer("B"), Var::int("free"));
        let f = PrimFunc::new("f", vec![b.clone(), b.clone()], store(&b, &free));
        let err = well_formed(&f).unwrap_err();
        assert_eq!(err, WellFormedError::DuplicateParam("B".into()));
        assert_eq!(
            err.to_string(),
            "malformed program: buffer B appears twice in the parameter list"
        );
        // Two buffers of one name are two parameters.
        let twin = PrimFunc::new("f", vec![b.clone(), buffer("B")], Stmt::Seq(vec![]));
        assert_eq!(well_formed(&twin), Ok(()));
    }
}
