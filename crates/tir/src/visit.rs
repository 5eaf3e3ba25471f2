//! Visitor and mutator infrastructure plus common traversal utilities.
//!
//! A mutator rewrites a tree *in place* through `&mut`: a node it does not
//! change is never moved, un-boxed or re-allocated, so a pass costs what it
//! changes rather than what it visits. A caller that must keep its input
//! clones it once, itself, and mutates the copy. The traits provide default
//! `walk_*` methods that recurse into children, so implementations override
//! only the cases they care about.
//!
//! Which statements are a statement's children is defined once, by
//! [`Stmt::children`]; the lookups at the end of this module are written
//! over it. The two `walk_stmt` defaults spell the same children out by
//! hand because they interleave them with the node's expressions and route
//! blocks through `visit_block`/`mutate_block`, which implementations
//! override; a test pins that they and `children` visit the same statements
//! in the same order.

use std::borrow::Borrow;
use std::collections::HashMap;

use crate::buffer::{Buffer, BufferRegion};
use crate::expr::{Expr, Var, VarMap};
use crate::stmt::{Block, BlockRealize, Stmt};

/// Read-only traversal over expressions.
pub trait ExprVisitor {
    /// Visits one expression; the default recurses into children.
    fn visit_expr(&mut self, e: &Expr) {
        self.walk_expr(e);
    }

    /// Recurses into the children of `e`.
    fn walk_expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Cast(_, v) | Expr::Not(v) => self.visit_expr(v),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.visit_expr(a);
                self.visit_expr(b);
            }
            Expr::Select { cond, then, other } => {
                self.visit_expr(cond);
                self.visit_expr(then);
                self.visit_expr(other);
            }
            Expr::Load { indices, .. } => {
                for i in indices {
                    self.visit_expr(i);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.visit_expr(a);
                }
            }
        }
    }
}

/// Read-only traversal over statements (and the expressions inside them).
pub trait StmtVisitor: ExprVisitor {
    /// Visits one statement; the default recurses.
    fn visit_stmt(&mut self, s: &Stmt) {
        self.walk_stmt(s);
    }

    /// Visits a block (signature regions are *not* visited by default — they
    /// mirror the body and most analyses want one or the other).
    fn visit_block(&mut self, b: &Block) {
        if let Some(init) = &b.init {
            self.visit_stmt(init);
        }
        self.visit_stmt(&b.body);
    }

    /// Recurses into the children of `s`.
    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store { indices, value, .. } => {
                for i in indices {
                    self.visit_expr(i);
                }
                self.visit_expr(value);
            }
            Stmt::Eval(e) => self.visit_expr(e),
            Stmt::Seq(v) => {
                for st in v {
                    self.visit_stmt(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.visit_expr(cond);
                self.visit_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.visit_stmt(e);
                }
            }
            Stmt::For(f) => {
                self.visit_expr(&f.extent);
                self.visit_stmt(&f.body);
            }
            Stmt::BlockRealize(br) => {
                for v in &br.iter_values {
                    self.visit_expr(v);
                }
                self.visit_expr(&br.predicate);
                self.visit_block(&br.block);
            }
        }
    }
}

/// In-place traversal over expressions.
pub trait ExprMutator {
    /// Transforms one expression in place; the default visits children.
    fn mutate_expr(&mut self, e: &mut Expr) {
        self.walk_expr(e);
    }

    /// Offers the children of `e` to `mutate_expr`.
    fn walk_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Cast(_, v) | Expr::Not(v) => self.mutate_expr(v),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.mutate_expr(a);
                self.mutate_expr(b);
            }
            Expr::Select { cond, then, other } => {
                self.mutate_expr(cond);
                self.mutate_expr(then);
                self.mutate_expr(other);
            }
            Expr::Load { buffer, indices } => {
                self.mutate_buffer(buffer);
                for i in indices {
                    self.mutate_expr(i);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.mutate_expr(a);
                }
            }
        }
    }

    /// Hook for replacing buffer handles; the default keeps them.
    fn mutate_buffer(&mut self, _b: &mut Buffer) {}
}

/// In-place traversal over statements.
pub trait StmtMutator: ExprMutator {
    /// Transforms one statement in place; the default visits children.
    fn mutate_stmt(&mut self, s: &mut Stmt) {
        self.walk_stmt(s);
    }

    /// Transforms a block: signature regions, allocations, init and body.
    fn mutate_block(&mut self, b: &mut Block) {
        for r in b.reads.iter_mut().chain(&mut b.writes) {
            self.mutate_region(r);
        }
        for buf in &mut b.alloc_buffers {
            self.mutate_buffer(buf);
        }
        if let Some(init) = &mut b.init {
            self.mutate_stmt(init);
        }
        self.mutate_stmt(&mut b.body);
    }

    /// Transforms a buffer region.
    fn mutate_region(&mut self, r: &mut BufferRegion) {
        self.mutate_buffer(&mut r.buffer);
        for rng in &mut r.region {
            self.mutate_expr(&mut rng.min);
            self.mutate_expr(&mut rng.extent);
        }
    }

    /// Offers the children of `s` to `mutate_stmt` / `mutate_expr`. A `Seq`
    /// whose members were mutated is put back into the form [`Stmt::seq`]
    /// builds (see [`Stmt::normalize_seq`]).
    fn walk_stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.mutate_buffer(buffer);
                for i in indices {
                    self.mutate_expr(i);
                }
                self.mutate_expr(value);
            }
            Stmt::Eval(e) => self.mutate_expr(e),
            Stmt::Seq(v) => {
                for st in v {
                    self.mutate_stmt(st);
                }
                s.normalize_seq();
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.mutate_expr(cond);
                self.mutate_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.mutate_stmt(e);
                }
            }
            Stmt::For(f) => {
                self.mutate_expr(&mut f.extent);
                self.mutate_stmt(&mut f.body);
            }
            Stmt::BlockRealize(br) => {
                for v in &mut br.iter_values {
                    self.mutate_expr(v);
                }
                self.mutate_expr(&mut br.predicate);
                self.mutate_block(&mut br.block);
            }
        }
    }
}

struct Substituter<'a, E> {
    map: &'a VarMap<E>,
}
impl<E: Borrow<Expr>> ExprMutator for Substituter<'_, E> {
    fn mutate_expr(&mut self, e: &mut Expr) {
        if let Expr::Var(v) = e {
            if let Some(r) = self.map.get(v) {
                *e = r.borrow().clone();
            }
        } else {
            self.walk_expr(e);
        }
    }
}
impl<E: Borrow<Expr>> StmtMutator for Substituter<'_, E> {}

/// Substitutes variables inside an expression, in place. The map may hold
/// the replacements (`Expr`) or point at them (`&Expr`); only the ones
/// that occur are copied.
pub fn subst_expr<E: Borrow<Expr>>(e: &mut Expr, map: &VarMap<E>) {
    Substituter { map }.mutate_expr(e);
}

/// [`subst_expr`] on an expression the caller owns (or cloned to keep its
/// input): `substituted(value.clone(), &map)`.
pub fn substituted<E: Borrow<Expr>>(mut e: Expr, map: &VarMap<E>) -> Expr {
    subst_expr(&mut e, map);
    e
}

/// Substitutes variables inside a statement, in place (including block
/// signatures of nested blocks; the substituted variables are assumed free
/// in the tree).
pub fn subst_stmt<E: Borrow<Expr>>(s: &mut Stmt, map: &VarMap<E>) {
    Substituter { map }.mutate_stmt(s);
}

struct BufferReplacer<'a> {
    map: &'a HashMap<Buffer, Buffer>,
}
impl ExprMutator for BufferReplacer<'_> {
    fn mutate_buffer(&mut self, b: &mut Buffer) {
        if let Some(to) = self.map.get(b) {
            *b = to.clone();
        }
    }
}
impl StmtMutator for BufferReplacer<'_> {}

/// Replaces buffer handles throughout a statement (loads, stores, regions,
/// and allocations), in place.
pub fn replace_buffers(s: &mut Stmt, map: &HashMap<Buffer, Buffer>) {
    BufferReplacer { map }.mutate_stmt(s);
}

struct VarCollector {
    vars: Vec<Var>,
    seen: std::collections::HashSet<usize>,
}
impl ExprVisitor for VarCollector {
    fn visit_expr(&mut self, e: &Expr) {
        if let Expr::Var(v) = e {
            if self.seen.insert(v.id()) {
                self.vars.push(v.clone());
            }
        }
        self.walk_expr(e);
    }
}

/// Collects the distinct variables appearing in an expression, in first-use
/// order.
pub fn collect_vars_expr(e: &Expr) -> Vec<Var> {
    let mut c = VarCollector {
        vars: Vec::new(),
        seen: Default::default(),
    };
    c.visit_expr(e);
    c.vars
}

/// Whether `pred` holds for some variable occurrence in the expression;
/// stops at the first one.
pub fn expr_any_var(e: &Expr, pred: &mut impl FnMut(&Var) -> bool) -> bool {
    match e {
        Expr::Var(v) => pred(v),
        Expr::Int(..) | Expr::Float(..) | Expr::Str(_) => false,
        Expr::Cast(_, v) | Expr::Not(v) => expr_any_var(v, pred),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => expr_any_var(a, pred) || expr_any_var(b, pred),
        Expr::Select { cond, then, other } => {
            expr_any_var(cond, pred) || expr_any_var(then, pred) || expr_any_var(other, pred)
        }
        Expr::Load { indices: es, .. } | Expr::Call { args: es, .. } => {
            es.iter().any(|x| expr_any_var(x, pred))
        }
    }
}

/// Statement counterpart of [`expr_any_var`], over the expressions a
/// [`StmtVisitor`] reaches (block signature regions are not among them);
/// nothing is looked at after the first occurrence `pred` accepts.
fn stmt_any_var(s: &Stmt, pred: &mut impl FnMut(&Var) -> bool) -> bool {
    struct AnyVar<'a, P> {
        pred: &'a mut P,
        found: bool,
    }
    impl<P: FnMut(&Var) -> bool> ExprVisitor for AnyVar<'_, P> {
        fn visit_expr(&mut self, e: &Expr) {
            self.found = self.found || expr_any_var(e, self.pred);
        }
    }
    impl<P: FnMut(&Var) -> bool> StmtVisitor for AnyVar<'_, P> {
        fn visit_stmt(&mut self, s: &Stmt) {
            if !self.found {
                self.walk_stmt(s);
            }
        }
    }
    let mut any = AnyVar { pred, found: false };
    any.visit_stmt(s);
    any.found
}

/// Whether the variable occurs in the expression.
pub fn expr_uses_var(e: &Expr, var: &Var) -> bool {
    expr_any_var(e, &mut |v| v == var)
}

/// Whether the variable occurs in the statement.
pub fn stmt_uses_var(s: &Stmt, var: &Var) -> bool {
    stmt_any_var(s, &mut |v| v == var)
}

struct BufferCollector {
    bufs: Vec<Buffer>,
    seen: std::collections::HashSet<usize>,
}
impl BufferCollector {
    fn add(&mut self, b: &Buffer) {
        if self.seen.insert(b.id()) {
            self.bufs.push(b.clone());
        }
    }
}
impl ExprVisitor for BufferCollector {
    fn visit_expr(&mut self, e: &Expr) {
        if let Expr::Load { buffer, .. } = e {
            self.add(buffer);
        }
        self.walk_expr(e);
    }
}
impl StmtVisitor for BufferCollector {
    fn visit_stmt(&mut self, s: &Stmt) {
        if let Stmt::Store { buffer, .. } = s {
            self.add(buffer);
        }
        self.walk_stmt(s);
    }
}

/// Collects the distinct buffers accessed (loaded or stored) in a statement
/// body, ignoring block signature regions.
pub fn collect_accessed_buffers(s: &Stmt) -> Vec<Buffer> {
    let mut c = BufferCollector {
        bufs: Vec::new(),
        seen: Default::default(),
    };
    c.visit_stmt(s);
    c.bufs
}

/// Calls `f` on every block (realize) in the statement, in pre-order over
/// [`Stmt::children`]: outer blocks first, a block's `init` before its body.
pub fn for_each_block_realize<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a BlockRealize)) {
    if let Stmt::BlockRealize(br) = s {
        f(br);
    }
    for child in s.children() {
        for_each_block_realize(child, f);
    }
}

/// Finds the first block with the given name in pre-order ([`Stmt::find`]),
/// if present; names are unique within a function by convention.
pub fn find_block<'a>(s: &'a Stmt, name: &str) -> Option<&'a BlockRealize> {
    s.find(&mut |st| matches!(st, Stmt::BlockRealize(br) if br.block.name == name))
        .and_then(Stmt::as_block_realize)
}

/// Collects the names of all blocks in the statement, outer-first.
pub fn block_names(s: &Stmt) -> Vec<String> {
    let mut names = Vec::new();
    for_each_block_realize(s, &mut |br| names.push(br.block.name.clone()));
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;
    use crate::stmt::IterVar;

    fn sample() -> (Buffer, Buffer, Var, Var, Stmt) {
        let a = Buffer::new("A", DataType::float32(), vec![4, 4]);
        let b = Buffer::new("B", DataType::float32(), vec![4, 4]);
        let (i, j) = (Var::int("i"), Var::int("j"));
        let (vi, vj) = (Var::int("vi"), Var::int("vj"));
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&vi), Expr::from(&vj)],
            a.load(vec![Expr::from(&vi), Expr::from(&vj)]) + Expr::f32(1.0),
        );
        let block = Block::new(
            "B",
            vec![IterVar::spatial(vi, 4), IterVar::spatial(vj, 4)],
            vec![a.full_region()],
            vec![b.full_region()],
            body,
        );
        let stmt = Stmt::BlockRealize(Box::new(BlockRealize::new(
            vec![Expr::from(&i), Expr::from(&j)],
            block,
        )))
        .in_loops(vec![(i.clone(), 4), (j.clone(), 4)]);
        (a, b, i, j, stmt)
    }

    #[test]
    fn collects_buffers() {
        let (a, b, _, _, stmt) = sample();
        let bufs = collect_accessed_buffers(&stmt);
        assert!(bufs.contains(&a) && bufs.contains(&b));
    }

    #[test]
    fn substitution_replaces_free_vars() {
        let (_, _, i, _, stmt) = sample();
        let mut map = VarMap::default();
        map.insert(i.clone(), Expr::int(3));
        assert!(stmt_uses_var(&stmt, &i));
        let mut out = stmt.clone();
        subst_stmt(&mut out, &map);
        assert!(!stmt_uses_var(&out, &i));
    }

    #[test]
    fn buffer_replacement_updates_regions() {
        let (a, _, _, _, stmt) = sample();
        let a2 = a.derive("A_shared", crate::MemScope::Shared);
        let mut map = HashMap::new();
        map.insert(a.clone(), a2.clone());
        let mut out = stmt;
        replace_buffers(&mut out, &map);
        let bufs = collect_accessed_buffers(&out);
        assert!(bufs.contains(&a2) && !bufs.contains(&a));
        let br = find_block(&out, "B").expect("block B");
        assert_eq!(br.block.reads[0].buffer, a2);
    }

    /// In-place mutators must leave every `Seq` in the form `Stmt::seq`
    /// builds, as the rebuilding walk did: a statement replaced by a `Seq`
    /// is flattened into its parent, an emptied member disappears, and a
    /// lone survivor is unwrapped. Checked against a functional rebuild —
    /// printed text and structural hash — two levels deep and in a block
    /// `init`.
    #[test]
    fn in_place_mutators_keep_seq_normal_form() {
        use crate::stmt::For;
        use crate::structural::structural_hash;
        use crate::PrimFunc;

        struct ReplaceStores<'a> {
            target: &'a Buffer,
            replacement: &'a Stmt,
        }
        impl ExprMutator for ReplaceStores<'_> {}
        impl StmtMutator for ReplaceStores<'_> {
            fn mutate_stmt(&mut self, s: &mut Stmt) {
                match s {
                    Stmt::Store { buffer, .. } if buffer == self.target => {
                        *s = self.replacement.clone();
                    }
                    _ => self.walk_stmt(s),
                }
            }
        }
        /// What the by-value walk built: every `Seq` through `Stmt::seq`.
        fn rebuilt(s: &Stmt, target: &Buffer, replacement: &Stmt) -> Stmt {
            let again = |st: &Stmt| rebuilt(st, target, replacement);
            match s {
                Stmt::Store { buffer, .. } if buffer == target => replacement.clone(),
                Stmt::Seq(v) => Stmt::seq(v.iter().map(again).collect()),
                Stmt::For(f) => Stmt::For(Box::new(For {
                    body: again(&f.body),
                    ..(**f).clone()
                })),
                Stmt::IfThenElse {
                    cond,
                    then_branch,
                    else_branch,
                } => Stmt::IfThenElse {
                    cond: cond.clone(),
                    then_branch: Box::new(again(then_branch)),
                    else_branch: else_branch.as_deref().map(|e| Box::new(again(e))),
                },
                Stmt::BlockRealize(br) => {
                    let mut br = (**br).clone();
                    br.block.init = br.block.init.map(|i| Box::new(again(&i)));
                    br.block.body = Box::new(again(&br.block.body));
                    Stmt::BlockRealize(Box::new(br))
                }
                other => other.clone(),
            }
        }

        let buf = |name: &str| Buffer::new(name, DataType::float32(), vec![8]);
        let (t, u, v, w) = (buf("T"), buf("U"), buf("V"), buf("W"));
        let store = |b: &Buffer, k: i64| Stmt::store(b.clone(), vec![Expr::int(k)], Expr::f32(1.0));
        let (i, j, k) = (Var::int("i"), Var::int("j"), Var::int("k"));
        let mut block = Block::new(
            "b",
            vec![],
            vec![],
            vec![],
            Stmt::seq(vec![store(&v, 0), store(&t, 1)]),
        );
        block.init = Some(Box::new(Stmt::seq(vec![store(&t, 2), store(&u, 3)])));
        let program = Stmt::seq(vec![
            Stmt::seq(vec![store(&t, 4), store(&u, 5)]).in_loop(i, 8),
            Stmt::seq(vec![
                store(&u, 6),
                Stmt::IfThenElse {
                    cond: Expr::from(&k).lt(4),
                    then_branch: Box::new(Stmt::seq(vec![store(&t, 7), store(&v, 8)])),
                    else_branch: Some(Box::new(store(&t, 9))),
                },
                store(&t, 10),
                store(&v, 11),
            ])
            .in_loop(k.clone(), 8)
            .in_loop(j, 8),
            Stmt::BlockRealize(Box::new(BlockRealize::new(vec![], block))),
            store(&t, 12),
        ]);
        let replacements = [
            Stmt::seq(vec![store(&w, 0), store(&w, 1)]),
            Stmt::Seq(vec![]),
            store(&w, 2),
        ];
        for replacement in &replacements {
            let want = rebuilt(&program, &t, replacement);
            let mut got = program.clone();
            ReplaceStores {
                target: &t,
                replacement,
            }
            .mutate_stmt(&mut got);
            let params = vec![t.clone(), u.clone(), v.clone(), w.clone()];
            let want = PrimFunc::new("f", params.clone(), want);
            let got = PrimFunc::new("f", params, got);
            assert_eq!(got.to_string(), want.to_string());
            assert_eq!(structural_hash(&got), structural_hash(&want));
            assert_eq!(got, want, "replacement {replacement:?}");
        }
        // The emptied member took the loop's two-statement body to one.
        let mut got = program.clone();
        ReplaceStores {
            target: &t,
            replacement: &replacements[1],
        }
        .mutate_stmt(&mut got);
        let Stmt::Seq(top) = &got else {
            panic!("top level stays a sequence: {got:?}")
        };
        let first_loop = top[0].as_for().expect("loop i");
        assert!(matches!(first_loop.body, Stmt::Store { .. }));
    }

    /// `Stmt::children` is what the default walks visit, in their order;
    /// `children_mut` yields the same statements; `find` is that pre-order
    /// with an early exit; so `find_block` answers the outer-first block of
    /// a name, and one in an `init` before one in the body. (The same
    /// checks run over the whole test corpus in `tests/schedule_golden.rs`.)
    #[test]
    fn children_find_and_the_default_walks_agree() {
        let t = Buffer::new("T", DataType::float32(), vec![8]);
        let store = |k: i64| Stmt::store(t.clone(), vec![Expr::int(k)], Expr::f32(1.0));
        let block = |name: &str, init: Option<Stmt>, body: Stmt| {
            let mut b = Block::new(name, vec![], vec![], vec![], body);
            b.init = init.map(Box::new);
            Stmt::BlockRealize(Box::new(BlockRealize::new(vec![], b)))
        };
        let (i, j) = (Var::int("i"), Var::int("j"));
        let branch = Stmt::IfThenElse {
            cond: Expr::from(&i).lt(4),
            then_branch: Box::new(Stmt::seq(vec![store(0), store(1)])),
            else_branch: Some(Box::new(store(2))),
        };
        let inner = block("N", None, block("M", None, store(3)));
        let outer = block("N", Some(block("M", None, store(4))), inner.in_loop(j, 8));
        let mut program = Stmt::seq(vec![
            Stmt::seq(vec![store(5), branch]).in_loop(i, 8),
            outer,
            Stmt::Eval(Expr::int(0)),
        ]);

        fn same_children(s: &mut Stmt) {
            let shared: Vec<*const Stmt> = s.children().map(|c| c as *const Stmt).collect();
            let unique: Vec<*const Stmt> = s.children_mut().map(|c| c as *const Stmt).collect();
            assert_eq!(shared, unique);
            s.children_mut().for_each(same_children);
        }
        same_children(&mut program);

        fn pre_order<'a>(s: &'a Stmt, out: &mut Vec<&'a Stmt>) {
            out.push(s);
            s.children().for_each(|c| pre_order(c, out));
        }
        let mut order = Vec::new();
        pre_order(&program, &mut order);
        struct Visited(Vec<*const Stmt>);
        impl ExprVisitor for Visited {}
        impl StmtVisitor for Visited {
            fn visit_stmt(&mut self, s: &Stmt) {
                self.0.push(s);
                self.walk_stmt(s);
            }
        }
        let mut visited = Visited(Vec::new());
        visited.visit_stmt(&program);
        let addresses: Vec<*const Stmt> = order.iter().map(|s| *s as *const Stmt).collect();
        assert_eq!(visited.0, addresses);
        assert_eq!(order.len(), 17);

        for (k, target) in order.iter().enumerate() {
            let mut calls = 0;
            let found = program.find(&mut |s| {
                calls += 1;
                std::ptr::eq(s, *target)
            });
            assert!(found.is_some_and(|f| std::ptr::eq(f, *target)));
            assert_eq!(calls, k + 1, "find looked past its match");
        }

        let n = find_block(&program, "N").expect("N");
        assert!(
            n.block.init.is_some(),
            "the outer N, not the one nested in it"
        );
        let m = find_block(&program, "M").expect("M");
        assert!(
            matches!(&*m.block.body, Stmt::Store { indices, .. } if indices[0].is_const_int(4))
        );
        assert_eq!(block_names(&program), ["N", "M", "N", "M"]);
    }

    #[test]
    fn finds_blocks_by_name() {
        let (.., stmt) = sample();
        assert!(find_block(&stmt, "B").is_some());
        assert!(find_block(&stmt, "nope").is_none());
        assert_eq!(block_names(&stmt), vec!["B".to_string()]);
    }
}
