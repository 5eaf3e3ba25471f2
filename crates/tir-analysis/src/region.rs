//! Concrete buffer access boxes.
//!
//! Walks a statement's loads and stores and bounds every index over all
//! enclosing loops and block bindings, giving one integer box per buffer
//! and access direction. Its one reader is the producer-covers-consumer
//! check of [`crate::validate`].
//!
//! There are no *symbolic* regions here. The relaxation that expresses a
//! block's accesses in the variables of an enclosing loop (symbolic minimum
//! at zero, constant extent) is `required_region` in
//! `tir-schedule/src/compute_location.rs`: it reads block signatures, not
//! raw loads and stores, and only `cache_read`/`cache_write`/`compute_at`/
//! `blockize` need it, so it lives beside them.

use tir::visit::{ExprVisitor, StmtVisitor};
use tir::{Buffer, Expr, Stmt, VarMap};
use tir_arith::bound::{bound_of, IntBound};

/// A concrete rectangular region: one interval per dimension.
pub(crate) type Box_ = Vec<IntBound>;

/// Whether box `a` covers box `b` in every dimension.
pub(crate) fn box_covers(a: &[IntBound], b: &[IntBound]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.contains(*y))
}

/// Convex union of two boxes.
///
/// # Panics
///
/// Panics if the ranks differ.
pub(crate) fn box_union(a: &[IntBound], b: &[IntBound]) -> Box_ {
    assert_eq!(a.len(), b.len(), "rank mismatch in box union");
    a.iter().zip(b).map(|(x, y)| x.union(*y)).collect()
}

/// All buffer accesses of a statement body as concrete boxes. Loops and
/// block bindings encountered during the walk add their ranges to the bound
/// environment.
#[derive(Default, Debug)]
pub(crate) struct AccessSet {
    /// Per-buffer read boxes (convex union of all reads).
    pub(crate) reads: Vec<(Buffer, Box_)>,
    /// Per-buffer write boxes.
    pub(crate) writes: Vec<(Buffer, Box_)>,
}

impl AccessSet {
    fn add(list: &mut Vec<(Buffer, Box_)>, buffer: &Buffer, b: Box_) {
        if let Some((_, existing)) = list.iter_mut().find(|(buf, _)| buf == buffer) {
            *existing = box_union(existing, &b);
        } else {
            list.push((buffer.clone(), b));
        }
    }

    /// The write box for a buffer, if any.
    pub(crate) fn write_box(&self, buffer: &Buffer) -> Option<&Box_> {
        self.writes
            .iter()
            .find(|(b, _)| b == buffer)
            .map(|(_, bx)| bx)
    }
}

struct AccessCollector {
    vars: VarMap<IntBound>,
    set: AccessSet,
}

impl AccessCollector {
    fn index_box(&self, indices: &[Expr]) -> Box_ {
        indices.iter().map(|i| bound_of(i, &self.vars)).collect()
    }
}

impl ExprVisitor for AccessCollector {
    fn visit_expr(&mut self, e: &Expr) {
        if let Expr::Load { buffer, indices } = e {
            let b = self.index_box(indices);
            AccessSet::add(&mut self.set.reads, buffer, b);
        }
        self.walk_expr(e);
    }
}

impl StmtVisitor for AccessCollector {
    fn visit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                let b = self.index_box(indices);
                AccessSet::add(&mut self.set.writes, buffer, b);
                for i in indices {
                    self.visit_expr(i);
                }
                self.visit_expr(value);
            }
            Stmt::For(f) => {
                let extent = bound_of(&f.extent, &self.vars);
                let prev = self
                    .vars
                    .insert(f.var.clone(), IntBound::new(0, (extent.max - 1).max(0)));
                self.visit_stmt(&f.body);
                match prev {
                    Some(p) => {
                        self.vars.insert(f.var.clone(), p);
                    }
                    None => {
                        self.vars.remove(&f.var);
                    }
                }
            }
            Stmt::BlockRealize(br) => {
                // Bind block iterator variables to their binding values'
                // bounds and continue into the block body.
                for v in &br.iter_values {
                    self.visit_expr(v);
                }
                let mut prev = Vec::new();
                for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
                    let b = bound_of(value, &self.vars);
                    prev.push((iv.var.clone(), self.vars.insert(iv.var.clone(), b)));
                }
                if let Some(init) = &br.block.init {
                    self.visit_stmt(init);
                }
                self.visit_stmt(&br.block.body);
                for (var, p) in prev {
                    match p {
                        Some(b) => {
                            self.vars.insert(var, b);
                        }
                        None => {
                            self.vars.remove(&var);
                        }
                    }
                }
            }
            other => self.walk_stmt(other),
        }
    }
}

/// Computes concrete access boxes for every buffer touched by `stmt`.
pub(crate) fn collect_accesses(stmt: &Stmt) -> AccessSet {
    let mut c = AccessCollector {
        vars: VarMap::default(),
        set: AccessSet::default(),
    };
    c.visit_stmt(stmt);
    c.set
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn matmul_full_boxes() {
        let f = matmul_func("mm", 8, 8, 8, DataType::float32());
        let set = collect_accesses(&f.body);
        let a = f.param("A").expect("A");
        let c = f.param("C").expect("C");
        let (_, a_read) = set.reads.iter().find(|(b, _)| b == a).expect("A read");
        assert_eq!(a_read, &vec![IntBound::new(0, 7), IntBound::new(0, 7)]);
        assert_eq!(
            set.write_box(c).expect("C write"),
            &vec![IntBound::new(0, 7), IntBound::new(0, 7)]
        );
    }

    #[test]
    fn box_ops() {
        let a = vec![IntBound::new(0, 7), IntBound::new(0, 7)];
        let b = vec![IntBound::new(2, 5), IntBound::new(0, 7)];
        assert!(box_covers(&a, &b));
        assert!(!box_covers(&b, &a));
        assert_eq!(box_union(&a, &b), a);
    }
}
