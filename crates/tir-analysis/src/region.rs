//! Buffer access-region analysis.
//!
//! Computes, for a block (or any statement), the rectangular regions of each
//! buffer it touches — either as concrete integer boxes (bounds over all
//! enclosing loops) or as symbolic [`RangeExpr`]s in terms of a chosen set
//! of free variables (used by `cache_read`/`compute_at` to materialize
//! exactly the needed sub-region).

use std::collections::HashMap;

use tir::simplify::simplified;
use tir::visit::{substituted, ExprVisitor, StmtVisitor};
use tir::{Buffer, BufferRegion, Expr, RangeExpr, Stmt, Var};
use tir_arith::bound::{bound_of, IntBound};

/// A concrete rectangular region: one interval per dimension.
pub type Box_ = Vec<IntBound>;

/// Whether box `a` covers box `b` in every dimension.
pub fn box_covers(a: &[IntBound], b: &[IntBound]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.contains(*y))
}

/// Convex union of two boxes.
///
/// # Panics
///
/// Panics if the ranks differ.
pub fn box_union(a: &[IntBound], b: &[IntBound]) -> Box_ {
    assert_eq!(a.len(), b.len(), "rank mismatch in box union");
    a.iter().zip(b).map(|(x, y)| x.union(*y)).collect()
}

/// Evaluates a [`BufferRegion`]'s expressions to a concrete box under the
/// given variable bounds.
pub fn region_to_box(region: &BufferRegion, vars: &HashMap<Var, IntBound>) -> Box_ {
    region
        .region
        .iter()
        .map(|r| {
            let min = bound_of(&r.min, vars);
            let extent = bound_of(&r.extent, vars);
            IntBound::new(min.min, min.max + extent.max - 1)
        })
        .collect()
}

/// All buffer accesses of a statement body, with concrete boxes computed
/// under `vars` bounds. Inner serial loops encountered during the walk add
/// their iteration ranges to the bound environment.
#[derive(Default, Debug)]
pub struct AccessSet {
    /// Per-buffer read boxes (convex union of all reads).
    pub reads: Vec<(Buffer, Box_)>,
    /// Per-buffer write boxes.
    pub writes: Vec<(Buffer, Box_)>,
}

impl AccessSet {
    fn add(list: &mut Vec<(Buffer, Box_)>, buffer: &Buffer, b: Box_) {
        if let Some((_, existing)) = list.iter_mut().find(|(buf, _)| buf == buffer) {
            *existing = box_union(existing, &b);
        } else {
            list.push((buffer.clone(), b));
        }
    }

    /// The read box for a buffer, if any.
    pub fn read_box(&self, buffer: &Buffer) -> Option<&Box_> {
        self.reads
            .iter()
            .find(|(b, _)| b == buffer)
            .map(|(_, bx)| bx)
    }

    /// The write box for a buffer, if any.
    pub fn write_box(&self, buffer: &Buffer) -> Option<&Box_> {
        self.writes
            .iter()
            .find(|(b, _)| b == buffer)
            .map(|(_, bx)| bx)
    }
}

struct AccessCollector {
    vars: HashMap<Var, IntBound>,
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

/// Computes concrete access boxes for every buffer touched by `stmt`,
/// given bounds for its free variables.
pub fn collect_accesses(stmt: &Stmt, vars: &HashMap<Var, IntBound>) -> AccessSet {
    let mut c = AccessCollector {
        vars: vars.clone(),
        set: AccessSet::default(),
    };
    c.visit_stmt(stmt);
    c.set
}

/// Computes a *symbolic* access region of `stmt` for one buffer, expressed
/// in terms of the free variables of `stmt` (typically block iterators):
/// inner loop variables are eliminated by taking `min_expr = index[inner=0]`
/// and a constant extent from interval analysis.
///
/// Assumes indices are affine with non-negative coefficients on inner loop
/// variables — true for every program this compiler produces. Returns
/// `None` if the buffer is not accessed.
pub fn relaxed_region(
    stmt: &Stmt,
    buffer: &Buffer,
    include_reads: bool,
    include_writes: bool,
) -> Option<BufferRegion> {
    /// Collected access sites: (indices, enclosing loop vars + extents).
    type Sites = Vec<(Vec<Expr>, Vec<(Var, i64)>)>;
    struct Collector<'a> {
        buffer: &'a Buffer,
        include_reads: bool,
        include_writes: bool,
        inner: Vec<(Var, i64)>,
        found: Sites,
    }
    impl ExprVisitor for Collector<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.include_reads {
                if let Expr::Load { buffer, indices } = e {
                    if buffer == self.buffer {
                        self.found.push((indices.clone(), self.inner.clone()));
                    }
                }
            }
            self.walk_expr(e);
        }
    }
    impl StmtVisitor for Collector<'_> {
        fn visit_stmt(&mut self, s: &Stmt) {
            match s {
                Stmt::Store {
                    buffer,
                    indices,
                    value,
                } => {
                    if self.include_writes && buffer == self.buffer {
                        self.found.push((indices.clone(), self.inner.clone()));
                    }
                    for i in indices {
                        self.visit_expr(i);
                    }
                    self.visit_expr(value);
                }
                Stmt::For(f) => {
                    let extent = f.extent.as_int().unwrap_or(1);
                    self.inner.push((f.var.clone(), extent));
                    self.visit_stmt(&f.body);
                    self.inner.pop();
                }
                other => self.walk_stmt(other),
            }
        }
    }
    let mut c = Collector {
        buffer,
        include_reads,
        include_writes,
        inner: Vec::new(),
        found: Vec::new(),
    };
    c.visit_stmt(stmt);
    if c.found.is_empty() {
        return None;
    }

    let ndim = buffer.ndim();
    let mut mins: Vec<Option<Expr>> = vec![None; ndim];
    let mut extents: Vec<i64> = vec![0; ndim];
    for (indices, inner) in &c.found {
        let zero_map: HashMap<Var, Expr> = inner
            .iter()
            .map(|(v, _)| (v.clone(), Expr::int(0)))
            .collect();
        let inner_bounds: HashMap<Var, IntBound> = inner
            .iter()
            .map(|(v, e)| (v.clone(), IntBound::new(0, (*e - 1).max(0))))
            .collect();
        for (d, idx) in indices.iter().enumerate() {
            let min_expr = simplified(substituted(idx.clone(), &zero_map));
            // Width of the access along this dim, over inner vars only:
            // bound of (idx - min) with outer vars treated as exact symbols.
            // We get it by bounding idx with inner vars in range and all
            // other vars pinned to 0, relative to idx with everything at 0.
            let mut env = inner_bounds.clone();
            for v in tir::visit::collect_vars_expr(idx) {
                env.entry(v).or_insert(IntBound::single(0));
            }
            let full = bound_of(idx, &env);
            let at_zero = {
                let env0: HashMap<Var, IntBound> = env
                    .keys()
                    .map(|v| (v.clone(), IntBound::single(0)))
                    .collect();
                bound_of(idx, &env0)
            };
            if full.min < at_zero.min {
                // Negative inner-variable coefficient: the zero-substituted
                // expression is not the region minimum; use the full dim.
                mins[d] = Some(Expr::int(0));
                extents[d] = buffer.shape()[d];
                continue;
            }
            let width = full.max - at_zero.max + 1;
            match &mut mins[d] {
                Some(existing) if *existing == min_expr => {
                    extents[d] = extents[d].max(width);
                }
                Some(_) => {
                    // Differing symbolic mins: fall back to the full dim.
                    mins[d] = Some(Expr::int(0));
                    extents[d] = buffer.shape()[d];
                }
                None => {
                    mins[d] = Some(min_expr);
                    extents[d] = width;
                }
            }
        }
    }
    let region = mins
        .into_iter()
        .zip(extents)
        .map(|(min, extent)| RangeExpr::new(min.expect("all dims visited"), extent))
        .collect();
    Some(BufferRegion::new(buffer.clone(), region))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn matmul_full_boxes() {
        let f = matmul_func("mm", 8, 8, 8, DataType::float32());
        let set = collect_accesses(&f.body, &HashMap::new());
        let a = f.param("A").expect("A");
        let c = f.param("C").expect("C");
        assert_eq!(
            set.read_box(a).expect("A read"),
            &vec![IntBound::new(0, 7), IntBound::new(0, 7)]
        );
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

    #[test]
    fn relaxed_region_strips_inner_loops() {
        // body: for y in 0..4: C[vy*4 + y] = ...
        let c = Buffer::new("C", DataType::float32(), vec![64]);
        let vy = Var::int("vy");
        let y = Var::int("y");
        let body = Stmt::store(
            c.clone(),
            vec![Expr::from(&vy) * 4 + Expr::from(&y)],
            Expr::f32(0.0),
        )
        .in_loop(y, 4);
        let region = relaxed_region(&body, &c, false, true).expect("region");
        assert_eq!(region.region.len(), 1);
        assert_eq!(
            simplified(region.region[0].min.clone()),
            Expr::from(&vy) * 4
        );
        assert!(region.region[0].extent.is_const_int(4));
    }

    #[test]
    fn relaxed_region_merges_disjoint_mins_to_full() {
        let c = Buffer::new("C", DataType::float32(), vec![64]);
        let vy = Var::int("vy");
        let s = Stmt::seq(vec![
            Stmt::store(c.clone(), vec![Expr::from(&vy)], Expr::f32(0.0)),
            Stmt::store(c.clone(), vec![Expr::from(&vy) + 32], Expr::f32(0.0)),
        ]);
        let region = relaxed_region(&s, &c, false, true).expect("region");
        assert!(region.region[0].min.is_const_int(0));
        assert!(region.region[0].extent.is_const_int(64));
    }

    #[test]
    fn region_to_box_under_bounds() {
        let c = Buffer::new("C", DataType::float32(), vec![64]);
        let vy = Var::int("vy");
        let region = BufferRegion::new(c, vec![RangeExpr::new(Expr::from(&vy) * 4, 4)]);
        let vars: HashMap<Var, IntBound> =
            [(vy.clone(), IntBound::new(0, 15))].into_iter().collect();
        assert_eq!(region_to_box(&region, &vars), vec![IntBound::new(0, 63)]);
    }
}
