//! TVMScript-style pretty printer.
//!
//! Renders programs in the Python-AST dialect the paper shows (Fig. 4):
//! `T.grid` loop nests, `with T.block(...)` regions, axis declarations,
//! `T.reads`/`T.writes` signatures.

use std::fmt::{self, Write as _};

use crate::buffer::BufferRegion;
use crate::expr::{BinOp, Expr};
use crate::func::PrimFunc;
use crate::stmt::{Block, BlockRealize, For, ForKind, Stmt};

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::FloorDiv | BinOp::FloorMod => 5,
        BinOp::Min | BinOp::Max => 9,
    }
}

fn fmt_expr_prec(e: &Expr, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Int(v, dt) => {
            if dt.is_bool() {
                write!(f, "{}", *v != 0)
            } else {
                write!(f, "{v}")
            }
        }
        Expr::Float(v, dt) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(f, "{v:.1}")?;
            } else {
                write!(f, "{v}")?;
            }
            if *dt != crate::DataType::float32() {
                write!(f, "'{dt}'")?;
            }
            Ok(())
        }
        Expr::Str(s) => write!(f, "{s:?}"),
        Expr::Var(v) => write!(f, "{}", v.name()),
        Expr::Cast(dt, v) => {
            write!(f, "T.cast(")?;
            fmt_expr_prec(v, 0, f)?;
            write!(f, ", \"{dt}\")")
        }
        Expr::Bin(op, a, b) => {
            if op.is_call_style() {
                write!(f, "T.{}(", op.symbol())?;
                fmt_expr_prec(a, 0, f)?;
                write!(f, ", ")?;
                fmt_expr_prec(b, 0, f)?;
                write!(f, ")")
            } else {
                let p = prec(*op);
                if p < parent {
                    write!(f, "(")?;
                }
                fmt_expr_prec(a, p, f)?;
                write!(f, " {} ", op.symbol())?;
                fmt_expr_prec(b, p + 1, f)?;
                if p < parent {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
        Expr::Cmp(op, a, b) => {
            let p = 3;
            if p < parent {
                write!(f, "(")?;
            }
            fmt_expr_prec(a, p + 1, f)?;
            write!(f, " {} ", op.symbol())?;
            fmt_expr_prec(b, p + 1, f)?;
            if p < parent {
                write!(f, ")")?;
            }
            Ok(())
        }
        Expr::Not(v) => {
            write!(f, "not ")?;
            fmt_expr_prec(v, 6, f)
        }
        Expr::Select { cond, then, other } => {
            write!(f, "T.select(")?;
            fmt_expr_prec(cond, 0, f)?;
            write!(f, ", ")?;
            fmt_expr_prec(then, 0, f)?;
            write!(f, ", ")?;
            fmt_expr_prec(other, 0, f)?;
            write!(f, ")")
        }
        Expr::Load { buffer, indices } => {
            write!(f, "{}[", buffer.name())?;
            for (i, idx) in indices.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_expr_prec(idx, 0, f)?;
            }
            write!(f, "]")
        }
        Expr::Call { name, args, .. } => {
            write!(f, "T.{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_expr_prec(a, 0, f)?;
            }
            write!(f, ")")
        }
    }
}

/// Formats an expression (used by `Display for Expr`).
pub fn fmt_expr(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt_expr_prec(e, 0, f)
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn expr(e: &Expr) -> String {
        format!("{e}")
    }

    fn region(r: &BufferRegion) -> String {
        format!("{r}")
    }

    fn print_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                let idx = indices
                    .iter()
                    .map(Self::expr)
                    .collect::<Vec<_>>()
                    .join(", ");
                self.line(&format!("{}[{idx}] = {}", buffer.name(), Self::expr(value)));
            }
            Stmt::Eval(e) => self.line(&Self::expr(e)),
            Stmt::Seq(v) => {
                if v.is_empty() {
                    self.line("pass");
                } else {
                    for st in v {
                        self.print_stmt(st);
                    }
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.line(&format!("if {}:", Self::expr(cond)));
                self.indent += 1;
                self.print_stmt(then_branch);
                self.indent -= 1;
                if let Some(e) = else_branch {
                    self.line("else:");
                    self.indent += 1;
                    self.print_stmt(e);
                    self.indent -= 1;
                }
            }
            Stmt::For(fr) => self.print_for(fr),
            Stmt::BlockRealize(br) => self.print_block_realize(br),
        }
    }

    fn print_for(&mut self, fr: &For) {
        // Collapse nested serial loops into `T.grid`.
        let mut vars = vec![(fr.var.clone(), fr.extent.clone())];
        let mut body = &fr.body;
        if fr.kind == ForKind::Serial && fr.annotations.is_empty() {
            while let Stmt::For(inner) = body {
                if inner.kind == ForKind::Serial && inner.annotations.is_empty() {
                    vars.push((inner.var.clone(), inner.extent.clone()));
                    body = &inner.body;
                } else {
                    break;
                }
            }
        }
        if vars.len() > 1 {
            let names = vars
                .iter()
                .map(|(v, _)| v.name().to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let extents = vars
                .iter()
                .map(|(_, e)| Self::expr(e))
                .collect::<Vec<_>>()
                .join(", ");
            self.line(&format!("for {names} in T.grid({extents}):"));
        } else {
            let header = match fr.kind {
                ForKind::Serial => format!(
                    "for {} in range({}):",
                    fr.var.name(),
                    Self::expr(&fr.extent)
                ),
                ForKind::Parallel => format!(
                    "for {} in T.parallel({}):",
                    fr.var.name(),
                    Self::expr(&fr.extent)
                ),
                ForKind::Vectorized => format!(
                    "for {} in T.vectorized({}):",
                    fr.var.name(),
                    Self::expr(&fr.extent)
                ),
                ForKind::Unrolled => format!(
                    "for {} in T.unroll({}):",
                    fr.var.name(),
                    Self::expr(&fr.extent)
                ),
                ForKind::ThreadBinding(tag) => format!(
                    "for {} in T.thread_binding({}, thread=\"{}\"):",
                    fr.var.name(),
                    Self::expr(&fr.extent),
                    tag
                ),
            };
            self.line(&header);
        }
        self.indent += 1;
        if !fr.annotations.is_empty() {
            for (k, v) in &fr.annotations {
                self.line(&format!("# annotation: {k} = {v}"));
            }
        }
        self.print_stmt(body);
        self.indent -= 1;
    }

    fn print_block_realize(&mut self, br: &BlockRealize) {
        let b = &br.block;
        self.line(&format!("with T.block(\"{}\"):", b.name));
        self.indent += 1;
        for (iv, value) in b.iter_vars.iter().zip(&br.iter_values) {
            self.line(&format!(
                "{} = T.axis.{}({}, {})",
                iv.var.name(),
                iv.kind.as_str(),
                iv.extent,
                Self::expr(value)
            ));
        }
        if !br.predicate.is_const_int(1) {
            self.line(&format!("T.where({})", Self::expr(&br.predicate)));
        }
        self.print_block_decl(b);
        if let Some(init) = &b.init {
            self.line("with T.init():");
            self.indent += 1;
            self.print_stmt(init);
            self.indent -= 1;
        }
        self.print_stmt(&b.body);
        self.indent -= 1;
    }

    fn print_block_decl(&mut self, b: &Block) {
        if !b.reads.is_empty() {
            let r = b
                .reads
                .iter()
                .map(Self::region)
                .collect::<Vec<_>>()
                .join(", ");
            self.line(&format!("T.reads({r})"));
        }
        if !b.writes.is_empty() {
            let w = b
                .writes
                .iter()
                .map(Self::region)
                .collect::<Vec<_>>()
                .join(", ");
            self.line(&format!("T.writes({w})"));
        }
        for buf in &b.alloc_buffers {
            let shape = buf
                .shape()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            self.line(&format!(
                "{} = T.alloc_buffer(({shape}), \"{}\", scope=\"{}\")",
                buf.name(),
                buf.dtype(),
                buf.scope()
            ));
        }
        for (k, v) in &b.annotations {
            self.line(&format!("T.block_attr({{{k:?}: {v}}})"));
        }
    }
}

/// Renders a statement as TVMScript-style text.
pub fn stmt_to_string(s: &Stmt) -> String {
    let mut p = Printer {
        out: String::new(),
        indent: 0,
    };
    p.print_stmt(s);
    p.out
}

/// Renders a function as TVMScript-style text.
pub fn func_to_string(f: &PrimFunc) -> String {
    let mut p = Printer {
        out: String::new(),
        indent: 0,
    };
    p.line("@T.prim_func");
    let params = f
        .params
        .iter()
        .map(|b| {
            let shape = b
                .shape()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("{}: T.Buffer(({shape}), \"{}\")", b.name(), b.dtype())
        })
        .collect::<Vec<_>>()
        .join(", ");
    p.line(&format!("def {}({params}):", f.name));
    p.indent = 1;
    // Skip the implicit root block wrapper for readability when trivial.
    match &*f.body {
        Stmt::BlockRealize(br)
            if br.block.name == "root"
                && br.block.iter_vars.is_empty()
                && br.block.init.is_none() =>
        {
            p.print_block_decl(&br.block);
            p.print_stmt(&br.block.body);
        }
        other => p.print_stmt(other),
    }
    let mut out = String::new();
    let _ = write!(out, "{}", p.out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::dtype::DataType;
    use crate::expr::Var;
    use crate::stmt::{Block, IterVar};

    #[test]
    fn expr_precedence() {
        let i = Var::int("i");
        let j = Var::int("j");
        let e = (Expr::from(&i) + Expr::from(&j)) * 4;
        assert_eq!(e.to_string(), "(i + j) * 4");
        let e2 = Expr::from(&i) + Expr::from(&j) * 4;
        assert_eq!(e2.to_string(), "i + j * 4");
        let e3 = Expr::from(&i).floor_div(4).floor_mod(8);
        assert_eq!(e3.to_string(), "i // 4 % 8");
        let e4 = Expr::from(&i).min(Expr::from(&j));
        assert_eq!(e4.to_string(), "T.min(i, j)");
    }

    #[test]
    fn grid_collapsing() {
        let b = Buffer::new("B", DataType::float32(), vec![4, 4]);
        let (i, j) = (Var::int("i"), Var::int("j"));
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&i), Expr::from(&j)],
            Expr::f32(0.0),
        );
        let nest = body.in_loops(vec![(i, 4), (j, 4)]);
        let text = stmt_to_string(&nest);
        assert!(text.contains("for i, j in T.grid(4, 4):"), "{text}");
    }

    #[test]
    fn block_rendering() {
        let a = Buffer::new("A", DataType::float32(), vec![4]);
        let vi = Var::int("vi");
        let i = Var::int("i");
        let block = Block::new(
            "B",
            vec![IterVar::spatial(vi.clone(), 4)],
            vec![BufferRegion::point(a.clone(), vec![Expr::from(&vi)])],
            vec![],
            Stmt::Eval(Expr::int(0)),
        );
        let s = Stmt::BlockRealize(Box::new(BlockRealize::new(vec![Expr::from(&i)], block)))
            .in_loop(i.clone(), 4);
        let text = stmt_to_string(&s);
        assert!(text.contains("with T.block(\"B\"):"), "{text}");
        assert!(text.contains("vi = T.axis.spatial(4, i)"), "{text}");
        assert!(text.contains("T.reads(A[vi])"), "{text}");
    }
}
