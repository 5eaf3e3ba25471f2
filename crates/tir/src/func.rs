//! Functions and modules.

use std::fmt;
use std::sync::Arc;

use crate::buffer::Buffer;
use crate::stmt::{Annotations, Block, BlockRealize, Stmt};

/// A TensorIR function: buffer parameters plus a statement body.
///
/// By convention the body is a [`BlockRealize`] of a *root block* with no
/// iterator variables; intermediate buffers of the function are allocated in
/// the root block's `alloc_buffers`, matching TVM's TensorIR convention.
///
/// # Examples
///
/// ```
/// use tir::builder::matmul_func;
/// let f = matmul_func("matmul", 16, 16, 16, tir::DataType::float32());
/// assert_eq!(f.params.len(), 3);
/// assert!(f.root_block().is_some());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct PrimFunc {
    /// Function name.
    pub name: String,
    /// Buffer parameters in call order.
    pub params: Vec<Buffer>,
    /// Function body (conventionally a root block realize). Shared and
    /// immutable: cloning a function bumps a reference count, and the two
    /// mutation funnels ([`PrimFunc::root_block_mut`] and the scheduler's
    /// `Schedule::mutate_body`) copy the tree on their first write to a
    /// body that is still shared.
    pub body: Arc<Stmt>,
    /// Function attributes.
    pub attrs: Annotations,
}

impl PrimFunc {
    /// Creates a function, wrapping `body` in a root block if it is not
    /// already a block realize.
    pub fn new(name: impl Into<String>, params: Vec<Buffer>, body: Stmt) -> Self {
        let body = match body {
            b @ Stmt::BlockRealize(_) => b,
            other => Stmt::BlockRealize(Box::new(BlockRealize::new(
                vec![],
                Block::new("root", vec![], vec![], vec![], other),
            ))),
        };
        PrimFunc {
            name: name.into(),
            params,
            body: Arc::new(body),
            attrs: Annotations::new(),
        }
    }

    /// The root block, if the body follows the root-block convention.
    pub fn root_block(&self) -> Option<&Block> {
        self.body.as_block_realize().map(|br| &br.block)
    }

    /// Mutable access to the root block; un-shares the body first (a deep
    /// copy if any clone of this function still holds it).
    pub fn root_block_mut(&mut self) -> Option<&mut Block> {
        self.root_block()?;
        match Arc::make_mut(&mut self.body) {
            Stmt::BlockRealize(br) => Some(&mut br.block),
            _ => None,
        }
    }

    /// Looks up a parameter buffer by name.
    pub fn param(&self, name: &str) -> Option<&Buffer> {
        self.params.iter().find(|b| b.name() == name)
    }
}

impl fmt::Display for PrimFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::func_to_string(self))
    }
}

/// A collection of named functions.
#[derive(Clone, Default, Debug)]
pub struct IrModule {
    /// The functions of the module, keyed by name.
    pub functions: std::collections::BTreeMap<String, PrimFunc>,
}

impl IrModule {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function, replacing any previous function of the same name.
    pub fn add(&mut self, func: PrimFunc) {
        self.functions.insert(func.name.clone(), func);
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&PrimFunc> {
        self.functions.get(name)
    }
}

impl FromIterator<PrimFunc> for IrModule {
    fn from_iter<T: IntoIterator<Item = PrimFunc>>(iter: T) -> Self {
        let mut m = IrModule::new();
        for f in iter {
            m.add(f);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;
    use crate::expr::Expr;

    #[test]
    fn wraps_in_root_block() {
        let a = Buffer::new("A", DataType::float32(), vec![1]);
        let body = Stmt::store(a.clone(), vec![Expr::int(0)], Expr::f32(1.0));
        let f = PrimFunc::new("f", vec![a], body);
        let root = f.root_block().expect("root block");
        assert_eq!(root.name, "root");
        assert!(root.iter_vars.is_empty());
    }

    #[test]
    fn module_collects_functions() {
        let a = Buffer::new("A", DataType::float32(), vec![1]);
        let mk = |name: &str| {
            PrimFunc::new(
                name,
                vec![a.clone()],
                Stmt::store(a.clone(), vec![Expr::int(0)], Expr::f32(1.0)),
            )
        };
        let m: IrModule = [mk("f"), mk("g")].into_iter().collect();
        assert!(m.get("f").is_some());
        assert!(m.get("g").is_some());
        assert!(m.get("h").is_none());
    }
}
