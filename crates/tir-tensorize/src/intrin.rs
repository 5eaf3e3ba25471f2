//! Tensor intrinsic descriptions (§4.1).
//!
//! A [`TensorIntrin`] describes one hardware tensor instruction with the
//! *same* TensorIR vocabulary used for programs: an iteration domain with
//! spatial/reduce kinds, operand index signatures (which iterators index
//! which operand), operand data types, memory-scope constraints, and an
//! execution scope. Matching a workload against the description follows
//! the paper's characteristic-vector algorithm (§4.2), implemented in
//! [`crate::pattern`].
//!
//! The *implementation* side of an intrinsic in this reproduction is the
//! scalar body of the tensorized block itself, marked opaque and annotated
//! with the intrinsic name: the interpreter executes the scalar semantics
//! bit-exactly, while the hardware simulator prices the block at the
//! intrinsic's declared throughput. (Real-machine codegen is out of scope;
//! see DESIGN.md §1.)

use std::collections::HashMap;

use tir::{DataType, IterKind, MemScope};

/// One iterator of an intrinsic's iteration domain.
#[derive(Clone, Debug)]
pub struct IntrinIter {
    /// Display name (e.g. `"x"`).
    pub name: String,
    /// Domain extent.
    pub extent: i64,
    /// Spatial or reduction.
    pub kind: IterKind,
}

/// The computation pattern `f` of the intrinsic (Eq. 2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EinsumPattern {
    /// `O[v0] += I1[v1] * I2[v2]` — dot product / matrix multiply family.
    MulAdd,
}

/// A tensor intrinsic: semantics description plus backend constraints.
///
/// # Examples
///
/// ```
/// use tir_tensorize::intrin::{builtin_registry, TensorIntrin};
/// let reg = builtin_registry();
/// let wmma = reg.get("wmma_16x16x16_f16").unwrap();
/// assert_eq!(wmma.dims(), vec![16, 16, 16]);
/// ```
#[derive(Clone, Debug)]
pub struct TensorIntrin {
    /// Unique intrinsic name.
    pub name: String,
    /// The iteration domain `v` of Eq. 2, in canonical order.
    pub iters: Vec<IntrinIter>,
    /// Indices (into `iters`) of the output operand's iterator list `v0`.
    pub output_iters: Vec<usize>,
    /// Per input operand, indices of its iterator list `v1..vk`.
    pub input_iters: Vec<Vec<usize>>,
    /// The expression pattern `f`.
    pub pattern: EinsumPattern,
    /// Input operand data types.
    pub input_dtypes: Vec<DataType>,
    /// Output (accumulator) data type.
    pub output_dtype: DataType,
    /// Required memory scope per input operand (empty = unconstrained).
    pub input_scopes: Vec<Option<MemScope>>,
    /// Required memory scope of the output operand.
    pub output_scope: Option<MemScope>,
    /// Execution scope requirement (`"warp"` for Tensor Cores).
    pub exec_scope: Option<String>,
}

impl TensorIntrin {
    /// The iteration-domain extents in canonical order.
    pub fn dims(&self) -> Vec<i64> {
        self.iters.iter().map(|i| i.extent).collect()
    }

    /// Characteristic vector of intrinsic iterator `idx`: one bit per
    /// operand list (output first, then inputs), set when the iterator
    /// appears in that operand's index list.
    pub fn characteristic(&self, idx: usize) -> Vec<bool> {
        let mut chi = Vec::with_capacity(1 + self.input_iters.len());
        chi.push(self.output_iters.contains(&idx));
        for input in &self.input_iters {
            chi.push(input.contains(&idx));
        }
        chi
    }
}

/// A named collection of tensor intrinsics for a hardware target.
#[derive(Clone, Default, Debug)]
pub struct IntrinRegistry {
    intrins: HashMap<String, TensorIntrin>,
}

impl IntrinRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an intrinsic, replacing any previous one of the same name.
    pub fn register(&mut self, intrin: TensorIntrin) {
        self.intrins.insert(intrin.name.clone(), intrin);
    }

    /// Looks up an intrinsic by name.
    pub fn get(&self, name: &str) -> Option<&TensorIntrin> {
        self.intrins.get(name)
    }

    /// All registered intrinsics (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &TensorIntrin> {
        self.intrins.values()
    }
}

/// Builds a matmul-shaped intrinsic `O[x, y] += A[x, k] * B[k, y]`.
pub fn matmul_intrin(
    name: &str,
    m: i64,
    n: i64,
    k: i64,
    in_dtype: DataType,
    out_dtype: DataType,
) -> TensorIntrin {
    TensorIntrin {
        name: name.to_string(),
        iters: vec![
            IntrinIter {
                name: "x".into(),
                extent: m,
                kind: IterKind::Spatial,
            },
            IntrinIter {
                name: "y".into(),
                extent: n,
                kind: IterKind::Spatial,
            },
            IntrinIter {
                name: "k".into(),
                extent: k,
                kind: IterKind::Reduce,
            },
        ],
        output_iters: vec![0, 1],
        input_iters: vec![vec![0, 2], vec![2, 1]],
        pattern: EinsumPattern::MulAdd,
        input_dtypes: vec![in_dtype, in_dtype],
        output_dtype: out_dtype,
        input_scopes: vec![None, None],
        output_scope: None,
        exec_scope: None,
    }
}

/// The registry of the built-in intrinsics used throughout the evaluation.
///
/// * `dot_4x4x4_f32` — the paper's synthetic example (Fig. 8): a 4x4x4
///   matmul implemented with a dot-product instruction, no scope
///   constraints.
/// * `wmma_16x16x16_f16` — NVIDIA Tensor Core `mma_sync`: f16 operands in
///   `wmma.matrix_a`/`wmma.matrix_b` fragments, f16 accumulator in
///   `wmma.accumulator`, warp execution scope.
/// * `sdot_4x4x4_i8` — the ARM `sdot`-based GEMM micro-kernel shape used
///   on Graviton2: int8 inputs, int32 accumulator, no special scopes.
pub fn builtin_registry() -> IntrinRegistry {
    let mut reg = IntrinRegistry::new();
    reg.register(matmul_intrin(
        "dot_4x4x4_f32",
        4,
        4,
        4,
        DataType::float32(),
        DataType::float32(),
    ));
    let mut wmma = matmul_intrin(
        "wmma_16x16x16_f16",
        16,
        16,
        16,
        DataType::float16(),
        DataType::float16(),
    );
    wmma.input_scopes = vec![Some(MemScope::WmmaMatrixA), Some(MemScope::WmmaMatrixB)];
    wmma.output_scope = Some(MemScope::WmmaAccumulator);
    wmma.exec_scope = Some("warp".to_string());
    reg.register(wmma);
    reg.register(matmul_intrin(
        "sdot_4x4x4_i8",
        4,
        4,
        4,
        DataType::int8(),
        DataType::int32(),
    ));
    // The ARMv8.6 `smmla` 2x2x8 int8 matrix-multiply instruction (as used
    // by newer micro-kernels): twice the MAC throughput of `sdot` where
    // available. Machines that lack it simply omit it from their tensor
    // units and the search ignores it.
    reg.register(matmul_intrin(
        "smmla_2x2x8_i8",
        2,
        2,
        8,
        DataType::int8(),
        DataType::int32(),
    ));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_present() {
        let reg = builtin_registry();
        assert!(reg.get("dot_4x4x4_f32").is_some());
        assert!(reg.get("wmma_16x16x16_f16").is_some());
        assert!(reg.get("sdot_4x4x4_i8").is_some());
        assert!(reg.get("smmla_2x2x8_i8").is_some());
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.iter().count(), 4);
    }

    #[test]
    fn characteristic_vectors() {
        let reg = builtin_registry();
        let mm = reg.get("dot_4x4x4_f32").unwrap();
        // x: in O and A -> [1, 1, 0]
        assert_eq!(mm.characteristic(0), vec![true, true, false]);
        // y: in O and B -> [1, 0, 1]
        assert_eq!(mm.characteristic(1), vec![true, false, true]);
        // k: in A and B -> [0, 1, 1]
        assert_eq!(mm.characteristic(2), vec![false, true, true]);
    }

    #[test]
    fn wmma_constraints() {
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        assert_eq!(wmma.exec_scope.as_deref(), Some("warp"));
        assert_eq!(wmma.input_scopes[0], Some(MemScope::WmmaMatrixA));
        assert_eq!(wmma.output_scope, Some(MemScope::WmmaAccumulator));
    }
}
