//! Quasi-affine iterator-map detection.
//!
//! This is the pattern matcher of §3.3 of the paper: given block-iterator
//! binding expressions over a set of loop variables, detect whether each
//! binding is a *quasi-affine* combination of independent splits of the
//! loops (built from `+`, `-`, `* const`, `// const`, `% const`), and
//! whether the bindings are jointly **bijective** — every loop assignment
//! maps to a distinct binding tuple and the tuples exactly tile the block's
//! iteration domain.
//!
//! The representation follows TVM's `IterMapExpr` family: an [`IterSplit`]
//! denotes `((var / lower_factor) % extent) * scale` and an [`IterSum`] is
//! a sum of splits plus a constant base. Division and modulo distribute
//! over a *compact* sum (one whose scales form a mixed-radix positional
//! encoding), which is how fuse-then-split expressions like
//! `(i * 16 + j) // 4` are recognized.

use std::fmt;

use tir::{BinOp, Expr, Var, VarMap};

/// One split piece of a loop variable:
/// `((var // lower_factor) % extent) * scale`.
#[derive(Clone, Debug)]
pub struct IterSplit {
    /// Source loop variable.
    pub var: Var,
    /// Full domain extent of the source variable.
    pub var_extent: i64,
    /// Divisor applied before the modulo.
    pub lower_factor: i64,
    /// Extent of this piece.
    pub extent: i64,
    /// Multiplier applied to the piece.
    pub scale: i64,
}

impl IterSplit {
    fn same_piece(&self, other: &IterSplit) -> bool {
        self.var == other.var
            && self.lower_factor == other.lower_factor
            && self.extent == other.extent
    }
}

/// A normalized quasi-affine expression: a sum of splits plus a base.
#[derive(Clone, Debug, Default)]
pub struct IterSum {
    /// Component splits.
    pub terms: Vec<IterSplit>,
    /// Constant offset.
    pub base: i64,
}

impl IterSum {
    /// Sorts the terms into compact positional order (highest scale first)
    /// and verifies `scale[k] == scale[k+1] * extent[k+1]`. Returns `None`
    /// when the sum is not compact or a scale is non-positive.
    pub fn sorted_compact(&self) -> Option<Vec<IterSplit>> {
        if !is_compact(&self.terms) {
            return None;
        }
        let mut sorted = self.terms.clone();
        sort_by_scale(&mut sorted);
        Some(sorted)
    }

    /// If the sum is compact with unit scale 1 and zero base, returns the
    /// number of distinct values: the sum then bijectively covers
    /// `[0, extent)`.
    pub fn strict_extent(&self) -> Option<i64> {
        strict_extent(&self.terms, self.base)
    }
}

/// Sorts `terms` by descending scale, stably, in place (an insertion sort:
/// a sum has a handful of terms, and it allocates nothing).
fn sort_by_scale(terms: &mut [IterSplit]) {
    for at in 1..terms.len() {
        let mut k = at;
        while k > 0 && terms[k - 1].scale < terms[k].scale {
            terms.swap(k - 1, k);
            k -= 1;
        }
    }
}

/// The term that follows `terms[at]` once the terms are sorted by
/// [`sort_by_scale`]: the next one of equal scale, else the first of the
/// largest scale below it.
fn next_by_scale(terms: &[IterSplit], at: usize) -> Option<&IterSplit> {
    let scale = terms[at].scale;
    (terms[at + 1..].iter().find(|t| t.scale == scale)).or_else(|| {
        (terms.iter().filter(|t| t.scale < scale)).fold(None, |best: Option<&IterSplit>, t| {
            match best {
                Some(b) if b.scale >= t.scale => Some(b),
                _ => Some(t),
            }
        })
    })
}

/// Whether the terms, in descending scale order, form a mixed-radix chain:
/// every scale positive and `scale[k] == scale[k+1] * extent[k+1]`. Reads
/// the order off the terms where they stand, so nothing is copied to sort.
fn is_compact(terms: &[IterSplit]) -> bool {
    terms.iter().all(|t| t.scale > 0)
        && (0..terms.len()).all(|at| {
            next_by_scale(terms, at).is_none_or(|next| terms[at].scale == next.scale * next.extent)
        })
}

/// [`IterSum::strict_extent`] of the sum `terms + base`.
fn strict_extent(terms: &[IterSplit], base: i64) -> Option<i64> {
    if base != 0 {
        return None;
    }
    if terms.is_empty() {
        return Some(1);
    }
    if !is_compact(terms) {
        return None;
    }
    // The last and the first term in descending scale order.
    let last = terms
        .iter()
        .rev()
        .min_by_key(|t| t.scale)
        .expect("nonempty");
    if last.scale != 1 {
        return None;
    }
    let first = terms
        .iter()
        .rev()
        .max_by_key(|t| t.scale)
        .expect("nonempty");
    Some(first.scale * first.extent)
}

/// The sum `terms + base`, written as [`IterSum`] writes itself.
struct Shown<'t>(&'t [IterSplit], i64);

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Shown(terms, base) = *self;
        for (i, t) in terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        if base != 0 || terms.is_empty() {
            if !terms.is_empty() {
                write!(f, " + ")?;
            }
            write!(f, "{base}")?;
        }
        Ok(())
    }
}

impl fmt::Display for IterSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(({} // {}) % {}) * {}",
            self.var.name(),
            self.lower_factor,
            self.extent,
            self.scale
        )
    }
}

impl fmt::Display for IterSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Shown(&self.terms, self.base).fmt(f)
    }
}

/// Why iterator-map detection failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IterMapError {
    /// The expression uses an operation outside the quasi-affine fragment.
    NonAffine(String),
    /// A variable without a known domain appears in a binding.
    UnknownVar(String),
    /// The bindings reuse an iterator piece (e.g. `v1 = i, v2 = i * 2`).
    NotIndependent(String),
    /// The splits of a loop do not tile its full domain.
    IncompleteCover(String),
    /// A binding is not a zero-based compact combination.
    NotStrict(String),
}

impl fmt::Display for IterMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IterMapError::NonAffine(s) => write!(f, "non-affine binding: {s}"),
            IterMapError::UnknownVar(s) => write!(f, "unknown variable in binding: {s}"),
            IterMapError::NotIndependent(s) => write!(f, "bindings are not independent: {s}"),
            IterMapError::IncompleteCover(s) => {
                write!(f, "loop domain not fully covered: {s}")
            }
            IterMapError::NotStrict(s) => write!(f, "binding is not surjective: {s}"),
        }
    }
}

impl std::error::Error for IterMapError {}

type Result<T> = std::result::Result<T, IterMapError>;

/// Merges equal pieces (into the first occurrence) and drops zero-scale or
/// extent-1 terms, within `terms[start..]` and keeping their order.
fn canonicalize(terms: &mut Vec<IterSplit>, start: usize) {
    let mut kept = start;
    for at in start..terms.len() {
        let scale = terms[at].scale;
        match (start..kept).find(|&k| terms[k].same_piece(&terms[at])) {
            Some(k) => terms[k].scale += scale,
            None => {
                terms.swap(kept, at);
                kept += 1;
            }
        }
    }
    terms.truncate(kept);
    let mut kept = start;
    for at in start..terms.len() {
        if terms[at].scale != 0 && terms[at].extent != 1 {
            terms.swap(kept, at);
            kept += 1;
        }
    }
    terms.truncate(kept);
}

/// Normalizes expressions into one term buffer. The sum of an expression
/// is the run of terms its visit appended, plus the base the visit
/// returns; an operator combines the runs of its operands where they lie,
/// so a visited node allocates nothing.
struct Normalizer<F> {
    /// The extent of a loop variable, `None` for a variable without one.
    extent_of: F,
    terms: Vec<IterSplit>,
}

impl<F: Fn(&Var) -> Option<i64>> Normalizer<F> {
    /// Appends the terms of `expr`'s normal form and returns its base.
    fn sum(&mut self, expr: &Expr) -> Result<i64> {
        let start = self.terms.len();
        match expr {
            Expr::Int(v, _) => Ok(*v),
            Expr::Var(v) => {
                let extent = (self.extent_of)(v)
                    .ok_or_else(|| IterMapError::UnknownVar(v.name().to_string()))?;
                self.terms.push(IterSplit {
                    var: v.clone(),
                    var_extent: extent,
                    lower_factor: 1,
                    extent,
                    scale: 1,
                });
                canonicalize(&mut self.terms, start);
                Ok(0)
            }
            Expr::Cast(_, v) => self.sum(v),
            Expr::Bin(op, a, b) => match op {
                BinOp::Add => {
                    let (x, y) = (self.sum(a)?, self.sum(b)?);
                    canonicalize(&mut self.terms, start);
                    Ok(x + y)
                }
                BinOp::Sub => {
                    let x = self.sum(a)?;
                    let mid = self.terms.len();
                    let y = self.sum(b)?;
                    for t in &mut self.terms[mid..] {
                        t.scale = -t.scale;
                    }
                    canonicalize(&mut self.terms, start);
                    Ok(x - y)
                }
                BinOp::Mul => {
                    let x = self.sum(a)?;
                    let mid = self.terms.len();
                    let y = self.sum(b)?;
                    let c = if mid == start {
                        x
                    } else if self.terms.len() == mid {
                        y
                    } else {
                        return Err(IterMapError::NonAffine(format!(
                            "product of two iterators: {expr}"
                        )));
                    };
                    for t in &mut self.terms[start..] {
                        t.scale *= c;
                    }
                    canonicalize(&mut self.terms, start);
                    Ok(x * y)
                }
                BinOp::FloorDiv | BinOp::FloorMod => {
                    let c = self.sum(b)?;
                    if self.terms.len() > start {
                        return Err(IterMapError::NonAffine(format!(
                            "division by non-constant: {expr}"
                        )));
                    }
                    let base = self.sum(a)?;
                    self.split_at(start, base, c, *op == BinOp::FloorDiv)
                }
                _ => Err(IterMapError::NonAffine(format!("{expr}"))),
            },
            other => Err(IterMapError::NonAffine(format!("{other}"))),
        }
    }

    /// Distributes `sum // c` (when `div` is true) or `sum % c` over the
    /// compact sum `terms[start..] + base`, in place, by walking its
    /// mixed-radix parts from the highest scale down, and returns the base
    /// of the result.
    ///
    /// Each part either falls entirely below the cut (`scale * extent <= c`,
    /// goes to the modulo side), entirely above it (`scale % c == 0`, goes
    /// to the quotient side with scale divided by `c`), or straddles the cut
    /// and is split into two sub-pieces at `d = c / scale` (requiring
    /// `d | extent`). Only the side asked for is kept.
    fn split_at(&mut self, start: usize, base: i64, c: i64, div: bool) -> Result<i64> {
        if c <= 0 {
            return Err(IterMapError::NonAffine(format!(
                "division by non-positive constant {c}"
            )));
        }
        if base % c != 0 {
            return Err(IterMapError::NonAffine(format!(
                "division base {base} not divisible by {c}"
            )));
        }
        let terms = &mut self.terms;
        if terms.len() == start {
            return Ok(if div { base / c } else { 0 });
        }
        if !is_compact(&terms[start..]) {
            return Err(IterMapError::NonAffine(format!(
                "division of non-compact sum: {}",
                Shown(&terms[start..], base)
            )));
        }
        sort_by_scale(&mut terms[start..]);
        let mut kept = start;
        for at in start..terms.len() {
            let part = &mut terms[at];
            let keep = if part.scale % c == 0 {
                part.scale /= c;
                div
            } else if part.scale * part.extent <= c {
                // Compactness guarantees the joint value of all below-cut
                // parts stays under `c`, so the part contributes only to
                // the modulo.
                !div
            } else if c % part.scale == 0 {
                let d = c / part.scale;
                if part.extent % d != 0 {
                    return Err(IterMapError::NonAffine(format!(
                        "cannot split extent {} at {d}",
                        part.extent
                    )));
                }
                if div {
                    part.lower_factor *= d;
                    part.extent /= d;
                    part.scale = 1;
                } else {
                    part.extent = d;
                }
                true
            } else {
                return Err(IterMapError::NonAffine(format!(
                    "part {part} misaligned with divisor {c}"
                )));
            };
            if keep {
                terms.swap(kept, at);
                kept += 1;
            }
        }
        terms.truncate(kept);
        canonicalize(terms, start);
        let base = if div { base / c } else { 0 };
        // The result must itself be compact, otherwise the decomposition
        // above is unsound (parts could carry into each other).
        if terms.len() > start && !is_compact(&terms[start..]) {
            return Err(IterMapError::NonAffine(format!(
                "division result is non-compact: {}",
                Shown(&terms[start..], base)
            )));
        }
        Ok(base)
    }
}

/// Normalizes an expression into an [`IterSum`] over the given loop domains.
pub fn normalize(expr: &Expr, dom: &VarMap<i64>) -> Result<IterSum> {
    let mut normalizer = Normalizer {
        extent_of: |v: &Var| dom.get(v).copied(),
        terms: Vec::new(),
    };
    let base = normalizer.sum(expr)?;
    Ok(IterSum {
        terms: normalizer.terms,
        base,
    })
}

/// A successfully detected iterator map.
#[derive(Debug)]
pub struct IterMap {
    /// Normalized form of each binding, in input order.
    pub sums: Vec<IterSum>,
    /// Extent of each binding: binding `i` surjectively covers
    /// `[0, extents[i])`.
    pub extents: Vec<i64>,
}

/// Detects a bijective quasi-affine iterator map.
///
/// `bindings` are the block-iterator binding expressions; `dom` gives each
/// loop variable with its extent (loops iterate over `[0, extent)`).
///
/// On success: every binding is quasi-affine and surjective onto
/// `[0, extent_i)`, the bindings are mutually independent, and every loop
/// with extent > 1 is fully consumed.
///
/// # Examples
///
/// ```
/// use tir::{Expr, Var};
/// use tir_arith::iter_map::detect_iter_map;
/// let i = Var::int("i");
/// // v0 = i // 4, v1 = i % 4 over i in [0, 16): a legal re-split.
/// let map = detect_iter_map(
///     &[Expr::from(&i).floor_div(4), Expr::from(&i).floor_mod(4)],
///     &[(i.clone(), 16)],
/// ).unwrap();
/// assert_eq!(map.extents, vec![4, 4]);
/// // v0 = i, v1 = i * 2 is rejected (the paper's example of dependence).
/// assert!(detect_iter_map(
///     &[Expr::from(&i), Expr::from(&i) * 2],
///     &[(i.clone(), 16)],
/// ).is_err());
/// ```
pub fn detect_iter_map(bindings: &[Expr], dom: &[(Var, i64)]) -> Result<IterMap> {
    let simplified: Vec<Expr> = (bindings.iter().cloned())
        .map(tir::simplify::simplified)
        .collect();
    let loops = dom.iter().map(|(v, extent)| (v, *extent));
    let extents = detect_iter_map_with(&simplified, loops, CoverMode::Full)?;
    // Detection keeps no sums; the bindings it accepted normalize again.
    let env: VarMap<i64> = dom.iter().cloned().collect();
    let sums = (simplified.iter().map(|b| normalize(b, &env))).collect::<Result<_>>()?;
    Ok(IterMap { sums, extents })
}

/// How strictly [`detect_iter_map_with`] checks loop-domain coverage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoverMode {
    /// Every loop with extent > 1 must be fully consumed (bijective map).
    Full,
    /// Pieces must not overlap, but gaps and unused loops are allowed —
    /// the map is injective on the covered digits; uncovered digits mean
    /// the block re-executes identically (sound for idempotent blocks).
    OverlapOnly,
}

/// [`detect_iter_map`] with a configurable coverage requirement, on
/// bindings that are already simplified ([`tir::simplify`]), returning only
/// the extents: binding `i` covers `[0, extents[i])`. The normalizer reads
/// `x * c + y` shapes as written, and the validator, its caller, composes
/// and simplifies every binding once for all of its checks.
/// Simplification is idempotent, so simplifying here again would only copy
/// each binding to find nothing to do. `dom` is the loops as an iterator
/// (variable, extent), so a caller that holds them in another shape need
/// not collect them. Besides the extents, a call allocates one buffer that
/// every binding's terms share.
///
/// # Errors
///
/// As [`detect_iter_map`]; with [`CoverMode::OverlapOnly`] the
/// `IncompleteCover` family of errors is suppressed.
pub fn detect_iter_map_with<'e, 'd>(
    bindings: impl IntoIterator<Item = &'e Expr>,
    dom: impl DoubleEndedIterator<Item = (&'d Var, i64)> + Clone,
    mode: CoverMode,
) -> Result<Vec<i64>> {
    let bindings = bindings.into_iter();
    // A variable listed twice has its last extent, as in a map built
    // from `dom`.
    let mut normalizer = Normalizer {
        extent_of: |v: &Var| (dom.clone().rev()).find(|(d, _)| *d == v).map(|(_, e)| e),
        terms: Vec::with_capacity(2 * dom.clone().count()),
    };
    let mut extents = Vec::with_capacity(bindings.size_hint().0);
    for b in bindings {
        let start = normalizer.terms.len();
        let base = normalizer.sum(b)?;
        let extent = strict_extent(&normalizer.terms[start..], base)
            .ok_or_else(|| IterMapError::NotStrict(format!("{b}")))?;
        extents.push(extent);
    }

    // Independence + coverage: the pieces of each loop variable must tile
    // its domain [1, extent) in digit space exactly once. Each variable's
    // pieces are gathered at the front of what is left of the buffer.
    let pieces = &mut normalizer.terms;
    let mut done = 0;
    for (v, extent) in dom.clone() {
        let mut end = done;
        for at in done..pieces.len() {
            if pieces[at].var == *v {
                pieces.swap(end, at);
                end += 1;
            }
        }
        let mine = &mut pieces[done..end];
        done = end;
        if mine.is_empty() {
            if extent > 1 && mode == CoverMode::Full {
                return Err(IterMapError::IncompleteCover(format!(
                    "loop {} (extent {extent}) is unused",
                    v.name()
                )));
            }
            continue;
        }
        mine.sort_unstable_by_key(|t| (t.lower_factor, t.extent));
        let mut expected = 1i64;
        for t in mine.iter() {
            let (lf, ext) = (t.lower_factor, t.extent);
            if lf < expected {
                return Err(IterMapError::NotIndependent(format!(
                    "loop {} split at factor {lf} overlaps a previous split",
                    v.name()
                )));
            }
            if lf > expected && mode == CoverMode::Full {
                return Err(IterMapError::IncompleteCover(format!(
                    "loop {} digits [{expected}, {lf}) are unused",
                    v.name()
                )));
            }
            expected = lf
                .checked_mul(ext)
                .ok_or_else(|| IterMapError::NonAffine("extent overflow".into()))?;
        }
        if expected != extent && mode == CoverMode::Full {
            return Err(IterMapError::IncompleteCover(format!(
                "loop {} covered up to {expected} of extent {extent}",
                v.name()
            )));
        }
    }

    Ok(extents)
}

/// Evaluates an [`IterSum`] on concrete loop values — the reference
/// semantics used by the property tests.
pub fn eval_iter_sum(sum: &IterSum, values: &VarMap<i64>) -> i64 {
    let mut acc = sum.base;
    for t in &sum.terms {
        let v = values[&t.var];
        acc += ((v / t.lower_factor) % t.extent) * t.scale;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Var {
        Var::int(name)
    }

    #[test]
    fn identity_bindings() {
        let (i, j) = (v("i"), v("j"));
        let map = detect_iter_map(
            &[Expr::from(&i), Expr::from(&j)],
            &[(i.clone(), 8), (j.clone(), 16)],
        )
        .expect("identity map");
        assert_eq!(map.extents, vec![8, 16]);
    }

    #[test]
    fn split_bindings() {
        let i = v("i");
        let map = detect_iter_map(
            &[Expr::from(&i).floor_div(4), Expr::from(&i).floor_mod(4)],
            &[(i.clone(), 32)],
        )
        .expect("split map");
        assert_eq!(map.extents, vec![8, 4]);
    }

    #[test]
    fn fuse_binding() {
        let (i, j) = (v("i"), v("j"));
        let map = detect_iter_map(
            &[Expr::from(&i) * 16 + Expr::from(&j)],
            &[(i.clone(), 8), (j.clone(), 16)],
        )
        .expect("fuse map");
        assert_eq!(map.extents, vec![128]);
    }

    #[test]
    fn fuse_then_split() {
        let (i, j) = (v("i"), v("j"));
        // fused = i * 16 + j over [0, 128); bind v0 = fused // 4, v1 = fused % 4
        let fused = Expr::from(&i) * 16 + Expr::from(&j);
        let map = detect_iter_map(
            &[fused.clone().floor_div(4), fused.floor_mod(4)],
            &[(i.clone(), 8), (j.clone(), 16)],
        )
        .expect("fuse-split map");
        assert_eq!(map.extents, vec![32, 4]);
    }

    #[test]
    fn three_level_split() {
        let i = v("i");
        let e = Expr::from(&i);
        let map = detect_iter_map(
            &[
                e.clone().floor_div(16),
                e.clone().floor_mod(16).floor_div(4),
                e.clone().floor_mod(4),
            ],
            &[(i.clone(), 64)],
        )
        .expect("3-level split");
        assert_eq!(map.extents, vec![4, 4, 4]);
    }

    #[test]
    fn rejects_dependent_bindings() {
        let i = v("i");
        // The paper's example: v1 = i, v2 = i * 2 — not independent.
        let err =
            detect_iter_map(&[Expr::from(&i), Expr::from(&i) * 2], &[(i.clone(), 16)]).unwrap_err();
        assert!(
            matches!(
                err,
                IterMapError::NotIndependent(_) | IterMapError::NotStrict(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_reused_split() {
        let i = v("i");
        let err =
            detect_iter_map(&[Expr::from(&i), Expr::from(&i)], &[(i.clone(), 16)]).unwrap_err();
        assert!(matches!(err, IterMapError::NotIndependent(_)), "{err}");
    }

    #[test]
    fn rejects_partial_cover() {
        let i = v("i");
        // Only the low 4 digits used; i // 4 discarded.
        let err = detect_iter_map(&[Expr::from(&i).floor_mod(4)], &[(i.clone(), 16)]).unwrap_err();
        assert!(matches!(err, IterMapError::IncompleteCover(_)), "{err}");
    }

    #[test]
    fn rejects_unused_loop() {
        let (i, j) = (v("i"), v("j"));
        let err =
            detect_iter_map(&[Expr::from(&i)], &[(i.clone(), 4), (j.clone(), 4)]).unwrap_err();
        assert!(matches!(err, IterMapError::IncompleteCover(_)), "{err}");
        // Extent-1 loops are exempt.
        detect_iter_map(&[Expr::from(&i)], &[(i.clone(), 4), (j.clone(), 1)])
            .expect("extent-1 loop unused is fine");
    }

    #[test]
    fn rejects_non_affine() {
        let (i, j) = (v("i"), v("j"));
        let err = detect_iter_map(
            &[Expr::from(&i) * Expr::from(&j)],
            &[(i.clone(), 4), (j.clone(), 4)],
        )
        .unwrap_err();
        assert!(matches!(err, IterMapError::NonAffine(_)), "{err}");
    }

    #[test]
    fn rejects_scaled_non_surjective() {
        let i = v("i");
        let err = detect_iter_map(&[Expr::from(&i) * 3], &[(i.clone(), 4)]).unwrap_err();
        assert!(matches!(err, IterMapError::NotStrict(_)), "{err}");
    }

    #[test]
    fn accepts_sum_with_mixed_radix() {
        // v = (i * 12) + (j * 4) + k over i:[0,2), j:[0,3), k:[0,4)
        let (i, j, k) = (v("i"), v("j"), v("k"));
        let e = Expr::from(&i) * 12 + Expr::from(&j) * 4 + Expr::from(&k);
        let map = detect_iter_map(&[e], &[(i.clone(), 2), (j.clone(), 3), (k.clone(), 4)])
            .expect("mixed radix fuse");
        assert_eq!(map.extents, vec![24]);
    }

    #[test]
    fn split_of_fused_respects_boundaries() {
        let (i, j) = (v("i"), v("j"));
        // fused = i*16 + j, i:[0,8) j:[0,16); three-way re-split at 8.
        let fused = Expr::from(&i) * 16 + Expr::from(&j);
        let bindings = [
            fused.clone().floor_div(16),
            fused.clone().floor_mod(16).floor_div(8),
            fused.floor_mod(8),
        ];
        let map = detect_iter_map(&bindings, &[(i.clone(), 8), (j.clone(), 16)]).expect("split");
        assert_eq!(map.extents, vec![8, 2, 8]);
    }

    #[test]
    fn fused_split_crossing_part_boundary() {
        let (i, j) = (v("i"), v("j"));
        // fused = i*4 + j with j:[0,4), i:[0,8); divide by 2 (inside part j).
        let fused = Expr::from(&i) * 4 + Expr::from(&j);
        let map = detect_iter_map(
            &[fused.clone().floor_div(2), fused.floor_mod(2)],
            &[(i.clone(), 8), (j.clone(), 4)],
        )
        .expect("cross-boundary split");
        assert_eq!(map.extents, vec![16, 2]);
    }

    #[test]
    fn constant_binding_for_unit_domain() {
        let i = v("i");
        let map = detect_iter_map(&[Expr::int(0), Expr::from(&i)], &[(i.clone(), 4)])
            .expect("constant + identity");
        assert_eq!(map.extents, vec![1, 4]);
    }

    #[test]
    fn eval_matches_expr_semantics() {
        let (i, j) = (v("i"), v("j"));
        let fused = Expr::from(&i) * 16 + Expr::from(&j);
        let dom = [(i.clone(), 8i64), (j.clone(), 16i64)];
        let map =
            detect_iter_map(&[fused.clone().floor_div(4), fused.floor_mod(4)], &dom).expect("map");
        for iv in 0..8 {
            for jv in 0..16 {
                let values: VarMap<i64> = [(i.clone(), iv), (j.clone(), jv)].into_iter().collect();
                let fused_v = iv * 16 + jv;
                assert_eq!(eval_iter_sum(&map.sums[0], &values), fused_v / 4);
                assert_eq!(eval_iter_sum(&map.sums[1], &values), fused_v % 4);
            }
        }
    }

    #[test]
    fn normalize_display() {
        let i = v("i");
        let dom: VarMap<i64> = [(i.clone(), 16)].into_iter().collect();
        let s = normalize(&Expr::from(&i).floor_div(4), &dom).expect("normalize");
        assert!(s.to_string().contains("// 4"), "{s}");
    }
}
