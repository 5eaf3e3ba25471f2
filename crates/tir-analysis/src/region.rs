//! Concrete buffer access boxes: the region-cover check.
//!
//! The walk ([`crate::walk`]) bounds every index of every load and store
//! over the enclosing loops and block bindings and adds the box here, one
//! per buffer and access direction; when it is done, [`AccessSet::uncovered`]
//! names the intermediate buffers whose writes do not cover their reads.
//! This module has that one reader and does no walking of its own.
//!
//! There are no *symbolic* regions here. The relaxation that expresses a
//! block's accesses in the variables of an enclosing loop (symbolic minimum
//! at zero, constant extent) is `required_region` in
//! `tir-schedule/src/compute_location.rs`: it reads block signatures, not
//! raw loads and stores, and only `cache_read`/`cache_write`/`compute_at`/
//! `blockize` need it, so it lives beside them.

use tir::Buffer;
use tir_arith::bound::IntBound;

use crate::validate::ValidationError;

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

/// All buffer accesses of a function as concrete boxes: per buffer, the
/// convex union of its reads and of its writes, in first-access order.
#[derive(Default, Debug)]
pub(crate) struct AccessSet<'a> {
    pub(crate) reads: Vec<(&'a Buffer, Box_)>,
    pub(crate) writes: Vec<(&'a Buffer, Box_)>,
}

impl<'a> AccessSet<'a> {
    /// Adds one access.
    pub(crate) fn add(&mut self, buffer: &'a Buffer, b: Box_, write: bool) {
        let list = if write {
            &mut self.writes
        } else {
            &mut self.reads
        };
        if let Some((_, existing)) = list.iter_mut().find(|(buf, _)| *buf == buffer) {
            *existing = box_union(existing, &b);
        } else {
            list.push((buffer, b));
        }
    }

    /// One [`ValidationError::RegionCover`] per buffer read somewhere its
    /// writes do not reach. `params` are exempt: their contents come from
    /// the caller.
    pub(crate) fn uncovered(&self, params: &[Buffer]) -> Vec<ValidationError> {
        let mut errors = Vec::new();
        for (buffer, read_box) in &self.reads {
            if params.contains(buffer) {
                continue;
            }
            let write_box = self.writes.iter().find(|(b, _)| b == buffer);
            if !write_box.is_some_and(|(_, bx)| box_covers(bx, read_box)) {
                errors.push(ValidationError::RegionCover {
                    buffer: buffer.name().to_string(),
                });
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_ops() {
        let a = vec![IntBound::new(0, 7), IntBound::new(0, 7)];
        let b = vec![IntBound::new(2, 5), IntBound::new(0, 7)];
        assert!(box_covers(&a, &b));
        assert!(!box_covers(&b, &a));
        assert_eq!(box_union(&a, &b), a);
    }
}
