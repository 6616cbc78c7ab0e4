//! SIMD-friendly inner-loop kernels shared by the dense layers.
//!
//! Every hot loop in `linear`, `mlp`, and `interaction` funnels through
//! these helpers. Each one asserts exact slice-length equality up front so
//! LLVM can drop the per-element bounds checks and autovectorize.
//!
//! The contract the bit-exactness suites (and `tests/golden_dense.rs`)
//! rest on is **per output element**: every reduction starts from its
//! initial value and adds its terms in ascending index order, and every
//! term is a rounded multiply followed by a separate rounded add (never
//! fused). Which *other* elements are computed alongside is free —
//! `dot_from` folds one chain at a time, `Linear`'s forward and backward
//! carry register tiles of independent chains through the same order (`k`
//! for an output, `o` for an input gradient, the sample for a weight), and
//! `axpy` is elementwise. Nor does it matter how many lanes one
//! instruction covers: 4 or 8, each lane is still one rounded multiply and
//! one rounded add. No schedule, worker count, batch width or vector width
//! ever splits a reduction, so none of them can change a bit.

/// Sequential dot product folded onto an initial value: `init + Σ a·b`,
/// accumulated strictly left to right (NOT reassociated — bit-compatible
/// with the scalar loop `acc = init; for.. { acc += a[i] * b[i] }`).
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
#[inline]
pub(crate) fn dot_from(init: f32, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operand width mismatch");
    let mut acc = init;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `y += a · x`, elementwise. Fully data-parallel, so it vectorizes
/// cleanly; bit-identical to `*y -= s * x` when called with `a = -s`
/// (IEEE-754 negation commutes through multiplication, and subtraction is
/// addition of the negation).
///
/// # Panics
///
/// Panics if `y.len() != x.len()`.
#[inline]
pub(crate) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy operand width mismatch");
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// Writes `max(v, 0)` of every element of `src` to the same position of
/// `dst` — the ReLU forward, elementwise and branch-free.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
#[inline]
pub(crate) fn relu_into(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "relu operand width mismatch");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v.max(0.0);
    }
}

/// Zeroes every gradient whose pre-activation was non-positive — the ReLU
/// backward mask.
///
/// # Panics
///
/// Panics if `grad.len() != pre_act.len()`.
#[inline]
pub(crate) fn relu_mask(grad: &mut [f32], pre_act: &[f32]) {
    assert_eq!(grad.len(), pre_act.len(), "mask width mismatch");
    for (g, &p) in grad.iter_mut().zip(pre_act) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_from_matches_scalar_loop_bitwise() {
        let a: Vec<f32> = (0..33).map(|i| (i as f32).sin() * 1e-3).collect();
        let b: Vec<f32> = (0..33).map(|i| (i as f32).cos() * 7.0).collect();
        let mut acc = 0.25f32;
        for (x, y) in a.iter().zip(&b) {
            acc += x * y;
        }
        assert_eq!(dot_from(0.25, &a, &b).to_bits(), acc.to_bits());
    }

    #[test]
    fn axpy_negated_scale_equals_subtraction_bitwise() {
        let x: Vec<f32> = (0..19).map(|i| 1e-4 * i as f32 - 0.3).collect();
        let mut sub: Vec<f32> = (0..19).map(|i| (i as f32).sqrt()).collect();
        let mut add = sub.clone();
        let s = 0.037f32;
        for (y, xv) in sub.iter_mut().zip(&x) {
            *y -= s * xv;
        }
        axpy(&mut add, -s, &x);
        for (a, b) in add.iter().zip(&sub) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relu_pair_round_trips() {
        let pre = [1.5f32, -2.0, 0.0, 3.0];
        let mut act = [f32::NAN; 4];
        relu_into(&mut act, &pre);
        assert_eq!(act, [1.5, 0.0, 0.0, 3.0]);
        let mut grad = [1.0f32; 4];
        relu_mask(&mut grad, &pre);
        assert_eq!(grad, [1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_operands_rejected() {
        let _ = dot_from(0.0, &[1.0], &[1.0, 2.0]);
    }
}
