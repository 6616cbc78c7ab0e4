//! Fused sigmoid + binary cross-entropy for CTR prediction.
//!
//! RecSys training predicts a click probability per sample (paper §II-A);
//! the loss is `BCE(σ(z), label)`. Fusing the sigmoid into the loss gives
//! the numerically stable form
//! `L(z, y) = max(z, 0) − z·y + ln(1 + e^{−|z|})` with the famously simple
//! gradient `dL/dz = σ(z) − y`.

/// The logistic function.
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Mean binary cross-entropy over a batch of logits, plus per-sample logit
/// gradients (already divided by the batch size).
///
/// # Panics
///
/// Panics if `logits` and `labels` differ in length or labels are outside
/// `[0, 1]`.
pub fn bce_with_logits(logits: &[f32], labels: &[f32]) -> (f32, Vec<f32>) {
    let (mut terms, mut grads) = (Vec::new(), Vec::new());
    bce_terms_into(logits, labels, logits.len(), &mut terms, &mut grads);
    (mean(&terms, logits.len()), grads)
}

/// The per-sample half of [`bce_with_logits`] for some samples of an
/// `n`-sample batch: each one's loss term into `terms` and its logit
/// gradient (divided by `n`) into `grads`, both cleared and refilled.
/// [`mean`] folds the terms of the whole batch.
///
/// # Panics
///
/// Same conditions as [`bce_with_logits`].
pub(crate) fn bce_terms_into(
    logits: &[f32],
    labels: &[f32],
    n: usize,
    terms: &mut Vec<f32>,
    grads: &mut Vec<f32>,
) {
    assert_eq!(logits.len(), labels.len(), "batch size mismatch");
    assert!(
        labels.iter().all(|&y| (0.0..=1.0).contains(&y)),
        "labels must be in [0, 1]"
    );
    let n = n.max(1) as f32;
    terms.clear();
    grads.clear();
    for (&z, &y) in logits.iter().zip(labels) {
        terms.push(z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln());
        grads.push((sigmoid(z) - y) / n);
    }
}

/// The mean loss of an `n`-sample batch from its per-sample terms, summed
/// in sample order.
pub(crate) fn mean<'a>(terms: impl IntoIterator<Item = &'a f32>, n: usize) -> f32 {
    let mut loss = 0.0f32;
    for &t in terms {
        loss += t;
    }
    loss / n.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Symmetry: σ(-z) = 1 - σ(z).
        for z in [-3.0f32, -0.5, 0.7, 2.2] {
            assert!((sigmoid(-z) - (1.0 - sigmoid(z))).abs() < 1e-6);
        }
    }

    #[test]
    fn loss_is_low_for_confident_correct_predictions() {
        let (good, _) = bce_with_logits(&[8.0, -8.0], &[1.0, 0.0]);
        let (bad, _) = bce_with_logits(&[8.0, -8.0], &[0.0, 1.0]);
        assert!(good < 0.01);
        assert!(bad > 5.0);
    }

    #[test]
    fn gradient_is_sigmoid_minus_label_over_n() {
        let (_, g) = bce_with_logits(&[1.2, -0.7], &[1.0, 0.0]);
        assert!((g[0] - (sigmoid(1.2) - 1.0) / 2.0).abs() < 1e-7);
        assert!((g[1] - (sigmoid(-0.7) - 0.0) / 2.0).abs() < 1e-7);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = [0.3f32, -1.1, 2.0];
        let labels = [1.0f32, 0.0, 1.0];
        let (_, g) = bce_with_logits(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let (fp, _) = bce_with_logits(&lp, &labels);
            let (fm, _) = bce_with_logits(&lm, &labels);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((g[i] - numeric).abs() < 1e-3, "logit {i}");
        }
    }

    #[test]
    fn extreme_logits_do_not_overflow() {
        let (loss, g) = bce_with_logits(&[100.0, -100.0], &[0.0, 1.0]);
        assert!(loss.is_finite());
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn soft_labels_are_accepted() {
        let (loss, _) = bce_with_logits(&[0.0], &[0.3]);
        assert!(loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "labels must be in [0, 1]")]
    fn out_of_range_label_rejected() {
        let _ = bce_with_logits(&[0.0], &[1.5]);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = bce_with_logits(&[0.0, 1.0], &[1.0]);
    }
}
