//! Loss functions: softmax cross-entropy and mean squared error.

use garfield_tensor::Tensor;

/// Which loss a model trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Softmax + cross-entropy, the classification loss used by every paper experiment.
    CrossEntropy,
    /// Mean squared error (used by a few unit tests and the regression example).
    MeanSquaredError,
}

/// Row-wise softmax of a `(batch, classes)` logit matrix.
///
/// Numerically stabilised by subtracting the per-row maximum.
pub fn softmax(logits: &Tensor) -> Tensor {
    let (rows, cols) = logits
        .matrix_dims()
        .expect("softmax expects a (batch, classes) matrix");
    let mut out = logits.clone();
    for r in 0..rows {
        let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum.max(f32::MIN_POSITIVE);
        }
    }
    out
}

/// Softmax cross-entropy loss and its gradient with respect to the logits.
///
/// Returns `(mean_loss, grad_logits)` where `grad_logits` already includes the
/// `1 / batch` factor so it can be back-propagated directly.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows, or a label
/// is out of range — these are programming errors in the caller.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (rows, cols) = logits
        .matrix_dims()
        .expect("cross entropy expects a (batch, classes) matrix");
    assert_eq!(rows, labels.len(), "one label per logit row is required");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < cols,
            "label {label} out of range for {cols} classes"
        );
        let p = probs.data()[r * cols + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[r * cols + label] -= 1.0;
    }
    let scale = 1.0 / rows as f32;
    grad.scale_inplace(scale);
    (loss * scale, grad)
}

/// Mean squared error between predictions and targets, plus its gradient with
/// respect to the predictions (including the `2 / n` factor).
///
/// # Panics
///
/// Panics if the two tensors differ in length.
pub fn mse_loss(predictions: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "mse requires equal-length tensors"
    );
    let n = predictions.len().max(1) as f32;
    let diff = predictions.try_sub(targets).expect("lengths checked");
    let loss = diff.data().iter().map(|&d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_tensor::Shape;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], Shape::matrix(2, 3)).unwrap();
        let p = softmax(&logits);
        for r in 0..2 {
            let sum: f32 = p.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::matrix(1, 3)).unwrap();
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], Shape::matrix(1, 3)).unwrap();
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], Shape::matrix(1, 3)).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_of_uniform_prediction_is_ln_classes() {
        let logits = Tensor::zeros(Shape::matrix(1, 4));
        let (loss, grad) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient for the true class is p - 1 = 0.25 - 1.
        assert!((grad.data()[2] - (0.25 - 1.0)).abs() < 1e-5);
        assert!((grad.data()[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let base = vec![0.3f32, -0.2, 0.5, 0.1, 0.9, -0.4];
        let labels = vec![2usize, 0];
        let logits = Tensor::from_vec(base.clone(), Shape::matrix(2, 3)).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let (lp, _) = softmax_cross_entropy(
                &Tensor::from_vec(plus, Shape::matrix(2, 3)).unwrap(),
                &labels,
            );
            let (lm, _) = softmax_cross_entropy(
                &Tensor::from_vec(minus, Shape::matrix(2, 3)).unwrap(),
                &labels,
            );
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-2,
                "index {i}: numeric {numeric} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn mse_loss_and_gradient() {
        let pred = Tensor::from_slice(&[1.0, 2.0]);
        let target = Tensor::from_slice(&[0.0, 0.0]);
        let (loss, grad) = mse_loss(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
        let (zero_loss, zero_grad) = mse_loss(&pred, &pred);
        assert_eq!(zero_loss, 0.0);
        assert!(zero_grad.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "one label per logit row")]
    fn cross_entropy_panics_on_label_count_mismatch() {
        let logits = Tensor::zeros(Shape::matrix(2, 3));
        softmax_cross_entropy(&logits, &[0]);
    }
}
