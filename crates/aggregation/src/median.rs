//! Coordinate-wise Median GAR and the branchless 3-element ordering primitive.

use crate::engine::SelectionNetwork;
use crate::{validate_views, AggregationError, AggregationResult, Engine, Gar};
use garfield_tensor::{total_order_unkey_f32, GradientView, Tensor};

/// Orders three values without data-dependent branching.
///
/// This mirrors the SIMT-friendly selection-instruction primitive of §4.3 of
/// the paper: the three comparisons are converted to integers and combined
/// arithmetically into the output indices, so a GPU warp executing it never
/// diverges. The CPU Median does not call it: it runs the same idea tile-wide
/// as a [`SelectionNetwork`](crate::engine::SelectionNetwork) of `(min, max)`
/// comparators over integer keys. Note that this primitive compares with
/// float `>`, so unlike the Median GAR it does not order NaN or `±0` by
/// `total_cmp_f32`.
pub fn sort3_branchless(v: [f32; 3]) -> [f32; 3] {
    let c = [
        usize::from(v[0] > v[1]),
        usize::from(v[0] > v[2]),
        usize::from(v[1] > v[2]),
    ];
    // Index of the smallest and largest element, computed arithmetically
    // (same spirit as the paper's formula built on the selection instruction).
    let i0 = (1 + c[0] + 2 * c[1] + c[2] - (c[1] ^ c[2])) / 2;
    let i1 = (4 - c[0] - 2 * c[1] - c[2] + (c[0] ^ c[1])) / 2;
    [v[i0], v[3 - i0 - i1], v[i1]]
}

/// The coordinate-wise median GAR (Xie et al., referenced as [55] in the paper).
///
/// Requires `n ≥ 2f + 1`. Each coordinate costs the comparators of a pruned
/// `O(n log² n)` selection network, run branch-free over 256 coordinates
/// at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Median {
    n: usize,
    f: usize,
}

impl Median {
    /// Creates a Median rule for `n` inputs tolerating `f` Byzantine ones.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::ResilienceViolated`] unless `n ≥ 2f + 1`.
    pub fn new(n: usize, f: usize) -> AggregationResult<Self> {
        if n < 2 * f + 1 {
            return Err(AggregationError::ResilienceViolated {
                rule: "median",
                n,
                f,
                requirement: "n >= 2f + 1",
            });
        }
        Ok(Median { n, f })
    }
}

impl Gar for Median {
    fn name(&self) -> &'static str {
        "median"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn f(&self) -> usize {
        self.f
    }

    fn aggregate_views(
        &self,
        inputs: &[GradientView<'_>],
        engine: &Engine,
    ) -> AggregationResult<Tensor> {
        validate_views(inputs, self.n)?;
        Ok(coordinate_wise_median_views(inputs, engine))
    }
}

/// Coordinate-wise median (the lower median for even `n`) of a non-empty,
/// equal-length set of views.
///
/// Runs the tile-wide [`SelectionNetwork`] pruned to the median rank over
/// [`total_order_key_f32`](garfield_tensor::total_order_key_f32) keys and
/// reads the result back from row `mid`. The keying is a monotone bijection
/// of the workspace's `total_cmp_f32` order, so every coordinate (NaN and
/// ±0 placement included) is exactly what `median_inplace` returns for its
/// column, on any engine and for any `n`.
pub(crate) fn coordinate_wise_median_views(inputs: &[GradientView<'_>], engine: &Engine) -> Tensor {
    let network = SelectionNetwork::around_median(inputs.len(), 0);
    let mid = network.mid();
    Tensor::from(network.fill_columns(inputs, engine, |rows, out| {
        for (slot, &key) in out.iter_mut().zip(&rows[mid]) {
            *slot = total_order_unkey_f32(key);
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort3_orders_every_permutation() {
        let perms = [
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [2.0, 1.0, 3.0],
            [2.0, 3.0, 1.0],
            [3.0, 1.0, 2.0],
            [3.0, 2.0, 1.0],
        ];
        for p in perms {
            assert_eq!(sort3_branchless(p), [1.0, 2.0, 3.0], "failed on {p:?}");
        }
    }

    #[test]
    fn sort3_handles_duplicates() {
        assert_eq!(sort3_branchless([2.0, 2.0, 1.0]), [1.0, 2.0, 2.0]);
        assert_eq!(sort3_branchless([5.0, 5.0, 5.0]), [5.0, 5.0, 5.0]);
        assert_eq!(sort3_branchless([1.0, 2.0, 2.0]), [1.0, 2.0, 2.0]);
    }

    #[test]
    fn requirement_is_2f_plus_1() {
        assert!(Median::new(3, 1).is_ok());
        assert!(Median::new(2, 1).is_err());
        assert!(Median::new(7, 3).is_ok());
        assert!(Median::new(6, 3).is_err());
    }

    #[test]
    fn median_of_odd_inputs_is_exact() {
        let median = Median::new(5, 2).unwrap();
        let inputs: Vec<Tensor> = [5.0, 1.0, 3.0, 2.0, 4.0]
            .iter()
            .map(|&v| Tensor::from_slice(&[v, -v]))
            .collect();
        let out = median.aggregate(&inputs).unwrap();
        assert_eq!(out.data(), &[3.0, -3.0]);
    }

    #[test]
    fn median_ignores_f_extreme_outliers() {
        let median = Median::new(5, 2).unwrap();
        let mut inputs: Vec<Tensor> = vec![
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.1]),
            Tensor::from_slice(&[0.9]),
        ];
        inputs.push(Tensor::from_slice(&[1e9]));
        inputs.push(Tensor::from_slice(&[-1e9]));
        let out = median.aggregate(&inputs).unwrap();
        assert!((0.9..=1.1).contains(&out.data()[0]));
    }

    #[test]
    fn median_output_is_within_input_range_per_coordinate() {
        let median = Median::new(3, 1).unwrap();
        let inputs = vec![
            Tensor::from_slice(&[1.0, -5.0, 2.0]),
            Tensor::from_slice(&[2.0, 0.0, 8.0]),
            Tensor::from_slice(&[3.0, 5.0, -4.0]),
        ];
        let out = median.aggregate(&inputs).unwrap();
        for (c, &v) in out.data().iter().enumerate() {
            let col: Vec<f32> = inputs.iter().map(|t| t.data()[c]).collect();
            let min = col.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(v >= min && v <= max);
        }
    }

    #[test]
    fn three_input_median_follows_the_total_order() {
        // The MSMW model merge at nps = 3, fps = 1 is a 3-input Median; one
        // Byzantine replica's NaN must not win the column, and -0.0 < +0.0.
        let median = Median::new(3, 1).unwrap();
        let inputs = vec![
            Tensor::from_slice(&[1.0, 0.0]),
            Tensor::from_slice(&[f32::NAN, -0.0]),
            Tensor::from_slice(&[2.0, 1.0]),
        ];
        let out = median.aggregate(&inputs).unwrap();
        assert_eq!(out.data()[0].to_bits(), 2.0f32.to_bits());
        assert_eq!(out.data()[1].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let median = Median::new(3, 1).unwrap();
        let two = vec![Tensor::from_slice(&[1.0]), Tensor::from_slice(&[2.0])];
        assert!(matches!(
            median.aggregate(&two),
            Err(AggregationError::WrongInputCount {
                expected: 3,
                got: 2
            })
        ));
    }
}
