//! Scalar statistics helpers shared by the GARs and the variance tool.

/// The total order every float sort in the workspace uses
/// ([`f32::total_cmp`]: `-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < +NaN`).
///
/// Byzantine peers send NaN payloads on purpose. An ad-hoc
/// `partial_cmp(..).unwrap_or(Equal)` comparator is *not* a total order
/// (NaN compares equal to everything), so two call sites sorting the same
/// NaN-bearing column could disagree on the resulting order — and a trimmed
/// window cut from that order would differ between them. Funnelling every
/// sort through this one comparator makes NaN placement identical
/// everywhere.
#[inline]
pub fn total_cmp_f32(a: &f32, b: &f32) -> std::cmp::Ordering {
    a.total_cmp(b)
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Population variance of a slice (0.0 for slices with fewer than two elements).
pub fn variance(values: &[f32]) -> f32 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32
}

/// Population standard deviation of a slice.
pub fn std_dev(values: &[f32]) -> f32 {
    variance(values).sqrt()
}

/// Median of a mutable slice, computed with the introselect-style
/// `select_nth_unstable` kernel under [`total_cmp_f32`]. The coordinate-wise
/// Median GAR returns exactly this value for every column.
///
/// The slice order is perturbed. For even-length slices the lower median is
/// returned, matching the coordinate-wise Median GAR's behaviour.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn median_inplace(values: &mut [f32]) -> f32 {
    assert!(!values.is_empty(), "median of an empty slice is undefined");
    let mid = (values.len() - 1) / 2;
    let (_, m, _) = values.select_nth_unstable_by(mid, total_cmp_f32);
    *m
}

/// Maps an `f32` to a `u32` whose *native unsigned order* equals the
/// [`total_cmp_f32`] total order: the sign bit is flipped for non-negatives
/// and all bits are flipped for negatives (IEEE 754 totalOrder, the classic
/// radix-sort float key).
///
/// The map is a bijection, so selecting the `k`-th key and mapping back with
/// [`total_order_unkey_f32`] returns exactly the element that
/// `select_nth_unstable_by(k, total_cmp_f32)` would. The coordinate-wise
/// Median and Bulyan kernels rely on this: they order these keys with plain
/// integer `min`/`max` in a branch-free comparator network, many
/// coordinates at a time, instead of calling a float comparator.
#[inline]
pub fn total_order_key_f32(x: f32) -> u32 {
    let b = x.to_bits();
    b ^ ((((b as i32) >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`total_order_key_f32`].
#[inline]
pub fn total_order_unkey_f32(k: u32) -> f32 {
    let b = k ^ ((((k ^ 0x8000_0000) as i32 >> 31) as u32) | 0x8000_0000);
    f32::from_bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(variance(&v), 4.0);
        assert_eq!(std_dev(&v), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        let mut odd = vec![5.0, 1.0, 3.0];
        assert_eq!(median_inplace(&mut odd), 3.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        // Lower median for even-length input.
        assert_eq!(median_inplace(&mut even), 2.0);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut v = vec![1.0, 1.0, 1.0, 1.0, 1e9];
        assert_eq!(median_inplace(&mut v), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_of_empty_slice_panics() {
        median_inplace(&mut []);
    }

    #[test]
    fn total_order_key_is_a_monotone_bijection() {
        let samples = [
            f32::NEG_INFINITY,
            -1e30,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            1e30,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for &a in &samples {
            // Bijective: round-trips to the same bits (including NaN payloads).
            assert_eq!(
                total_order_unkey_f32(total_order_key_f32(a)).to_bits(),
                a.to_bits()
            );
            for &b in &samples {
                // Monotone: key order is exactly the totalOrder predicate.
                assert_eq!(
                    total_order_key_f32(a).cmp(&total_order_key_f32(b)),
                    total_cmp_f32(&a, &b),
                    "key order diverged from total_cmp for {a} vs {b}"
                );
            }
        }
    }
}
