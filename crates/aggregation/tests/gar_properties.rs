//! Property-based tests for the Byzantine-resilience invariants of every GAR.
//!
//! The key property (mirroring the theoretical guarantees of §3.1): with at
//! most `f` Byzantine inputs, the output of a Byzantine-resilient GAR stays
//! within (or very near) the envelope of the honest inputs, no matter what
//! the Byzantine vectors contain.

use garfield_aggregation::{build_gar, Bulyan, Engine, Gar, GarKind, Median};
use garfield_tensor::{
    median_inplace, total_order_key_f32, total_order_unkey_f32, GradientView, Tensor, TensorRng,
};
use proptest::prelude::*;

/// Generates a cluster of `honest` similar vectors plus `byz` adversarial ones.
fn adversarial_setup(
    honest: usize,
    byz: usize,
    d: usize,
    seed: u64,
    byz_value: f32,
) -> (Vec<Tensor>, f32, f32) {
    let mut rng = TensorRng::seed_from(seed);
    let mut inputs: Vec<Tensor> = (0..honest)
        .map(|_| {
            Tensor::ones(d)
                .try_add(&rng.normal_tensor(d).scale(0.1))
                .unwrap()
        })
        .collect();
    let honest_min = inputs.iter().map(|t| t.min()).fold(f32::INFINITY, f32::min);
    let honest_max = inputs
        .iter()
        .map(|t| t.max())
        .fold(f32::NEG_INFINITY, f32::max);
    for _ in 0..byz {
        inputs.push(Tensor::full(d, byz_value));
    }
    (inputs, honest_min, honest_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resilient_gars_bound_the_output_under_attack(
        f in 1usize..3,
        d in 1usize..24,
        seed in 0u64..10_000,
        byz_value in prop_oneof![Just(1e9f32), Just(-1e9f32), Just(1e4f32)],
    ) {
        for kind in [GarKind::Median, GarKind::Krum, GarKind::MultiKrum, GarKind::Mda, GarKind::Bulyan] {
            let n = kind.minimum_inputs(f).max(2 * f + 3);
            let honest = n - f;
            let (inputs, lo, hi) = adversarial_setup(honest, f, d, seed, byz_value);
            let gar = build_gar(&kind, n, f).unwrap();
            let out = gar.aggregate(&inputs).unwrap();
            // The output must stay within a small margin of the honest envelope.
            let margin = (hi - lo).abs() + 1.0;
            for &v in out.data() {
                prop_assert!(
                    v >= lo - margin && v <= hi + margin,
                    "{kind}: output coordinate {v} escaped honest range [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn gars_are_permutation_invariant(
        seed in 0u64..10_000,
        d in 1usize..16,
    ) {
        let f = 1usize;
        // Average, Median and Multi-Krum are exactly permutation invariant.
        // MDA and Bulyan break ties (equal diameters / equal Krum scores) by
        // input position, like the reference implementation — ties are generic
        // for MDA (several subsets can share the minimum diameter) — so for
        // them we only require the reordered output to stay inside the
        // per-coordinate input envelope.
        for kind in [GarKind::Average, GarKind::Median, GarKind::MultiKrum] {
            let n = kind.minimum_inputs(f).max(5);
            let mut rng = TensorRng::seed_from(seed);
            let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let out = gar.aggregate(&inputs).unwrap();
            let mut reversed = inputs.clone();
            reversed.reverse();
            let out_rev = gar.aggregate(&reversed).unwrap();
            for (a, b) in out.iter().zip(out_rev.iter()) {
                prop_assert!((a - b).abs() < 1e-3, "{kind} is not permutation invariant");
            }
        }
        for kind in [GarKind::Mda, GarKind::Bulyan] {
            let n = kind.minimum_inputs(f).max(5);
            let mut rng = TensorRng::seed_from(seed);
            let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
            let gar = build_gar(&kind, n, f).unwrap();
            let mut reversed = inputs.clone();
            reversed.reverse();
            for out in [gar.aggregate(&inputs).unwrap(), gar.aggregate(&reversed).unwrap()] {
                for c in 0..d {
                    let col: Vec<f32> = inputs.iter().map(|t| t.data()[c]).collect();
                    let min = col.iter().cloned().fold(f32::INFINITY, f32::min);
                    let max = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    prop_assert!(out.data()[c] >= min - 1e-5 && out.data()[c] <= max + 1e-5);
                }
            }
        }
    }

    #[test]
    fn identical_inputs_are_a_fixed_point(
        seed in 0u64..10_000,
        d in 1usize..32,
        f in 0usize..2,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let v = rng.normal_tensor(d);
        for kind in GarKind::all() {
            let n = kind.minimum_inputs(f).max(3);
            let inputs = vec![v.clone(); n];
            let gar = build_gar(&kind, n, f).unwrap();
            let out = gar.aggregate(&inputs).unwrap();
            for (a, b) in out.iter().zip(v.iter()) {
                prop_assert!((a - b).abs() < 1e-4, "{kind} moved a unanimous input");
            }
        }
    }

    #[test]
    fn average_is_linear_in_its_inputs(
        seed in 0u64..10_000,
        k in 0.1f32..5.0,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor> = (0..4).map(|_| rng.normal_tensor(8usize)).collect();
        let scaled: Vec<Tensor> = inputs.iter().map(|t| t.scale(k)).collect();
        let gar = build_gar(&GarKind::Average, 4, 0).unwrap();
        let base = gar.aggregate(&inputs).unwrap();
        let out = gar.aggregate(&scaled).unwrap();
        for (a, b) in out.iter().zip(base.iter()) {
            prop_assert!((a - k * b).abs() < 1e-3);
        }
    }

    #[test]
    fn median_output_per_coordinate_is_an_input_value_for_odd_n(
        seed in 0u64..10_000,
        d in 1usize..12,
    ) {
        let n = 5usize;
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
        let gar = build_gar(&GarKind::Median, n, 2).unwrap();
        let out = gar.aggregate(&inputs).unwrap();
        for c in 0..d {
            let v = out.data()[c];
            prop_assert!(
                inputs.iter().any(|t| (t.data()[c] - v).abs() < 1e-6),
                "median coordinate {c} is not one of the inputs"
            );
        }
    }

    #[test]
    fn krum_always_returns_one_of_its_inputs(seed in 0u64..10_000, d in 1usize..16) {
        let n = 6usize;
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor> = (0..n).map(|_| rng.normal_tensor(d)).collect();
        let gar = build_gar(&GarKind::Krum, n, 1).unwrap();
        let out = gar.aggregate(&inputs).unwrap();
        prop_assert!(inputs.iter().any(|t| t == &out));
    }

    #[test]
    fn gar_kinds_round_trip_through_display_and_from_str(
        base in prop_oneof![
            Just(GarKind::Average),
            Just(GarKind::Median),
            Just(GarKind::Krum),
            Just(GarKind::MultiKrum),
            Just(GarKind::Mda),
            Just(GarKind::Bulyan),
        ],
        wrap in prop_oneof![
            Just(false),
            Just(true),
        ],
    ) {
        let kind = if wrap {
            GarKind::Speculative { fallback: Box::new(base.clone()) }
        } else {
            base
        };
        let text = kind.to_string();
        let parsed: GarKind = text.parse().unwrap();
        prop_assert_eq!(&parsed, &kind, "'{}' did not round-trip", text);
        // Parsing is case- and whitespace-tolerant; Display is canonical.
        let shouted: GarKind = text.to_uppercase().trim().parse().unwrap();
        prop_assert_eq!(&shouted, &kind);
        prop_assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn sort3_always_sorts(a in -1e6f32..1e6, b in -1e6f32..1e6, c in -1e6f32..1e6) {
        let sorted = garfield_aggregation::sort3_branchless([a, b, c]);
        prop_assert!(sorted[0] <= sorted[1] && sorted[1] <= sorted[2]);
        let mut expected = [a, b, c];
        expected.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert_eq!(sorted, expected);
    }
}

/// Values a Byzantine input may send: NaN of both signs (and a non-default
/// payload), ±0, ±inf and subnormals of both signs.
const HOSTILE: [f32; 9] = [
    f32::NAN,
    -f32::NAN,
    f32::from_bits(0x7f80_0001),
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(1),
    -f32::MIN_POSITIVE / 4.0,
];

/// `n` deterministic pseudo-random inputs of length `d`: about one value in
/// four from [`HOSTILE`], the rest from 64 finite values, so columns hold
/// ties.
fn hostile_inputs(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 16
    };
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    let r = next();
                    if r % 4 == 0 {
                        HOSTILE[(r / 4) as usize % HOSTILE.len()]
                    } else {
                        ((r % 64) as f32 - 32.0) / 8.0
                    }
                })
                .collect()
        })
        .collect()
}

/// A dimension past `offset`: below the 256-coordinate tile, across a few
/// tiles, or — with `large` — about `2²⁰ / rows` coordinates, enough work
/// that a parallel engine splits the coordinates into several chunks.
fn dimension(rows: usize, offset: usize, large: bool) -> usize {
    if large {
        (1 << 20) / rows + offset
    } else {
        offset
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bulyan's phase 2 on one column, the plain way: sort the keys, then grow
/// the `beta`-window around the lower median towards the closer neighbour.
fn trimmed_column_reference(column: &[f32], beta: usize) -> f32 {
    let mut keys: Vec<u32> = column.iter().map(|&v| total_order_key_f32(v)).collect();
    keys.sort_unstable();
    let sorted: Vec<f32> = keys.into_iter().map(total_order_unkey_f32).collect();
    let mid = (sorted.len() - 1) / 2;
    let m = sorted[mid];
    let (mut lo, mut hi, mut sum) = (mid, mid, m);
    for _ in 1..beta {
        let left = lo.checked_sub(1).map(|i| (sorted[i] - m).abs().to_bits());
        let right = sorted.get(hi + 1).map(|v| (v - m).abs().to_bits());
        if left.unwrap_or(u32::MAX) <= right.unwrap_or(u32::MAX) {
            lo -= 1;
            sum += sorted[lo];
        } else {
            hi += 1;
            sum += sorted[hi];
        }
    }
    sum / beta as f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn median_is_the_total_order_median_of_every_column_on_every_engine(
        n in 1usize..=51,
        offset in 1usize..=700,
        large in prop_oneof![Just(false), Just(false), Just(true)],
        seed in 0u64..100_000,
        threads in 2usize..6,
    ) {
        let d = dimension(n, offset, large);
        let data = hostile_inputs(n, d, seed);
        let views: Vec<GradientView<'_>> = data.iter().map(|v| GradientView::new(v)).collect();
        let expected: Vec<f32> = (0..d)
            .map(|c| median_inplace(&mut data.iter().map(|v| v[c]).collect::<Vec<f32>>()))
            .collect();
        let median = Median::new(n, (n - 1) / 2).unwrap();
        for engine in [Engine::sequential(), Engine::with_threads(threads)] {
            let out = median.aggregate_views(&views, &engine).unwrap();
            prop_assert_eq!(
                bits(out.data()),
                bits(&expected),
                "n={} d={} on {} threads",
                n,
                d,
                engine.threads()
            );
        }
    }
}

proptest! {
    // Fewer cases: every case also pays Bulyan's O(n² d) selection, three
    // times, in an unoptimized test build.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bulyan_matches_a_sorted_column_reference_on_every_engine(
        n in 3usize..=51,
        f_pick in 0usize..13,
        offset in 1usize..=700,
        large in prop_oneof![Just(false), Just(false), Just(true)],
        seed in 0u64..100_000,
        threads in 2usize..6,
    ) {
        let f = f_pick % ((n - 3) / 4 + 1);
        let bulyan = Bulyan::new(n, f).unwrap();
        let d = dimension(n, offset, large);
        let data = hostile_inputs(n, d, seed);
        let views: Vec<GradientView<'_>> = data.iter().map(|v| GradientView::new(v)).collect();
        let selected = bulyan.select_indices_views(&views, &Engine::sequential()).unwrap();
        let expected: Vec<f32> = (0..d)
            .map(|c| {
                let column: Vec<f32> = selected.iter().map(|&i| data[i][c]).collect();
                trimmed_column_reference(&column, bulyan.trimmed_size())
            })
            .collect();
        for engine in [Engine::sequential(), Engine::with_threads(threads)] {
            let out = bulyan.aggregate_views(&views, &engine).unwrap();
            prop_assert_eq!(
                bits(out.data()),
                bits(&expected),
                "n={} f={} d={} on {} threads",
                n,
                f,
                d,
                engine.threads()
            );
        }
    }
}
