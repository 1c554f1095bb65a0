//! `f_overlap`'s negligible-overlap shortcut returns the larger operand
//! without calling `powf` when `(lo/hi)^k` cannot change `1 + (lo/hi)^k`.
//! These tests hold it to the plain formula bit for bit, with ratios
//! packed densely around the threshold `2^(−54/k)` where a looser bound
//! would first go wrong.

use proptest::prelude::*;
use rubick_model::perf::f_overlap;

/// The p-norm overlap formula with no shortcut: the reference
/// `f_overlap` must match bit for bit.
fn formula(k: f64, x: f64, y: f64) -> f64 {
    if x <= 0.0 {
        return y.max(0.0);
    }
    if y <= 0.0 {
        return x;
    }
    let k = k.clamp(1.0, 64.0);
    let (hi, lo) = if x >= y { (x, y) } else { (y, x) };
    hi * (1.0 + (lo / hi).powf(k)).powf(1.0 / k)
}

fn assert_same(k: f64, x: f64, y: f64) {
    assert_eq!(
        f_overlap(k, x, y).to_bits(),
        formula(k, x, y).to_bits(),
        "f_overlap({k:e}, {x:e}, {y:e})"
    );
}

/// Operand pairs whose ratio is `2^(t/k)` with `t` stepped finely across
/// `[-60, -48]`: `(lo/hi)^k` walks from far below to above `2^-54`.
fn threshold_pairs(k: f64, hi: f64) -> impl Iterator<Item = (f64, f64)> {
    (0..=1200).map(move |i| {
        let t = -60.0 + i as f64 * 0.01;
        (hi, hi * (t / k).exp2())
    })
}

#[test]
fn matches_the_formula_around_the_threshold() {
    let mut negligible = 0;
    let mut visible = 0;
    for k in [
        1.0, 1.5, 2.0, 3.0, 4.7, 8.0, 13.0, 16.0, 29.679, 32.0, 48.0, 64.0,
    ] {
        for hi in [1e-3, 0.37, 1.0, 2.5, 7e4] {
            for (x, y) in threshold_pairs(k, hi) {
                assert_same(k, x, y);
                assert_same(k, y, x);
                // Count negligible and visible overlaps so the sweep is
                // known to cover both sides of the threshold.
                if formula(k, x, y) == x {
                    negligible += 1;
                } else {
                    visible += 1;
                }
            }
        }
    }
    assert!(
        negligible > 1000 && visible > 1000,
        "{negligible} / {visible}"
    );
}

#[test]
fn matches_the_formula_on_edge_operands() {
    let tiny = f64::from_bits(1); // 2^-1074, the smallest subnormal
    let cases = [
        // A subnormal `lo`, and ratios that are subnormal or underflow to 0.
        (1.0, 1.0, tiny),
        (64.0, 1.0, tiny),
        (1.0, 1.0, 1e-310),
        (1.0, 0.5, f64::MIN_POSITIVE),
        (1.0, 1e300, 1e-300),
        (64.0, 1e300, tiny),
        (1.0, tiny, tiny),
        // An infinite operand.
        (1.0, f64::INFINITY, 1.0),
        (32.0, 2.0, f64::INFINITY),
        (1.0, f64::INFINITY, f64::INFINITY),
        (64.0, f64::MAX, f64::MAX),
        // Equal operands: the ratio is 1, never negligible.
        (1.0, 3.0, 3.0),
        (64.0, 3.0, 3.0),
        (64.0, tiny, tiny),
        // NaN in every position.
        (f64::NAN, 1.0, 1e-30),
        (f64::NAN, 1.0, 0.5),
        (2.0, f64::NAN, 1.0),
        (2.0, 1.0, f64::NAN),
        (2.0, f64::NAN, 1e-300),
        (2.0, 1e-300, f64::NAN),
        // `k` outside `[1, 64]` is clamped first.
        (0.25, 1.0, 1e-20),
        (1e9, 1.0, 0.5),
        (f64::INFINITY, 1.0, 0.9),
        (f64::NEG_INFINITY, 1.0, 1e-17),
        // A non-positive operand short-circuits before the ratio.
        (4.0, 0.0, 1.0),
        (4.0, 1.0, -0.0),
        (4.0, -1.0, -2.0),
    ];
    for (k, x, y) in cases {
        assert_same(k, x, y);
        assert_same(k, y, x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Ratios packed around `2^(−54/k)`.
    #[test]
    fn matches_the_formula_near_the_threshold(
        k in 1.0f64..64.0,
        t in -62.0f64..-46.0,
        hi in 1e-6f64..1e6,
    ) {
        let lo = hi * (t / k).exp2();
        prop_assert_eq!(f_overlap(k, hi, lo).to_bits(), formula(k, hi, lo).to_bits());
        prop_assert_eq!(f_overlap(k, lo, hi).to_bits(), formula(k, lo, hi).to_bits());
    }

    /// Ratios anywhere from `2^-1074` to `1`.
    #[test]
    fn matches_the_formula_over_every_ratio(
        k in 1.0f64..64.0,
        log2_ratio in -1074.0f64..0.0,
        hi in 1e-3f64..1e3,
    ) {
        let lo = (hi * log2_ratio.exp2()).max(f64::from_bits(1));
        prop_assert_eq!(f_overlap(k, hi, lo).to_bits(), formula(k, hi, lo).to_bits());
        prop_assert_eq!(f_overlap(k, lo, hi).to_bits(), formula(k, lo, hi).to_bits());
    }
}
