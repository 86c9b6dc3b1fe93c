//! Order statistics for the reported figures.
//!
//! Latency quantiles are Harrell–Davis estimates: a weighted mean of
//! every order statistic, with Beta-distribution weights centred on the
//! quantile's rank. A workload's operations come in a fixed mix of kinds
//! with different durations, so a plain nearest-rank quantile can sit on
//! the boundary between two kinds and jump between them from run to
//! run; the weighted estimate moves smoothly instead.

/// The median (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The Harrell–Davis estimate of the `p`-th percentile (`0 < p < 100`)
/// and the number of samples beyond its nominal rank `ceil(p n / 100)`;
/// `(0.0, 0)` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let sorted = sorted(values);
    let n = sorted.len();
    // The epsilon keeps a rank that is whole up to rounding from being
    // pushed to the next one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    let q = p / 100.0;
    let a = q * (n as f64 + 1.0);
    let b = (1.0 - q) * (n as f64 + 1.0);
    let mut previous = 0.0;
    let mut estimate = 0.0;
    for (i, value) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        estimate += (cdf - previous) * value;
        previous = cdf;
    }
    (estimate, n - rank)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms; ~1e-15 relative).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut sum = C[0];
    for (i, c) in C.iter().enumerate().skip(1) {
        sum += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Lentz's evaluation of the incomplete-beta continued fraction.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for numerator in [
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + numerator / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, factorial) in [(1.0, 1.0), (5.0, 24.0), (11.0, 3_628_800.0_f64)] {
            assert!((ln_gamma(n) - factorial.ln()).abs() < 1e-10);
        }
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 1) = x^2; I_x(1, 3) = 1 - (1-x)^3.
        for x in [0.1, 0.37, 0.5, 0.9] {
            assert!((beta_cdf(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((beta_cdf(x, 2.0, 1.0) - x * x).abs() < 1e-12);
            assert!((beta_cdf(x, 1.0, 3.0) - (1.0 - (1.0 - x).powi(3))).abs() < 1e-12);
        }
    }

    #[test]
    fn harrell_davis_tracks_the_rank_and_counts_the_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p50, beyond) = percentile(&values, 50.0);
        assert!((p50 - 50.5).abs() < 1e-6, "{p50}");
        assert_eq!(beyond, 50);
        let (p90, beyond) = percentile(&values, 90.0);
        assert!((p90 - 90.9).abs() < 0.5, "{p90}");
        assert_eq!(beyond, 10);
        assert_eq!(percentile(&[4.0], 90.0), (4.0, 0));
    }

    #[test]
    fn harrell_davis_is_steady_across_a_gap_between_two_kinds() {
        // Two kinds of operation, equally many, far apart: the median
        // lands between them and must not jump to either kind.
        let mut values = vec![1.0; 50];
        values.extend(vec![3.0; 50]);
        let (p50, _) = percentile(&values, 50.0);
        assert!((p50 - 2.0).abs() < 1e-9, "{p50}");
    }
}
