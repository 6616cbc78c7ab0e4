//! Median / quartile maths and the bound comparator.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the driver judging
//! this benchmark computes — `compare` must reach the same verdict.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// A single value is its own quartiles (Python raises there).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the "spread" the
/// driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory, bytes).
    Lower,
}

impl Better {
    /// Parses BENCHMARK.json's `better` field.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// Outcome of holding run set B against run set A under a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either set's spread is wider than the bound: the runs cannot
    /// resolve a change of that size, so nothing is claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed by `compare`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which median `b` is worse than median `a` (negative when it
/// is better), relative to `a`.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// The bound comparator: `unresolved` when either spread exceeds the
/// bound, else `regressed` when B is worse by more than the bound.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn comparator_gives_all_three_verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slower = [80.0, 80.5, 79.5, 80.2, 79.8];
        let noisy = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(verdict(&a, &same, Better::Higher, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(&a, &slower, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &noisy, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Direction matters: lower throughput-like numbers are an
        // improvement for a lower-is-better metric.
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(verdict(&slower, &a, Better::Lower, 0.1), Verdict::Regressed);
    }

    #[test]
    fn worsening_is_signed_and_relative_to_a() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
