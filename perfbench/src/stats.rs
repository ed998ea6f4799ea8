//! Order statistics and the open-loop schedule math.

use pacer_prng::Rng;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between closest ranks (the R-7 / NumPy default). `NaN` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median, p95 and count of one latency-like sample set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub p95: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples),
            p95: percentile(samples, 0.95),
            n: samples.len(),
        }
    }
}

/// `n` arrival offsets in `[0, span)` seconds of a Poisson process
/// conditioned on exactly `n` arrivals: the sorted order statistics of
/// `n` uniform draws. Fixing the count keeps the offered load identical
/// across seeds while the arrival pattern still varies with the seed.
pub fn poisson_arrivals(n: usize, span: f64, rng: &mut Rng) -> Vec<f64> {
    let mut at: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// How late a send was against its due time, never negative: a client
/// that is free early waits for the due time, so only a late send
/// (both connections busy, or a slow wake-up) counts.
pub fn lateness(due: f64, sent: f64) -> f64 {
    (sent - due).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((percentile(&s, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_of_a_uniform_ladder() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!(sum.n, 200);
        assert!((sum.median - 100.5).abs() < 1e-9);
        assert!((sum.p95 - 190.05).abs() < 1e-9);
        // At least ten samples lie beyond p95 once n ≥ 200.
        assert!(s.iter().filter(|&&x| x > sum.p95).count() >= 10);
    }

    #[test]
    fn arrivals_are_sorted_in_span_and_seeded() {
        let a = poisson_arrivals(500, 10.0, &mut Rng::seed_from_u64(3));
        let b = poisson_arrivals(500, 10.0, &mut Rng::seed_from_u64(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // Conditioned on the count, the mean gap is span / n.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.02).abs() < 0.002, "mean gap {mean}");
    }

    #[test]
    fn lateness_clamps_early_sends() {
        assert_eq!(lateness(1.0, 1.5), 0.5);
        assert_eq!(lateness(2.0, 1.9), 0.0);
        assert_eq!(lateness(3.0, 3.0), 0.0);
    }
}
