//! Order statistics over repeated measurements, and the time-boxed
//! repetition loop every phase runs in.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100]; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs `step` at least `min_reps` times and keeps repeating until
/// `budget` has elapsed since the first call.  Returns the repetitions
/// run.
pub fn repeat_for(budget: Duration, min_reps: usize, mut step: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < budget {
        step(reps);
        reps += 1;
    }
    reps
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn repeat_for_honours_minimum() {
        let mut n = 0;
        assert_eq!(repeat_for(Duration::ZERO, 3, |_| n += 1), 3);
        assert_eq!(n, 3);
    }
}
