//! Sample-based trapezoid integrals.
//!
//! Energy metering in the circuit simulator integrates `p(t) = v(t) i(t)`
//! over irregular transient time points, so both routines here accept
//! non-uniform grids: [`trapezoid_samples`] over a recorded waveform and
//! [`RunningIntegral`] as the samples stream in.

use crate::{Error, Result};

/// Trapezoid integral of samples `(ts, ys)` over a possibly non-uniform grid.
///
/// # Errors
///
/// [`Error::InvalidArgument`] on length mismatch or fewer than 2 samples.
pub fn trapezoid_samples(ts: &[f64], ys: &[f64]) -> Result<f64> {
    if ts.len() != ys.len() {
        return Err(Error::InvalidArgument("trapezoid_samples: length mismatch"));
    }
    if ts.len() < 2 {
        return Err(Error::InvalidArgument(
            "trapezoid_samples: need >= 2 samples",
        ));
    }
    let mut s = 0.0;
    for i in 1..ts.len() {
        s += 0.5 * (ys[i] + ys[i - 1]) * (ts[i] - ts[i - 1]);
    }
    Ok(s)
}

/// An incremental trapezoid accumulator for streaming energy metering.
///
/// Feed `(t, y)` pairs as they are produced by the transient solver; the
/// accumulated integral is available at any time without storing history.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningIntegral {
    last: Option<(f64, f64)>,
    total: f64,
}

impl RunningIntegral {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the sample `(t, y)`; time must not decrease.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if `t` is smaller than the previous sample.
    pub fn push(&mut self, t: f64, y: f64) -> Result<()> {
        if let Some((t0, y0)) = self.last {
            if t < t0 {
                return Err(Error::InvalidArgument(
                    "RunningIntegral: time went backwards",
                ));
            }
            self.total += 0.5 * (y + y0) * (t - t0);
        }
        self.last = Some((t, y));
        Ok(())
    }

    /// Integral accumulated so far.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Resets the accumulator to empty.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_args_rejected() {
        assert!(trapezoid_samples(&[0.0], &[1.0]).is_err());
        assert!(trapezoid_samples(&[0.0, 1.0], &[1.0]).is_err());
    }

    #[test]
    fn samples_nonuniform_grid() {
        // f(t) = t on t in {0, 0.1, 0.5, 2.0}; exact integral = 2.0.
        let ts = [0.0, 0.1, 0.5, 2.0];
        let ys = [0.0, 0.1, 0.5, 2.0];
        let v = trapezoid_samples(&ts, &ys).unwrap();
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_integral_streams() {
        let mut acc = RunningIntegral::new();
        for i in 0..=100 {
            let t = i as f64 * 0.01;
            acc.push(t, 2.0 * t).unwrap();
        }
        assert!((acc.total() - 1.0).abs() < 1e-12);
        acc.reset();
        assert_eq!(acc.total(), 0.0);
    }

    #[test]
    fn running_integral_rejects_time_reversal() {
        let mut acc = RunningIntegral::new();
        acc.push(1.0, 1.0).unwrap();
        assert!(acc.push(0.5, 1.0).is_err());
    }

    #[test]
    fn running_integral_allows_repeated_time() {
        // Zero-width step (same t) contributes nothing — useful for
        // breakpoint handling in the transient solver.
        let mut acc = RunningIntegral::new();
        acc.push(0.0, 1.0).unwrap();
        acc.push(0.0, 5.0).unwrap();
        acc.push(1.0, 5.0).unwrap();
        assert!((acc.total() - 5.0).abs() < 1e-12);
    }
}
