//! Sample-based trapezoid integral over a recorded, possibly non-uniform
//! time grid.

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
}
