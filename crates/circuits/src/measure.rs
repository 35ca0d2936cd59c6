//! Measurement extraction from analysis results.
//!
//! These helpers turn raw sweeps and waveforms into the figures the paper's
//! constraint lists are written in: gains in dB, unity-gain frequency,
//! phase/gain margins, crossing and settling times — and the two helpers
//! that turn a figure and its limit into a normalized constraint.

/// Converts a magnitude ratio to decibels (`-inf` guarded to -400 dB).
pub fn db(x: f64) -> f64 {
    if x <= 0.0 {
        -400.0
    } else {
        20.0 * x.log10()
    }
}

/// Converts decibels to a magnitude ratio.
pub fn from_db(d: f64) -> f64 {
    10f64.powf(d / 20.0)
}

/// Log-log interpolated frequency at which `mags` first crosses `level`
/// downward. Returns `None` if the response never crosses.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn crossing_frequency(freqs: &[f64], mags: &[f64], level: f64) -> Option<f64> {
    assert_eq!(freqs.len(), mags.len(), "grid length mismatch");
    for i in 1..freqs.len() {
        let (m0, m1) = (mags[i - 1], mags[i]);
        if m0 >= level && m1 < level {
            // Interpolate in log-frequency / log-magnitude space.
            let (l0, l1) = (m0.max(1e-30).ln(), m1.max(1e-30).ln());
            let t = if (l1 - l0).abs() < 1e-30 {
                0.0
            } else {
                (level.ln() - l0) / (l1 - l0)
            };
            let (f0, f1) = (freqs[i - 1].ln(), freqs[i].ln());
            return Some((f0 + t * (f1 - f0)).exp());
        }
    }
    None
}

/// Unity-gain frequency of a magnitude response.
pub fn unity_gain_frequency(freqs: &[f64], mags: &[f64]) -> Option<f64> {
    crossing_frequency(freqs, mags, 1.0)
}

/// Value of a sampled response at frequency `f` (log-x linear interpolation).
///
/// # Panics
///
/// Panics on an empty or mismatched grid.
pub fn sample_response(freqs: &[f64], vals: &[f64], f: f64) -> f64 {
    assert_eq!(freqs.len(), vals.len(), "grid length mismatch");
    assert!(!freqs.is_empty(), "empty grid");
    if f <= freqs[0] {
        return vals[0];
    }
    if f >= freqs[freqs.len() - 1] {
        return vals[vals.len() - 1];
    }
    for i in 1..freqs.len() {
        if freqs[i] >= f {
            let t = (f.ln() - freqs[i - 1].ln()) / (freqs[i].ln() - freqs[i - 1].ln());
            return vals[i - 1] + t * (vals[i] - vals[i - 1]);
        }
    }
    vals[vals.len() - 1]
}

/// Phase margin in degrees: `180° + phase(UGF)` with `phases` in unwrapped
/// radians. `None` when the gain never crosses unity.
pub fn phase_margin(freqs: &[f64], mags: &[f64], phases: &[f64]) -> Option<f64> {
    let ugf = unity_gain_frequency(freqs, mags)?;
    let ph = sample_response(freqs, phases, ugf);
    Some(180.0 + ph.to_degrees())
}

/// Gain margin in dB: `−gain(f180)` where `f180` is the −180° phase
/// crossing. `None` if the phase never reaches −180°.
pub fn gain_margin_db(freqs: &[f64], mags: &[f64], phases: &[f64]) -> Option<f64> {
    let target = -std::f64::consts::PI;
    for i in 1..freqs.len() {
        if phases[i - 1] > target && phases[i] <= target {
            let t = (target - phases[i - 1]) / (phases[i] - phases[i - 1]);
            let lf = freqs[i - 1].ln() + t * (freqs[i].ln() - freqs[i - 1].ln());
            let m = sample_response(freqs, mags, lf.exp());
            return Some(-db(m));
        }
    }
    None
}

/// First time a waveform crosses `level` in the given direction, linearly
/// interpolated. `None` if it never does.
pub fn crossing_time(wave: &[(f64, f64)], level: f64, rising: bool) -> Option<f64> {
    for w in wave.windows(2) {
        let ((t0, v0), (t1, v1)) = (w[0], w[1]);
        let crossed = if rising {
            v0 < level && v1 >= level
        } else {
            v0 > level && v1 <= level
        };
        if crossed {
            let t = if (v1 - v0).abs() < 1e-300 {
                0.0
            } else {
                (level - v0) / (v1 - v0)
            };
            return Some(t0 + t * (t1 - t0));
        }
    }
    None
}

/// Settling time after `t_start`: the last instant the waveform is outside
/// `final ± tol`, minus `t_start`. Returns `None` if the waveform ends
/// outside the band (never settles), and `Some(0)` if it never leaves it.
pub fn settling_time(wave: &[(f64, f64)], t_start: f64, v_final: f64, tol: f64) -> Option<f64> {
    let mut last_outside: Option<f64> = None;
    let mut any = false;
    for &(t, v) in wave {
        if t < t_start {
            continue;
        }
        any = true;
        if (v - v_final).abs() > tol {
            last_outside = Some(t);
        }
    }
    if !any {
        return None;
    }
    match last_outside {
        None => Some(0.0),
        Some(t) => {
            // If the last point is still outside, it never settled.
            let t_end = wave.last().map(|p| p.0).unwrap_or(t_start);
            if (t - t_end).abs() < 1e-18 {
                None
            } else {
                Some(t - t_start)
            }
        }
    }
}

/// Unwraps a sequence of phases (radians) so consecutive samples never jump
/// by more than π — required before interpolating phase margins.
pub fn unwrap_phases(raw: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut out = Vec::new();
    let mut offset = 0.0;
    let mut prev = 0.0;
    for (i, ph) in raw.into_iter().enumerate() {
        if i > 0 {
            let mut d = ph + offset - prev;
            while d > std::f64::consts::PI {
                offset -= 2.0 * std::f64::consts::PI;
                d = ph + offset - prev;
            }
            while d < -std::f64::consts::PI {
                offset += 2.0 * std::f64::consts::PI;
                d = ph + offset - prev;
            }
        }
        prev = ph + offset;
        out.push(prev);
    }
    out
}

/// Peak of a response: `(f_peak, magnitude)` at the maximum.
///
/// # Panics
///
/// Panics on an empty or mismatched grid.
pub fn peak(freqs: &[f64], mags: &[f64]) -> (f64, f64) {
    assert_eq!(freqs.len(), mags.len(), "grid length mismatch");
    assert!(!freqs.is_empty(), "empty grid");
    let mut best = 0;
    for i in 1..mags.len() {
        if mags[i] > mags[best] {
            best = i;
        }
    }
    (freqs[best], mags[best])
}

/// Constraint helper: "`v` must be at least `limit`" as the normalized
/// violation `f = (limit − v)/scale` (`f ≤ 0` is satisfied).
pub fn at_least(v: f64, limit: f64, scale: f64) -> f64 {
    (limit - v) / scale
}

/// Constraint helper: "`v` must be at most `limit`" as the normalized
/// violation `f = (v − limit)/scale` (`f ≤ 0` is satisfied).
pub fn at_most(v: f64, limit: f64, scale: f64) -> f64 {
    (v - limit) / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_helpers_signs() {
        assert!(at_least(10.0, 5.0, 1.0) < 0.0); // satisfied
        assert!(at_least(3.0, 5.0, 1.0) > 0.0); // violated
        assert!(at_most(3.0, 5.0, 1.0) < 0.0);
        assert!(at_most(7.0, 5.0, 1.0) > 0.0);
    }

    #[test]
    fn db_roundtrip() {
        assert!((db(10.0) - 20.0).abs() < 1e-12);
        assert!((from_db(40.0) - 100.0).abs() < 1e-9);
        assert_eq!(db(0.0), -400.0);
    }

    fn one_pole(f: f64, a0: f64, fp: f64) -> (f64, f64) {
        let w = f / fp;
        let mag = a0 / (1.0 + w * w).sqrt();
        let ph = -(w.atan());
        (mag, ph)
    }

    #[test]
    fn ugf_of_one_pole_system() {
        // A0 = 1000, fp = 1 kHz → UGF ≈ 1 MHz.
        let freqs: Vec<f64> = (0..140)
            .map(|i| 10f64.powf(1.0 + i as f64 * 0.05))
            .collect();
        let mags: Vec<f64> = freqs.iter().map(|&f| one_pole(f, 1000.0, 1e3).0).collect();
        let ugf = unity_gain_frequency(&freqs, &mags).unwrap();
        assert!((ugf / 1e6 - 1.0).abs() < 0.02, "ugf {ugf}");
    }

    #[test]
    fn phase_margin_of_one_pole_is_ninety() {
        let freqs: Vec<f64> = (0..160)
            .map(|i| 10f64.powf(1.0 + i as f64 * 0.05))
            .collect();
        let mags: Vec<f64> = freqs.iter().map(|&f| one_pole(f, 1000.0, 1e3).0).collect();
        let phases: Vec<f64> = freqs.iter().map(|&f| one_pole(f, 1000.0, 1e3).1).collect();
        let pm = phase_margin(&freqs, &mags, &phases).unwrap();
        assert!((pm - 90.0).abs() < 2.0, "pm {pm}");
    }

    #[test]
    fn gain_margin_of_three_pole_system() {
        // Three identical poles at 1 kHz: phase hits -180° at √3·fp where
        // each pole contributes 60°; |H| there = a0/8.
        let a0 = 100.0;
        let freqs: Vec<f64> = (0..200)
            .map(|i| 10f64.powf(1.0 + i as f64 * 0.03))
            .collect();
        let resp = |f: f64| {
            let w: f64 = f / 1e3;
            let mag = a0 / (1.0 + w * w).powf(1.5);
            let ph = -3.0 * w.atan();
            (mag, ph)
        };
        let mags: Vec<f64> = freqs.iter().map(|&f| resp(f).0).collect();
        let phases: Vec<f64> = freqs.iter().map(|&f| resp(f).1).collect();
        let gm = gain_margin_db(&freqs, &mags, &phases).unwrap();
        let expect = -db(a0 / 8.0);
        assert!((gm - expect).abs() < 0.5, "gm {gm} expect {expect}");
    }

    #[test]
    fn crossing_time_interpolates() {
        let wave = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)];
        assert!((crossing_time(&wave, 0.5, true).unwrap() - 0.5).abs() < 1e-12);
        assert!(crossing_time(&wave, 0.5, false).is_none());
        let fall = vec![(0.0, 1.0), (1.0, 0.0)];
        assert!((crossing_time(&fall, 0.25, false).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn settling_time_of_exponential() {
        // v(t) = 1 - e^-t, tol 0.01 → settles at t = ln(100) ≈ 4.605.
        let wave: Vec<(f64, f64)> = (0..1000)
            .map(|i| (i as f64 * 0.01, 1.0 - (-i as f64 * 0.01).exp()))
            .collect();
        let ts = settling_time(&wave, 0.0, 1.0, 0.01).unwrap();
        assert!((ts - 4.605).abs() < 0.02, "ts {ts}");
    }

    #[test]
    fn settling_never_and_immediate() {
        let ramp: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        assert!(settling_time(&ramp, 0.0, 100.0, 0.5).is_none());
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 1.0)).collect();
        assert_eq!(settling_time(&flat, 0.0, 1.0, 0.5), Some(0.0));
    }

    #[test]
    fn peak_detection() {
        let freqs = vec![1.0, 10.0, 100.0, 1000.0];
        let mags = vec![1.0, 3.0, 2.0, 0.5];
        assert_eq!(peak(&freqs, &mags), (10.0, 3.0));
    }

    #[test]
    fn sample_response_clamps_and_interpolates() {
        let freqs = vec![10.0, 100.0, 1000.0];
        let vals = vec![0.0, 1.0, 2.0];
        assert_eq!(sample_response(&freqs, &vals, 1.0), 0.0);
        assert_eq!(sample_response(&freqs, &vals, 1e6), 2.0);
        let mid = sample_response(&freqs, &vals, 31.6227766);
        assert!((mid - 0.5).abs() < 1e-6);
    }
}
