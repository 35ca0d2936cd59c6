//! Small-signal noise analysis.
//!
//! For each frequency the adjoint system `Aᵀ·y = e_out` is solved once;
//! the transfer from a noise current injected between nodes `(a, b)` to the
//! output voltage is then `y_b − y_a`, so every device contribution costs
//! O(1) after a single factorization. Output noise PSD is the sum of
//! `|H|²·S_i` over all noise sources (resistor thermal, MOSFET channel
//! thermal + flicker), and the integrated RMS noise is a trapezoidal
//! integral of the PSD over the analysis band.
//!
//! The adjoint shares the AC sweep's machinery end to end: the matrix `A`
//! is the same `G + jωC` the AC analysis assembles (source excitation only
//! touches the right-hand side), so noise reuses the workspace's recorded
//! pattern and slot map, factors the *forward* system once per point
//! (pivoting at the first frequency, scan-free refactorization after), and
//! solves the transpose on those same factors — no transposed matrix is
//! ever built.

use linalg::C64;

use crate::analysis::ac::SmallSignalAssembler;
use crate::analysis::dc::OpPoint;
use crate::error::SpiceError;
use crate::mos::{mos_noise_psd, BOLTZMANN};
use crate::netlist::{Circuit, Device, NodeId};
use crate::options::SimOptions;
use crate::workspace::{lease_workspace, NewtonWorkspace};

/// Result of a noise analysis.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    freqs: Vec<f64>,
    /// Output noise voltage PSD \[V²/Hz\] per frequency.
    psd: Vec<f64>,
    /// Integrated output noise \[V rms\] over the analysis band.
    total_rms: f64,
}

impl NoiseResult {
    /// The frequency grid \[Hz\].
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Output-referred noise voltage PSD \[V²/Hz\] per frequency point.
    pub fn psd(&self) -> &[f64] {
        &self.psd
    }

    /// Integrated output noise over the band \[V rms\].
    pub fn total_rms(&self) -> f64 {
        self.total_rms
    }
}

/// Runs a noise analysis: output noise at `out_p − out_n` over `freqs`.
///
/// Uses the operating point `op` for device small-signal parameters.
/// Independent sources are quiesced (V → short, I → open).
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] if the small-signal system is
/// singular, or [`SpiceError::BadAnalysis`] for an empty grid.
pub fn noise(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &OpPoint,
    out_p: NodeId,
    out_n: NodeId,
    freqs: &[f64],
) -> Result<NoiseResult, SpiceError> {
    let mut ws = lease_workspace(circuit);
    noise_with_workspace(circuit, opts, op, out_p, out_n, freqs, &mut ws)
}

/// [`noise`] with an explicit workspace: the adjoint sweep reuses the same
/// recorded complex pattern, slot map, and factor storage as
/// [`crate::analysis::ac::ac_with_workspace`] (the two analyses assemble
/// the same matrix), so a testbench running both on one topology pays the
/// symbolic analysis once.
///
/// # Errors
///
/// Same failure modes as [`noise`].
pub fn noise_with_workspace(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &OpPoint,
    out_p: NodeId,
    out_n: NodeId,
    freqs: &[f64],
    ws: &mut NewtonWorkspace,
) -> Result<NoiseResult, SpiceError> {
    if freqs.is_empty() {
        return Err(SpiceError::BadAnalysis {
            reason: "empty frequency grid".to_string(),
        });
    }
    let _span = telemetry::span(telemetry::SpanId::Noise);
    let n = circuit.num_unknowns();
    ws.ensure(circuit);
    ws.begin_session();
    let session = ws.session();
    let ac_ws = ws.ac_mut(circuit);
    let mut psd = Vec::with_capacity(freqs.len());
    let mut e_out = vec![C64::ZERO; n];
    if out_p != 0 {
        e_out[out_p - 1] = C64::ONE;
    }
    if out_n != 0 {
        e_out[out_n - 1] -= C64::ONE;
    }
    let mut y = Vec::new();

    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        let mut assembler = SmallSignalAssembler {
            circuit,
            op,
            opts,
            omega,
        };
        // Factor the forward system, then solve the adjoint Aᵀ y = e_out
        // on the same factors.
        if !ac_ws.factor_point(circuit, session, &mut assembler)
            || !ac_ws.solve_transpose(&e_out, &mut y)
        {
            return Err(SpiceError::SingularMatrix { analysis: "noise" });
        }
        let transfer_sq = |a: NodeId, b: NodeId| -> f64 {
            let ya = if a == 0 { C64::ZERO } else { y[a - 1] };
            let yb = if b == 0 { C64::ZERO } else { y[b - 1] };
            (yb - ya).abs_sq()
        };

        let mut s_out = 0.0;
        for dev in circuit.devices() {
            match dev {
                Device::Resistor { a, b, g, .. } => {
                    // Thermal current noise 4kT·g across the resistor.
                    let s_i = 4.0 * BOLTZMANN * opts.temp * g;
                    s_out += transfer_sq(*a, *b) * s_i;
                }
                Device::Mosfet {
                    name,
                    d,
                    s,
                    model,
                    l,
                    ..
                } => {
                    let mop = op
                        .mos_op(name)
                        .expect("operating point must cover every MOSFET");
                    let s_i = mos_noise_psd(model, *l, mop.gm, mop.id, f, opts.temp);
                    s_out += transfer_sq(*d, *s) * s_i;
                }
                _ => {}
            }
        }
        psd.push(s_out);
    }

    // Trapezoidal integration of the PSD over the band.
    let mut total = 0.0;
    for i in 1..freqs.len() {
        total += 0.5 * (psd[i] + psd[i - 1]) * (freqs[i] - freqs[i - 1]);
    }
    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        psd,
        total_rms: total.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::log_freqs;
    use crate::netlist::GND;
    use crate::waveform::Waveform;

    #[test]
    fn resistor_thermal_noise_psd() {
        // A single grounded resistor driven by a shorted source: output PSD
        // at the node equals 4kTR (current noise 4kT/R through impedance R).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, GND, 10e3).unwrap();
        // A 0 V source elsewhere keeps the OP solvable but must not short R1.
        let b = c.node("b");
        c.add_vsource("V1", b, GND, Waveform::Dc(0.0)).unwrap();
        c.add_resistor("R2", b, GND, 1e3).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let nr = noise(&c, &opts, &op, a, GND, &[1e3]).unwrap();
        let expect = 4.0 * BOLTZMANN * opts.temp * 10e3;
        let rel = (nr.psd()[0] - expect).abs() / expect;
        assert!(rel < 1e-3, "psd {} vs {}", nr.psd()[0], expect);
    }

    #[test]
    fn rc_filtered_noise_integrates_to_kt_over_c() {
        // Classic result: total noise of an RC filter is kT/C, independent
        // of R. Integrate far past the pole to capture ~all of it.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, GND, Waveform::Dc(0.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        let cap = 1e-12;
        c.add_capacitor("C1", b, GND, cap).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        // Pole at 1/(2πRC) ≈ 159 MHz; integrate 1 kHz .. 100 GHz.
        let freqs = log_freqs(1e3, 1e11, 40);
        let nr = noise(&c, &opts, &op, b, GND, &freqs).unwrap();
        let expect = (BOLTZMANN * opts.temp / cap).sqrt();
        let rel = (nr.total_rms() - expect).abs() / expect;
        assert!(rel < 0.05, "kT/C: got {} expect {}", nr.total_rms(), expect);
    }

    #[test]
    fn divider_splits_noise_transfer() {
        // Two equal resistors from a driven node: the grounded one sees half
        // its open-circuit transfer.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, GND, Waveform::Dc(0.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, GND, 1e3).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let nr = noise(&c, &opts, &op, b, GND, &[1e3]).unwrap();
        // Both resistors contribute 4kT/R·(R/2)² = kTR each; total 2kTR.
        let expect = 2.0 * BOLTZMANN * opts.temp * 1e3;
        let rel = (nr.psd()[0] - expect).abs() / expect;
        assert!(rel < 1e-3, "psd {} vs {}", nr.psd()[0], expect);
    }

    #[test]
    fn flicker_noise_rises_at_low_frequency() {
        use crate::mos::{MosModel, MosPolarity};
        let nmos = MosModel {
            polarity: MosPolarity::Nmos,
            vth0: 0.45,
            kp: 300e-6,
            clm: 0.02e-6,
            gamma: 0.4,
            phi: 0.8,
            nsub: 1.4,
            cox: 8.5e-3,
            cov: 3e-10,
            cj: 1e-3,
            ldiff: 0.4e-6,
            kf: 1e-24,
            af: 1.0,
            noise_gamma: 2.0 / 3.0,
        };
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_vsource("VG", g, GND, Waveform::Dc(0.7)).unwrap();
        c.add_resistor("RD", vdd, d, 20e3).unwrap();
        c.add_mosfet("M1", d, g, GND, GND, &nmos, 10e-6, 1e-6, 1.0)
            .unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let nr = noise(&c, &opts, &op, d, GND, &[1.0, 1e6]).unwrap();
        assert!(
            nr.psd()[0] > 10.0 * nr.psd()[1],
            "flicker should dominate at 1 Hz"
        );
    }

    #[test]
    fn empty_grid_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        assert!(noise(&c, &opts, &op, a, GND, &[]).is_err());
    }
}
