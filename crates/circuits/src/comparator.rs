//! The StrongARM latch comparator of paper Fig. 5 / Table III / Eq. 10.
//!
//! Topology (standard StrongARM):
//!
//! - NMOS input pair (`W1/L1`) on a clocked NMOS tail (`W4/L4`);
//! - cross-coupled NMOS (`W2/L2`) and PMOS (`W3/L3`) regeneration;
//! - four PMOS precharge switches (`W5/L5`) resetting the integration
//!   nodes and outputs to VDD while the clock is low;
//! - output buffer inverters (`W6/L6` with a 2.5× PMOS);
//! - `CL` load expressed in unit fingers (1 fF each), Table III's 13th
//!   variable.
//!
//! The sizing problem is Table III: 13 variables (`L1..L6`, `W1..W6`,
//! `CL fingers`) and Eq. 10's 10 constraints. Measurements come from a
//! one-clock-cycle transient (25 MHz clock, 10 mV differential input):
//! set/reset delays, regenerated differential voltage, residual reset
//! voltages at the integration/output nodes, cycle energy (→ power), area
//! from drawn geometry, and an analytic input-referred noise estimate
//! (documented substitution: transient-noise simulation is outside the
//! simulator substrate's scope; the estimator uses the standard
//! `√(2kTγ/C_X)/G_int` sampling-noise form on simulated operating data).

use opt::{AnalysisSpec, SizingProblem, SpecResult};
use spice::mos::BOLTZMANN;
use spice::{Circuit, SimOptions, SpiceError, Waveform, GND};

use crate::measure::{self, at_least, at_most};
use crate::tech::{tech_180nm, Technology};

/// Decoded Table III parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LatchParams {
    /// Channel lengths `L1..L6` \[m\].
    pub l: [f64; 6],
    /// Channel widths `W1..W6` \[m\].
    pub w: [f64; 6],
    /// Load capacitor fingers (integer, 1 fF per finger).
    pub cl_fingers: f64,
}

impl LatchParams {
    /// Decodes `[L1..L6, W1..W6, CL]`, rounding the finger count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 13`.
    pub fn decode(x: &[f64]) -> Self {
        assert_eq!(x.len(), 13, "latch design vector has 13 entries");
        let mut l = [0.0; 6];
        let mut w = [0.0; 6];
        l.copy_from_slice(&x[0..6]);
        w.copy_from_slice(&x[6..12]);
        LatchParams {
            l,
            w,
            cl_fingers: x[12].round().max(1.0),
        }
    }

    /// Load capacitance \[F\] (1 fF per finger).
    pub fn cl(&self) -> f64 {
        self.cl_fingers * 1e-15
    }

    /// Total drawn gate area of the comparator \[m²\], including the load
    /// capacitor at a MIM-like 2 fF/µm².
    pub fn area(&self) -> f64 {
        // Device multiplicities in the netlist: pair ×2, ccN ×2, ccP ×2,
        // tail ×1, precharge ×4, buffers ×2 N + ×2 P (2.5×W).
        let gates = 2.0 * self.w[0] * self.l[0]
            + 2.0 * self.w[1] * self.l[1]
            + 2.0 * self.w[2] * self.l[2]
            + self.w[3] * self.l[3]
            + 4.0 * self.w[4] * self.l[4]
            + 2.0 * (1.0 + 2.5) * self.w[5] * self.l[5];
        let cap_area = self.cl() / 2e-3; // 2 fF/µm² = 2e-3 F/m²
        gates + cap_area
    }
}

/// The StrongARM latch sizing problem (paper Table III / Eq. 10).
///
/// # Example
///
/// ```no_run
/// use circuits::StrongArmLatch;
/// use opt::SizingProblem;
///
/// let latch = StrongArmLatch::new();
/// let spec = latch.evaluate(&latch.nominal());
/// println!("power = {} µW", spec.objective * 1e6);
/// ```
#[derive(Debug, Clone)]
pub struct StrongArmLatch {
    tech: Technology,
    opts: SimOptions,
    /// Input common mode \[V\].
    vcm: f64,
    /// Differential input for the set-phase measurement \[V\].
    vin_diff: f64,
    /// Clock period \[s\] (clock rises at `period/4`, falls at
    /// `3·period/4`).
    period: f64,
    /// Prebuilt testbench topology (node maps and device registry derived
    /// once); per-candidate evaluation clones it and re-sizes in place.
    template: Circuit,
    /// Key node ids: `(outp, outn, xp, xn, di_p, di_n)`.
    nodes: (usize, usize, usize, usize, usize, usize),
}

impl Default for StrongArmLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl StrongArmLatch {
    /// Creates the problem on the generic 180nm-class technology.
    pub fn new() -> Self {
        let opts = SimOptions {
            max_nr_iters: 200,
            ..Default::default()
        };
        let mut latch = StrongArmLatch {
            tech: tech_180nm(),
            opts,
            vcm: 0.7,
            vin_diff: 10e-3,
            period: 40e-9,
            template: Circuit::new(),
            nodes: (0, 0, 0, 0, 0, 0),
        };
        let (ckt, outp, outn, xp, xn, di_p, di_n) =
            latch.build_topology().expect("latch template must build");
        latch.template = ckt;
        latch.nodes = (outp, outn, xp, xn, di_p, di_n);
        latch
    }

    /// A hand-tuned near-feasible design (the regression anchor).
    pub fn nominal(&self) -> Vec<f64> {
        let u = 1e-6;
        vec![
            // L1..L6
            0.25 * u,
            0.18 * u,
            0.18 * u,
            0.18 * u,
            0.18 * u,
            0.18 * u,
            // W1..W6
            18.0 * u,
            6.0 * u,
            3.0 * u,
            7.0 * u,
            8.0 * u,
            1.0 * u,
            // CL fingers
            10.0,
        ]
    }

    /// Builds the testbench topology once, with the nominal sizing applied
    /// (the sizing itself lives exclusively in [`StrongArmLatch::resize`]).
    /// Returns `(circuit, outp, outn, xp, xn, di_p, di_n)` where `di_*`
    /// are the latch-internal output nodes and `x*` the integration nodes.
    #[allow(clippy::type_complexity)]
    fn build_topology(
        &self,
    ) -> Result<(Circuit, usize, usize, usize, usize, usize, usize), SpiceError> {
        let u = 1e-6;
        let t = &self.tech;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, GND, Waveform::Dc(t.vdd))?;

        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        ckt.add_vsource(
            "VIP",
            inp,
            GND,
            Waveform::Dc(self.vcm + self.vin_diff / 2.0),
        )?;
        ckt.add_vsource(
            "VIN",
            inn,
            GND,
            Waveform::Dc(self.vcm - self.vin_diff / 2.0),
        )?;

        let clk = ckt.node("clk");
        let quarter = self.period / 4.0;
        ckt.add_vsource(
            "VCLK",
            clk,
            GND,
            Waveform::pulse(
                0.0,
                t.vdd,
                quarter,
                100e-12,
                100e-12,
                2.0 * quarter,
                f64::INFINITY,
            ),
        )?;

        let tail = ckt.node("tail");
        let xp = ckt.node("xp"); // integration node, input side P
        let xn = ckt.node("xn");
        let di_p = ckt.node("di_p"); // internal latch output (drives buffer)
        let di_n = ckt.node("di_n");

        // Clocked tail.
        ckt.add_mosfet("M_tail", tail, clk, GND, GND, &t.nmos, u, u, 1.0)?;
        // Input pair: inp integrates onto xn-side? Keep the conventional
        // wiring: the device driven by the larger input discharges its
        // drain faster, so its latch output falls; with the input pair
        // drains crossed to x nodes named after their own side:
        ckt.add_mosfet("M_inP", xp, inp, tail, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("M_inN", xn, inn, tail, GND, &t.nmos, u, u, 1.0)?;
        // Cross-coupled NMOS (sources on the integration nodes).
        ckt.add_mosfet("M_ccnP", di_p, di_n, xp, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("M_ccnN", di_n, di_p, xn, GND, &t.nmos, u, u, 1.0)?;
        // Cross-coupled PMOS.
        ckt.add_mosfet("M_ccpP", di_p, di_n, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_ccpN", di_n, di_p, vdd, vdd, &t.pmos, u, u, 1.0)?;
        // Precharge switches on both the latch outputs and the integration
        // nodes (gate = clk, on while clk is low).
        ckt.add_mosfet("M_preP", di_p, clk, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_preN", di_n, clk, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_preXP", xp, clk, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_preXN", xn, clk, vdd, vdd, &t.pmos, u, u, 1.0)?;

        // Output buffer inverters with the CL loads.
        let outp = ckt.node("outp");
        let outn = ckt.node("outn");
        ckt.add_mosfet("M_bnP", outp, di_n, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("M_bpP", outp, di_n, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_bnN", outn, di_p, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("M_bpN", outn, di_p, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_capacitor("CL_P", outp, GND, 1e-15)?;
        ckt.add_capacitor("CL_N", outn, GND, 1e-15)?;

        self.resize(&mut ckt, &LatchParams::decode(&self.nominal()))?;
        Ok((ckt, outp, outn, xp, xn, di_p, di_n))
    }

    /// Writes every design-dependent device value for the decoded
    /// parameters `p` — the single source of truth for the Table III
    /// variable→device mapping.
    fn resize(&self, ckt: &mut Circuit, p: &LatchParams) -> Result<(), SpiceError> {
        ckt.set_mosfet_geometry("M_tail", p.w[3], p.l[3], 1.0)?;
        for name in ["M_inP", "M_inN"] {
            ckt.set_mosfet_geometry(name, p.w[0], p.l[0], 1.0)?;
        }
        for name in ["M_ccnP", "M_ccnN"] {
            ckt.set_mosfet_geometry(name, p.w[1], p.l[1], 1.0)?;
        }
        for name in ["M_ccpP", "M_ccpN"] {
            ckt.set_mosfet_geometry(name, p.w[2], p.l[2], 1.0)?;
        }
        for name in ["M_preP", "M_preN", "M_preXP", "M_preXN"] {
            ckt.set_mosfet_geometry(name, p.w[4], p.l[4], 1.0)?;
        }
        for name in ["M_bnP", "M_bnN"] {
            ckt.set_mosfet_geometry(name, p.w[5], p.l[5], 1.0)?;
        }
        for name in ["M_bpP", "M_bpN"] {
            ckt.set_mosfet_geometry(name, 2.5 * p.w[5], p.l[5], 1.0)?;
        }
        ckt.set_capacitance("CL_P", p.cl())?;
        ckt.set_capacitance("CL_N", p.cl())?;
        Ok(())
    }

    /// Instantiates the candidate: clones the prebuilt template and
    /// re-sizes devices in place (no netlist rebuild; the topology
    /// fingerprint is unchanged so pooled solver state carries across
    /// candidates).
    #[allow(clippy::type_complexity)]
    fn build(
        &self,
        p: &LatchParams,
    ) -> Result<(Circuit, usize, usize, usize, usize, usize, usize), SpiceError> {
        let mut ckt = self.template.clone();
        self.resize(&mut ckt, p)?;
        let (outp, outn, xp, xn, di_p, di_n) = self.nodes;
        Ok((ckt, outp, outn, xp, xn, di_p, di_n))
    }

    /// Analytic input-referred noise estimate — the documented substitution
    /// for transient-noise simulation (outside the simulator substrate's
    /// scope). Standard sampling-noise form for the StrongARM integration
    /// phase:
    ///
    /// ```text
    /// σ_in ≈ sqrt(kT·γ / C_X) / (G_int·√2),   G_int = (gm/Id)·Vth
    /// ```
    ///
    /// where `C_X` is the integration-node capacitance (from the same
    /// geometry model the simulator uses), `gm/Id` is evaluated at the
    /// mid-integration bias (gate at VCM, source risen ~120 mV), and the √2
    /// credits noise accumulated after regeneration has taken over. The
    /// estimator's value lies in its *scalings* — σ falls with device/cap
    /// area and with integration gain — which is what the sizing loop
    /// exercises.
    fn input_noise(&self, p: &LatchParams) -> f64 {
        let t = &self.tech;
        // Integration-node capacitance: drain junctions + cross-coupled
        // NMOS source side + precharge drain, approximated from geometry.
        let cx = spice::mos::mos_caps(&t.nmos, p.w[0], p.l[0], 1.0).cdb
            + spice::mos::mos_caps(&t.nmos, p.w[1], p.l[1], 1.0).csb
            + spice::mos::mos_caps(&t.nmos, p.w[1], p.l[1], 1.0).cgs
            + spice::mos::mos_caps(&t.pmos, p.w[4], p.l[4], 1.0).cdb;
        let ein = spice::mos::eval_mos(
            &t.nmos,
            p.w[0],
            p.l[0],
            1.0,
            self.vcm - 0.12,
            t.vdd / 2.0,
            0.0,
        );
        let gm_over_id = (ein.gm / ein.id.max(1e-12)).clamp(1.0, 30.0);
        let gain = gm_over_id * t.nmos.vth0;
        (BOLTZMANN * self.opts.temp * t.nmos.noise_gamma / cx).sqrt()
            / (gain * std::f64::consts::SQRT_2)
    }
}

impl SizingProblem for StrongArmLatch {
    fn dim(&self) -> usize {
        13
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let u = 1e-6;
        let mut lb = Vec::with_capacity(13);
        let mut ub = Vec::with_capacity(13);
        // L1..L6: 0.18–10 µm.
        for _ in 0..6 {
            lb.push(0.18 * u);
            ub.push(10.0 * u);
        }
        // W1..W6: 0.22–50 µm.
        for _ in 0..6 {
            lb.push(0.22 * u);
            ub.push(50.0 * u);
        }
        // CL fingers: 10–300.
        lb.push(10.0);
        ub.push(300.0);
        (lb, ub)
    }

    fn num_constraints(&self) -> usize {
        10
    }

    fn name(&self) -> &str {
        "strongarm-latch"
    }

    fn variable_names(&self) -> Vec<String> {
        let mut names: Vec<String> = (1..=6).map(|i| format!("L{i}")).collect();
        names.extend((1..=6).map(|i| format!("W{i}")));
        names.push("CL".to_string());
        names
    }

    fn nominal(&self) -> Vec<f64> {
        self.nominal()
    }

    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        let m = self.num_constraints();
        // Single-corner problem: the fault-plane scope keys on the
        // candidate alone (corner salt 0).
        let _scope = spice::fault::candidate_scope(spice::fault::candidate_key(x, 0));
        let p = LatchParams::decode(x);
        let (ckt, outp, outn, xp, xn, di_p, di_n) = match self.build(&p) {
            Ok(v) => v,
            Err(e) => {
                return SpecResult::failed_with(m, crate::diag_from_spice(&e, "latch netlist"))
                    .into()
            }
        };
        let t = &self.tech;
        let quarter = self.period / 4.0;
        let t_rise = quarter; // clock edge up
        let t_fall = 3.0 * quarter; // clock edge down
                                    // One pooled workspace for the whole evaluation: the transient
                                    // reuses the recorded solver state of previous candidates.
        let mut ws = spice::lease_workspace(&ckt);
        let tr =
            match spice::transient_with_workspace(&ckt, &self.opts, self.period, 50e-12, &mut ws) {
                Ok(tr) => tr,
                Err(e) => {
                    return SpecResult::failed_with(
                        m,
                        crate::diag_from_spice(&e, "latch transient"),
                    )
                    .into()
                }
            };

        // Both buffer outputs start low (the latch precharges its internal
        // nodes high); after the clock edge exactly one of them rises.
        // Set delay: clock edge to the *differential* output magnitude
        // reaching 90% of the supply.
        let w_outp = tr.waveform(outp);
        let w_outn = tr.waveform(outn);
        let d_out = |w: &[(f64, f64)], t0: f64| -> Vec<(f64, f64)> {
            w.iter().copied().filter(|&(t, _)| t >= t0).collect()
        };
        let set_diff: Vec<(f64, f64)> = tr
            .times()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t >= t_rise)
            .map(|(i, &t)| (t, (tr.voltage(i, outp) - tr.voltage(i, outn)).abs()))
            .collect();
        // Differential set voltage at the end of the evaluation phase.
        let v_set_diff =
            (tr.sample(outp, t_fall - 0.2e-9) - tr.sample(outn, t_fall - 0.2e-9)).abs();
        let set_delay = measure::crossing_time(&set_diff, 0.9 * t.vdd, true).map(|tc| tc - t_rise);

        // Reset delay: falling clock edge to both outputs back within 10%
        // of their precharge levels. The buffers invert: when the latch
        // precharges both internal nodes to VDD, both buffer outputs go
        // low.
        let reset_p = d_out(&w_outp, t_fall);
        let reset_n = d_out(&w_outn, t_fall);
        let reset_delay = {
            let a = measure::crossing_time(&reset_p, 0.1 * t.vdd, false)
                .or_else(|| measure::crossing_time(&reset_p, 0.9 * t.vdd, true));
            let b = measure::crossing_time(&reset_n, 0.1 * t.vdd, false)
                .or_else(|| measure::crossing_time(&reset_n, 0.9 * t.vdd, true));
            // Outputs may already be at the reset level (the falling one).
            let end_ok = tr.sample(outp, self.period - 0.1e-9) < 0.1 * t.vdd
                && tr.sample(outn, self.period - 0.1e-9) < 0.1 * t.vdd;
            match (a, b, end_ok) {
                (Some(ta), Some(tb), _) => Some(ta.max(tb) - t_fall),
                (Some(ta), None, true) => Some(ta - t_fall),
                (None, Some(tb), true) => Some(tb - t_fall),
                (None, None, true) => Some(0.0),
                _ => None,
            }
        };

        // Residual voltages at the very end of the reset phase (just before
        // the next cycle would begin): the precharged latch must have
        // equalized its internal and output nodes.
        let t_end = self.period - 0.1e-9;
        let v_reset_diff = (tr.sample(di_p, t_end) - tr.sample(di_n, t_end)).abs();
        let vx_p_resid = (tr.sample(xp, t_end) - t.vdd).abs();
        let vx_n_resid = (tr.sample(xn, t_end) - t.vdd).abs();
        let vout_p_resid = (tr.sample(outp, t_end) - tr.sample(outp, 0.0)).abs();
        let vout_n_resid = (tr.sample(outn, t_end) - tr.sample(outn, 0.0)).abs();

        // Power: supply energy over the full cycle divided by the period.
        let energy = match tr.delivered_charge(&ckt, "VDD", 0.0, self.period) {
            Ok(q) => q * t.vdd,
            Err(e) => {
                return SpecResult::failed_with(m, crate::diag_from_spice(&e, "latch energy"))
                    .into()
            }
        };
        let power = energy / self.period;

        let area = p.area();
        let vnoise_in = self.input_noise(&p);

        // --- Eq. 10 constraints. Where a measurement does not exist
        // because the latch never functioned, the fallback violation is
        // *graded* by how close the circuit came (a flat penalty would
        // make the landscape a plateau no optimizer can descend).
        let mut constraints = Vec::with_capacity(m);
        let decide_progress = (v_set_diff / (0.9 * t.vdd)).min(1.0);
        // 1. Set delay < 10 ns.
        constraints.push(match set_delay {
            Some(d) => at_most(d, 10e-9, 10e-9),
            None => 1.0 + 2.0 * (1.0 - decide_progress),
        });
        // 2. Reset delay < 6.5 ns.
        constraints.push(match reset_delay {
            Some(d) => at_most(d, 6.5e-9, 6.5e-9),
            None => {
                let resid = vout_p_resid.max(vout_n_resid) / t.vdd;
                1.0 + resid.min(1.0)
            }
        });
        // 3. Area < 26 µm² (scale matched to the ~40–4000 µm² range random
        // designs produce, so the constraint stays informative).
        constraints.push(at_most(area, 26e-12, 100e-12));
        // 4. Input-referred noise < 50 µV rms.
        constraints.push(at_most(vnoise_in, 50e-6, 50e-6));
        // 5. Differential reset voltage < 1 µV.
        constraints.push(at_most(v_reset_diff, 1e-6, 1e-4));
        // 6. Differential set voltage > 1.195 V.
        constraints.push(at_least(v_set_diff, 1.195, 0.5));
        // 7/8. Integration-node reset residuals < 60 µV.
        constraints.push(at_most(vx_p_resid, 60e-6, 6e-3));
        constraints.push(at_most(vx_n_resid, 60e-6, 6e-3));
        // 9/10. Output-node reset residuals < 0.35 µV.
        constraints.push(at_most(vout_p_resid, 0.35e-6, 3.5e-5));
        constraints.push(at_most(vout_n_resid, 0.35e-6, 3.5e-5));

        SpecResult {
            failure: None,
            objective: power,
            constraints,
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_match_table_three() {
        let latch = StrongArmLatch::new();
        let (lb, ub) = latch.bounds();
        assert_eq!(lb.len(), 13);
        assert!((lb[0] - 0.18e-6).abs() < 1e-12);
        assert!((ub[0] - 10e-6).abs() < 1e-12);
        assert!((lb[6] - 0.22e-6).abs() < 1e-12);
        assert!((ub[6] - 50e-6).abs() < 1e-12);
        assert_eq!(lb[12], 10.0);
        assert_eq!(ub[12], 300.0);
        assert_eq!(latch.num_constraints(), 10);
    }

    #[test]
    fn area_model_scales() {
        let latch = StrongArmLatch::new();
        let mut x = latch.nominal();
        let a0 = LatchParams::decode(&x).area();
        x[6] *= 2.0; // W1 doubles
        let a1 = LatchParams::decode(&x).area();
        assert!(a1 > a0);
        // 300 fingers = 300 fF / 2 fF/µm² = 150 µm² of cap alone, so the
        // area constraint genuinely prices the load cap.
        x[12] = 300.0;
        let a2 = LatchParams::decode(&x).area();
        assert!(a2 > 100e-12);
    }

    #[test]
    fn nominal_latch_decides_correctly() {
        let latch = StrongArmLatch::new();
        let spec = latch.evaluate(&latch.nominal());
        assert_eq!(spec.constraints.len(), 10);
        assert!(!spec.is_failure(), "nominal latch must simulate");
        // Set/reset delays and the regenerated differential voltage are the
        // core of the decision behaviour: they must be satisfied (the
        // residual-voltage constraints are the genuinely hard ones).
        assert!(
            spec.constraints[0] <= 0.0,
            "set delay violated: {}",
            spec.constraints[0]
        );
        assert!(
            spec.constraints[1] <= 0.0,
            "reset delay violated: {}",
            spec.constraints[1]
        );
        assert!(
            spec.constraints[5] <= 0.0,
            "set voltage violated: {}",
            spec.constraints[5]
        );
        // Power in the µW range at 25 MHz.
        assert!(
            spec.objective > 0.1e-6 && spec.objective < 500e-6,
            "power {}",
            spec.objective
        );
    }

    #[test]
    fn noise_estimate_scales_with_cap() {
        let latch = StrongArmLatch::new();
        let p_small = LatchParams::decode(&latch.nominal());
        let mut big = latch.nominal();
        big[6] *= 4.0; // wider input -> more Cx and more gm
        big[7] *= 4.0;
        let p_big = LatchParams::decode(&big);
        assert!(latch.input_noise(&p_big) < latch.input_noise(&p_small));
    }

    #[test]
    fn minimum_size_design_fails_some_constraint() {
        let latch = StrongArmLatch::new();
        let (lb, _) = latch.bounds();
        let spec = latch.evaluate(&lb);
        assert_eq!(spec.constraints.len(), 10);
        assert!(!spec.feasible());
    }

    /// The latch's 15-unknown DC and transient systems run on the sparse
    /// LU, and the nominal design measures what a dense LU measured: the
    /// values below were recorded when systems under 24 unknowns were
    /// forced onto dense LU. The two eliminations differ only in rounding.
    #[test]
    fn latch_takes_the_sparse_kernel_with_dense_kernel_values() {
        const DENSE_OBJECTIVE: f64 = 1.1241154873035952e-5;
        const DENSE_CONSTRAINTS: [f64; 10] = [
            -0.9716356334700329,
            -0.9654426235477672,
            -0.004800000000000012,
            -0.12156369323574744,
            -0.009986633434367887,
            -1.2099999541411357,
            -0.004501375872572406,
            -0.0058027471348431805,
            -0.009999984091724631,
            -0.009999987794723523,
        ];
        let latch = StrongArmLatch::new();
        let x = latch.nominal();
        let (ckt, ..) = latch.build(&LatchParams::decode(&x)).unwrap();
        assert_eq!(ckt.num_unknowns(), 15);

        let spec = latch.evaluate(&x);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
        assert!(
            close(spec.objective, DENSE_OBJECTIVE),
            "objective {} vs {DENSE_OBJECTIVE}",
            spec.objective
        );
        for (k, (&got, &want)) in spec.constraints.iter().zip(&DENSE_CONSTRAINTS).enumerate() {
            assert!(close(got, want), "constraint {k}: {got} vs {want}");
        }
        assert_eq!(spec.constraints.len(), DENSE_CONSTRAINTS.len());
    }
}
