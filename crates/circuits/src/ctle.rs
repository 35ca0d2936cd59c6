//! The continuous-time linear equalizer — paper Table V row 4.
//!
//! A source-degenerated NMOS differential pair (R_S ∥ C_S between the
//! sources) with resistive loads and source-follower output buffers. The
//! degeneration zero boosts high frequencies relative to DC — the classic
//! CTLE peaking response — and the sink/buffer current mirrors are heavily
//! arrayed, emulating the paper's 173k device count.
//!
//! 14 constraints cover DC gain window, peaking window, peak-frequency
//! window, Nyquist-rate boost, bandwidth, power, output common mode,
//! offset, and saturation margins — matching the paper's "DC Gain, offset,
//! Nyquist Gain, Fpeak, Peaking Max, Power, etc." list.
//!
//! One corner's DC + AC suite is the problem's only evaluation body
//! ([`SizingProblem::evaluate_analysis`]); `opt` derives the per-corner
//! and worst-case views of a [`Ctle::with_corners`] plane from it.

use opt::{AnalysisSpec, SizingProblem, SpecResult};
use spice::{Circuit, SimOptions, SpiceError, Waveform, GND};

use crate::measure;
use crate::parasitics::{apply_parasitics, update_parasitics, ParasiticConfig};
use crate::tech::{tech_advanced, Corner, CornerPlanes, CornerSet, Technology};

/// The CTLE sizing problem (12 variables — ~8 critical — and 14
/// constraints).
#[derive(Debug, Clone)]
pub struct Ctle {
    tech: Technology,
    opts: SimOptions,
    parasitics: ParasiticConfig,
    /// Input common mode \[V\] (tracks the corner supply).
    vcm: f64,
    /// Nyquist frequency of the target link \[Hz\].
    f_nyquist: f64,
    /// Prebuilt testbench topology; per-candidate evaluation clones it and
    /// re-sizes devices and parasitics in place.
    template: Circuit,
    /// Output node ids `(op, on)`.
    outs: (usize, usize),
    /// The PVT scenario plane this instance evaluates across, with the
    /// fully-built planes of corners 1.. (derated technology,
    /// corner-temperature options, corner-retargeted templates).
    planes: CornerPlanes<Ctle>,
}

impl Default for Ctle {
    fn default() -> Self {
        Self::new()
    }
}

impl Ctle {
    /// Creates the problem on the generic advanced-node technology at the
    /// nominal corner only (the legacy single-scenario plane).
    pub fn new() -> Self {
        Self::with_corners(CornerSet::nominal())
    }

    /// Creates the problem evaluating every candidate across a PVT corner
    /// set (see [`crate::tech::CornerSet`]); corner 0 of every standard
    /// set is nominal and bit-identical to [`Ctle::new`].
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or the template fails to build.
    pub fn with_corners(corners: CornerSet) -> Self {
        let (mut base, planes) = CornerPlanes::build(corners, Self::build_plane);
        base.planes = planes;
        base
    }

    /// Builds one single-corner evaluation plane.
    fn build_plane(corner: &Corner) -> Ctle {
        let mut ctle = Ctle {
            tech: tech_advanced().at_corner(corner),
            opts: corner.options(&SimOptions::default()),
            parasitics: ParasiticConfig::default(),
            vcm: 0.55 * corner.vdd_scale,
            f_nyquist: 4e9,
            template: Circuit::new(),
            outs: (0, 0),
            planes: CornerPlanes::default(),
        };
        let (ckt, op_id, on_id) = ctle.build_topology().expect("CTLE template must build");
        ctle.template = ckt;
        ctle.outs = (op_id, on_id);
        ctle
    }

    /// A hand-tuned near-feasible design.
    ///
    /// Layout: `[w_in, l_in, rs, cs, rl, m_sink, w_buf, c_par, w_decap,
    /// l_decap, w_dummy, r_term]`.
    pub fn nominal(&self) -> Vec<f64> {
        let u = 1e-6;
        vec![
            8.0 * u,  // input pair width
            0.03 * u, // input pair length
            400.0,    // degeneration resistor
            100e-15,  // degeneration capacitor
            200.0,    // load resistor
            500.0,    // sink array fingers
            6.0 * u,  // buffer follower width
            5e-15,    // extra load-node cap
            1.0 * u,  // decap width  (non-critical)
            0.1 * u,  // decap length (non-critical)
            0.3 * u,  // dummy width  (non-critical)
            55.0,     // input termination (non-critical with ideal drive)
        ]
    }

    /// Builds the testbench topology once, with the nominal sizing applied
    /// (the sizing itself lives exclusively in [`Ctle::resize`]).
    fn build_topology(&self) -> Result<(Circuit, usize, usize), SpiceError> {
        let t = &self.tech;
        let l = t.l_min;
        let u = 1e-6;
        let (w_in, l_in, rs, cs, rl, m_sink, w_buf, c_par) =
            (u, l, 100.0, 1e-15, 100.0, 1.0, u, 1e-15);
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, GND, Waveform::Dc(t.vdd))?;

        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        ckt.add_vsource_ac("VIP", inp, GND, Waveform::Dc(self.vcm), 0.5)?;
        ckt.add_vsource_ac("VIN", inn, GND, Waveform::Dc(self.vcm), -0.5)?;
        ckt.add_resistor("RT_P", inp, GND, 50.0)?;
        ckt.add_resistor("RT_N", inn, GND, 50.0)?;

        // Bias for the sink and buffer mirrors.
        let vbn = ckt.node("vbn");
        ckt.add_mosfet("MB_n", vbn, vbn, GND, GND, &t.nmos, 0.5e-6, 0.05e-6, 100.0)?;
        ckt.add_isource("IB", vdd, vbn, Waveform::Dc(100e-6))?;

        // Degenerated differential pair.
        let sp = ckt.node("sp");
        let sn = ckt.node("sn");
        let dp = ckt.node("dp");
        let dn = ckt.node("dn");
        ckt.add_mosfet("M_inP", dp, inp, sp, GND, &t.nmos, w_in, l_in, 4.0)?;
        ckt.add_mosfet("M_inN", dn, inn, sn, GND, &t.nmos, w_in, l_in, 4.0)?;
        ckt.add_resistor("RS", sp, sn, rs)?;
        ckt.add_capacitor("CS", sp, sn, cs)?;
        // Arrayed current sinks (0.5 µm fingers off the bias mirror).
        ckt.add_mosfet(
            "M_snkP", sp, vbn, GND, GND, &t.nmos, 0.5e-6, 0.05e-6, m_sink,
        )?;
        ckt.add_mosfet(
            "M_snkN", sn, vbn, GND, GND, &t.nmos, 0.5e-6, 0.05e-6, m_sink,
        )?;
        ckt.add_resistor("RL_P", vdd, dp, rl)?;
        ckt.add_resistor("RL_N", vdd, dn, rl)?;
        ckt.add_capacitor("CP_P", dp, GND, c_par)?;
        ckt.add_capacitor("CP_N", dn, GND, c_par)?;

        // Source-follower output buffers with arrayed sink loads.
        let op = ckt.node("op");
        let on = ckt.node("on");
        ckt.add_mosfet("M_bufP", vdd, dp, op, GND, &t.nmos, w_buf, l, 2.0)?;
        ckt.add_mosfet("M_bufN", vdd, dn, on, GND, &t.nmos, w_buf, l, 2.0)?;
        ckt.add_mosfet(
            "M_bsnkP",
            op,
            vbn,
            GND,
            GND,
            &t.nmos,
            0.5e-6,
            0.05e-6,
            m_sink / 2.0,
        )?;
        ckt.add_mosfet(
            "M_bsnkN",
            on,
            vbn,
            GND,
            GND,
            &t.nmos,
            0.5e-6,
            0.05e-6,
            m_sink / 2.0,
        )?;
        ckt.add_capacitor("CL_P", op, GND, 30e-15)?;
        ckt.add_capacitor("CL_N", on, GND, 30e-15)?;

        // Device-count emulation: rail decap arrays.
        ckt.add_mosfet("M_decap1", GND, vdd, GND, GND, &t.nmos, u, l, 85_500.0)?;
        ckt.add_mosfet("M_decap2", GND, vdd, GND, GND, &t.nmos, u, l, 85_500.0)?;
        ckt.add_mosfet("M_dummy", dp, GND, GND, GND, &t.nmos, u, l, 1.0)?;
        self.resize(&mut ckt, &self.nominal())?;
        apply_parasitics(&mut ckt, &self.parasitics)?;
        let op_id = ckt.find_node("op")?;
        let on_id = ckt.find_node("on")?;
        Ok((ckt, op_id, on_id))
    }

    /// Writes every design-dependent device value for the vector `x` —
    /// the single source of truth for the variable→device mapping.
    fn resize(&self, ckt: &mut Circuit, x: &[f64]) -> Result<(), SpiceError> {
        let t = &self.tech;
        let l = t.l_min;
        let (w_in, l_in, rs, cs, rl, m_sink, w_buf, c_par) = (
            x[0],
            x[1].max(l),
            x[2],
            x[3],
            x[4],
            x[5].round().max(1.0),
            x[6],
            x[7],
        );
        ckt.set_mosfet_geometry("M_inP", w_in, l_in, 4.0)?;
        ckt.set_mosfet_geometry("M_inN", w_in, l_in, 4.0)?;
        ckt.set_resistance("RS", rs)?;
        ckt.set_capacitance("CS", cs)?;
        ckt.set_mosfet_geometry("M_snkP", 0.5e-6, 0.05e-6, m_sink)?;
        ckt.set_mosfet_geometry("M_snkN", 0.5e-6, 0.05e-6, m_sink)?;
        ckt.set_resistance("RL_P", rl)?;
        ckt.set_resistance("RL_N", rl)?;
        ckt.set_capacitance("CP_P", c_par)?;
        ckt.set_capacitance("CP_N", c_par)?;
        ckt.set_mosfet_geometry("M_bufP", w_buf, l, 2.0)?;
        ckt.set_mosfet_geometry("M_bufN", w_buf, l, 2.0)?;
        ckt.set_mosfet_geometry("M_bsnkP", 0.5e-6, 0.05e-6, m_sink / 2.0)?;
        ckt.set_mosfet_geometry("M_bsnkN", 0.5e-6, 0.05e-6, m_sink / 2.0)?;
        ckt.set_resistance("RT_P", x[11].max(1.0))?;
        ckt.set_resistance("RT_N", x[11].max(1.0))?;
        ckt.set_mosfet_geometry("M_decap1", x[8], x[9].max(l), 85_500.0)?;
        ckt.set_mosfet_geometry("M_decap2", x[8], x[9].max(l), 85_500.0)?;
        ckt.set_mosfet_geometry("M_dummy", x[10], l, 1.0)?;
        Ok(())
    }

    /// Instantiates the candidate `x`: clones the prebuilt template and
    /// re-sizes devices and parasitics in place (no netlist rebuild; the
    /// topology fingerprint is unchanged so pooled solver state carries
    /// across candidates).
    #[allow(clippy::type_complexity)]
    fn build(&self, x: &[f64]) -> Result<(Circuit, usize, usize), SpiceError> {
        let mut ckt = self.template.clone();
        self.resize(&mut ckt, x)?;
        update_parasitics(&mut ckt, &self.parasitics)?;
        Ok((ckt, self.outs.0, self.outs.1))
    }

    /// Expanded MOS count (array-aware), ~173k as in the paper's Table V.
    pub fn device_count(&self) -> f64 {
        let x = self.nominal();
        self.build(&x)
            .map(|(c, _, _)| c.expanded_mosfet_count())
            .unwrap_or(0.0)
    }
}

impl SizingProblem for Ctle {
    fn dim(&self) -> usize {
        12
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let u = 1e-6;
        (
            vec![
                1.0 * u,
                0.02 * u,
                50.0,
                10e-15,
                50.0,
                100.0,
                1.0 * u,
                0.0,
                0.1 * u,
                0.02 * u,
                0.1 * u,
                40.0,
            ],
            vec![
                40.0 * u,
                0.2 * u,
                2000.0,
                500e-15,
                1000.0,
                3000.0,
                30.0 * u,
                50e-15,
                8.0 * u,
                0.5 * u,
                8.0 * u,
                70.0,
            ],
        )
    }

    fn num_constraints(&self) -> usize {
        14
    }

    fn name(&self) -> &str {
        "ctle"
    }

    fn variable_names(&self) -> Vec<String> {
        [
            "w_in", "l_in", "rs", "cs", "rl", "m_sink", "w_buf", "c_par", "w_decap", "l_decap",
            "w_dummy", "r_term",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn nominal(&self) -> Vec<f64> {
        self.nominal()
    }

    fn num_corners(&self) -> usize {
        self.planes.set().len()
    }

    fn corner_name(&self, k: usize) -> String {
        self.planes.set().corners[k].label()
    }

    fn evaluate_analysis(&self, x: &[f64], k: usize, _a: usize) -> AnalysisSpec {
        // Deterministic fault-plane scope, keyed by candidate bits × corner.
        let _scope = spice::fault::candidate_scope(spice::fault::candidate_key(x, k as u64));
        self.planes.get(self, k).evaluate_plane(x).into()
    }
}

impl Ctle {
    /// Runs the full measurement suite on this plane's corner — the
    /// single-scenario evaluation every corner of the plane shares.
    fn evaluate_plane(&self, x: &[f64]) -> SpecResult {
        let m = SizingProblem::num_constraints(self);
        let (ckt, op_n, on_n) = match self.build(x) {
            Ok(v) => v,
            Err(e) => {
                return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ctle netlist"))
            }
        };
        // One pooled workspace per evaluation; the DC solve reuses the
        // recorded solver state of previous candidates.
        let mut ws = spice::lease_workspace(&ckt);
        let dc = match spice::op_with_workspace(&ckt, &self.opts, None, &mut ws) {
            Ok(dc) => dc,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ctle op")),
        };
        let power = match dc.source_current(&ckt, "VDD") {
            Ok(i) => -i * self.tech.vdd,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ctle power")),
        };
        let out_cm = 0.5 * (dc.voltage(op_n) + dc.voltage(on_n));
        let offset = (dc.voltage(op_n) - dc.voltage(on_n)).abs();
        let sat_margin = ["M_inP", "M_inN", "M_snkP", "M_snkN", "M_bufP", "M_bufN"]
            .iter()
            .map(|n| dc.mos_op(n).map(|mo| mo.vsat_margin).unwrap_or(-1.0))
            .fold(f64::INFINITY, f64::min);

        let freqs = spice::log_freqs(1e7, 2e10, 8);
        let ac = match spice::ac_with_workspace(&ckt, &self.opts, &dc, &freqs, &mut ws) {
            Ok(ac) => ac,
            Err(e) => return SpecResult::failed_with(m, crate::diag_from_spice(&e, "ctle ac")),
        };
        let mag = ac.diff_magnitude(op_n, on_n);
        let dc_gain_db = measure::db(mag[0]);
        let (f_peak, m_peak) = measure::peak(&freqs, &mag);
        let peak_db = measure::db(m_peak);
        let peaking = peak_db - dc_gain_db;
        let nyq_gain_db = measure::db(measure::sample_response(&freqs, &mag, self.f_nyquist));
        // Bandwidth: −3 dB below the peak, searched beyond the peak.
        let bw = {
            let start = freqs.iter().position(|&f| f >= f_peak).unwrap_or(0);
            measure::crossing_frequency(
                &freqs[start..],
                &mag[start..],
                m_peak * std::f64::consts::FRAC_1_SQRT_2,
            )
        };

        let constraints = vec![
            // 1/2. DC gain window: −10 dB … −1 dB.
            (-10.0 - dc_gain_db) / 6.0,
            (dc_gain_db - (-1.0)) / 6.0,
            // 3/4. Peaking window: 2 … 10 dB.
            (2.0 - peaking) / 4.0,
            (peaking - 10.0) / 4.0,
            // 5/6. Peak frequency window: 1.5 … 8 GHz.
            (1.5e9 - f_peak) / 2e9,
            (f_peak - 8e9) / 4e9,
            // 7. Nyquist boost: gain at 4 GHz at least 1 dB above DC.
            ((dc_gain_db + 1.0) - nyq_gain_db) / 4.0,
            // 8. Bandwidth > 6 GHz.
            match bw {
                Some(f) => (6e9 - f) / 6e9,
                None => -0.5, // no crossing inside the sweep: BW beyond 20 GHz
            },
            // 9. Power < 3 mW.
            (power - 3e-3) / 3e-3,
            // 10/11. Output common mode window: 0.25 … 0.48 V.
            (0.25 - out_cm) / 0.2,
            (out_cm - 0.48) / 0.2,
            // 12. Offset < 1 mV.
            (offset - 1e-3) / 1e-3,
            // 13. Saturation margins > 0.
            -sat_margin / 0.1,
            // 14. Nyquist gain above −6 dB absolute.
            (-6.0 - nyq_gain_db) / 6.0,
        ];
        SpecResult {
            failure: None,
            objective: power,
            constraints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_constraints_twelve_vars() {
        let ctle = Ctle::new();
        assert_eq!(ctle.dim(), 12);
        assert_eq!(ctle.num_constraints(), 14);
    }

    #[test]
    fn device_count_matches_paper_scale() {
        let ctle = Ctle::new();
        let n = ctle.device_count();
        assert!(n > 160_000.0 && n < 180_000.0, "count {n}");
    }

    #[test]
    fn nominal_peaks() {
        let ctle = Ctle::new();
        let spec = ctle.evaluate(&ctle.nominal());
        assert!(!spec.is_failure(), "nominal CTLE must simulate");
        // The equalization shape must be present: peaking above 2 dB.
        assert!(
            spec.constraints[2] <= 0.0,
            "peaking-min violated: {}",
            spec.constraints[2]
        );
        assert!(
            spec.constraints[3] <= 0.0,
            "peaking-max violated: {}",
            spec.constraints[3]
        );
    }

    #[test]
    fn nominal_corner_is_bit_identical_to_legacy_path() {
        let legacy = Ctle::new();
        let cornered = Ctle::with_corners(CornerSet::pvt5());
        let x = legacy.nominal();
        let a = legacy.evaluate(&x);
        let b = cornered.evaluate_corner(&x, 0);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        for (p, q) in a.constraints.iter().zip(&b.constraints) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn five_corner_plane_evaluates_everywhere() {
        let ctle = Ctle::with_corners(CornerSet::pvt5());
        assert_eq!(ctle.num_corners(), 5);
        let x = ctle.nominal();
        for k in 0..ctle.num_corners() {
            let spec = ctle.evaluate_corner(&x, k);
            assert_eq!(spec.constraints.len(), 14);
            assert!(
                !spec.is_failure(),
                "corner {} must simulate",
                ctle.corner_name(k)
            );
        }
        let worst = ctle.evaluate(&x);
        assert!(!worst.is_failure());
        let nom = ctle.evaluate_corner(&x, 0);
        for (w, n) in worst.constraints.iter().zip(&nom.constraints) {
            assert!(w >= n, "worst case can only tighten: {w} < {n}");
        }
    }

    #[test]
    fn removing_degeneration_kills_peaking() {
        let ctle = Ctle::new();
        let mut x = ctle.nominal();
        x[2] = 50.0; // minimal Rs: nearly no degeneration -> little peaking
        x[3] = 10e-15;
        let spec = ctle.evaluate(&x);
        // With negligible degeneration the zero moves far out: the peaking
        // window constraint must react (looser or violated).
        let nominal_spec = ctle.evaluate(&ctle.nominal());
        assert!(spec.constraints[2] > nominal_spec.constraints[2]);
    }
}
