//! The four-stage inverter chain — paper Table V row 1, "used mainly for
//! tool development and flow testing".
//!
//! Eight devices (an NMOS and a PMOS per stage), all eight widths are
//! design variables, and there are two specs: propagation delay and energy
//! per transition (reported as power at the switching rate). Estimated
//! parasitics are applied before every simulation, mirroring the paper's
//! MLParest-in-the-loop flow.

use opt::{AnalysisSpec, Fom, SizingProblem, SpecResult};
use spice::{Circuit, SimOptions, SpiceError, Waveform, GND};

use crate::measure;
use crate::parasitics::{apply_parasitics, update_parasitics, ParasiticConfig};
use crate::tech::{tech_advanced, Technology};

/// The inverter-chain sizing problem (8 variables, 2 constraints).
///
/// # Example
///
/// ```no_run
/// use circuits::InverterChain;
/// use opt::SizingProblem;
///
/// let chain = InverterChain::new();
/// let spec = chain.evaluate(&chain.nominal());
/// assert_eq!(spec.constraints.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct InverterChain {
    tech: Technology,
    opts: SimOptions,
    parasitics: ParasiticConfig,
    /// Output load \[F\].
    c_load: f64,
    /// Delay target \[s\].
    delay_limit: f64,
    /// Energy-per-transition target \[J\].
    energy_limit: f64,
    /// Prebuilt testbench topology: node maps, device registry and
    /// parasitic capacitors are derived once here; per-candidate
    /// evaluation clones it and re-sizes devices in place.
    template: Circuit,
    /// Key node ids of the template: `(input, final stage output)`.
    io: (usize, usize),
}

impl Default for InverterChain {
    fn default() -> Self {
        Self::new()
    }
}

impl InverterChain {
    /// Creates the problem on the generic advanced-node technology.
    pub fn new() -> Self {
        let mut chain = InverterChain {
            tech: tech_advanced(),
            opts: SimOptions::default(),
            parasitics: ParasiticConfig::default(),
            c_load: 40e-15,
            delay_limit: 35e-12,
            energy_limit: 80e-15,
            template: Circuit::new(),
            io: (0, 0),
        };
        let (ckt, inp, out) = chain
            .build_topology()
            .expect("inverter-chain template must build");
        chain.template = ckt;
        chain.io = (inp, out);
        chain
    }

    /// A near-feasible tapered chain.
    pub fn nominal(&self) -> Vec<f64> {
        let u = 1e-6;
        // [wn1..wn4, wp1..wp4], tapered ~2x per stage.
        vec![
            0.5 * u,
            1.0 * u,
            2.0 * u,
            4.0 * u,
            0.9 * u,
            1.8 * u,
            3.6 * u,
            7.2 * u,
        ]
    }

    /// Builds the testbench topology once, with the nominal sizing applied
    /// (the sizing itself lives exclusively in [`InverterChain::resize`]).
    fn build_topology(&self) -> Result<(Circuit, usize, usize), SpiceError> {
        let t = &self.tech;
        let l = t.l_min;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, GND, Waveform::Dc(t.vdd))?;
        let inp = ckt.node("in");
        // 100 ps period pulse with sharp edges; delays measured on the
        // second (settled) cycle.
        ckt.add_vsource(
            "VIN",
            inp,
            GND,
            Waveform::pulse(0.0, t.vdd, 50e-12, 5e-12, 5e-12, 250e-12, 500e-12),
        )?;
        let mut prev = inp;
        let mut out = inp;
        for stage in 0..4 {
            out = ckt.node(&format!("s{stage}"));
            ckt.add_mosfet(
                &format!("MN{stage}"),
                out,
                prev,
                GND,
                GND,
                &t.nmos,
                1e-6,
                l,
                1.0,
            )?;
            ckt.add_mosfet(
                &format!("MP{stage}"),
                out,
                prev,
                vdd,
                vdd,
                &t.pmos,
                1e-6,
                l,
                1.0,
            )?;
            prev = out;
        }
        ckt.add_capacitor("CL", out, GND, self.c_load)?;
        self.resize(&mut ckt, &self.nominal())?;
        apply_parasitics(&mut ckt, &self.parasitics)?;
        Ok((ckt, inp, out))
    }

    /// Writes every design-dependent device value for the vector `x` —
    /// the single source of truth for the variable→device mapping.
    fn resize(&self, ckt: &mut Circuit, x: &[f64]) -> Result<(), SpiceError> {
        let l = self.tech.l_min;
        for stage in 0..4 {
            ckt.set_mosfet_geometry(&format!("MN{stage}"), x[stage], l, 1.0)?;
            ckt.set_mosfet_geometry(&format!("MP{stage}"), x[4 + stage], l, 1.0)?;
        }
        Ok(())
    }

    /// Instantiates the candidate `x`: clones the prebuilt template and
    /// re-sizes devices and parasitics in place (no netlist rebuild, no
    /// node-map re-derivation — and an unchanged topology fingerprint, so
    /// pooled solver state carries across candidates).
    fn build(&self, x: &[f64]) -> Result<(Circuit, usize, usize), SpiceError> {
        let mut ckt = self.template.clone();
        self.resize(&mut ckt, x)?;
        update_parasitics(&mut ckt, &self.parasitics)?;
        Ok((ckt, self.io.0, self.io.1))
    }

    /// Expanded MOS count of the netlist (array-aware), 8 as in the
    /// paper's Table V.
    pub fn device_count(&self) -> f64 {
        self.template.expanded_mosfet_count()
    }
}

impl SizingProblem for InverterChain {
    fn dim(&self) -> usize {
        8
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.1e-6; 8], vec![20e-6; 8])
    }

    fn num_constraints(&self) -> usize {
        2
    }

    fn name(&self) -> &str {
        "inverter-chain"
    }

    fn variable_names(&self) -> Vec<String> {
        let mut v: Vec<String> = (1..=4).map(|i| format!("WN{i}")).collect();
        v.extend((1..=4).map(|i| format!("WP{i}")));
        v
    }

    fn nominal(&self) -> Vec<f64> {
        self.nominal()
    }

    /// Objective is energy per transition in pJ, taken unscaled; constraint
    /// weights 0.5.
    fn paper_fom(&self) -> Fom {
        Fom::new(1.0, vec![0.5; self.num_constraints()])
    }

    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        let m = self.num_constraints();
        // Single-corner problem: the fault-plane scope keys on the
        // candidate alone (corner salt 0).
        let _scope = spice::fault::candidate_scope(spice::fault::candidate_key(x, 0));
        let (ckt, inp, out) = match self.build(x) {
            Ok(v) => v,
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "inverter-chain netlist"),
                )
                .into()
            }
        };
        let t = &self.tech;
        // One pooled workspace for the whole evaluation: the transient
        // reuses the recorded solver state of previous candidates.
        let mut ws = spice::lease_workspace(&ckt);
        let tr = match spice::transient_with_workspace(&ckt, &self.opts, 1.0e-9, 2e-12, &mut ws) {
            Ok(tr) => tr,
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "inverter-chain transient"),
                )
                .into()
            }
        };
        // Second cycle: rising input edge at 550 ps, falling at 805 ps.
        let w_in = tr.waveform(inp);
        let w_out = tr.waveform(out);
        let after = |w: &[(f64, f64)], t0: f64| -> Vec<(f64, f64)> {
            w.iter().copied().filter(|&(tt, _)| tt >= t0).collect()
        };
        let half = 0.5 * t.vdd;
        // Four inverters: output follows the input polarity.
        let t_in_rise = measure::crossing_time(&after(&w_in, 500e-12), half, true);
        let t_out_rise = measure::crossing_time(&after(&w_out, 500e-12), half, true);
        let t_in_fall = measure::crossing_time(&after(&w_in, 780e-12), half, false);
        let t_out_fall = measure::crossing_time(&after(&w_out, 780e-12), half, false);
        let delay = match (t_in_rise, t_out_rise, t_in_fall, t_out_fall) {
            (Some(ir), Some(or), Some(if_), Some(of)) if or > ir && of > if_ => {
                (or - ir).max(of - if_)
            }
            _ => {
                return SpecResult {
                    failure: None,
                    objective: 1.0,
                    constraints: vec![3.0; m],
                }
                .into()
            }
        };
        // Energy for one full cycle (two transitions), halved.
        let energy = match tr.delivered_charge(&ckt, "VDD", 500e-12, 1.0e-9) {
            Ok(q) => (q * t.vdd / 2.0).abs(),
            Err(e) => {
                return SpecResult::failed_with(
                    m,
                    crate::diag_from_spice(&e, "inverter-chain energy"),
                )
                .into()
            }
        };

        // Objective: delay-energy product pressure via energy (power at the
        // switching rate); the paper lists "delay and power" as the two
        // specs, with the optimizer driving both to feasibility.
        let constraints = vec![
            (delay - self.delay_limit) / self.delay_limit,
            (energy - self.energy_limit) / self.energy_limit,
        ];
        SpecResult {
            failure: None,
            objective: energy * 1e12,
            constraints,
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_chain_is_feasible() {
        let chain = InverterChain::new();
        let spec = chain.evaluate(&chain.nominal());
        assert!(!spec.is_failure());
        assert!(
            spec.feasible(),
            "nominal tapered chain should meet both specs: {:?}",
            spec.constraints
        );
    }

    #[test]
    fn tiny_devices_are_slow() {
        let chain = InverterChain::new();
        let (lb, _) = chain.bounds();
        let spec = chain.evaluate(&lb);
        assert!(
            spec.constraints[0] > 0.0,
            "minimum widths must miss the delay spec"
        );
    }

    #[test]
    fn huge_devices_burn_energy() {
        let chain = InverterChain::new();
        let (_, ub) = chain.bounds();
        let spec = chain.evaluate(&ub);
        assert!(
            spec.constraints[1] > 0.0,
            "maximum widths must miss the energy spec"
        );
    }

    #[test]
    fn eight_variables_two_specs() {
        let chain = InverterChain::new();
        assert_eq!(chain.dim(), 8);
        assert_eq!(chain.num_constraints(), 2);
        assert_eq!(chain.variable_names().len(), 8);
    }

    #[test]
    fn device_count_matches_paper_scale() {
        assert_eq!(InverterChain::new().device_count(), 8.0);
    }
}
