//! Transient analysis with trapezoidal integration.
//!
//! Capacitors (explicit and MOSFET-intrinsic) are replaced by their
//! trapezoidal companion models; the resulting resistive system is solved by
//! the same damped Newton-Raphson used for the operating point. The step
//! size is the user-supplied base step, clipped at source-waveform
//! breakpoints; when a step refuses to converge it is halved (up to
//! [`crate::SimOptions::max_step_halvings`] times) and grown back
//! afterwards.

use crate::analysis::dc;
use crate::diag::{FailureDiag, LadderStage, NewtonFailure};
use crate::error::SpiceError;
use crate::netlist::{Circuit, NodeId};
use crate::options::SimOptions;
use crate::stamp::{node_voltage, stamp_resistive_system, Assemble, SourceEval, Stamp};
use crate::workspace::{NewtonWorkspace, StampKind};

/// Result of a transient run: node voltages (and source branch currents)
/// over time.
#[derive(Debug, Clone)]
pub struct TranResult {
    t: Vec<f64>,
    /// `v[step][node]`; index 0 is ground.
    v: Vec<Vec<f64>>,
    /// `branch[step][branch_index]` — currents of voltage-source-like
    /// devices, for power measurements.
    branch: Vec<Vec<f64>>,
}

impl TranResult {
    /// Time points \[s\].
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Number of accepted time points.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True if the run produced no points (never happens for a successful
    /// analysis, which always stores the initial point).
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Voltage of `node` at step index `i`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn voltage(&self, i: usize, node: NodeId) -> f64 {
        self.v[i][node]
    }

    /// Full waveform of one node as `(t, v)` pairs.
    pub fn waveform(&self, node: NodeId) -> Vec<(f64, f64)> {
        self.t
            .iter()
            .zip(&self.v)
            .map(|(&t, vs)| (t, vs[node]))
            .collect()
    }

    /// Linearly interpolated voltage of `node` at an arbitrary time
    /// (clamped to the simulated range).
    pub fn sample(&self, node: NodeId, time: f64) -> f64 {
        if self.t.is_empty() {
            return 0.0;
        }
        if time <= self.t[0] {
            return self.v[0][node];
        }
        if time >= *self.t.last().unwrap() {
            return self.v.last().unwrap()[node];
        }
        // Binary search for the bracketing interval.
        let mut lo = 0;
        let mut hi = self.t.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.t[mid] <= time {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (t0, t1) = (self.t[lo], self.t[hi]);
        let (v0, v1) = (self.v[lo][node], self.v[hi][node]);
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (time - t0) / (t1 - t0)
        }
    }

    /// Final voltage of a node.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        self.v.last().map_or(0.0, |vs| vs[node])
    }

    /// Current through a voltage source at step `i` (SPICE sign convention,
    /// matching [`crate::OpPoint::source_current`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if `name` is not a voltage
    /// source or VCVS of `circuit`.
    pub fn source_current(
        &self,
        circuit: &Circuit,
        name: &str,
        i: usize,
    ) -> Result<f64, SpiceError> {
        let idx = circuit
            .device_index(name)
            .ok_or_else(|| SpiceError::UnknownDevice {
                name: name.to_string(),
            })?;
        match &circuit.devices()[idx] {
            crate::netlist::Device::VSource { branch, .. }
            | crate::netlist::Device::Vcvs { branch, .. } => Ok(self.branch[i][*branch]),
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Charge delivered *by* a voltage source over `[t_from, t_to]`
    /// (trapezoidal integral of `−i(t)`, positive when the source sources
    /// current). Multiply by the source voltage for energy.
    ///
    /// # Errors
    ///
    /// Same as [`TranResult::source_current`].
    pub fn delivered_charge(
        &self,
        circuit: &Circuit,
        name: &str,
        t_from: f64,
        t_to: f64,
    ) -> Result<f64, SpiceError> {
        let mut q = 0.0;
        for i in 1..self.t.len() {
            let (t0, t1) = (self.t[i - 1], self.t[i]);
            if t1 <= t_from || t0 >= t_to {
                continue;
            }
            let i0 = -self.source_current(circuit, name, i - 1)?;
            let i1 = -self.source_current(circuit, name, i)?;
            q += 0.5 * (i0 + i1) * (t1 - t0);
        }
        Ok(q)
    }
}

/// One capacitive element with its trapezoidal state.
struct CapState {
    a: NodeId,
    b: NodeId,
    c: f64,
    /// Capacitor voltage at the previous accepted step.
    v_prev: f64,
    /// Capacitor current at the previous accepted step (a → b).
    i_prev: f64,
}

/// The transient assembly: gmin loading, the linearized resistive stamps
/// at time `t`, and the trapezoidal companion of every capacitor.
struct TranAssemble<'a> {
    circuit: &'a Circuit,
    caps: &'a [CapState],
    gmin: f64,
    /// Time of the step being solved \[s\].
    t: f64,
    /// Step size \[s\].
    h: f64,
}

impl TranAssemble<'_> {
    /// Trapezoidal companion for each capacitor:
    ///   `i_{n+1} = (2C/h)(v_{n+1} − v_n) − i_n`
    /// = `geq·v_{n+1} + i0` with `geq = 2C/h`, `i0 = −geq·v_n − i_n`.
    /// The companion values depend on the timestep state (`h`, `v_prev`,
    /// `i_prev`) but not on the Newton iterate — constant within a solve.
    fn stamp_companions<S: Stamp>(&self, st: &mut S) {
        for cap in self.caps {
            let geq = 2.0 * cap.c / self.h;
            let i0 = -geq * cap.v_prev - cap.i_prev;
            st.conductance(cap.a, cap.b, geq);
            st.current_source(cap.a, cap.b, i0);
        }
    }
}

impl Assemble for TranAssemble<'_> {
    fn assemble<S: Stamp>(&mut self, xk: &[f64], st: &mut S) {
        st.load_gmin(self.gmin);
        stamp_resistive_system(self.circuit, xk, SourceEval::Time { t: self.t }, st);
        self.stamp_companions(st);
    }

    fn assemble_constant<S: Stamp>(&mut self, st: &mut S) {
        st.load_gmin(self.gmin);
        crate::stamp::stamp_resistive_linear(self.circuit, SourceEval::Time { t: self.t }, st);
        self.stamp_companions(st);
    }

    fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The constant matrix is gmin loading, the linear devices (circuit
    /// constants) and the companion conductances `2C/h`; the time `t` and
    /// the capacitor states only move the right-hand side.
    fn constant_matrix_key(&self) -> Option<[u64; 2]> {
        Some([self.gmin.to_bits(), self.h.to_bits()])
    }
}

/// NR solve of one timestep. `x` enters as the previous solution and leaves
/// as the new one on success. All solver buffers come from `ws`, which is
/// shared across every timestep (and step-halving retry) of the run.
fn solve_step(
    circuit: &Circuit,
    opts: &SimOptions,
    caps: &[CapState],
    t: f64,
    h: f64,
    x: &mut Vec<f64>,
    ws: &mut NewtonWorkspace,
) -> Result<(), NewtonFailure> {
    let (xn, _) = crate::analysis::dc::newton_loop(
        circuit,
        opts,
        opts.max_nr_iters,
        x,
        ws,
        StampKind::Tran,
        TranAssemble {
            circuit,
            caps,
            gmin: opts.gmin,
            t,
            h,
        },
    )?;
    *x = xn;
    Ok(())
}

/// Runs a transient analysis from `t = 0` to `t_stop` with base step
/// `t_step`. The initial condition is the DC operating point with sources at
/// their `t = 0` values.
///
/// # Errors
///
/// Fails if the initial operating point cannot be found, if parameters are
/// invalid, or if some timestep refuses to converge even at the minimum
/// step size.
pub fn transient(
    circuit: &Circuit,
    opts: &SimOptions,
    t_stop: f64,
    t_step: f64,
) -> Result<TranResult, SpiceError> {
    // Lease from the process-wide pool so repeated runs on the same
    // topology reuse the recorded stamp→slot maps and factor storage.
    let mut ws = crate::workspace::lease_workspace(circuit);
    transient_with_workspace(circuit, opts, t_stop, t_step, &mut ws)
}

/// Runs a transient analysis using caller-owned solver state (see
/// [`transient`]): the initial operating point, then
/// [`transient_from_op`] from it. The workspace is shared by the operating
/// point, every timestep, and every step-halving retry; reuse one workspace
/// across runs of the same topology (optimizer candidates) for the full
/// benefit of the recorded sparse patterns.
///
/// # Errors
///
/// Same failure modes as [`transient`].
pub fn transient_with_workspace(
    circuit: &Circuit,
    opts: &SimOptions,
    t_stop: f64,
    t_step: f64,
    ws: &mut NewtonWorkspace,
) -> Result<TranResult, SpiceError> {
    check_window(t_stop, t_step)?;
    let op0 = dc::op_with_workspace(circuit, opts, None, ws)?;
    transient_from_op(circuit, opts, &op0, t_stop, t_step, ws)
}

/// Runs a transient analysis from a given initial condition: `op` must be
/// the DC operating point of `circuit` with sources at their `t = 0`
/// values, as [`crate::op_with_workspace`] returns it. A testbench that
/// already solved that point for another analysis (noise, say) passes it
/// here instead of solving it again; the result is bit-identical to
/// [`transient_with_workspace`], because the run opens its own solve
/// session and so re-derives its sparse pivot sequences from its own
/// first timestep whatever the workspace ran before.
///
/// # Errors
///
/// Fails if the parameters are invalid, if `op` does not match the
/// circuit's unknowns, or if some timestep refuses to converge even at the
/// minimum step size.
pub fn transient_from_op(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &dc::OpPoint,
    t_stop: f64,
    t_step: f64,
    ws: &mut NewtonWorkspace,
) -> Result<TranResult, SpiceError> {
    check_window(t_stop, t_step)?;
    if op.raw().len() != circuit.num_unknowns() {
        return Err(SpiceError::BadAnalysis {
            reason: "operating point does not match the circuit".to_string(),
        });
    }
    let _span = telemetry::span(telemetry::SpanId::Tran);
    ws.ensure(circuit);
    ws.begin_session();
    let mut x = op.raw().to_vec();

    // Collect waveform breakpoints, sorted and deduplicated.
    let mut breakpoints: Vec<f64> = Vec::new();
    for dev in circuit.devices() {
        match dev {
            crate::netlist::Device::VSource { wave, .. }
            | crate::netlist::Device::ISource { wave, .. } => {
                breakpoints.extend(wave.breakpoints(t_stop));
            }
            _ => {}
        }
    }
    breakpoints.sort_by(|a, b| a.partial_cmp(b).unwrap());
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

    // Capacitive elements with initial state (v from OP, i = 0: DC steady
    // state has no capacitor current).
    let mut caps: Vec<CapState> = circuit
        .capacitive_elements()
        .into_iter()
        .filter(|&(_, _, c)| c > 0.0)
        .map(|(a, b, c)| CapState {
            a,
            b,
            c,
            v_prev: node_voltage(&x, a) - node_voltage(&x, b),
            i_prev: 0.0,
        })
        .collect();

    let mut t = 0.0;
    let mut result = TranResult {
        t: vec![0.0],
        v: vec![unknowns_to_voltages(circuit, &x)],
        branch: vec![unknowns_to_branches(circuit, &x)],
    };
    let mut h = t_step;
    let mut bp_iter = breakpoints.into_iter().peekable();
    let mut easy_steps = 0usize;

    while t < t_stop - 1e-18 {
        // Clip the step at the next breakpoint and at t_stop.
        let mut h_eff = h.min(t_stop - t);
        if let Some(&bp) = bp_iter.peek() {
            if bp > t + 1e-18 && bp < t + h_eff {
                h_eff = bp - t;
            }
        }

        let mut halvings = 0;
        let mut iters_spent = 0usize;
        let mut injected = false;
        let mut x_try = x.clone();
        loop {
            let t_new = t + h_eff;
            match solve_step(circuit, opts, &caps, t_new, h_eff, &mut x_try, ws) {
                Ok(()) => break,
                Err(e) => {
                    iters_spent += e.iterations;
                    injected |= e.injected;
                    halvings += 1;
                    telemetry::record(telemetry::Metric::StepHalvings, 1);
                    if halvings > opts.max_step_halvings {
                        // The step underflowed: the halving ladder is
                        // exhausted, whatever the inner Newton failures were.
                        return Err(SpiceError::Solver(FailureDiag {
                            kind: crate::diag::FailureKind::StepUnderflow,
                            analysis: "transient",
                            stage: LadderStage::StepHalving,
                            iterations: iters_spent,
                            halvings: halvings - 1,
                            injected,
                        }));
                    }
                    h_eff *= 0.5;
                    x_try = x.clone();
                }
            }
        }

        let t_new = t + h_eff;
        // Update capacitor states (trapezoidal).
        for cap in &mut caps {
            let v_new = node_voltage(&x_try, cap.a) - node_voltage(&x_try, cap.b);
            let i_new = 2.0 * cap.c / h_eff * (v_new - cap.v_prev) - cap.i_prev;
            cap.v_prev = v_new;
            cap.i_prev = i_new;
        }
        x = x_try;
        t = t_new;
        result.t.push(t);
        result.v.push(unknowns_to_voltages(circuit, &x));
        result.branch.push(unknowns_to_branches(circuit, &x));
        // Consume passed breakpoints.
        while matches!(bp_iter.peek(), Some(&bp) if bp <= t + 1e-18) {
            bp_iter.next();
        }
        // Step-size recovery after halvings.
        if halvings == 0 {
            easy_steps += 1;
            if easy_steps >= 4 && h < t_step {
                h = (h * 2.0).min(t_step);
                easy_steps = 0;
            }
        } else {
            h = h_eff.max(t_step / 2f64.powi(opts.max_step_halvings as i32));
            easy_steps = 0;
        }
    }
    Ok(result)
}

fn check_window(t_stop: f64, t_step: f64) -> Result<(), SpiceError> {
    if !(t_stop > 0.0) || !(t_step > 0.0) || t_step > t_stop {
        return Err(SpiceError::BadAnalysis {
            reason: format!("invalid transient window: stop={t_stop}, step={t_step}"),
        });
    }
    Ok(())
}

fn unknowns_to_voltages(circuit: &Circuit, x: &[f64]) -> Vec<f64> {
    let mut v = vec![0.0; circuit.num_nodes()];
    for (node, vn) in v.iter_mut().enumerate().skip(1) {
        *vn = x[node - 1];
    }
    v
}

fn unknowns_to_branches(circuit: &Circuit, x: &[f64]) -> Vec<f64> {
    x[(circuit.num_nodes() - 1)..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GND;
    use crate::stamp::tests::{mos_ladder, test_nmos};
    use crate::waveform::Waveform;

    #[test]
    fn rc_step_response() {
        // Series R=1k into C=1u, step 0 -> 1 V at t=1ms. τ = 1 ms.
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource(
            "V1",
            a,
            GND,
            Waveform::pulse(0.0, 1.0, 1e-3, 1e-9, 1e-9, 1.0, f64::INFINITY),
        )
        .unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_capacitor("C1", b, GND, 1e-6).unwrap();
        let r = transient(&c, &SimOptions::default(), 6e-3, 20e-6).unwrap();
        // One τ after the step: 1 - e^-1 ≈ 0.6321.
        let v_tau = r.sample(b, 2e-3);
        assert!((v_tau - 0.6321).abs() < 0.01, "v(τ) = {v_tau}");
        // Five τ: essentially settled.
        let v_5tau = r.sample(b, 6e-3);
        assert!((v_5tau - 1.0).abs() < 0.01, "v(5τ) = {v_5tau}");
        // Before the step: zero.
        assert!(r.sample(b, 0.5e-3).abs() < 1e-6);
    }

    #[test]
    fn trapezoidal_beats_large_error() {
        // Accuracy check: RC with only 20 steps per τ should still be
        // within 1% thanks to second-order integration.
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource(
            "V1",
            a,
            GND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, f64::INFINITY),
        )
        .unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_capacitor("C1", b, GND, 1e-6).unwrap();
        let r = transient(&c, &SimOptions::default(), 2e-3, 50e-6).unwrap();
        let expect = 1.0 - (-2.0_f64).exp();
        assert!((r.final_voltage(b) - expect).abs() < 0.01);
    }

    #[test]
    fn inverter_switches_on_pulse() {
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
            kf: 1e-26,
            af: 1.0,
            noise_gamma: 2.0 / 3.0,
        };
        let pmos = MosModel {
            polarity: MosPolarity::Pmos,
            kp: 80e-6,
            ..nmos.clone()
        };
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_vsource(
            "VIN",
            inp,
            GND,
            Waveform::pulse(0.0, 1.8, 1e-9, 50e-12, 50e-12, 5e-9, f64::INFINITY),
        )
        .unwrap();
        c.add_mosfet("MN", out, inp, GND, GND, &nmos, 2e-6, 0.18e-6, 1.0)
            .unwrap();
        c.add_mosfet("MP", out, inp, vdd, vdd, &pmos, 4e-6, 0.18e-6, 1.0)
            .unwrap();
        c.add_capacitor("CL", out, GND, 10e-15).unwrap();
        let r = transient(&c, &SimOptions::default(), 10e-9, 25e-12).unwrap();
        // Before the pulse, output is high; during the pulse, low.
        assert!(r.sample(out, 0.5e-9) > 1.7);
        assert!(r.sample(out, 4e-9) < 0.1);
        // After the input falls, the output recovers.
        assert!(r.sample(out, 9.5e-9) > 1.6);
    }

    #[test]
    fn vdd_current_and_charge_in_rc_charge() {
        // Charging C through R from a step source: total delivered charge
        // must equal C·ΔV.
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource(
            "V1",
            a,
            GND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, f64::INFINITY),
        )
        .unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_capacitor("C1", b, GND, 1e-6).unwrap();
        let r = transient(&c, &SimOptions::default(), 10e-3, 50e-6).unwrap();
        let q = r.delivered_charge(&c, "V1", 0.0, 10e-3).unwrap();
        assert!((q - 1e-6).abs() < 0.02e-6, "charge {q}");
    }

    #[test]
    fn sparse_kernel_matches_rc_physics_on_large_ladder() {
        // A 30-stage RC ladder (32 unknowns) drives the transient engine
        // down the sparse path; the far-end step response must still settle
        // to the source value (conservation through all 30 sections).
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource(
            "V1",
            vin,
            GND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, f64::INFINITY),
        )
        .unwrap();
        let mut prev = vin;
        for i in 0..30 {
            let node = c.node(&format!("n{i}"));
            c.add_resistor(&format!("R{i}"), prev, node, 10.0).unwrap();
            c.add_capacitor(&format!("C{i}"), node, GND, 1e-12).unwrap();
            prev = node;
        }
        let mut ws = crate::workspace::NewtonWorkspace::new(&c);
        let r =
            transient_with_workspace(&c, &SimOptions::default(), 50e-9, 100e-12, &mut ws).unwrap();
        assert!(ws.uses_sparse(true), "ladder must select the sparse path");
        // The line's slowest mode is ≈ R_tot·C_tot·(2/π)² ≈ 3.6 ns, so by
        // 50 ns the end of the line has settled to the source value.
        assert!(
            (r.final_voltage(prev) - 1.0).abs() < 0.01,
            "end of line at {}",
            r.final_voltage(prev)
        );
        // Charge conservation: everything the source delivered now sits on
        // the ladder capacitors (within integration tolerance).
        let q_src = r.delivered_charge(&c, "V1", 0.0, 50e-9).unwrap();
        let q_caps: f64 = (0..30)
            .map(|i| 1e-12 * r.final_voltage(c.find_node(&format!("n{i}")).unwrap()))
            .sum();
        assert!(
            (q_src - q_caps).abs() < 0.02 * q_caps.abs(),
            "q_src={q_src} q_caps={q_caps}"
        );
        // The wavefront is ordered: upstream nodes lead downstream ones.
        let mid = c.find_node("n15").unwrap();
        assert!(r.sample(mid, 2e-9) >= r.sample(prev, 2e-9) - 1e-9);
    }

    fn assert_same_bits(a: &TranResult, b: &TranResult) {
        assert_eq!(a.times().len(), b.times().len());
        for (ta, tb) in a.t.iter().zip(&b.t) {
            assert_eq!(ta.to_bits(), tb.to_bits());
        }
        for (va, vb) in a.v.iter().zip(&b.v) {
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The right-hand-side-only constant restamp (matrix values kept when
    /// the session and `(gmin, h)` match) is bit-identical to restamping
    /// the whole constant segment every timestep: through step halvings —
    /// `h` shrinks, then recovers to the base step — and across two
    /// same-topology candidates with different element values sharing one
    /// workspace, where the second candidate's first timestep has the same
    /// `(gmin, h)` as the first candidate's last one. The base step is a
    /// power of two and every waveform corner a multiple of it, so every
    /// time point is exact and `t_stop` can sit on the step grid the
    /// halvings leave behind, making the last step a full base step.
    #[test]
    fn rhs_only_constant_restamp_matches_full_restamp() {
        let t_step = 2f64.powi(-34); // ≈ 58 ps
        let a = mos_ladder(t_step, &test_nmos());
        let mut b = a.clone();
        b.set_resistance("R3", 7e3).unwrap();
        b.set_capacitance("C5", 3e-15).unwrap();
        assert_eq!(a.topology_id(), b.topology_id());
        // Tight Newton budget + strong damping: the supply edge does not
        // converge at the base step, so the engine halves and recovers.
        let opts = SimOptions {
            max_nr_iters: 8,
            v_limit: 0.05,
            ..SimOptions::default()
        };
        // A dry run shows where the grid lies: its last point before the
        // (possibly clipped) final step is on it.
        let mut ws = crate::workspace::NewtonWorkspace::new(&a);
        let dry = transient_with_workspace(&a, &opts, 96.0 * t_step, t_step, &mut ws).unwrap();
        let t_stop = dry.times()[dry.len() - 2] + t_step;
        let run = |rhs_restamp: bool| {
            let mut ws = crate::workspace::NewtonWorkspace::new(&a);
            ws.rhs_restamp = rhs_restamp;
            let ra = transient_with_workspace(&a, &opts, t_stop, t_step, &mut ws).unwrap();
            let rb = transient_with_workspace(&b, &opts, t_stop, t_step, &mut ws).unwrap();
            assert!(ws.uses_sparse(true), "ladder must select the sparse path");
            (ra, rb)
        };
        let (full_a, full_b) = run(false);
        let (rhs_a, rhs_b) = run(true);
        for r in [&full_a, &full_b] {
            let dts: Vec<f64> = r.t.windows(2).map(|w| w[1] - w[0]).collect();
            assert!(
                dts.iter().any(|&dt| dt < 0.3 * t_step),
                "the supply edge must force step halvings"
            );
            assert_eq!(
                dts[dts.len() - 1],
                t_step,
                "the step must recover to the base step by the end"
            );
        }
        assert_same_bits(&rhs_a, &full_a);
        assert_same_bits(&rhs_b, &full_b);
        // The candidates really differ, so a stale matrix would show.
        let last = full_a.len() - 1;
        assert_ne!(
            full_a.voltage(last, 4).to_bits(),
            full_b.voltage(last, 4).to_bits()
        );
    }

    /// A MOS-loaded ladder (sparse path, compiled MOS table) must give the
    /// same bits on a pooled re-run: the constant-slot preload is refreshed
    /// per timestep and never leaks state between runs. The table holds
    /// topology only, so same-topology candidates — new W/L, or a card at
    /// another temperature — interleaved on one workspace (A → B → A →
    /// C → A) each reproduce the bits of a fresh workspace.
    #[test]
    fn split_transient_is_bit_reproducible_across_workspace_reuse() {
        let tick = 50e-12;
        let a = mos_ladder(tick, &test_nmos());
        let mut b = a.clone();
        for i in [0, 7, 23] {
            b.set_mosfet_geometry(&format!("M{i}"), 6e-6, 0.35e-6, 1.0)
                .unwrap();
        }
        let hot = mos_ladder(tick, &test_nmos().at_temperature(398.15));
        assert_eq!(a.topology_id(), b.topology_id());
        assert_eq!(a.topology_id(), hot.topology_id());
        let opts = SimOptions::default();
        let run = |c: &Circuit, ws: &mut crate::workspace::NewtonWorkspace| {
            transient_with_workspace(c, &opts, 5e-9, tick, ws).unwrap()
        };
        let fresh = |c: &Circuit| run(c, &mut crate::workspace::NewtonWorkspace::new(c));
        let (fresh_a, fresh_b, fresh_hot) = (fresh(&a), fresh(&b), fresh(&hot));
        let mut ws = crate::workspace::NewtonWorkspace::new(&a);
        for (c, want) in [
            (&a, &fresh_a),
            (&b, &fresh_b),
            (&a, &fresh_a),
            (&hot, &fresh_hot),
            (&a, &fresh_a),
        ] {
            assert_same_bits(&run(c, &mut ws), want);
            assert!(ws.uses_sparse(true), "ladder must select the sparse path");
        }
        // The candidates really differ, so a stale table entry would show.
        let last = fresh_a.len() - 1;
        for other in [&fresh_b, &fresh_hot] {
            assert_ne!(
                fresh_a.voltage(last, 4).to_bits(),
                other.voltage(last, 4).to_bits()
            );
        }
    }

    #[test]
    fn sample_interpolates_and_clamps() {
        let r = TranResult {
            t: vec![0.0, 1.0, 2.0],
            v: vec![vec![0.0, 0.0], vec![0.0, 2.0], vec![0.0, 4.0]],
            branch: vec![vec![], vec![], vec![]],
        };
        assert_eq!(r.sample(1, 0.5), 1.0);
        assert_eq!(r.sample(1, -1.0), 0.0);
        assert_eq!(r.sample(1, 3.0), 4.0);
        assert_eq!(r.final_voltage(1), 4.0);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        let opts = SimOptions::default();
        assert!(transient(&c, &opts, 0.0, 1e-9).is_err());
        assert!(transient(&c, &opts, 1e-9, 1e-6).is_err());
    }

    #[test]
    fn breakpoints_are_not_skipped() {
        // A 1 ns pulse inside a 1 ms window with a 100 µs base step would be
        // invisible without breakpoint clipping.
        let mut c = Circuit::new();
        let a = c.node("in");
        c.add_vsource(
            "V1",
            a,
            GND,
            Waveform::pulse(0.0, 1.0, 0.5e-3, 1e-9, 1e-9, 1e-9, f64::INFINITY),
        )
        .unwrap();
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        let r = transient(&c, &SimOptions::default(), 1e-3, 100e-6).unwrap();
        let peak = r.waveform(a).iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(peak > 0.99, "pulse was skipped: peak {peak}");
    }
}
