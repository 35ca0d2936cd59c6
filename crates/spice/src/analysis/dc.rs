//! DC operating point and DC sweeps.
//!
//! The operating point is found by damped Newton-Raphson on the resistive
//! MNA system (capacitors open). When plain NR fails, the solver falls back
//! to gmin stepping (continuation in the diagonal loading conductance) and
//! then to source stepping (continuation in the source scale factor), the
//! same strategies production SPICE engines use.

use std::collections::HashMap;

use crate::diag::{FailureDiag, FailureKind, LadderStage, NewtonFailure};
use crate::error::SpiceError;
use crate::mos::{MosEval, MosRegion};
use crate::netlist::{Circuit, Device, NodeId};
use crate::options::SimOptions;
use crate::stamp::{node_voltage, Assemble, SourceEval, Stamp};
use crate::workspace::{NewtonWorkspace, StampKind};

/// Per-MOSFET operating-point report.
#[derive(Debug, Clone, Copy)]
pub struct MosOp {
    /// Drain current (into the drain) \[A\].
    pub id: f64,
    /// Gate-source voltage \[V\].
    pub vgs: f64,
    /// Drain-source voltage \[V\].
    pub vds: f64,
    /// Bulk-source voltage \[V\].
    pub vbs: f64,
    /// Effective threshold magnitude \[V\].
    pub vth: f64,
    /// Saturation voltage \[V\].
    pub vdsat: f64,
    /// Saturation margin `|vds| − vdsat` \[V\].
    pub vsat_margin: f64,
    /// Transconductance \[S\].
    pub gm: f64,
    /// Output conductance \[S\].
    pub gds: f64,
    /// Bulk transconductance \[S\].
    pub gmb: f64,
    /// Operating region.
    pub region: MosRegion,
}

impl MosOp {
    /// True if the device operates in saturation with at least `margin`
    /// volts of headroom (the paper's "saturation margin" constraints).
    pub fn saturated_with_margin(&self, margin: f64) -> bool {
        self.vsat_margin >= margin
    }
}

/// Solved DC operating point.
#[derive(Debug, Clone)]
pub struct OpPoint {
    /// Node voltages indexed by [`NodeId`] (entry 0 is ground).
    v: Vec<f64>,
    /// Branch currents in branch order.
    branch_currents: Vec<f64>,
    /// Per-MOSFET operating data, keyed by instance name.
    mos: HashMap<String, MosOp>,
    /// Raw unknown vector (for warm starts).
    x: Vec<f64>,
    /// NR iterations used by the successful solve.
    pub iterations: usize,
}

impl OpPoint {
    /// Voltage of a node \[V\].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn voltage(&self, n: NodeId) -> f64 {
        self.v[n]
    }

    /// All node voltages (index = [`NodeId`]).
    pub fn voltages(&self) -> &[f64] {
        &self.v
    }

    /// Current through a voltage source, positive flowing from its `p`
    /// terminal into the source (SPICE convention: a battery delivering
    /// power reports negative current).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if the name does not refer to a
    /// voltage source or VCVS in `circuit`.
    pub fn source_current(&self, circuit: &Circuit, name: &str) -> Result<f64, SpiceError> {
        let idx = circuit
            .device_index(name)
            .ok_or_else(|| SpiceError::UnknownDevice {
                name: name.to_string(),
            })?;
        match &circuit.devices()[idx] {
            Device::VSource { branch, .. } | Device::Vcvs { branch, .. } => {
                Ok(self.branch_currents[*branch])
            }
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Operating-point data of a MOSFET by instance name.
    pub fn mos_op(&self, name: &str) -> Option<&MosOp> {
        self.mos.get(name)
    }

    /// All MOSFET operating points, keyed by instance name.
    pub fn mos_ops(&self) -> &HashMap<String, MosOp> {
        &self.mos
    }

    /// Raw unknown vector (node voltages then branch currents), usable as a
    /// warm start for subsequent solves.
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// Generic damped Newton loop shared by the DC and transient engines.
///
/// `assemble` describes the linearized system: its constant segment, and
/// the circuit whose MOSFETs are re-linearized at every iterate. Two
/// robustness devices on top of plain Newton:
///
/// - a per-iteration voltage limiter (`opts.v_limit`), the classic SPICE
///   damping;
/// - adaptive relaxation: when `max_dv` stops shrinking (a 2-cycle between
///   two linearizations, common with piecewise device models), the applied
///   fraction of the Newton step is reduced, which provably breaks period-2
///   oscillations; it recovers geometrically once progress resumes.
///
/// All solver state lives in `ws`, so one iteration performs no heap
/// allocation: the recorded plan, sparse LU factors, and step vector are
/// reused across iterations, retries, and (for the transient engine)
/// timesteps.
///
/// Every step runs [`NewtonWorkspace::newton_step`]: assembly through the
/// recorded stamp→slot map of the `(topology, kind)` plan into CSC
/// storage, one pivoting sparse factorization per solve session followed
/// by scan-free numeric refactorizations. A system the sparse LU cannot
/// factor is the [`FailureKind::Singular`] verdict.
pub(crate) fn newton_loop<A: Assemble>(
    circuit: &Circuit,
    opts: &SimOptions,
    max_iters: usize,
    x0: &[f64],
    ws: &mut NewtonWorkspace,
    kind: StampKind,
    assemble: A,
) -> Result<(Vec<f64>, usize), NewtonFailure> {
    if !telemetry::enabled() {
        return newton_loop_inner(circuit, opts, max_iters, x0, ws, kind, assemble);
    }
    let _solve = telemetry::span(telemetry::SpanId::Solve);
    let out = newton_loop_inner(circuit, opts, max_iters, x0, ws, kind, assemble);
    let iters = match &out {
        Ok((_, it)) => *it,
        Err(e) => e.iterations,
    };
    telemetry::record(telemetry::Metric::NewtonIterations, iters as u64);
    if let Err(e) = &out {
        if e.injected {
            telemetry::record(telemetry::Metric::FaultsInjected, 1);
            telemetry::instant(telemetry::SpanId::Fault, e.kind as u64);
        }
    }
    out
}

fn newton_loop_inner<A: Assemble>(
    circuit: &Circuit,
    opts: &SimOptions,
    max_iters: usize,
    x0: &[f64],
    ws: &mut NewtonWorkspace,
    kind: StampKind,
    mut assemble: A,
) -> Result<(Vec<f64>, usize), NewtonFailure> {
    // Deterministic fault hook: one relaxed atomic load when disabled; an
    // active plan forces the planned failure at its chosen solve indices.
    if let Some(fault) = crate::fault::next_solve_fault() {
        return Err(NewtonFailure {
            kind: fault.failure_kind(),
            iterations: if fault == crate::fault::FaultKind::IterationExhaustion {
                max_iters
            } else {
                0
            },
            injected: true,
        });
    }
    let n = circuit.num_unknowns();
    let n_v = circuit.num_nodes() - 1;
    let mut x = x0.to_vec();
    let mut converged_once = false;
    let mut relax = 1.0_f64;
    let mut prev_dv = f64::INFINITY;
    let mut prev_damp = 1.0_f64;
    ws.ensure(circuit);
    // One Newton solve = one constant-segment preload: the plan stamps the
    // x-independent writes (linear devices, sources at this solve's
    // time/scale, capacitor companions) once here-after, and replays only
    // the compiled MOS table per iteration.
    ws.begin_solve();
    let fail = |kind: FailureKind, iterations: usize| NewtonFailure {
        kind,
        iterations,
        injected: false,
    };
    for iter in 0..max_iters {
        if !ws.newton_step(kind, &x, &mut assemble) {
            return Err(fail(FailureKind::Singular, iter));
        }
        let x_new = &ws.x_new;
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(fail(FailureKind::NanResidual, iter));
        }
        // Raw Newton step size on node voltages.
        let mut max_dv = 0.0_f64;
        for i in 0..n_v {
            max_dv = max_dv.max((x_new[i] - x[i]).abs());
        }
        let vmax = x[..n_v].iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let tol = opts.vabstol + opts.reltol * vmax;
        // Converged: the full Newton step is already below tolerance.
        if max_dv < tol {
            if converged_once {
                x[..n].copy_from_slice(&x_new[..n]);
                return Ok((x, iter + 1));
            }
            converged_once = true;
        } else {
            converged_once = false;
        }
        // Relaxation adaptation. A damped iteration on a locally linear
        // system shrinks the step by about (1 − damp) per pass, so judge
        // progress against that yardstick: clearly growing steps and steps
        // shrinking much slower than the damping allows both indicate
        // cycling between linearizations.
        let ratio = max_dv / prev_dv;
        if ratio > 1.05 {
            relax = (relax * 0.5).max(0.02);
        } else if ratio > 1.0 - 0.3 * prev_damp {
            relax = (relax * 0.7).max(0.02);
        } else {
            relax = (relax * 1.4).min(1.0);
        }
        prev_dv = max_dv;
        let damp = relax
            * if max_dv > opts.v_limit {
                opts.v_limit / max_dv
            } else {
                1.0
            };
        prev_damp = damp;
        for i in 0..n {
            x[i] += damp * (x_new[i] - x[i]);
        }
    }
    Err(fail(FailureKind::NoConvergence, max_iters))
}

/// The DC-resistive assembly: gmin loading and the linear devices at the
/// given source scale, plus the circuit's MOSFETs linearized at each
/// iterate.
struct DcAssemble<'a> {
    circuit: &'a Circuit,
    gmin: f64,
    scale: f64,
}

impl Assemble for DcAssemble<'_> {
    fn assemble_constant<S: Stamp<f64>>(&mut self, st: &mut S) {
        st.load_gmin(self.gmin);
        crate::stamp::stamp_resistive_linear(
            self.circuit,
            SourceEval::Dc { scale: self.scale },
            st,
        );
    }

    fn circuit(&self) -> &Circuit {
        self.circuit
    }
}

/// Newton-Raphson solve at fixed source scale and gmin. Returns the unknown
/// vector and iterations, or the classified failure.
fn nr_solve(
    circuit: &Circuit,
    opts: &SimOptions,
    gmin: f64,
    scale: f64,
    x0: &[f64],
    max_iters: usize,
    ws: &mut NewtonWorkspace,
) -> Result<(Vec<f64>, usize), NewtonFailure> {
    newton_loop(
        circuit,
        opts,
        max_iters,
        x0,
        ws,
        StampKind::Dc,
        DcAssemble {
            circuit,
            gmin,
            scale,
        },
    )
}

/// Builds the [`OpPoint`] report from a converged unknown vector.
fn build_op(circuit: &Circuit, x: Vec<f64>, iterations: usize) -> OpPoint {
    let n_nodes = circuit.num_nodes();
    let mut v = vec![0.0; n_nodes];
    for (i, vi) in v.iter_mut().enumerate().skip(1) {
        *vi = x[i - 1];
    }
    let branch_currents = x[(n_nodes - 1)..].to_vec();
    let mut mos = HashMap::new();
    for dev in circuit.devices() {
        if let Device::Mosfet {
            name,
            d,
            g,
            s,
            b,
            model,
            w,
            l,
            m,
            ..
        } = dev
        {
            let vgs = node_voltage(&x, *g) - node_voltage(&x, *s);
            let vds = node_voltage(&x, *d) - node_voltage(&x, *s);
            let vbs = node_voltage(&x, *b) - node_voltage(&x, *s);
            let e: MosEval = crate::mos::eval_mos(model, *w, *l, *m, vgs, vds, vbs);
            mos.insert(
                name.clone(),
                MosOp {
                    id: e.id,
                    vgs,
                    vds,
                    vbs,
                    vth: e.vth,
                    vdsat: e.vdsat,
                    vsat_margin: e.vsat_margin,
                    gm: e.gm,
                    gds: e.gds,
                    gmb: e.gmb,
                    region: e.region,
                },
            );
        }
    }
    OpPoint {
        v,
        branch_currents,
        mos,
        x,
        iterations,
    }
}

/// Computes the DC operating point.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when NR, gmin stepping and source
/// stepping all fail, or [`SpiceError::SingularMatrix`] if the topology is
/// structurally singular even with gmin loading.
pub fn op(circuit: &Circuit, opts: &SimOptions) -> Result<OpPoint, SpiceError> {
    op_with_guess(circuit, opts, None)
}

/// Computes the DC operating point starting from a warm-start guess
/// (the raw unknown vector of a previous, nearby solution).
///
/// # Errors
///
/// Same failure modes as [`op`].
pub fn op_with_guess(
    circuit: &Circuit,
    opts: &SimOptions,
    guess: Option<&[f64]>,
) -> Result<OpPoint, SpiceError> {
    // Lease from the process-wide pool so repeated solves on the same
    // topology (optimizer candidates, test sweeps) reuse the recorded
    // stamp→slot maps and factor storage even through this convenience
    // entry point.
    let mut ws = crate::workspace::lease_workspace(circuit);
    op_with_workspace(circuit, opts, guess, &mut ws)
}

/// Computes the DC operating point using caller-owned solver state.
///
/// The workspace (recorded plans, LU factors, step buffers) is reused
/// across every Newton iteration and every gmin/source-stepping retry, so
/// the solve performs no per-iteration allocation. Reuse one workspace
/// across many solves of the same topology (sweeps, optimizer
/// populations) for the full benefit; it resizes itself if the circuit's
/// unknown count changes.
///
/// # Errors
///
/// Same failure modes as [`op`].
pub fn op_with_workspace(
    circuit: &Circuit,
    opts: &SimOptions,
    guess: Option<&[f64]>,
    ws: &mut NewtonWorkspace,
) -> Result<OpPoint, SpiceError> {
    let n = circuit.num_unknowns();
    if n == 0 {
        return Err(SpiceError::BadAnalysis {
            reason: "empty circuit".to_string(),
        });
    }
    let _span = telemetry::span(telemetry::SpanId::Op);
    ws.ensure(circuit);
    // New candidate/analysis: re-derive sparse pivot sequences from this
    // circuit's own values (the workspace-pooling determinism boundary).
    ws.begin_session();
    let x0 = guess.map(<[f64]>::to_vec).unwrap_or_else(|| vec![0.0; n]);

    // Recovery-ladder bookkeeping: total Newton iterations spent across
    // every stage (successful continuation steps included — that is the
    // retry budget this candidate burned), the deepest stage reached, and
    // the classified failure of the last stage to die.
    let mut spent = 0usize;
    let mut injected = false;

    // 1. Plain NR.
    match nr_solve(circuit, opts, opts.gmin, 1.0, &x0, opts.max_nr_iters, ws) {
        Ok((x, iters)) => return Ok(build_op(circuit, x, iters)),
        Err(e) => {
            spent += e.iterations;
            injected |= e.injected;
        }
    }

    // 2. Gmin stepping: heavy loading pulls every node toward ground,
    //    making the first solves nearly linear; relax it gradually.
    let mut x = x0.clone();
    let mut ok = true;
    let mut total = 0;
    for exp in 2..=12 {
        let gmin = 10f64.powi(-exp);
        telemetry::record(telemetry::Metric::GminSteps, 1);
        match nr_solve(circuit, opts, gmin, 1.0, &x, opts.max_nr_iters, ws) {
            Ok((xn, it)) => {
                x = xn;
                total += it;
            }
            Err(e) => {
                total += e.iterations;
                injected |= e.injected;
                ok = false;
                break;
            }
        }
    }
    if ok {
        match nr_solve(circuit, opts, opts.gmin, 1.0, &x, opts.max_nr_iters, ws) {
            Ok((xf, it)) => return Ok(build_op(circuit, xf, total + it)),
            Err(e) => {
                total += e.iterations;
                injected |= e.injected;
            }
        }
    }
    spent += total;

    // 3. Source stepping: ramp all independent sources from 10% to 100%.
    // The last stage of the ladder: its failure classifies the whole solve.
    let mut x = vec![0.0; n];
    let mut total = 0;
    for step in 1..=10 {
        let scale = step as f64 / 10.0;
        telemetry::record(telemetry::Metric::SourceSteps, 1);
        match nr_solve(circuit, opts, opts.gmin, scale, &x, opts.max_nr_iters, ws) {
            Ok((xn, it)) => {
                x = xn;
                total += it;
            }
            Err(e) => {
                return Err(SpiceError::Solver(FailureDiag {
                    kind: e.kind,
                    analysis: "dc operating point",
                    stage: LadderStage::SourceStepping,
                    iterations: spent + total + e.iterations,
                    halvings: 0,
                    injected: injected || e.injected,
                }));
            }
        }
    }
    Ok(build_op(circuit, x, total))
}

/// Sweeps the DC value of one voltage source, warm-starting each point from
/// the previous solution. Returns one operating point per sweep value.
///
/// # Errors
///
/// Fails if the source is unknown or any point fails to converge.
pub fn dc_sweep(
    circuit: &Circuit,
    opts: &SimOptions,
    source: &str,
    values: &[f64],
) -> Result<Vec<OpPoint>, SpiceError> {
    let idx = circuit
        .device_index(source)
        .ok_or_else(|| SpiceError::UnknownDevice {
            name: source.to_string(),
        })?;
    if !matches!(circuit.devices()[idx], Device::VSource { .. }) {
        return Err(SpiceError::UnknownDevice {
            name: source.to_string(),
        });
    }
    if values.is_empty() {
        return Err(SpiceError::BadAnalysis {
            reason: "empty dc sweep".to_string(),
        });
    }
    let mut ckt = circuit.clone();
    let mut out = Vec::with_capacity(values.len());
    let mut guess: Option<Vec<f64>> = None;
    // One workspace for the whole sweep: every point reuses the recorded
    // plan and LU storage.
    let mut ws = NewtonWorkspace::new(&ckt);
    for &val in values {
        if let Device::VSource { wave, .. } = &mut ckt.devices_mut()[idx] {
            *wave = crate::waveform::Waveform::Dc(val);
        }
        let op = op_with_workspace(&ckt, opts, guess.as_deref(), &mut ws)?;
        guess = Some(op.raw().to_vec());
        out.push(op);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::{MosModel, MosPolarity};
    use crate::netlist::GND;
    use crate::waveform::Waveform;

    fn nmos() -> MosModel {
        MosModel {
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
        }
    }

    fn pmos() -> MosModel {
        MosModel {
            polarity: MosPolarity::Pmos,
            vth0: 0.45,
            kp: 80e-6,
            ..nmos()
        }
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, GND, Waveform::Dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, GND, 3e3).unwrap();
        let op = op(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.5).abs() < 1e-6);
        // Battery delivers 2V/4k = 0.5 mA; reported current is negative.
        let i = op.source_current(&c, "V1").unwrap();
        assert!((i + 0.5e-3).abs() < 1e-9);
    }

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, GND, Waveform::Dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, GND, 3e3).unwrap();
        c
    }

    #[test]
    fn injected_fault_on_every_solve_exhausts_the_ladder() {
        use crate::fault::{self, FaultKind, FaultPlan, FaultSolves};
        let _guard = fault::PLAN_LOCK.lock().unwrap();
        let c = divider();
        fault::install(Some(FaultPlan {
            seed: 9,
            rate: 1.0,
            kind: FaultKind::SingularFactor,
            solves: FaultSolves::All,
        }));
        let err = {
            let _scope = fault::candidate_scope(fault::candidate_key(&[0.5], 0));
            op(&c, &SimOptions::default()).unwrap_err()
        };
        fault::install(None);
        let diag = err.failure_diag().expect("solver failure carries a diag");
        assert_eq!(diag.kind, FailureKind::Singular);
        assert_eq!(diag.stage, LadderStage::SourceStepping);
        assert_eq!(diag.analysis, "dc operating point");
        assert!(diag.injected, "diag must be marked injected: {diag}");
    }

    #[test]
    fn injected_fault_on_first_solve_is_rescued_by_gmin_stepping() {
        use crate::fault::{self, FaultKind, FaultPlan, FaultSolves};
        let _guard = fault::PLAN_LOCK.lock().unwrap();
        let c = divider();
        fault::install(Some(FaultPlan {
            seed: 9,
            rate: 1.0,
            kind: FaultKind::IterationExhaustion,
            solves: FaultSolves::Index(0),
        }));
        let point = {
            let _scope = fault::candidate_scope(fault::candidate_key(&[0.5], 0));
            op(&c, &SimOptions::default()).unwrap()
        };
        fault::install(None);
        // Plain NR was killed; the gmin ladder recovered the exact solution.
        assert!((point.voltage(2) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn fault_outside_candidate_scope_is_inert() {
        use crate::fault::{self, FaultKind, FaultPlan, FaultSolves};
        let _guard = fault::PLAN_LOCK.lock().unwrap();
        let c = divider();
        fault::install(Some(FaultPlan {
            seed: 9,
            rate: 1.0,
            kind: FaultKind::SingularFactor,
            solves: FaultSolves::All,
        }));
        // No candidate scope on this thread: the plan must not fire.
        let point = op(&c, &SimOptions::default()).unwrap();
        fault::install(None);
        assert!((point.voltage(2) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource("I1", GND, a, Waveform::Dc(1e-3)).unwrap();
        c.add_resistor("R1", a, GND, 2e3).unwrap();
        let op = op(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(a) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, GND, Waveform::Dc(0.1)).unwrap();
        c.add_vcvs("E1", out, GND, inp, GND, 10.0).unwrap();
        c.add_resistor("RL", out, GND, 1e3).unwrap();
        let op = op(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_drives_current() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, GND, Waveform::Dc(0.5)).unwrap();
        c.add_vccs("G1", GND, out, inp, GND, 1e-3).unwrap(); // 0.5 mA into out
        c.add_resistor("RL", out, GND, 1e3).unwrap();
        let op = op(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(out) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_bias() {
        // VDD -> R -> diode-connected NMOS to ground. The gate voltage must
        // settle a bit above Vth and KCL must hold: (VDD - v)/R = Id(v).
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_resistor("R1", vdd, d, 10e3).unwrap();
        let m = nmos();
        c.add_mosfet("M1", d, d, GND, GND, &m, 10e-6, 1e-6, 1.0)
            .unwrap();
        // 3 unknowns, 6 of 9 entries structurally nonzero: the densest
        // system a Newton test solves, on the same sparse LU as the rest.
        let opts = SimOptions::default();
        let mut ws = NewtonWorkspace::new(&c);
        let op = op_with_workspace(&c, &opts, None, &mut ws).unwrap();
        // Each Newton step solves what the dense reference elimination
        // solves on the dense reference assembly of the same linearization.
        for x in [vec![0.0; 3], vec![1.8, 0.7, -1e-4], op.raw().to_vec()] {
            let mut asm = DcAssemble {
                circuit: &c,
                gmin: opts.gmin,
                scale: 1.0,
            };
            ws.begin_solve();
            assert!(ws.newton_step(StampKind::Dc, &x, &mut asm));
            let mut st = crate::stamp::RealStamper::new(&c);
            st.load_gmin(opts.gmin);
            crate::stamp::stamp_resistive_system(&c, &x, SourceEval::Dc { scale: 1.0 }, &mut st);
            let want = linalg::reference::solve(&st.a, 3, &st.z).unwrap();
            let scale = want.iter().fold(0.0_f64, |m, w| m.max(w.abs()));
            for (got, want) in ws.x_new.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-12 * scale, "{got} vs {want}");
            }
        }
        let v = op.voltage(d);
        assert!(v > 0.45 && v < 1.2, "diode voltage {v}");
        let mop = op.mos_op("M1").unwrap();
        let ir = (1.8 - v) / 10e3;
        assert!(
            (mop.id - ir).abs() / ir < 1e-3,
            "KCL violated: id={} ir={}",
            mop.id,
            ir
        );
        assert_eq!(mop.region, MosRegion::Saturation);
    }

    #[test]
    fn cmos_inverter_transfer_extremes() {
        let build = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
            c.add_vsource("VIN", inp, GND, Waveform::Dc(vin)).unwrap();
            c.add_mosfet("MN", out, inp, GND, GND, &nmos(), 2e-6, 0.18e-6, 1.0)
                .unwrap();
            c.add_mosfet("MP", out, inp, vdd, vdd, &pmos(), 4e-6, 0.18e-6, 1.0)
                .unwrap();
            let op = op(&c, &SimOptions::default()).unwrap();
            op.voltage(out)
        };
        assert!(build(0.0) > 1.75, "out-high failed: {}", build(0.0));
        assert!(build(1.8) < 0.05, "out-low failed: {}", build(1.8));
        let mid = build(0.9);
        assert!(mid > 0.1 && mid < 1.7, "mid transfer: {mid}");
    }

    #[test]
    fn nmos_common_source_gain_stage() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_vsource("VG", g, GND, Waveform::Dc(0.7)).unwrap();
        c.add_resistor("RD", vdd, d, 8e3).unwrap();
        c.add_mosfet("M1", d, g, GND, GND, &nmos(), 10e-6, 1e-6, 1.0)
            .unwrap();
        let op = op(&c, &SimOptions::default()).unwrap();
        let mop = op.mos_op("M1").unwrap();
        assert_eq!(mop.region, MosRegion::Saturation);
        assert!(mop.gm > 0.0);
        // Drain voltage consistent with id·RD drop.
        assert!((op.voltage(d) - (1.8 - mop.id * 8e3)).abs() < 1e-6);
    }

    #[test]
    fn dc_sweep_inverter_is_monotonic() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_vsource("VIN", inp, GND, Waveform::Dc(0.0)).unwrap();
        c.add_mosfet("MN", out, inp, GND, GND, &nmos(), 2e-6, 0.18e-6, 1.0)
            .unwrap();
        c.add_mosfet("MP", out, inp, vdd, vdd, &pmos(), 4e-6, 0.18e-6, 1.0)
            .unwrap();
        let values: Vec<f64> = (0..=18).map(|i| i as f64 * 0.1).collect();
        let sweep = dc_sweep(&c, &SimOptions::default(), "VIN", &values).unwrap();
        let vout: Vec<f64> = sweep.iter().map(|o| o.voltage(out)).collect();
        for w in vout.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-6,
                "inverter VTC must be non-increasing: {vout:?}"
            );
        }
    }

    #[test]
    fn sparse_kernel_solves_large_mos_ladder() {
        // 30 diode-connected-NMOS stages: 32 unknowns. KCL at every stage
        // pins the whole solution, so this exercises the recorded stamp→slot assembly, the pivoting
        // first factor, and the refactor path end to end.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        let m = nmos();
        let mut prev = vdd;
        for i in 0..30 {
            let d = c.node(&format!("d{i}"));
            c.add_resistor(&format!("R{i}"), prev, d, 5e3).unwrap();
            c.add_mosfet(&format!("M{i}"), d, d, GND, GND, &m, 4e-6, 0.5e-6, 1.0)
                .unwrap();
            prev = d;
        }
        let mut ws = crate::workspace::NewtonWorkspace::new(&c);
        let op = op_with_workspace(&c, &SimOptions::default(), None, &mut ws).unwrap();
        // KCL at every internal node: the incoming resistor current equals
        // the stage's diode current plus the current into the next stage.
        let mut up = vdd;
        for i in 0..30 {
            let d = c.find_node(&format!("d{i}")).unwrap();
            let i_in = (op.voltage(up) - op.voltage(d)) / 5e3;
            let i_out = if i + 1 < 30 {
                let next = c.find_node(&format!("d{}", i + 1)).unwrap();
                (op.voltage(d) - op.voltage(next)) / 5e3
            } else {
                0.0
            };
            let id = op.mos_op(&format!("M{i}")).unwrap().id;
            assert!(
                (i_in - i_out - id).abs() <= 1e-6 * id.abs().max(1e-12) + 1e-9,
                "KCL violated at stage {i}: in={i_in} out={i_out} id={id}"
            );
            up = d;
        }
        // Re-solving with the same workspace refactors instead of
        // re-recording and yields the same answer.
        let op2 = op_with_workspace(&c, &SimOptions::default(), None, &mut ws).unwrap();
        for n in 0..c.num_nodes() {
            assert_eq!(op.voltage(n).to_bits(), op2.voltage(n).to_bits());
        }
        // In-place value updates (same topology) keep the recorded plan
        // valid: resize every device and check KCL again.
        let mut sized = c.clone();
        for i in 0..30 {
            sized
                .set_mosfet_geometry(&format!("M{i}"), 8e-6, 0.4e-6, 2.0)
                .unwrap();
            sized.set_resistance(&format!("R{i}"), 7e3).unwrap();
        }
        let op3 = op_with_workspace(&sized, &SimOptions::default(), None, &mut ws).unwrap();
        // Terminal stage: all of the last resistor's current is M29's.
        let d28 = sized.find_node("d28").unwrap();
        let d29 = sized.find_node("d29").unwrap();
        let ir = (op3.voltage(d28) - op3.voltage(d29)) / 7e3;
        let id = op3.mos_op("M29").unwrap().id;
        assert!(
            (ir - id).abs() <= 1e-6 * id.abs().max(1e-12) + 1e-9,
            "ir={ir} id={id}"
        );
    }

    #[test]
    fn parallel_voltage_sources_are_singular() {
        // Two ideal sources of different value across one node: their
        // branch columns are identical, so no pivot order factors the
        // system, and no gmin or source-stepping rung changes that.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.add_vsource("V2", a, GND, Waveform::Dc(2.0)).unwrap();
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        let err = op(&c, &SimOptions::default()).unwrap_err();
        let diag = err.failure_diag().expect("solver failure carries a diag");
        assert_eq!(diag.kind, FailureKind::Singular, "{diag}");
        assert!(!diag.injected, "{diag}");
    }

    #[test]
    fn floating_node_recovers_via_gmin() {
        // A node connected only through a capacitor is floating in DC; gmin
        // loading defines it instead of failing.
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("floating");
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.add_capacitor("C1", a, f, 1e-12).unwrap();
        let op = op(&c, &SimOptions::default()).unwrap();
        assert!(op.voltage(f).abs() < 1e-3);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        assert!(matches!(
            op(&c, &SimOptions::default()),
            Err(SpiceError::BadAnalysis { .. })
        ));
    }

    #[test]
    fn sweep_unknown_source_is_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        assert!(dc_sweep(&c, &SimOptions::default(), "VX", &[0.0]).is_err());
    }
}
