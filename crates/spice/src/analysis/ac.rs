//! AC small-signal analysis.
//!
//! The circuit is linearized at a DC operating point; at each frequency the
//! complex system `(G + jωC)·x = b` is solved, where `G` holds the
//! small-signal conductances (gm/gds/gmb of each MOSFET plus resistors and
//! controlled sources), `C` the constant capacitances, and `b` the AC
//! magnitudes of the independent sources. Sources only touch `b`, so one
//! sweep serves several excitations: it factors `G + jωC` once per
//! frequency and solves one right-hand side per excitation
//! ([`ac_multi_with_workspace`]).
//!
//! The sweep runs on the pooled frequency-domain workspace: the sparsity
//! pattern of `G + jωC` is fixed by the topology (ω only scales values), so
//! the pattern and stamp→slot map are recorded once, the first point runs a
//! pivoting sparse factorization, and every further point pays slot-map
//! assembly plus a scan-free refactorization — no per-point matrix clone
//! or fresh factor storage.

use linalg::C64;

use crate::analysis::dc::OpPoint;
use crate::error::SpiceError;
use crate::netlist::{Circuit, Device, NodeId};
use crate::options::SimOptions;
use crate::stamp::{AssembleComplex, RhsStamper, Stamp};
use crate::workspace::{lease_workspace, NewtonWorkspace};

/// Result of an AC sweep: complex node voltages per frequency.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `v[f][node]` — complex node voltage; index 0 is ground (always 0).
    v: Vec<Vec<C64>>,
}

impl AcSweep {
    /// The frequency grid \[Hz\].
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex voltage of `node` at frequency index `fi`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn voltage(&self, fi: usize, node: NodeId) -> C64 {
        self.v[fi][node]
    }

    /// Differential voltage `v(p) − v(n)` at frequency index `fi`.
    pub fn diff_voltage(&self, fi: usize, p: NodeId, n: NodeId) -> C64 {
        self.v[fi][p] - self.v[fi][n]
    }

    /// Magnitude response of a node over the whole sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        self.v.iter().map(|vf| vf[node].abs()).collect()
    }

    /// Magnitude response of `v(p) − v(n)` over the whole sweep.
    pub fn diff_magnitude(&self, p: NodeId, n: NodeId) -> Vec<f64> {
        self.v.iter().map(|vf| (vf[p] - vf[n]).abs()).collect()
    }

    /// Phase (radians, unwrapped) of `v(p) − v(n)` over the whole sweep.
    ///
    /// Unwrapping removes 2π jumps so phase-margin computations can
    /// interpolate safely.
    pub fn diff_phase_unwrapped(&self, p: NodeId, n: NodeId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.v.len());
        let mut prev = 0.0;
        let mut offset = 0.0;
        for (i, vf) in self.v.iter().enumerate() {
            let raw = (vf[p] - vf[n]).arg();
            if i > 0 {
                let mut d = raw + offset - prev;
                while d > std::f64::consts::PI {
                    offset -= 2.0 * std::f64::consts::PI;
                    d = raw + offset - prev;
                }
                while d < -std::f64::consts::PI {
                    offset += 2.0 * std::f64::consts::PI;
                    d = raw + offset - prev;
                }
            }
            prev = raw + offset;
            out.push(prev);
        }
        out
    }
}

/// Builds a log-spaced frequency grid from `f_start` to `f_stop` with
/// `points_per_decade` points per decade (endpoints included).
///
/// # Panics
///
/// Panics if the range or density is non-positive.
pub fn log_freqs(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start, "invalid frequency range");
    assert!(points_per_decade > 0, "need at least one point per decade");
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_start * 10f64.powf(decades * i as f64 / (n - 1) as f64))
        .collect()
}

/// One small-signal assembly pass, generic over the [`C64`] stamp sink
/// (write recorder or CSC slot map; dense rows in tests — each
/// monomorphized).
/// Captures the linearization point and ω. Independent sources are
/// quiesced: AC excitations enter through [`stamp_excitation`] and the
/// noise adjoint solver's right-hand side is the output selector.
pub(crate) struct SmallSignalAssembler<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) op: &'a OpPoint,
    pub(crate) opts: &'a SimOptions,
    pub(crate) omega: f64,
}

impl AssembleComplex for SmallSignalAssembler<'_> {
    /// Assembles `G + jωC` with every independent source quiesced. The
    /// write sequence is identical for every ω, which is what makes the
    /// recorded slot map valid across a sweep.
    fn assemble<S: Stamp<C64>>(&mut self, st: &mut S) {
        let omega = self.omega;
        st.load_gmin(self.opts.gmin);
        for dev in self.circuit.devices() {
            match dev {
                Device::Resistor { a, b, g, .. } => st.conductance(*a, *b, C64::real(*g)),
                Device::Capacitor { a, b, c, .. } => {
                    st.conductance(*a, *b, C64::new(0.0, omega * c))
                }
                Device::VSource { p, n, branch, .. } => st.vsource(*branch, *p, *n, C64::ZERO),
                Device::ISource { .. } => {}
                Device::Vcvs {
                    p,
                    n,
                    cp,
                    cn,
                    gain,
                    branch,
                    ..
                } => {
                    st.vcvs(*branch, *p, *n, *cp, *cn, *gain);
                }
                Device::Vccs {
                    p, n, cp, cn, gm, ..
                } => st.vccs(*p, *n, *cp, *cn, *gm),
                Device::Mosfet {
                    name,
                    d,
                    g,
                    s,
                    b,
                    caps,
                    ..
                } => {
                    let mop = self
                        .op
                        .mos_op(name)
                        .expect("operating point must cover every MOSFET");
                    st.vccs(*d, *s, *g, *s, mop.gm);
                    st.conductance(*d, *s, C64::real(mop.gds));
                    st.vccs(*d, *s, *b, *s, mop.gmb);
                    st.conductance(*g, *s, C64::new(0.0, omega * caps.cgs));
                    st.conductance(*g, *d, C64::new(0.0, omega * caps.cgd));
                    st.conductance(*g, *b, C64::new(0.0, omega * caps.cgb));
                    st.conductance(*d, *b, C64::new(0.0, omega * caps.cdb));
                    st.conductance(*s, *b, C64::new(0.0, omega * caps.csb));
                }
            }
        }
    }
}

/// Stamps one excitation's right-hand side into `z`: every independent
/// source in device order, at its magnitude in `mags` (indexed like
/// [`Circuit::devices`]), through the same [`Stamp`] writes a full
/// assembly with those `ac_mag` values makes — so `z` is bit-identical to
/// that assembly's right-hand side. No recorded sequence backs this pass,
/// so the sink's write count is not checked.
fn stamp_excitation(circuit: &Circuit, mags: &[f64], z: &mut [C64]) {
    let mut st = RhsStamper::new(circuit.num_nodes(), 0, z);
    for (dev, &mag) in circuit.devices().iter().zip(mags) {
        match dev {
            Device::VSource { p, n, branch, .. } => st.vsource(*branch, *p, *n, C64::real(mag)),
            Device::ISource { p, n, .. } => st.current_source(*p, *n, C64::real(mag)),
            _ => {}
        }
    }
}

/// Runs an AC sweep over the given frequency grid, linearized at `op`,
/// using a workspace leased from the process-wide topology-keyed pool.
///
/// Sources excite the circuit through their `ac_mag` values (set via
/// [`Circuit::add_vsource_ac`] / [`Circuit::add_isource_ac`]).
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] if the linearized system is
/// singular at some frequency, or [`SpiceError::BadAnalysis`] for an empty
/// grid.
pub fn ac(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &OpPoint,
    freqs: &[f64],
) -> Result<AcSweep, SpiceError> {
    let mut ws = lease_workspace(circuit);
    ac_with_workspace(circuit, opts, op, freqs, &mut ws)
}

/// [`ac`] with an explicit workspace: the sweep reuses the workspace's
/// recorded complex pattern, slot map, and factor storage, so repeated
/// sweeps on one topology (a sizing loop's candidates, or a testbench's
/// AC and noise analyses) pay the symbolic analysis once. This is the
/// one-excitation case of [`ac_multi_with_workspace`], with the excitation
/// read from the sources' `ac_mag` values.
///
/// Results are bit-identical whether the workspace is fresh or pooled: the
/// sparse pivot sequence is re-derived from this sweep's own first
/// frequency point, never inherited.
///
/// # Errors
///
/// Same failure modes as [`ac`].
pub fn ac_with_workspace(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &OpPoint,
    freqs: &[f64],
    ws: &mut NewtonWorkspace,
) -> Result<AcSweep, SpiceError> {
    let mags: Vec<f64> = circuit
        .devices()
        .iter()
        .map(|dev| match dev {
            Device::VSource { ac_mag, .. } | Device::ISource { ac_mag, .. } => *ac_mag,
            _ => 0.0,
        })
        .collect();
    let mut sweeps = sweep(circuit, opts, op, freqs, &[mags], ws)?;
    Ok(sweeps.pop().expect("one sweep per excitation"))
}

/// One AC sweep under several source excitations at once. Each excitation
/// lists `(source name, AC magnitude)` pairs; every independent source it
/// does not name is quiesced, whatever its `ac_mag` value. Returns one
/// [`AcSweep`] per excitation, in order.
///
/// `G + jωC` does not depend on the excitation, so each frequency point is
/// assembled and factored once and solved once per excitation. Each sweep
/// is bit-identical to an [`ac_with_workspace`] sweep run after
/// [`Circuit::clear_ac_mags`] and [`Circuit::set_ac_mag`] for that
/// excitation.
///
/// # Errors
///
/// [`SpiceError::UnknownDevice`] if a name is not an independent source of
/// `circuit`; otherwise the failure modes of [`ac`].
pub fn ac_multi_with_workspace(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &OpPoint,
    freqs: &[f64],
    excitations: &[&[(&str, f64)]],
    ws: &mut NewtonWorkspace,
) -> Result<Vec<AcSweep>, SpiceError> {
    let devices = circuit.devices();
    let mags = excitations
        .iter()
        .map(|sources| {
            let mut mags = vec![0.0; devices.len()];
            for &(name, mag) in *sources {
                match circuit.device_index(name) {
                    Some(i)
                        if matches!(
                            devices[i],
                            Device::VSource { .. } | Device::ISource { .. }
                        ) =>
                    {
                        mags[i] = mag;
                    }
                    _ => {
                        return Err(SpiceError::UnknownDevice {
                            name: name.to_string(),
                        })
                    }
                }
            }
            Ok(mags)
        })
        .collect::<Result<Vec<_>, _>>()?;
    sweep(circuit, opts, op, freqs, &mags, ws)
}

/// The sweep body: per frequency, one assembly and factorization of
/// `G + jωC`, then one solve per excitation (`mags[e]` holds excitation
/// `e`'s source magnitudes, indexed like [`Circuit::devices`]).
fn sweep(
    circuit: &Circuit,
    opts: &SimOptions,
    op: &OpPoint,
    freqs: &[f64],
    mags: &[Vec<f64>],
    ws: &mut NewtonWorkspace,
) -> Result<Vec<AcSweep>, SpiceError> {
    if freqs.is_empty() {
        return Err(SpiceError::BadAnalysis {
            reason: "empty frequency grid".to_string(),
        });
    }
    let _span = telemetry::span(telemetry::SpanId::Ac);
    ws.ensure(circuit);
    ws.begin_session();
    let session = ws.session();
    let n_nodes = circuit.num_nodes();
    let rhs: Vec<Vec<C64>> = mags
        .iter()
        .map(|m| {
            let mut z = vec![C64::ZERO; circuit.num_unknowns()];
            stamp_excitation(circuit, m, &mut z);
            z
        })
        .collect();
    let ac_ws = ws.ac_mut(circuit);
    let mut v: Vec<Vec<Vec<C64>>> = mags
        .iter()
        .map(|_| Vec::with_capacity(freqs.len()))
        .collect();
    let mut x = Vec::new();
    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        let mut assembler = SmallSignalAssembler {
            circuit,
            op,
            opts,
            omega,
        };
        if !ac_ws.factor_point(circuit, session, &mut assembler) {
            return Err(SpiceError::SingularMatrix { analysis: "ac" });
        }
        for (b, ve) in rhs.iter().zip(&mut v) {
            if !ac_ws.solve(b, &mut x) {
                return Err(SpiceError::SingularMatrix { analysis: "ac" });
            }
            let mut vf = vec![C64::ZERO; n_nodes];
            for (node, vn) in vf.iter_mut().enumerate().skip(1) {
                *vn = x[node - 1];
            }
            ve.push(vf);
        }
    }
    Ok(v.into_iter()
        .map(|v| AcSweep {
            freqs: freqs.to_vec(),
            v,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GND;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_magnitude_and_phase() {
        // R = 1k, C = 1uF -> f3dB = 1/(2πRC) ≈ 159.15 Hz.
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource_ac("V1", a, GND, Waveform::Dc(0.0), 1.0)
            .unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_capacitor("C1", b, GND, 1e-6).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let f3 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6);
        let sweep = ac(&c, &opts, &op, &[f3 / 100.0, f3, f3 * 100.0]).unwrap();
        let mag = sweep.magnitude(b);
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband {}", mag[0]);
        assert!(
            (mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "-3dB {}",
            mag[1]
        );
        assert!((mag[2] - 0.01).abs() < 2e-4, "stopband {}", mag[2]);
        // Phase at f3dB is -45 degrees.
        let ph = sweep.voltage(1, b).arg().to_degrees();
        assert!((ph + 45.0).abs() < 0.5, "phase {ph}");
    }

    #[test]
    fn vcvs_gain_is_flat() {
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource_ac("V1", a, GND, Waveform::Dc(0.0), 1.0)
            .unwrap();
        c.add_vcvs("E1", b, GND, a, GND, 42.0).unwrap();
        c.add_resistor("RL", b, GND, 1e3).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let sweep = ac(&c, &opts, &op, &log_freqs(1.0, 1e6, 2)).unwrap();
        for m in sweep.magnitude(b) {
            assert!((m - 42.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_freqs_spacing() {
        let f = log_freqs(1.0, 1000.0, 10);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[30] - 1000.0).abs() < 1e-9);
        // Uniform ratio between consecutive points.
        let r0 = f[1] / f[0];
        let r1 = f[16] / f[15];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn unwrapped_phase_has_no_jumps() {
        // Two-pole RC ladder: phase goes to -180°, which wraps in atan2.
        let mut c = Circuit::new();
        let a = c.node("in");
        let m = c.node("mid");
        let b = c.node("out");
        c.add_vsource_ac("V1", a, GND, Waveform::Dc(0.0), 1.0)
            .unwrap();
        c.add_resistor("R1", a, m, 1e3).unwrap();
        c.add_capacitor("C1", m, GND, 1e-6).unwrap();
        c.add_resistor("R2", m, b, 10e3).unwrap();
        c.add_capacitor("C2", b, GND, 1e-6).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let sweep = ac(&c, &opts, &op, &log_freqs(1.0, 1e6, 20)).unwrap();
        let ph = sweep.diff_phase_unwrapped(b, GND);
        for w in ph.windows(2) {
            assert!(
                (w[1] - w[0]).abs() < 1.0,
                "phase jump: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(ph.last().unwrap().to_degrees() < -150.0);
    }

    #[test]
    fn empty_grid_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        assert!(ac(&c, &opts, &op, &[]).is_err());
    }

    /// An RC ladder of `stages` sections driven by a voltage source at the
    /// head, with a current source injecting at the middle node and a
    /// second one between two interior nodes.
    fn driven_ladder(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        let head = c.node("n0");
        c.add_vsource_ac("V1", head, GND, Waveform::Dc(1.0), 0.25)
            .unwrap();
        let mut prev = head;
        let mut nodes = Vec::new();
        for k in 1..=stages {
            let nk = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, nk, 1e3 * k as f64)
                .unwrap();
            c.add_capacitor(&format!("C{k}"), nk, GND, 1e-12 * (1 + k % 3) as f64)
                .unwrap();
            nodes.push(nk);
            prev = nk;
        }
        c.add_resistor("RL", prev, GND, 5e3).unwrap();
        c.add_isource("I1", GND, nodes[stages / 2], Waveform::Dc(0.0))
            .unwrap();
        c.add_isource("I2", nodes[1], nodes[stages - 2], Waveform::Dc(0.0))
            .unwrap();
        c
    }

    /// The multi-excitation sweep must equal, bit for bit, one
    /// `ac_with_workspace` sweep per excitation after `clear_ac_mags` +
    /// `set_ac_mag`.
    fn assert_multi_matches_single(c: &Circuit, excitations: &[&[(&str, f64)]]) {
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(c, &opts).unwrap();
        let freqs = log_freqs(1e3, 1e10, 5);
        let mut ws = NewtonWorkspace::new(c);
        let multi = ac_multi_with_workspace(c, &opts, &op, &freqs, excitations, &mut ws).unwrap();
        assert_eq!(multi.len(), excitations.len());
        for (sources, got) in excitations.iter().zip(&multi) {
            let mut single = c.clone();
            single.clear_ac_mags();
            for &(name, mag) in *sources {
                single.set_ac_mag(name, mag).unwrap();
            }
            let mut ws1 = NewtonWorkspace::new(&single);
            let want = ac_with_workspace(&single, &opts, &op, &freqs, &mut ws1).unwrap();
            assert_eq!(got.freqs(), want.freqs());
            for fi in 0..freqs.len() {
                for node in 0..c.num_nodes() {
                    let (g, w) = (got.voltage(fi, node), want.voltage(fi, node));
                    assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (w.re.to_bits(), w.im.to_bits()),
                        "{sources:?}: point {fi}, node {node}"
                    );
                }
            }
        }
    }

    const LADDER_EXCITATIONS: [&[(&str, f64)]; 4] = [
        &[("V1", 1.0)],
        &[("I1", 1e-3)],
        &[("V1", 0.5), ("I2", -2e-3)],
        &[],
    ];

    /// A resistor clique of `nodes` nodes, each with a capacitor to
    /// ground, driven and excited like [`driven_ladder`]. Every node pair
    /// is coupled, so the assembled system is nearly dense at any size
    /// (density 0.78 at 6 nodes).
    fn driven_clique(nodes: usize) -> Circuit {
        let mut c = Circuit::new();
        let ns: Vec<_> = (0..nodes).map(|k| c.node(&format!("n{k}"))).collect();
        c.add_vsource_ac("V1", ns[0], GND, Waveform::Dc(1.0), 0.25)
            .unwrap();
        for (i, &a) in ns.iter().enumerate() {
            for (j, &b) in ns.iter().enumerate().skip(i + 1) {
                c.add_resistor(&format!("R{i}_{j}"), a, b, 1e3 * (1 + i + j) as f64)
                    .unwrap();
            }
            c.add_capacitor(&format!("C{i}"), a, GND, 1e-12 * (1 + i % 3) as f64)
                .unwrap();
        }
        c.add_resistor("RL", ns[nodes - 1], GND, 5e3).unwrap();
        c.add_isource("I1", GND, ns[nodes / 2], Waveform::Dc(0.0))
            .unwrap();
        c.add_isource("I2", ns[1], ns[nodes - 2], Waveform::Dc(0.0))
            .unwrap();
        c
    }

    #[test]
    fn multi_excitation_sweep_matches_single_sweeps_clique() {
        let c = driven_clique(6);
        assert_multi_matches_single(&c, &LADDER_EXCITATIONS);
    }

    #[test]
    fn multi_excitation_sweep_matches_single_sweeps_ladder() {
        let c = driven_ladder(40);
        assert_multi_matches_single(&c, &LADDER_EXCITATIONS);
    }

    /// The nearly dense clique solves, at every point of a sweep, what the
    /// dense reference elimination solves on the dense reference assembly
    /// of the same `G + jωC` and excitation.
    #[test]
    fn dense_clique_sweep_matches_the_dense_reference() {
        let c = driven_clique(6);
        let n = c.num_unknowns();
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let freqs = log_freqs(1e3, 1e10, 5);
        let sweep = ac(&c, &opts, &op, &freqs).unwrap();
        let mags: Vec<f64> = c
            .devices()
            .iter()
            .map(|dev| match dev {
                Device::VSource { ac_mag, .. } | Device::ISource { ac_mag, .. } => *ac_mag,
                _ => 0.0,
            })
            .collect();
        for (fi, &f) in freqs.iter().enumerate() {
            let mut st = crate::stamp::ComplexStamper::new(&c);
            SmallSignalAssembler {
                circuit: &c,
                op: &op,
                opts: &opts,
                omega: 2.0 * std::f64::consts::PI * f,
            }
            .assemble(&mut st);
            stamp_excitation(&c, &mags, &mut st.z);
            let want = linalg::reference::solve(&st.a, n, &st.z).unwrap();
            let scale = want.iter().fold(0.0_f64, |m, w| m.max(w.abs()));
            for node in 1..c.num_nodes() {
                let (got, want) = (sweep.voltage(fi, node), want[node - 1]);
                assert!(
                    (got - want).abs() <= 1e-12 * scale,
                    "point {fi}, node {node}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn multi_excitation_rejects_non_sources() {
        let c = driven_ladder(6);
        let opts = SimOptions::default();
        let op = crate::analysis::dc::op(&c, &opts).unwrap();
        let mut ws = NewtonWorkspace::new(&c);
        for name in ["R1", "nope"] {
            let err = ac_multi_with_workspace(&c, &opts, &op, &[1e3], &[&[(name, 1.0)]], &mut ws)
                .unwrap_err();
            assert!(
                matches!(err, SpiceError::UnknownDevice { .. }),
                "{name}: {err}"
            );
        }
    }
}
